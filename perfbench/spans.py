"""Outside-in tracing of dspread's layers.

Tracer.install() wraps each function in LAYERS by object identity, in every
``dspread.*`` module namespace that binds it (classes are wrapped at their
``__init__``, methods on their class), so calls are seen whichever module
makes them. Each call becomes a span: layer, parent layer, start, end and
self time, which is the span's duration minus the time of its child spans.
Spans stay in memory until the run ends. Nothing in ``src/`` changes.
"""

from __future__ import annotations

import sys
from time import perf_counter

# The public functions whose call counts and self times the traced run
# reports. `families` is reached only through family specs, which no
# workload uses, so it has no entry.
LAYERS = (
    "graphs.parse_graph6",
    "graphs.distance_profile",
    "graphs.is_connected",
    "graphs.encode_graph6",
    "graphs.is_bipartite",
    "matrices.generalized_distance_matrix",
    "eigen.sym_eigen",
    "bounds.EvalContext",
    "bounds.EvalContext.values",
    "bounds.clique_number",
    "bounds.evaluate_all",
    "corpus.load_corpus",
    "corpus.sweep",
    "jsonfmt.json_text",
    "cli.main",
)
# json_text recurses through its own module global; only the outermost call
# of a nest is a span
OUTERMOST_ONLY = {"jsonfmt.json_text"}
# a per-span count taken from the call: matrix order, bytes rendered, reports
EXTRA = {
    "eigen.sym_eigen": lambda args, kwargs, out: len(args[0] if args else kwargs["m"]),
    "jsonfmt.json_text": lambda args, kwargs, out: len(out.encode("utf-8")),
    "bounds.evaluate_all": lambda args, kwargs, out: len(out),
}


class LayerMissing(RuntimeError):
    """A named layer function does not exist, so its layer would go unmeasured."""


class Tracer:
    def __init__(self):
        self.job = -1  # the job the next spans belong to, set by the caller
        # (job, layer index, parent layer index or -1, start, end, self seconds, extra)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [layer index, child seconds] per open span
        self._open = [0] * len(LAYERS)

    def install(self) -> None:
        """Wrap every layer; raise LayerMissing before wrapping any if one is gone."""
        import dspread.cli  # noqa: F401  (imports every module the layers live in)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "dspread" or name.startswith("dspread.")]
        targets = [self._resolve(name) for name in LAYERS]
        for idx, (owner, attr, fn) in enumerate(targets):
            if isinstance(fn, type):
                fn.__init__ = self._wrap(idx, fn.__init__)
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(idx, fn))
            else:
                wrapper = self._wrap(idx, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)

    @staticmethod
    def _resolve(name: str):
        module, *path = name.split(".")
        owner = sys.modules.get(f"dspread.{module}")
        fn = owner
        for attr in path:
            owner, fn = fn, getattr(fn, attr, None)
        if owner is None or not callable(fn):
            raise LayerMissing(f"dspread has no {name}; refusing to drop its layer")
        return owner, path[-1], fn

    def _wrap(self, idx: int, fn):
        tracer, spans, stack, active = self, self.spans, self._stack, self._open
        outermost_only = LAYERS[idx] in OUTERMOST_ONLY
        extra_of = EXTRA.get(LAYERS[idx])

        def traced(*args, **kwargs):
            if outermost_only and active[idx]:
                return fn(*args, **kwargs)
            frame = [idx, 0.0]
            stack.append(frame)
            active[idx] += 1
            out, extra = None, 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                active[idx] -= 1
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += t1 - t0
                if extra_of is not None and out is not None:
                    extra = extra_of(args, kwargs, out)
                spans.append((tracer.job, idx, parent[0] if parent else -1,
                              t0, t1, t1 - t0 - frame[1], extra))

        return traced

    def summary(self) -> dict:
        """Calls and self seconds per layer, plus the counts the ratios need."""
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        extra = [0] * len(LAYERS)
        sum_n3 = 0
        solve = LAYERS.index("eigen.sym_eigen")
        values = LAYERS.index("bounds.EvalContext.values")
        solves_under_values = 0
        for _job, idx, parent, _t0, _t1, own, ex in self.spans:
            calls[idx] += 1
            self_s[idx] += own
            extra[idx] += ex
            if idx == solve:
                sum_n3 += ex ** 3
                solves_under_values += parent == values
        return {
            "calls": dict(zip(LAYERS, calls)),
            "self_s": dict(zip(LAYERS, self_s)),
            "sum_n3": sum_n3,
            "solves_under_values": solves_under_values,
            "reports_built": extra[LAYERS.index("bounds.evaluate_all")],
            "output_bytes": extra[LAYERS.index("jsonfmt.json_text")],
        }

    def write(self, path) -> None:
        """Dump every span as tab-separated text, one line per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("job\tlayer\tparent\tstart\tend\tself_s\textra\n")
            for job, idx, parent, t0, t1, own, ex in self.spans:
                fh.write(f"{job}\t{LAYERS[idx]}\t{LAYERS[parent] if parent >= 0 else ''}"
                         f"\t{t0:.9f}\t{t1:.9f}\t{own:.9f}\t{ex}\n")
