"""Command-line interface: analyze, bounds, sweep, conjecture.

Non-interactive by design: every command prints one JSON document (or a TSV
table) and exits. Floats are rendered with 12 significant digits, so repeated
invocations with the same numpy/LAPACK build are byte-identical; another
build may move the last digits and noise-level gaps.

Exit codes: 0 success; 2 bad input, that is a graphs.InputError (a graph6
line, family spec, corpus file, tolerance, alpha list or --seed-random value
that cannot be used) or an argparse usage error; 3 any other ValueError, a
failed precondition (disconnected graph, alpha out of range, no connected
--seed-random sample); 4 at least one applicable proven bound violated; 141
stdout closed before the output was written (128 + SIGPIPE, what a shell
reports for a writer that a broken pipe ended).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import corpus as corpus_mod
from .families import parse_family
from . import graphs as graphs_mod
from .graphs import Graph, InputError, parse_graph6
from .jsonfmt import _NON_FINITE, Raw, fmt_float, json_text

SCHEMA_VERSION = 1
EXIT_BROKEN_PIPE = 141


def _cell(x) -> str:
    """A TSV cell: empty for None, lower case for booleans, 12 digits for floats."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    return fmt_float(x) if isinstance(x, float) else str(x)


def _tolerance(flag: Optional[float]) -> float:
    """The bound tolerance: --tol, else SPREAD_TOL, else the registry default.

    A NaN, infinite or negative tolerance would report every bound as
    violated or every bound as holding, so it is an input error.
    """
    if flag is not None:
        value, source = flag, "--tol"
    else:
        raw = os.environ.get("SPREAD_TOL")
        if raw is None:
            return bounds_mod.DEFAULT_TOL
        try:
            value, source = float(raw), "SPREAD_TOL"
        except ValueError:
            raise InputError(f"SPREAD_TOL={raw!r} is not a number") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise InputError(f"{source} must be finite and non-negative, got {value:g}")
    return value


def _parse_alpha_list(text: str) -> list[float]:
    try:
        out = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InputError(f"bad alpha list {text!r}") from None
    if not out:
        raise InputError("empty alpha list")
    return out


def _alphas(args) -> list[float]:
    """The command's alphas: --alpha, else the comma-separated --alpha-grid
    or --alphas list, else corpus.ALPHA_GRID; each must lie in [0, 1]."""
    if getattr(args, "alpha", None) is not None:
        alphas = [args.alpha]
    elif getattr(args, "alphas", None) is not None:
        alphas = _parse_alpha_list(args.alphas)
    else:
        alphas = corpus_mod.ALPHA_GRID
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {a:g}")
    return [a + 0.0 for a in alphas]  # -0 renders as 0


def _resolve_inputs(text: str) -> tuple[Optional[str], list[Graph]]:
    """An input is a corpus file path, a family spec ("kbip:2,3") or a graph6
    string. Only a path holds "/", and graph6 never holds ":" or ".", so an
    existing file, a text with "/", or one with "." and no ":" is a path,
    read even if missing; else a text with ":" is a family spec. Returns
    (desc, graphs); a file has desc None (each graph is described by its graph6
    string). A graph6 string is echoed without the whitespace the parser skips
    (a run after a ">>graph6<<" header becomes one space): it cannot break a TSV row."""
    if os.path.exists(text) or "/" in text or ":" not in text and "." in text:
        return None, corpus_mod.load_corpus(text)
    if ":" in text:
        return text, [parse_family(text)]
    return " ".join(text.split()), [parse_graph6(text)]


def _blocks(graphs: list[Graph]) -> Iterator[list[bounds_mod.EvalContext]]:
    """The EvalContexts of each block of corpus.blocks(); the first block that
    holds a disconnected graph raises "requires connected graph" (exit 3)."""
    for block in corpus_mod.blocks(graphs):
        if any(ctx is None for _, ctx in block):
            raise graphs_mod.DisconnectedGraphError("requires connected graph")
        yield [ctx for _, ctx in block]


def _base_report(desc: Optional[str], ctx: bounds_mod.EvalContext, alpha: float) -> dict:
    profile = ctx.profile
    tr_min, tr_max = int(profile.tr.min()), int(profile.tr.max())
    return {
        "input": desc or ctx.graph.graph6,
        "graph6": ctx.graph.graph6,
        "n": ctx.graph.n,
        "alpha": float(alpha),
        "wiener": profile.wiener,
        "diameter": profile.diameter,
        "transmission_min": tr_min,
        "transmission_max": tr_max,
        "transmission_regular": tr_min if tr_min == tr_max else None,
        "spectrum": ctx.values(alpha).tolist(),
        "spread": ctx.spread(alpha),
    }


# --- analyze ----------------------------------------------------------------


def _cmd_analyze(args) -> tuple[str | dict, int]:
    desc, graphs = _resolve_inputs(args.input)
    alphas = _alphas(args)
    blocks = list(_blocks(graphs))  # every block before any eigensolve
    for ctxs in blocks:
        bounds_mod.solve_spectra(ctxs, alphas)
    reports = [_base_report(desc, ctx, a) for ctxs in blocks for ctx in ctxs for a in alphas]
    if args.format == "tsv":
        rows = ["input\talpha\tn\twiener\tdiameter\tspread\tspectrum"]
        for r in reports:
            spectrum = ",".join(fmt_float(v) for v in r["spectrum"])
            rows.append(
                f"{r['input']}\t{fmt_float(r['alpha'])}\t{r['n']}\t{r['wiener']}"
                f"\t{r['diameter']}\t{fmt_float(r['spread'])}\t{spectrum}"
            )
        return "\n".join(rows), 0
    return {"reports": reports}, 0


# --- bounds -----------------------------------------------------------------


# a `bounds` entry sits at depth 4 of the document: in the bounds list of a
# report of the reports list
_ENTRY_NL = "\n" + "  " * 4
_SLOT = Raw("\0")  # json_text writes a NUL in any string as \u0000


@functools.cache
def _entry_template(e: bounds_mod.Entry, applicable: bool, failed: int, claimed: bool) -> str:
    """The JSON text of a `bounds` entry: the same for every pair where e does
    not apply, and a %-template of bound, actual, holds, gap and equality
    where it does."""
    text = json_text(bounds_mod.entry_report(e, applicable, failed, claimed, *(_SLOT,) * 5))
    text = text.replace("\n", _ENTRY_NL)
    return text.replace("%", "%%").replace("\0", "%s") if applicable else text


def _bounds_texts(ev: bounds_mod.Evaluation) -> list[Raw]:
    """The "bounds" list of each (graph, alpha) pair of ev, in that order, as
    the text json_text gives for Evaluation.reports, built from the arrays."""
    ok = ev.applicable
    if not all(np.isfinite(a[ok]).all() for a in (ev.bound, ev.actual, ev.gap)):
        raise ValueError(_NON_FINITE)

    def flat(a):  # one pair's entries after another
        return np.moveaxis(a, 0, -1).ravel().tolist()

    registry = bounds_mod.REGISTRY
    live = [[_entry_template(e, True, 0, c) for c in (False, True)] for e in registry]
    dead = [[_entry_template(e, False, f, False) for f in range(len(e.checks))]
            for e in registry]
    bound, actual, gap = (map("%.12g".__mod__, flat(a)) for a in (ev.bound, ev.actual, ev.gap))
    holds, equality = (map(("false", "true").__getitem__, flat(a))
                       for a in (ev.holds, ev.equality))
    # joined one pair at a time, so the entries of every pair are never held at once
    entries = (live[i][c] % (b, a, h, g, q) if applicable else dead[i][f]
               for i, applicable, f, c, b, a, h, g, q in zip(
                   itertools.cycle(range(len(registry))), flat(ok), flat(ev.failed),
                   flat(ev.claimed), bound, actual, holds, gap, equality))
    head, sep, tail = "[" + _ENTRY_NL, "," + _ENTRY_NL, _ENTRY_NL[:-2] + "]"
    return [Raw(head + sep.join(itertools.islice(entries, len(registry))) + tail)
            for _ in range(ok[0].size)]


def _cmd_bounds(args) -> tuple[str | dict, int]:
    desc, graphs = _resolve_inputs(args.input)
    alphas = _alphas(args)
    tol = _tolerance(args.tol)
    keys = ("bound_id", "direction", "status", "applicable", "bound", "actual", "gap", "holds",
            "equality", "reason")
    rows, reports, code = ["\t".join(("input", "alpha") + keys)], [], 0
    for ctxs in list(_blocks(graphs)):  # every block before any eigensolve
        ev = bounds_mod.evaluate(ctxs, alphas, tol=tol)
        code = 4 if ev.violated.any() else code
        pairs = [(g, j, desc or ctx.graph.graph6, ctx, a)
                 for g, ctx in enumerate(ctxs) for j, a in enumerate(alphas)]
        if args.format == "tsv":  # one row per entry dict; no report is built
            rows += ["\t".join([name, fmt_float(a)] + [_cell(b[k]) for k in keys])
                     for g, j, name, _, a in pairs for b in ev.reports(g, j)]
            continue
        for (g, j, name, ctx, a), text in zip(pairs, _bounds_texts(ev)):
            base = _base_report(name, ctx, a)
            # null where the search ran out of its node budget
            base["clique_number"] = None if ctx.cliques is None else ctx.cliques[0]
            base["independence_number"] = ctx.independence
            base["bounds"] = text
            base["discrepancies"] = ev.discrepancies(g, j)
            reports.append(base)
    return ("\n".join(rows) if args.format == "tsv" else {"reports": reports}), code


# --- sweep ------------------------------------------------------------------


def _parse_seed_random(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("--seed-random expects n,count,p")
    try:
        n, count, p = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise InputError(f"bad --seed-random value {text!r}") from None
    if n < 1 or count < 0:
        raise InputError(f"--seed-random needs n >= 1 and count >= 0, got {text!r}")
    if not 0.0 < p <= 1.0:  # NaN fails too
        raise InputError(f"--seed-random edge probability must lie in (0, 1], got {text!r}")
    if n > graphs_mod.MAX_FAMILY_ORDER:
        raise InputError(f"--seed-random order {n} exceeds the cap of "
                         f"{graphs_mod.MAX_FAMILY_ORDER} vertices")
    if n * (n - 1) / 2 * p > graphs_mod.MAX_FAMILY_EDGES:  # refused before any draw
        raise InputError(f"--seed-random draws {n * (n - 1) / 2 * p:.0f} edges on average, over "
                         f"the cap of {graphs_mod.MAX_FAMILY_EDGES} edges")
    return n, count, p


def _cmd_sweep(args) -> tuple[str | dict, int]:
    alphas = _alphas(args)
    tol = _tolerance(args.tol)
    # parsed before any graph is read or drawn
    n, count, p = (0, 0, 0.0) if args.seed_random is None else _parse_seed_random(args.seed_random)
    if args.corpus is None and not count:
        raise InputError("nothing to sweep: give --corpus and/or --seed-random")
    if count:  # hopeless draws are refused before the corpus is read (exit 3)
        corpus_mod.check_connected_draws(n, p)
    # the corpus is read whole before any work; the random graphs are drawn
    # as the sweep reaches them
    graphs = itertools.chain([] if args.corpus is None else corpus_mod.load_corpus(args.corpus), (
        corpus_mod.random_connected_graph(n, p, seed=args.seed + i) for i in range(count)))
    doc = {"alphas": alphas, **corpus_mod.sweep(graphs, alphas=alphas, tol=tol)}
    return doc, 4 if doc["violations"] else 0


# --- conjecture -------------------------------------------------------------


def _packaged_corpus(n: int) -> Path:
    path = Path(__file__).with_name("data") / f"bipartite_connected_n{n}.g6"
    if not path.is_file():
        raise InputError(
            f"no packaged corpus for n={n}; supply --corpus with an exhaustive "
            f"connected-bipartite graph6 file"
        )
    return path


def _cmd_conjecture(args) -> tuple[str | dict, int]:
    [alpha] = _alphas(args)
    path = _packaged_corpus(args.n) if args.corpus is None else args.corpus
    return corpus_mod.check_problem_39(corpus_mod.load_corpus(path), args.n, alpha), 0


# --- driver -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dspread",
        description=(
            "Spectra and spectral spread of generalized distance matrices of "
            "connected graphs, with bound verification."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectrum, spread, and distance statistics")
    p.add_argument("input", help="graph6 string, corpus file, or family spec like kbip:2,3")
    alpha = p.add_mutually_exclusive_group()
    alpha.add_argument("--alpha", type=float, default=None)
    alpha.add_argument("--alpha-grid", dest="alphas", metavar="ALPHA_GRID", default=None,
                       help="comma-separated alphas")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("bounds", help="evaluate every registered spread bound")
    p.add_argument("input", help="graph6 string, corpus file, or family spec")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tol", type=float, default=None, help="override SPREAD_TOL / default 1e-8")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("sweep", help="stress the bound registry over a corpus")
    p.add_argument("--corpus", default=None, help="graph6 file, one graph per line")
    p.add_argument("--alphas", default=None, help="comma-separated alphas")
    p.add_argument("--seed-random", default=None, metavar="N,COUNT,P",
                   help="add COUNT random connected graphs of order N, edge prob P")
    p.add_argument("--seed", type=int, default=1, help="base seed for --seed-random")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("conjecture", help="minimum-spread scan of a bipartite corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--corpus", default=None,
                   help="exhaustive connected-bipartite corpus; packaged files cover n <= 6")
    p.set_defaults(fn=_cmd_conjecture)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; an InputError exits 2, any other ValueError 3."""
    args = _build_parser().parse_args(argv)
    try:
        # each command returns a TSV table or the body of its JSON document
        body, code = args.fn(args)
        if isinstance(body, dict):
            body = json_text({"schema_version": SCHEMA_VERSION, "command": args.command, **body})
        for start in range(0, len(body), 1 << 20):  # 1 MB at a time: no encoded copy of it all
            sys.stdout.write(body[start:start + (1 << 20)])
        sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader went away (`dspread ... | head`): point stdout at devnull
        # so the flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:  # InputError is a ValueError, so one clause tests the type
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3


if __name__ == "__main__":
    sys.exit(main())
