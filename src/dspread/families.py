"""Structured graph families.

family("kbip", 2, 3) builds a graph, and parse_family("kbip:2,3") builds
the same graph from the CLI's spec syntax; one over the caps that
graphs.MAX_FAMILY_ORDER and graphs.MAX_FAMILY_EDGES set on every input graph
is refused unbuilt. The graphs use a
canonical labeling (clique / first part at the low indices) so positional
partitions line up with the block structure of the closed-form spectra in
tests/family_oracle.py.
"""

from __future__ import annotations

from . import graphs
from .graphs import Graph, InputError


# kind -> (arity, parameter range check, message when the check fails,
# the (order, edge count) of the graph, builder of its edges)
_FAMILIES = {
    "complete": (1, lambda n: n >= 1, "complete graph needs n >= 1",
                 lambda n: (n, n * (n - 1) // 2),
                 lambda n: [(u, v) for u in range(n) for v in range(u + 1, n)]),
    "kbip": (2, lambda r, s: r >= 1 and s >= 1, "complete bipartite graph needs r, s >= 1",
             lambda r, s: (r + s, r * s),
             lambda r, s: [(u, r + v) for u in range(r) for v in range(s)]),
    "split": (2, lambda t, n: 1 <= t <= n - 1, "complete split graph needs 1 <= t <= n-1",
              lambda t, n: (n, t * (t - 1) // 2 + t * (n - t)),
              # a clique on 0..t-1, joined to every later vertex
              lambda t, n: [(u, v) for u in range(t) for v in range(u + 1, n)]),
    "path": (1, lambda n: n >= 1, "path needs n >= 1",
             lambda n: (n, n - 1), lambda n: [(i, i + 1) for i in range(n - 1)]),
    "cycle": (1, lambda n: n >= 3, "cycle needs n >= 3",
              lambda n: (n, n), lambda n: [(i, (i + 1) % n) for i in range(n)]),
    "star": (1, lambda n: n >= 2, "star needs n >= 2",
             lambda n: (n, n - 1), lambda n: [(0, v) for v in range(1, n)]),
}


def family(kind: str, *params: int) -> Graph:
    """The named graph, e.g. family("kbip", 2, 3), with canonical vertex
    labeling; an unknown kind, a wrong parameter count, an out-of-range
    parameter or a graph of more than MAX_FAMILY_ORDER vertices or
    MAX_FAMILY_EDGES edges raises InputError before anything is built."""
    if kind not in _FAMILIES:
        raise InputError(f"unknown family kind {kind!r}")
    arity, in_range, need, size, build = _FAMILIES[kind]
    if len(params) != arity:
        raise InputError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    if not in_range(*params):
        raise InputError(need)
    n, m = size(*params)
    if n > graphs.MAX_FAMILY_ORDER or m > graphs.MAX_FAMILY_EDGES:
        raise InputError(f"family graph with {n} vertices and {m} edges exceeds the cap of "
                         f"{graphs.MAX_FAMILY_ORDER} vertices and {graphs.MAX_FAMILY_EDGES} edges")
    return Graph.from_edges(n, build(*params))


def parse_family(text: str) -> Graph:
    """The graph of a CLI spec like "complete:4", "kbip:2,3", "split:2,5":
    the kind, a colon and comma-separated ASCII integers, no whitespace.
    Any other spec, or one that family() refuses, raises InputError."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in _FAMILIES:
        raise InputError(f"unknown family spec {text!r}")
    params = rest.split(",")
    digits = [p.removeprefix("-") for p in params]
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise InputError(f"non-integer parameter in family spec {text!r}")
    try:
        values = [int(p) for p in params]
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise InputError(str(exc)) from None
    return family(kind, *values)
