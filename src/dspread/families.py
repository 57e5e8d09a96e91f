"""Structured graph families and their analytic generalized-distance spectra.

family("kbip", 2, 3) builds a graph, and parse_family("kbip:2,3") builds
the same graph from the CLI's spec syntax; one of more than MAX_FAMILY_ORDER
vertices or MAX_FAMILY_EDGES edges is refused unbuilt. The graphs use a
canonical labeling (clique / first part at the low indices) so positional
partitions line up with the block structure the closed forms assume. Each
closed form returns its descending eigenvalue array and is meant to be
cross-checked against the numeric solver, whose spectrum is the ground truth.
"""

from __future__ import annotations

import math

import numpy as np

from . import graphs
from .graphs import Graph


# the most edges of a family graph, beside graphs.MAX_FAMILY_ORDER:
# `complete:1000` (499,500 edges) runs, `complete:2000` would hold 476 MB
MAX_FAMILY_EDGES = 500_000

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
    MAX_FAMILY_EDGES edges raises ValueError before anything is built."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    arity, in_range, need, size, build = _FAMILIES[kind]
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    if not in_range(*params):
        raise ValueError(need)
    n, m = size(*params)
    if n > graphs.MAX_FAMILY_ORDER or m > MAX_FAMILY_EDGES:
        raise ValueError(f"family graph with {n} vertices and {m} edges exceeds the cap of "
                         f"{graphs.MAX_FAMILY_ORDER} vertices and {MAX_FAMILY_EDGES} edges")
    return Graph.from_edges(n, build(*params))


def parse_family(text: str) -> Graph:
    """The graph of a CLI spec like "complete:4", "kbip:2,3", "split:2,5":
    the kind, a colon and comma-separated ASCII integers, no whitespace."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in _FAMILIES:
        raise ValueError(f"unknown family spec {text!r}")
    params = rest.split(",")
    digits = [p.removeprefix("-") for p in params]
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ValueError(f"non-integer parameter in family spec {text!r}")
    return family(kind, *map(int, params))


def spectrum_complete(n: int, alpha: float) -> np.ndarray:
    """{n-1 once, n*alpha-1 with multiplicity n-1}, descending."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return np.sort(np.repeat([n - 1.0, n * alpha - 1.0], [1, n - 1]))[::-1]


def sigma_complete_bipartite(a: int, n: int, alpha: float) -> float:
    """Discriminant of the two quotient eigenvalues of K_{a,n-a}."""
    return (
        n * n * alpha * alpha
        - (n * n + 2 * a * a - 2 * a * n) * 4.0 * alpha
        + 4.0 * (n * n - 3.0 * a * n + 3.0 * a * a)
    )


def spectrum_complete_bipartite(r: int, s: int, alpha: float) -> np.ndarray:
    """Co-neighbor eigenvalues of both parts plus the two quotient roots,
    descending."""
    if r < 1 or s < 1:
        raise ValueError("r, s >= 1 required")
    root = math.sqrt(max(sigma_complete_bipartite(r, r + s, alpha), 0.0))
    base = alpha * (s + r) + 2.0 * (s + r) - 4.0
    values = [alpha * (2 * r + s) - 2.0, alpha * (2 * s + r) - 2.0,
              (base + root) / 2.0, (base - root) / 2.0]
    return np.sort(np.repeat(values, [r - 1, s - 1, 1, 1]))[::-1]


def spectrum_complete_split(t: int, n: int, alpha: float) -> np.ndarray:
    """Clique and independent-set co-neighbor eigenvalues plus quotient
    roots, descending."""
    if not 1 <= t <= n - 1:
        raise ValueError("1 <= t <= n-1 required")
    theta = (
        (5.0 - 4.0 * alpha) * t * t
        + (6.0 * alpha * n - 8.0 * n - 4.0 * alpha + 6.0) * t
        + n * n * (alpha - 2.0) ** 2
        + 2.0 * n * alpha
        - 4.0 * n
        + 1.0
    )
    root = math.sqrt(max(theta, 0.0))
    base = 2.0 * n - t + alpha * n - 3.0
    values = [alpha * n - 1.0, alpha * (2 * n - t) - 2.0,
              (base + root) / 2.0, (base - root) / 2.0]
    return np.sort(np.repeat(values, [t - 1, n - t - 1, 1, 1]))[::-1]
