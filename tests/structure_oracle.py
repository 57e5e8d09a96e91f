"""Structural facts that the paper uses only as proof steps, kept as a test
oracle for acceptance criteria 8 and 9, and every maximum clique of a small
graph by exhaustion.

Eigenvalue interlacing covers the quotient matrix of a vertex partition and
any principal submatrix, such as the induced-path blocks behind thm38 and
thm43; for 1/2 <= alpha <= 1, deleting an edge that keeps the graph
connected never lowers an eigenvalue of D_alpha. No dspread command runs
these checks, so they live beside the tests that use them. Both comparisons
allow dspread.bounds.DEFAULT_TOL.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from dspread.bounds import DEFAULT_TOL, solve_spectra
from dspread.corpus import blocks
from dspread.eigen import sym_eigen
from dspread.graphs import Graph


def remove_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    u, v = edge
    if u > v:
        u, v = v, u
    if (u, v) not in g.edges:
        raise ValueError(f"edge ({u}, {v}) not present")
    return Graph(n=g.n, edges=g.edges - {(u, v)})


def induced_paths(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield every induced 3-vertex path (u, v, w): uv, vw edges, uw a non-edge."""
    for v in range(g.n):
        nbrs = g.adjacency[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                u, w = nbrs[i], nbrs[j]
                if (u, w) not in g.edges:  # adjacency lists are sorted, so u < w
                    yield u, v, w


def maximum_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Every maximum clique, in lexicographic order, by exhaustion."""
    for size in range(g.n, 0, -1):
        found = [sub for sub in combinations(range(g.n), size)
                 if all((u, v) in g.edges for u, v in combinations(sub, 2))]
        if found:
            return found


def check_partition(n: int, blocks: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Validate a vertex partition of 0..n-1 (disjoint, non-empty index
    blocks covering every vertex) and return index arrays."""
    seen: set[int] = set()
    out = []
    for b in blocks:
        idx = list(b)
        if not idx:
            raise ValueError("empty partition block")
        for v in idx:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for order {n}")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two blocks")
            seen.add(v)
        out.append(np.array(idx, dtype=int))
    if len(seen) != n:
        raise ValueError("partition does not cover all vertices")
    return out


def quotient_eigenvalues(m: np.ndarray, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Eigenvalues (descending) of the quotient matrix of a symmetric m.

    The block order fixes the row order of the quotient. Entry (i, j) is the
    total of block (i, j) divided by the size of block i, so it is generally
    non-symmetric; it is similar to the symmetric matrix with entries
    blocksum(i, j) / sqrt(|block i| * |block j|), so its eigenvalues are real
    and the symmetric solver applies.
    """
    m = np.asarray(m, dtype=float)
    idx = check_partition(m.shape[0], blocks)
    r = len(idx)
    c = np.zeros((r, r))
    for i in range(r):
        for j in range(i, r):
            s = m[np.ix_(idx[i], idx[j])].sum()
            c[i, j] = c[j, i] = s / np.sqrt(len(idx[i]) * len(idx[j]))
    return sym_eigen(c)


def check_interlacing(parent_values: np.ndarray, child_values: np.ndarray) -> bool:
    """a_i >= b_i >= a_{n-r+i} within DEFAULT_TOL for descending eigenvalue vectors;
    applies equally to quotient-matrix and principal-submatrix children."""
    a = np.sort(np.asarray(parent_values, dtype=float))[::-1]
    b = np.sort(np.asarray(child_values, dtype=float))[::-1]
    n, r = len(a), len(b)
    if r > n:
        raise ValueError("child order exceeds parent order")
    return bool(np.all(b <= a[:r] + DEFAULT_TOL) and np.all(b >= a[n - r:] - DEFAULT_TOL))


def check_edge_deletion_monotonicity(g: Graph, edge: tuple[int, int], alpha: float) -> bool:
    """True when every eigenvalue weakly increases, within DEFAULT_TOL, after
    deleting the edge.

    Only meaningful for 1/2 <= alpha <= 1 and when the deletion keeps the
    graph connected; out-of-range alpha or a bridge raises ValueError.
    """
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("monotonicity check requires alpha in [1/2, 1]")
    (_, before), (_, smaller) = next(blocks([g, remove_edge(g, edge)]))
    if smaller is None:
        raise ValueError("edge deletion disconnects the graph")
    solve_spectra([before, smaller], [alpha])
    return bool(np.all(smaller.values(alpha) >= before.values(alpha) - DEFAULT_TOL))
