"""Distance-based matrices of a connected graph and quotient machinery.

Matrices are plain float64 numpy arrays, symmetric by construction. Vertex
partitions are sequences of disjoint index blocks covering 0..n-1; the block
order fixes the row order of the quotient.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .eigen import sym_eigen
from .graphs import DistanceProfile


def generalized_distance_matrix(profile: DistanceProfile, alpha) -> np.ndarray:
    """alpha * diag(transmissions) + (1 - alpha) * distance matrix.

    A sequence of k alphas gives the (k, n, n) stack of those matrices.
    """
    a = np.asarray(alpha, dtype=float)
    bad = a[~((0.0 <= a) & (a <= 1.0))]
    if bad.size:
        raise ValueError(f"alpha must lie in [0, 1], got {float(bad[0])}")
    m = (1.0 - a)[..., None, None] * profile.dist
    idx = np.arange(profile.n)
    m[..., idx, idx] = a[..., None] * profile.tr
    return m


def check_partition(n: int, blocks: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Validate a vertex partition of 0..n-1 and return index arrays."""
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

    Entry (i, j) of the quotient is the total of block (i, j) divided by the
    size of block i, so it is generally non-symmetric; it is similar to the symmetric matrix with entries
    blocksum(i, j) / sqrt(|block i| * |block j|), so its eigenvalues are real
    and the symmetric solver applies; no nonsymmetric eigensolver is needed.
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

