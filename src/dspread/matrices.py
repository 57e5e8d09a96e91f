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


def distance_laplacian(profile: DistanceProfile) -> np.ndarray:
    """diag(transmissions) - distance matrix (all row sums are zero)."""
    m = -profile.dist.astype(float)
    np.fill_diagonal(m, profile.tr.astype(float))
    return m


def distance_signless_laplacian(profile: DistanceProfile) -> np.ndarray:
    """diag(transmissions) + distance matrix."""
    m = profile.dist.astype(float)
    np.fill_diagonal(m, profile.tr.astype(float))
    return m


def trace(m: np.ndarray) -> float:
    return float(np.trace(m))


def frobenius_sq(m: np.ndarray) -> float:
    """Sum of squared entries (squared Frobenius norm)."""
    return float(np.sum(np.asarray(m, dtype=float) ** 2))


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


def quotient_matrix(m: np.ndarray, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Average-row-sum quotient over a vertex partition.

    Entry (i, j) is the total of block (i, j) divided by the size of block i;
    the result is generally non-symmetric when block sizes differ.
    """
    m = np.asarray(m, dtype=float)
    idx = check_partition(m.shape[0], blocks)
    r = len(idx)
    b = np.zeros((r, r))
    for i in range(r):
        for j in range(r):
            b[i, j] = m[np.ix_(idx[i], idx[j])].sum() / len(idx[i])
    return b


def is_equitable(m: np.ndarray, blocks: Sequence[Sequence[int]], tol: float = 1e-9) -> bool:
    """True when every block of the partitioned matrix has constant row sums."""
    m = np.asarray(m, dtype=float)
    idx = check_partition(m.shape[0], blocks)
    for bi in idx:
        for bj in idx:
            sums = m[np.ix_(bi, bj)].sum(axis=1)
            if sums.max() - sums.min() > tol:
                return False
    return True


def quotient_eigenvalues(m: np.ndarray, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Eigenvalues (descending) of the quotient matrix of a symmetric m.

    The quotient is similar to the symmetric matrix with entries
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
    return sym_eigen(c, vectors=False).values


def matrix_to_tsv(m: np.ndarray) -> str:
    """Tab-separated rendering, handy when eyeballing small matrices."""
    return "\n".join("\t".join(f"{x:.12g}" for x in row) for row in np.asarray(m))
