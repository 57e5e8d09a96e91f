"""The paper's closed-form generalized-distance spectra of complete,
complete bipartite and complete split graphs: a test oracle, since no
command calls them.

Each closed form returns its descending eigenvalue array and is meant to be
cross-checked against the numeric solver, whose spectrum is the ground
truth. The graphs of dspread.families use the canonical labeling these
forms assume.
"""

from __future__ import annotations

import math

import numpy as np


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
