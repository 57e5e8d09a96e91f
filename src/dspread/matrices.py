"""The generalized distance matrix D_alpha of a connected graph, as a plain
float64 numpy array, symmetric by construction."""

from __future__ import annotations

import numpy as np

from .graphs import DistanceProfile


def generalized_distance_matrix(profile: DistanceProfile, alpha) -> np.ndarray:
    """alpha * diag(transmissions) + (1 - alpha) * distance matrix.

    A sequence of k alphas gives the (k, n, n) stack of those matrices. The
    profile may be any object with stacked dist and tr arrays: (G, 1, n, n)
    distances and (G, 1, n) transmissions give the (G, k, n, n) stack.
    """
    a = np.asarray(alpha, dtype=float)
    bad = a[~((0.0 <= a) & (a <= 1.0))]
    if bad.size:
        raise ValueError(f"alpha must lie in [0, 1], got {float(bad[0])}")
    m = (1.0 - a)[..., None, None] * profile.dist
    idx = np.arange(profile.tr.shape[-1])
    m[..., idx, idx] = a[..., None] * profile.tr
    return m
