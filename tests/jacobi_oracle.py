"""Cyclic Jacobi eigensolver kept as an independent reference for tests.

dspread diagonalizes with LAPACK; comparing it against this plain rotation
sweep checks the library against a different algorithm rather than against
itself. Slow (pure Python loops), so tests use it only on small matrices.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 100


class NotConvergedError(RuntimeError):
    """Jacobi iteration exhausted its sweep budget; carries the residual."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(
            f"no convergence after {sweeps} sweeps; off-diagonal residual {residual:.3e}"
        )
        self.residual = residual


def jacobi_eigen(
    m: np.ndarray, tol: float = DEFAULT_TOL, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> np.ndarray:
    """Eigenvalues, descending, of a symmetric matrix by cyclic Jacobi
    rotations.

    Converged when every off-diagonal magnitude drops below tol times the
    Frobenius norm of the input. Raises NotConvergedError (reporting the
    relative residual) if the sweep cap is hit first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    if float(np.max(np.abs(a - a.T))) > tol * max(norm, 1.0):
        raise ValueError("symmetric matrix required")
    a = (a + a.T) / 2.0
    if n == 1 or norm == 0.0:
        return a.diagonal().copy()

    thresh = tol * norm
    skip = thresh / (8 * n)  # below this a rotation cannot affect convergence
    iu = np.triu_indices(n, 1)
    off = float(np.max(np.abs(a[iu])))
    sweeps = 0
    while off > thresh:
        if sweeps >= max_sweeps:
            raise NotConvergedError(off / norm, sweeps)
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q]
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :]
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                # analytic values of the rotated pivot entries
                a[p, q] = a[q, p] = 0.0
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
        off = float(np.max(np.abs(a[iu])))

    return -np.sort(-a.diagonal())
