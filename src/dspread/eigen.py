"""Eigenvalues of dense real symmetric matrices.

A thin layer over LAPACK's symmetric solver as shipped with numpy
(``eigvalsh``). Each call works on a private copy, so concurrent calls on
distinct inputs are safe.
"""

from __future__ import annotations

import numpy as np

# largest |m - m.T| entry accepted, relative to max(1, Frobenius norm of m);
# each matrix of a stack is checked on its own
SYMMETRY_TOL = 1e-12


def sym_eigen(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of a symmetric matrix or of each matrix of a
    ``(..., n, n)`` stack (shape ``(..., n)``), from LAPACK.

    Raises ValueError for a non-square input or for any matrix that differs
    from its transpose by more than SYMMETRY_TOL; LAPACK failures raise
    numpy.linalg.LinAlgError, itself a ValueError.

    Entries with |x| <= eps * |m|_F are set to zero first: LAPACK's scaling
    loses accuracy on such tiny entries (a 6x6 matrix with two entries 4.5
    and the rest 2.2e-160 gave +-4.50008 instead of +-4.5), and by Weyl's
    inequality zeroing them moves each eigenvalue by at most
    n * eps * |m|_F, within the solver's own backward error.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("square matrix required")
    t = np.swapaxes(a, -1, -2)
    work = np.subtract(a, t)
    np.abs(work, out=work)
    norm = np.sqrt(np.einsum("...ij,...ij->...", a, a))
    if np.any(work.max(axis=(-2, -1), initial=0.0) > SYMMETRY_TOL * np.maximum(norm, 1.0)):
        raise ValueError("symmetric matrix required")
    # the symmetrized matrix goes to LAPACK in the same private buffer
    a = np.add(a, t, out=work)
    a /= 2.0
    a[np.abs(a) <= np.finfo(float).eps * norm[..., None, None]] = 0.0
    # LAPACK sorts ascending; a stable sort of the negation keeps tied
    # values (such as 0.0 and -0.0) in their ascending order
    return -np.sort(-np.linalg.eigvalsh(a), axis=-1, kind="stable")
