"""Eigenvalues of dense real symmetric matrices.

A thin layer over LAPACK's symmetric solver as shipped with numpy
(``eigvalsh``). It trusts its input to be symmetric: the pipeline gives it
D_alpha, which generalized_distance_matrix builds equal to its transpose
(a test pins that). A float64 input is solved in place: its tiny entries
are zeroed in it, so it must be writable and not shared.
"""

from __future__ import annotations

import numpy as np


def sym_eigen(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of a symmetric matrix or of each matrix of a
    ``(..., n, n)`` stack (shape ``(..., n)``), from LAPACK.

    LAPACK reads one triangle only. A non-square input and LAPACK failures
    raise numpy.linalg.LinAlgError, itself a ValueError.

    Entries with |x| <= eps * |m|_F are zeroed first, in m if it is float64:
    LAPACK's scaling loses accuracy on such tiny entries (a 6x6 matrix with
    two entries 4.5 and the rest 2.2e-160 gave +-4.50008 instead of +-4.5),
    and by Weyl's inequality zeroing them moves each eigenvalue by at most
    n * eps * |m|_F, within the solver's own backward error.
    """
    a = np.asarray(m, dtype=float)
    norm = np.sqrt(np.einsum("...ij,...ij->...", a, a))
    t = np.finfo(float).eps * norm[..., None, None]
    a[(a <= t) & (a >= -t)] = 0.0
    # LAPACK sorts ascending; a stable sort of the negation keeps tied
    # values (such as 0.0 and -0.0) in their ascending order
    return -np.sort(-np.linalg.eigvalsh(a), axis=-1, kind="stable")
