"""Full eigendecomposition of dense real symmetric matrices.

A thin layer over LAPACK's symmetric solvers as shipped with numpy
(``eigvalsh`` for values only, ``eigh`` with vectors). Each call works on a
private copy, so concurrent calls on distinct inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest |m - m.T| entry accepted, relative to max(1, Frobenius norm of m);
# each matrix of a stack is checked on its own
SYMMETRY_TOL = 1e-12


@dataclass
class Spectrum:
    """Eigenvalues sorted descending; optional orthonormal eigenvectors.

    Column i of ``vectors`` pairs with ``values[i]``. Exact ties keep their
    original column order, so repeated runs produce identical output.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.values.shape[-1]


def sym_eigen(m: np.ndarray, vectors: bool = True) -> Spectrum:
    """Diagonalize a symmetric matrix, or each matrix of a ``(..., n, n)``
    stack, with LAPACK.

    Raises ValueError for a non-square input or for any matrix that differs
    from its transpose by more than SYMMETRY_TOL; LAPACK failures raise
    numpy.linalg.LinAlgError, itself a ValueError. A stack gives values of
    shape ``(..., n)`` and vectors of shape ``(..., n, n)``.
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
    if vectors:
        vals, v = np.linalg.eigh(a)
    else:
        vals, v = np.linalg.eigvalsh(a), None
    # LAPACK sorts ascending; a stable sort of the negation keeps tied
    # columns in their ascending order
    order = np.argsort(-vals, axis=-1, kind="stable")
    values = np.take_along_axis(vals, order, axis=-1)
    if v is not None:
        v = np.take_along_axis(v, order[..., None, :], axis=-1)
    return Spectrum(values=values, vectors=v)


def spectral_spread(spectrum: Spectrum) -> float:
    """Largest minus smallest eigenvalue; 0 for a 1x1 matrix."""
    if spectrum.n == 1:
        return 0.0
    return float(spectrum.values[0] - spectrum.values[-1])


def perron_vector(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Positive unit eigenvector of the top eigenvalue.

    Valid for nonnegative irreducible matrices (the generalized distance
    matrix of a connected graph with alpha < 1). If the computed top
    eigenvector has entries that are negative or zero beyond tol, the input
    was not irreducible (e.g. a diagonal matrix at alpha = 1) and a
    ValueError is raised.
    """
    spec = sym_eigen(m, vectors=True)
    v = spec.vectors[:, 0].copy()
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        v = -v
    if np.min(v) <= tol:
        raise ValueError(
            "top eigenvector is not strictly positive; matrix is not irreducible"
        )
    return v / float(np.linalg.norm(v))


def rayleigh_lower_bound(profile) -> float:
    """Lower bound 2W/n on the top eigenvalue; tight exactly on
    transmission-regular graphs (the all-ones Rayleigh quotient)."""
    return 2.0 * profile.wiener / profile.n
