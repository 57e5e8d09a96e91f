import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dspread.eigen import (
    perron_vector,
    rayleigh_lower_bound,
    spectral_spread,
    sym_eigen,
)
from dspread.graphs import distance_profile, is_connected
from dspread.matrices import frobenius_sq, generalized_distance_matrix

from conftest import graph_from_mask
from jacobi_oracle import jacobi_eigen

SQ3 = np.sqrt(3.0)


def _symmetrize(m):
    return (m + m.T) / 2


def test_diagonal_matrix_stable_tie_order():
    s = sym_eigen(np.diag([3.0, 2.0, 3.0]))
    assert s.values.tolist() == [3.0, 3.0, 2.0]
    # ties keep original column order: eigenvector columns e0, e2, e1
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(s.vectors, expected)


def test_p3_distance_spectrum(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.0)
    s = sym_eigen(m)
    assert np.allclose(s.values, [1 + SQ3, 1 - SQ3, -2.0], atol=1e-10)
    assert s.values.tolist() == pytest.approx([2.7320508, -0.7320508, -2.0], abs=1e-7)


def test_k4_half_spectrum(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["K4"]), 0.5)
    s = sym_eigen(m)
    assert np.allclose(s.values, [3.0, 1.0, 1.0, 1.0], atol=1e-10)


def test_requires_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        sym_eigen(np.zeros((2, 3)))


def test_stack_matches_each_matrix(zoo):
    ps = [distance_profile(zoo[name]) for name in ("C5", "P5", "K5")]
    alphas = (0.0, 0.3, 1.0)
    stack = np.stack([generalized_distance_matrix(p, alphas) for p in ps])
    batched = sym_eigen(stack, vectors=False).values
    assert batched.shape == (3, 3, 5)
    with_vectors = sym_eigen(stack)
    for i, p in enumerate(ps):
        for j, a in enumerate(alphas):
            m = generalized_distance_matrix(p, a)
            assert np.array_equal(batched[i, j], sym_eigen(m, vectors=False).values)
            alone = sym_eigen(m)
            assert np.array_equal(with_vectors.values[i, j], alone.values)
            assert np.allclose(np.abs(with_vectors.vectors[i, j]), np.abs(alone.vectors))
    # the symmetry check covers every matrix of the stack
    stack[2, 1, 0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        sym_eigen(stack)
    with pytest.raises(ValueError, match="square"):
        sym_eigen(np.zeros((2, 3, 4)))


def test_zero_and_single():
    assert sym_eigen(np.zeros((3, 3))).values.tolist() == [0.0, 0.0, 0.0]
    s = sym_eigen(np.array([[0.0]]))
    assert s.values.tolist() == [0.0]
    assert spectral_spread(s) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        (6, 6),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
)
def test_matches_lapack_oracle(raw):
    m = _symmetrize(raw)
    ours = sym_eigen(m, vectors=False).values
    ref = jacobi_eigen(m, vectors=False).values
    scale = max(1.0, np.abs(ref).max())
    assert np.allclose(ours, ref, atol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        (5, 5),
        elements=st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
)
def test_residuals_and_orthonormality(raw):
    m = _symmetrize(raw)
    s = sym_eigen(m)
    ref = jacobi_eigen(m, vectors=False).values
    scale = max(1.0, float(np.linalg.norm(m)))
    for i in range(5):
        res = np.linalg.norm(m @ s.vectors[:, i] - ref[i] * s.vectors[:, i])
        assert res <= 1e-9 * scale
    assert np.allclose(s.vectors.T @ s.vectors, np.eye(5), atol=1e-10)


@given(n=st.integers(2, 8), mask=st.integers(0, 2**28 - 1), alpha=st.floats(0, 1))
@settings(max_examples=80, deadline=None)
def test_trace_and_power_sum_identities(n, mask, alpha):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if not is_connected(g):
        return
    p = distance_profile(g)
    m = generalized_distance_matrix(p, alpha)
    vals = sym_eigen(m, vectors=False).values
    tr = 2 * alpha * p.wiener
    assert abs(vals.sum() - tr) <= 1e-9 * max(1.0, abs(tr))
    f2 = frobenius_sq(m)
    assert abs((vals**2).sum() - f2) <= 1e-9 * max(1.0, f2)
    # positive semidefinite on the upper half of the alpha range
    if alpha >= 0.5:
        assert vals[-1] >= -1e-9
    # extreme-eigenvalue envelope from the transmission diagonal
    d0 = sym_eigen(generalized_distance_matrix(p, 0.0), vectors=False).values
    tmin, tmax = float(p.tr.min()), float(p.tr.max())
    assert alpha * tmin + (1 - alpha) * d0[0] <= vals[0] + 1e-9
    assert vals[0] <= alpha * tmax + (1 - alpha) * d0[0] + 1e-9


def test_transmission_regular_shift(zoo):
    # for transmission-regular graphs every eigenvalue is k*alpha + (1-alpha)*rho_i
    for name in ("C4", "C5", "C6", "K5"):
        p = distance_profile(zoo[name])
        k = int(p.tr[0])
        rho = sym_eigen(generalized_distance_matrix(p, 0.0), vectors=False).values
        for alpha in (0.25, 0.5, 0.9):
            vals = sym_eigen(generalized_distance_matrix(p, alpha), vectors=False).values
            assert np.allclose(vals, k * alpha + (1 - alpha) * rho, atol=1e-9)


def test_spread_values(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.0)
    assert spectral_spread(sym_eigen(m)) == pytest.approx(3 + SQ3, abs=1e-10)
    for n, alpha in [(4, 0.5), (6, 0.25)]:
        from dspread.families import FamilySpec, generate

        g = generate(FamilySpec("complete", (n,)))
        m = generalized_distance_matrix(distance_profile(g), alpha)
        assert spectral_spread(sym_eigen(m)) == pytest.approx((1 - alpha) * n, abs=1e-10)


def test_perron_complete(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["K4"]), 0.0)
    v = perron_vector(m)
    assert np.allclose(v, np.full(4, 0.5), atol=1e-10)


def test_perron_c4(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["C4"]), 0.0)
    assert np.allclose(perron_vector(m), np.full(4, 0.5), atol=1e-10)


def test_perron_rejects_reducible(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 1.0)
    with pytest.raises(ValueError, match="positive"):
        perron_vector(m)


def test_rayleigh_lower_bound(zoo):
    p4 = distance_profile(zoo["K4"])
    assert rayleigh_lower_bound(p4) == pytest.approx(3.0)
    top = sym_eigen(generalized_distance_matrix(p4, 0.0), vectors=False).values[0]
    assert top == pytest.approx(3.0, abs=1e-10)  # equality: transmission regular

    p3 = distance_profile(zoo["P3"])
    assert rayleigh_lower_bound(p3) == pytest.approx(8 / 3)
    top = sym_eigen(generalized_distance_matrix(p3, 0.0), vectors=False).values[0]
    assert rayleigh_lower_bound(p3) <= top

    c4 = distance_profile(zoo["C4"])
    top = sym_eigen(generalized_distance_matrix(c4, 0.0), vectors=False).values[0]
    assert rayleigh_lower_bound(c4) == pytest.approx(top, abs=1e-10)
