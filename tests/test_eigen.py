import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dspread.eigen import sym_eigen
from dspread.graphs import distance_profile, is_connected
from dspread.matrices import generalized_distance_matrix

from conftest import graph_from_mask
from jacobi_oracle import jacobi_eigen

SQ3 = np.sqrt(3.0)


def _symmetrize(m):
    return (m + m.T) / 2


def _tiny_entries():
    # LAPACK's eigvalsh gave +-4.50008279 instead of +-4.5 here until
    # sym_eigen zeroed entries below eps * |m|_F
    m = np.full((6, 6), 2.19673051e-160)
    m[0, 1] = m[1, 0] = 4.5
    return m


def test_diagonal_matrix_stable_tie_order():
    assert sym_eigen(np.diag([3.0, 2.0, 3.0])).tolist() == [3.0, 3.0, 2.0]


def test_p3_distance_spectrum(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.0)
    s = sym_eigen(m)
    assert np.allclose(s, [1 + SQ3, 1 - SQ3, -2.0], atol=1e-10)
    assert s.tolist() == pytest.approx([2.7320508, -0.7320508, -2.0], abs=1e-7)


def test_k4_half_spectrum(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["K4"]), 0.5)
    assert np.allclose(sym_eigen(m), [3.0, 1.0, 1.0, 1.0], atol=1e-10)


def test_requires_square():
    # LAPACK's LinAlgError is a ValueError
    with pytest.raises(ValueError, match="square"):
        sym_eigen(np.zeros((2, 3)))


def test_stack_matches_each_matrix(zoo):
    ps = [distance_profile(zoo[name]) for name in ("C5", "P5", "K5")]
    alphas = (0.0, 0.3, 1.0)
    stack = np.stack([generalized_distance_matrix(p, alphas) for p in ps])
    batched = sym_eigen(stack)
    assert batched.shape == (3, 3, 5)
    for i, p in enumerate(ps):
        for j, a in enumerate(alphas):
            m = generalized_distance_matrix(p, a)
            assert np.array_equal(batched[i, j], sym_eigen(m))
    with pytest.raises(ValueError, match="square"):
        sym_eigen(np.zeros((2, 3, 4)))


def test_tiny_entry_mask_allocates_no_float_copy():
    # a float64 stack is solved in place and its entries below eps * |m|_F
    # are found with boolean masks: the masks are the only allocation
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((64, 100, 100))
    stack = stack + stack.transpose(0, 2, 1)
    sym_eigen(stack)  # warm-up: numpy and LAPACK set up their buffers
    tracemalloc.start()
    try:
        sym_eigen(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * stack.nbytes


def test_zero_and_single():
    assert sym_eigen(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]
    s = sym_eigen(np.array([[0.0]]))
    assert s.tolist() == [0.0]
    assert s[0] - s[-1] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        (6, 6),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
)
@example(_tiny_entries())
def test_matches_lapack_oracle(raw):
    m = _symmetrize(raw)
    # the oracle first: sym_eigen zeroes the tiny entries of m in place
    ref = jacobi_eigen(m)
    ours = sym_eigen(m)
    scale = max(1.0, np.abs(ref).max())
    assert np.allclose(ours, ref, atol=1e-9 * scale)


@given(n=st.integers(2, 8), mask=st.integers(0, 2**28 - 1), alpha=st.floats(0, 1))
@settings(max_examples=80, deadline=None)
def test_trace_and_power_sum_identities(n, mask, alpha):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if not is_connected(g):
        return
    p = distance_profile(g)
    m = generalized_distance_matrix(p, alpha)
    vals = sym_eigen(m)
    tr = 2 * alpha * p.wiener
    assert abs(vals.sum() - tr) <= 1e-9 * max(1.0, abs(tr))
    f2 = (m * m).sum()
    assert abs((vals**2).sum() - f2) <= 1e-9 * max(1.0, f2)
    # positive semidefinite on the upper half of the alpha range
    if alpha >= 0.5:
        assert vals[-1] >= -1e-9
    # extreme-eigenvalue envelope from the transmission diagonal
    d0 = sym_eigen(generalized_distance_matrix(p, 0.0))
    tmin, tmax = float(p.tr.min()), float(p.tr.max())
    assert alpha * tmin + (1 - alpha) * d0[0] <= vals[0] + 1e-9
    assert vals[0] <= alpha * tmax + (1 - alpha) * d0[0] + 1e-9


def test_transmission_regular_shift(zoo):
    # for transmission-regular graphs every eigenvalue is k*alpha + (1-alpha)*rho_i
    for name in ("C4", "C5", "C6", "K5"):
        p = distance_profile(zoo[name])
        k = int(p.tr[0])
        rho = sym_eigen(generalized_distance_matrix(p, 0.0))
        for alpha in (0.25, 0.5, 0.9):
            vals = sym_eigen(generalized_distance_matrix(p, alpha))
            assert np.allclose(vals, k * alpha + (1 - alpha) * rho, atol=1e-9)


def _spread(m):
    v = sym_eigen(m)
    return v[0] - v[-1]


def test_spread_values(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.0)
    assert _spread(m) == pytest.approx(3 + SQ3, abs=1e-10)
    for n, alpha in [(4, 0.5), (6, 0.25)]:
        from dspread.families import family

        g = family("complete", n)
        m = generalized_distance_matrix(distance_profile(g), alpha)
        assert _spread(m) == pytest.approx((1 - alpha) * n, abs=1e-10)


def test_rayleigh_lower_bound(zoo):
    # 2W/n, the all-ones Rayleigh quotient, bounds the top eigenvalue from
    # below, with equality on transmission-regular graphs
    def rayleigh(p):
        return 2.0 * p.wiener / len(p.tr)

    p4 = distance_profile(zoo["K4"])
    assert rayleigh(p4) == pytest.approx(3.0)
    top = sym_eigen(generalized_distance_matrix(p4, 0.0))[0]
    assert top == pytest.approx(3.0, abs=1e-10)  # equality: transmission regular

    p3 = distance_profile(zoo["P3"])
    assert rayleigh(p3) == pytest.approx(8 / 3)
    top = sym_eigen(generalized_distance_matrix(p3, 0.0))[0]
    assert rayleigh(p3) <= top

    c4 = distance_profile(zoo["C4"])
    top = sym_eigen(generalized_distance_matrix(c4, 0.0))[0]
    assert rayleigh(c4) == pytest.approx(top, abs=1e-10)
