import numpy as np
import pytest
from hypothesis import given, strategies as st

from dspread import graphs as graphs_mod
from dspread.corpus import ALPHA_GRID, random_connected_graph
from dspread.eigen import sym_eigen
from dspread.families import family
from dspread.graphs import distance_profile, is_connected
from dspread.matrices import generalized_distance_matrix

from conftest import graph_from_mask
from structure_oracle import quotient_eigenvalues


def test_dalpha_p3_alpha0(zoo):
    p = distance_profile(zoo["P3"])
    m = generalized_distance_matrix(p, 0.0)
    assert m.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_dalpha_p3_alpha1(zoo):
    p = distance_profile(zoo["P3"])
    m = generalized_distance_matrix(p, 1.0)
    assert m.tolist() == [[3, 0, 0], [0, 2, 0], [0, 0, 3]]


def test_dalpha_p3_half(zoo):
    p = distance_profile(zoo["P3"])
    m = generalized_distance_matrix(p, 0.5)
    assert m.tolist() == [[1.5, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 0.5, 1.5]]


def test_dalpha_domain_error(zoo):
    p = distance_profile(zoo["P3"])
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match="alpha"):
            generalized_distance_matrix(p, bad)


def test_dalpha_alpha_sequence_is_a_stack(zoo):
    p = distance_profile(zoo["C5"])
    alphas = (0.0, 0.25, 1.0)
    stack = generalized_distance_matrix(p, alphas)
    assert stack.shape == (3, 5, 5)
    for m, a in zip(stack, alphas):
        assert np.array_equal(m, generalized_distance_matrix(p, a))
    with pytest.raises(ValueError, match="got 1.5"):
        generalized_distance_matrix(p, (0.5, 1.5))


def test_dalpha_equals_its_transpose(monkeypatch):
    # sym_eigen does not check symmetry, so D_alpha must be exactly
    # symmetric at every grid alpha, whichever way its distances were found:
    # matrix products for the random graphs, per-vertex BFS for the others
    products = []
    reach = graphs_mod._reach_distances
    monkeypatch.setattr(graphs_mod, "_reach_distances",
                        lambda *args: products.append(args) or reach(*args))
    graphs = [random_connected_graph(n, 0.5, seed=n) for n in range(2, 41)]
    graphs += [family("cycle", 200), family("path", 100)]
    used_products = []
    for g in graphs:
        products.clear()
        m = generalized_distance_matrix(distance_profile(g), ALPHA_GRID)
        assert np.array_equal(m, np.swapaxes(m, -1, -2)), g.n
        used_products.append(bool(products))
    assert used_products == [True] * 39 + [False, False]


def test_laplacians_p3(zoo):
    p = distance_profile(zoo["P3"])
    # D_1 - D_0 = Tr - D is the distance Laplacian: every row sums to zero
    dl = generalized_distance_matrix(p, 1.0) - generalized_distance_matrix(p, 0.0)
    assert np.allclose(dl.sum(axis=1), 0.0)
    # D_{1/2} is half the distance signless Laplacian Tr + D
    dq = np.diag(p.tr) + p.dist
    assert dq.tolist() == [[3, 1, 2], [1, 2, 1], [2, 1, 3]]
    assert np.allclose(2 * generalized_distance_matrix(p, 0.5), dq)


@given(
    n=st.integers(2, 8),
    mask=st.integers(0, 2**28 - 1),
    alpha=st.floats(0, 1),
    beta=st.floats(0, 1),
)
def test_dalpha_pencil_identity(n, mask, alpha, beta):
    # D_alpha is linear in alpha: D_a - D_b = (a - b) * (D_1 - D_0)
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if not is_connected(g):
        return
    p = distance_profile(g)
    lhs = generalized_distance_matrix(p, alpha) - generalized_distance_matrix(p, beta)
    d0, d1 = generalized_distance_matrix(p, (0.0, 1.0))
    assert np.allclose(lhs, (alpha - beta) * (d1 - d0), atol=1e-12)


def test_trace_and_frobenius(zoo):
    p = distance_profile(zoo["P3"])
    assert np.trace(generalized_distance_matrix(p, 0.5)) == pytest.approx(4.0)  # 2*alpha*W
    m = generalized_distance_matrix(p, 0.0)
    assert (m * m).sum() == pytest.approx(12.0)


@given(n=st.integers(2, 8), mask=st.integers(0, 2**28 - 1), alpha=st.floats(0, 1))
def test_frobenius_formula(n, mask, alpha):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if not is_connected(g):
        return
    p = distance_profile(g)
    m = generalized_distance_matrix(p, alpha)
    d = p.dist.astype(float)
    expected = (1 - alpha) ** 2 * (d**2).sum() + alpha**2 * (p.tr.astype(float) ** 2).sum()
    assert (m * m).sum() == pytest.approx(expected, rel=1e-12)
    assert np.trace(m) == pytest.approx(2 * alpha * p.wiener, abs=1e-9)


def test_quotient_bipartition_closed_form(zoo):
    r, s, alpha = 2, 3, 0.5
    p = distance_profile(zoo["K23"])
    m = generalized_distance_matrix(p, alpha)
    expected = [
        [alpha * s + 2 * r - 2, s * (1 - alpha)],
        [r * (1 - alpha), alpha * r + 2 * s - 2],
    ]
    vals = quotient_eigenvalues(m, [range(r), range(r, r + s)])
    assert np.allclose(vals, np.sort(np.linalg.eigvals(expected).real)[::-1])


def test_quotient_trivial_partition(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["C4"]), 0.0)
    assert quotient_eigenvalues(m, [range(4)]).tolist() == [4.0]


def test_quotient_singletons_identity(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.3)
    assert np.allclose(quotient_eigenvalues(m, [[0], [1], [2]]), sym_eigen(m))


def test_quotient_p3_middle(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.0)
    vals = quotient_eigenvalues(m, [[0, 2], [1]])
    assert np.allclose(vals, [1 + np.sqrt(3), 1 - np.sqrt(3)])


def test_equitable_quotient_values_subset_of_parent(zoo):
    # quotient eigenvalues of an equitable partition appear in the parent
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.0)
    parent = sym_eigen(m)
    for q in quotient_eigenvalues(m, [[0, 2], [1]]):
        assert np.min(np.abs(parent - q)) < 1e-9


def test_partition_validation(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["P3"]), 0.0)
    with pytest.raises(ValueError, match="cover"):
        quotient_eigenvalues(m, [[0], [1]])
    with pytest.raises(ValueError, match="two blocks"):
        quotient_eigenvalues(m, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="empty"):
        quotient_eigenvalues(m, [[0, 1, 2], []])
    with pytest.raises(ValueError, match="out of range"):
        quotient_eigenvalues(m, [[0, 1], [2, 3]])

