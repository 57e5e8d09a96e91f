import math
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dspread import cliques as cliques_mod
from dspread.bounds import (
    BOUND_IDS,
    CLAIMED,
    PROVEN,
    EvalContext,
    check_edge_deletion_monotonicity,
    check_interlacing,
    clique_number,
    evaluate,
    evaluate_all,
    evaluate_bound,
    independence_number,
)
from dspread.cliques import CLIQUE_BUDGET_SPENT, INDEPENDENCE_BUDGET_SPENT, SearchBudgetExceeded
from dspread.eigen import sym_eigen
from dspread.families import generate, parse_family
from dspread.graphs import Graph, distance_profile, is_connected, parse_graph6
from dspread.matrices import generalized_distance_matrix, quotient_eigenvalues

from conftest import connected_graph_from_mask, graph_from_mask

GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


# --- clique / independence ---


def test_clique_independence_small(zoo):
    assert clique_number(zoo["K23"])[0] == 2
    assert independence_number(zoo["K23"])[0] == 3
    assert clique_number(zoo["C5"])[0] == 2
    assert independence_number(zoo["C5"])[0] == 2


def test_clique_split_graph(zoo):
    omega, maxima = clique_number(zoo["CS25"])
    assert omega == 3
    # the 2-clique extends by any of the three independent vertices
    assert maxima == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert independence_number(zoo["CS25"])[0] == 3


def test_clique_cap(monkeypatch):
    # the search stops after SEARCH_BUDGET nodes, whatever the order
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", 20)
    g = Graph.from_edges(45, [(i, i + 1) for i in range(44)])
    nodes = {}
    with pytest.raises(SearchBudgetExceeded, match=CLIQUE_BUDGET_SPENT):
        clique_number(g, nodes=nodes)
    assert nodes == {"clique": 20}


def _brute_clique(g):
    best = 1
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = max(best, size)
    return best


def _brute_independence(g):
    best = 1
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if not any(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = max(best, size)
    return best


def _brute_maximum_cliques(g):
    """Every maximum clique, in lexicographic order, by exhaustion."""
    for size in range(g.n, 0, -1):
        found = [sub for sub in combinations(range(g.n), size)
                 if all(g.has_edge(u, v) for u, v in combinations(sub, 2))]
        if found:
            return found


@given(n=st.integers(2, 7), mask=st.integers(0, 2**21 - 1))
@settings(max_examples=60, deadline=None)
def test_clique_against_exhaustive_oracle(n, mask):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    omega, maxima = clique_number(g)
    assert omega == _brute_clique(g)
    assert maxima == _brute_maximum_cliques(g)
    assert independence_number(g)[0] == _brute_independence(g)


def test_maximum_clique_list_above_the_small_candidate_switch():
    # the complete 5-partite graph with parts of 3 has 3**5 maximum cliques,
    # found by the colouring branch and returned in lexicographic order
    g = Graph.from_edges(15, [(u, v) for u in range(15) for v in range(u + 1, 15)
                              if u % 5 != v % 5])
    assert g.n > cliques_mod.SMALL_CANDIDATES
    omega, maxima = clique_number(g)
    assert omega == 5
    assert len(maxima) == 3 ** 5
    assert maxima == _brute_maximum_cliques(g)


@given(n=st.integers(1, 9), mask=st.integers(0, 2**36 - 1))
@settings(max_examples=60, deadline=None)
def test_independence_set_is_a_maximum_independent_set(n, mask):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    t, chosen = independence_number(g)
    assert t == _brute_independence(g)
    assert len(chosen) == len(set(chosen)) == t
    assert not any(g.has_edge(u, v) for u, v in combinations(chosen, 2))


def test_independence_cap(monkeypatch):
    # the complement of 41 isolated vertices is K41: one 42-node descent
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", 20)
    nodes = {}
    with pytest.raises(SearchBudgetExceeded, match=INDEPENDENCE_BUDGET_SPENT):
        independence_number(Graph(n=41, edges=frozenset()), nodes=nodes)
    assert nodes == {"independence": 20}


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # a 300-clique, searched with 60 frames to spare above this test
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        omega, maxima = clique_number(generate(parse_family("complete:300")))
        alpha = independence_number(generate(parse_family("star:300")))[0]
    finally:
        sys.setrecursionlimit(limit)
    assert (omega, maxima, alpha) == (300, [tuple(range(300))], 299)


@given(n=st.integers(2, 16), mask=st.integers(0, 2**120 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_searches_invariant_under_relabeling(n, mask, data):
    g = connected_graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if g is None:
        return
    perm = data.draw(st.permutations(range(n)))
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])

    def invariants(graph):
        omega, maxima = clique_number(graph)
        tr = distance_profile(graph).tr.tolist()
        return (omega, independence_number(graph)[0],
                sorted(sum(tr[v] for v in cl) for cl in maxima))

    assert invariants(g) == invariants(h)


# --- single-bound examples ---


def test_thm25_equality_on_k4(zoo):
    r = evaluate_bound("thm25_lower", zoo["K4"], 0.5)
    assert r["bound"] == pytest.approx(2.0, abs=1e-10)
    assert r["actual"] == pytest.approx(2.0, abs=1e-10)
    assert r["holds"] and r["equality"]


def test_thm210_on_k4(zoo):
    r = evaluate_bound("thm210_upper", zoo["K4"], 0.0)
    assert r["bound"] == pytest.approx(math.sqrt(24), abs=1e-10)
    assert r["actual"] == pytest.approx(4.0, abs=1e-10)
    assert r["holds"] and not r["equality"]


def test_thm38_equality_on_p3(zoo):
    r = evaluate_bound("thm38_bipartite_lower", zoo["P3"], 0.0)
    assert r["bound"] == pytest.approx(3 + math.sqrt(3), abs=1e-10)
    assert r["equality"]


def test_thm41_complete_branch(zoo):
    r = evaluate_bound("thm41_clique_lower", zoo["K4"], 0.25)
    assert r["bound"] == pytest.approx(3.0)
    assert r["equality"]


def test_ineq24_equality_on_transmission_regular(zoo):
    lo = evaluate_bound("ineq24_radius_lower", zoo["C4"], 0.0)
    hi = evaluate_bound("ineq24_radius_upper", zoo["C4"], 0.0)
    assert lo["bound"] == pytest.approx(hi["bound"])
    assert lo["equality"] and hi["equality"]


def test_unknown_bound_id(zoo):
    with pytest.raises(KeyError):
        evaluate_bound("thm99", zoo["K4"], 0.5)


def test_alpha_validation(zoo):
    with pytest.raises(ValueError):
        evaluate_all(zoo["K4"], 1.5)


def test_disconnected_rejected():
    from dspread.graphs import Graph

    with pytest.raises(ValueError, match="connected"):
        evaluate_all(Graph.from_edges(3, [(0, 1)]), 0.5)


# --- evaluate_all shape and applicability ---


def test_registry_ids():
    assert set(BOUND_IDS) == {
        "thm24_lower",
        "thm24_upper",
        "ineq24_radius_lower",
        "ineq24_radius_upper",
        "ineq25_smallest_lower",
        "ineq25_smallest_upper",
        "thm25_lower",
        "thm26_lower",
        "cor27_lower",
        "thm28_lower",
        "mirsky_upper",
        "thm210_upper",
        "halfrange_radius_upper",
        "thm35_bipartite_lower",
        "thm38_bipartite_lower",
        "thm41_clique_lower",
        "thm43_independence_lower",
    }


def test_not_bipartite_reason(zoo):
    by_id = {r["bound_id"]: r for r in evaluate_all(zoo["K3"], 0.0)}
    for bid in ("thm35_bipartite_lower", "thm38_bipartite_lower"):
        assert not by_id[bid]["applicable"]
        assert by_id[bid]["reason"] == "not bipartite"


def test_alpha_gate_reason(zoo):
    by_id = {r["bound_id"]: r for r in evaluate_all(zoo["C4"], 0.3)}
    for bid in ("thm38_bipartite_lower", "thm43_independence_lower"):
        assert not by_id[bid]["applicable"]
        assert "alpha outside" in by_id[bid]["reason"]
    assert not by_id["halfrange_radius_upper"]["applicable"]


_N2, _N3 = "requires n >= 2", "requires n >= 3"
_HALF, _ZERO_OR_HALF = "alpha outside [1/2,1]", "alpha outside {0} and [1/2,1]"
_SPECIAL = ("thm35_bipartite_lower", "thm38_bipartite_lower", "thm41_clique_lower",
            "thm43_independence_lower")


@pytest.mark.parametrize("graph, alpha, expected", [
    # n = 1: every entry fails its order first
    ("@", 0.3, [(b, _N2) for b in BOUND_IDS[:13]] + [(b, _N3) for b in _SPECIAL]),
    # K2: order before the alpha domain (thm38, thm43)
    ("A_", 0.3, [("halfrange_radius_upper", _HALF)] + [(b, _N3) for b in _SPECIAL]),
    # K3: "not bipartite" before the alpha domain (thm38)
    ("Bw", 0.3, [("halfrange_radius_upper", _HALF), ("thm35_bipartite_lower", "not bipartite"),
                 ("thm38_bipartite_lower", "not bipartite"),
                 ("thm43_independence_lower", "independence number < 2")]),
    # n = 45, both searches out of a 20-node budget: the search before the
    # alpha domain (thm43)
    ("path:45", 0.3, [("halfrange_radius_upper", _HALF),
                      ("thm38_bipartite_lower", _ZERO_OR_HALF),
                      ("thm41_clique_lower", CLIQUE_BUDGET_SPENT),
                      ("thm43_independence_lower", INDEPENDENCE_BUDGET_SPENT)]),
    ("C~", 0.5, [("thm35_bipartite_lower", "not bipartite"),
                 ("thm38_bipartite_lower", "not bipartite"),
                 ("thm43_independence_lower", "independence number < 2")]),
])
def test_reason_order(graph, alpha, expected, monkeypatch):
    # every other case finishes both searches well inside 20 nodes
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", 20)
    g = generate(parse_family(graph)) if ":" in graph else parse_graph6(graph)
    reports = evaluate_all(g, alpha)
    assert [(r["bound_id"], r["reason"]) for r in reports if not r["applicable"]] == expected


def test_one_report_per_entry(zoo):
    reports = evaluate_all(zoo["K23"], 0.5)
    assert [r["bound_id"] for r in reports] == list(BOUND_IDS)


def test_reports_hold_plain_python_values(zoo, monkeypatch):
    # the JSON writer's fast path dispatches on exact bool/float/str/None;
    # both searches on the 45-path run out of a 20-node budget
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", 20)
    path45 = Graph.from_edges(45, [(i, i + 1) for i in range(44)])
    ev = evaluate([EvalContext(path45), EvalContext(zoo["K13"])], [0.1])
    kinds = set()
    for g in range(2):
        for r in ev.reports(g, 0):
            for name, value in r.items():
                assert type(value) in (bool, float, str, type(None)), (r["bound_id"], name)
            budget = r["reason"] in (CLIQUE_BUDGET_SPENT, INDEPENDENCE_BUDGET_SPENT)
            kinds.add("budget" if budget else
                      r["status"] if r["applicable"] else "inapplicable")
    assert kinds == {"budget", "inapplicable", PROVEN, CLAIMED}


def test_entry_and_discrepancy_key_order(zoo):
    # the key order of the `bounds` JSON entries and discrepancies
    ev = evaluate([EvalContext(zoo["K13"])], [0.1])
    by_id = {r["bound_id"]: r for r in ev.reports(0, 0)}
    applicable, inapplicable = by_id["thm35_bipartite_lower"], by_id["thm38_bipartite_lower"]
    assert applicable["applicable"] and not inapplicable["applicable"]
    keys = ["bound_id", "direction", "bound", "actual", "holds", "gap", "equality",
            "applicable", "reason", "status"]
    assert list(applicable) == list(inapplicable) == keys
    assert [list(d) for d in ev.discrepancies(0, 0)] == [
        ["bound_id", "kind", "claimed", "actual", "gap"]]


def test_single_vertex_all_inapplicable():
    from dspread.graphs import Graph

    reports = evaluate_all(Graph(n=1, edges=frozenset()), 0.5)
    assert all(not r["applicable"] for r in reports)


# --- soundness on the zoo ---


def test_zoo_soundness(zoo):
    for g in zoo.values():
        ctx = EvalContext(g)
        for alpha in GRID:
            reports = evaluate_all(g, alpha, ctx=ctx)
            violated = [r for r in reports if r["status"] == PROVEN and r["holds"] is False]
            assert [r["bound_id"] for r in violated] == []


def test_thm24_envelope_zero_width_on_transmission_regular(zoo):
    for name in ("C4", "C5", "C6", "K5"):
        for alpha in GRID:
            lo = evaluate_bound("thm24_lower", zoo[name], alpha)
            hi = evaluate_bound("thm24_upper", zoo[name], alpha)
            assert hi["bound"] - lo["bound"] == pytest.approx(0.0, abs=1e-9)
            assert lo["equality"] and hi["equality"]


def test_thm25_equality_characterizes_completeness(zoo):
    for name, g in zoo.items():
        complete = g.edge_count == g.n * (g.n - 1) // 2
        for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9):  # alpha=1 degenerates
            r = evaluate_bound("thm25_lower", g, alpha)
            assert r["equality"] == complete, (name, alpha)


def test_thm26_equality_needs_n_alpha_at_least_one(zoo):
    for name, g in zoo.items():
        complete = g.edge_count == g.n * (g.n - 1) // 2
        for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9):
            r = evaluate_bound("thm26_lower", g, alpha)
            expected = complete and g.n * alpha >= 1.0
            assert r["equality"] == expected, (name, alpha)


def test_halfrange_equality_iff_zero_smallest(zoo):
    for g in zoo.values():
        for alpha in (0.5, 0.75, 1.0):
            r = evaluate_bound("halfrange_radius_upper", g, alpha)
            ctx = EvalContext(g)
            smallest = ctx.values(alpha)[-1]
            assert r["equality"] == (abs(smallest) <= 1e-6)


def test_mirsky_equals_thm210_dual_route(zoo):
    # same inequality assembled from the matrix vs from the profile sums
    for g in zoo.values():
        for alpha in GRID:
            m = evaluate_bound("mirsky_upper", g, alpha)
            t = evaluate_bound("thm210_upper", g, alpha)
            assert m["bound"] == pytest.approx(t["bound"], rel=1e-9)


def test_thm210_equality_condition(zoo):
    # when the equality flag fires, every middle eigenvalue must sit at the
    # midpoint of the extremes
    hits = 0
    for g in zoo.values():
        ctx = EvalContext(g)
        for alpha in GRID:
            r = evaluate_bound("thm210_upper", g, alpha, ctx=ctx)
            if not r["equality"]:
                continue
            hits += 1
            vals = ctx.values(alpha)
            mid = (vals[0] + vals[-1]) / 2
            assert np.all(np.abs(vals[1:-1] - mid) <= 1e-6)
    assert hits  # complete graphs at alpha = 1 and K2 at alpha = 0 qualify


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        (5, 5),
        elements=st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
)
def test_mirsky_generic_symmetric(raw):
    # the spread inequality holds for arbitrary symmetric matrices
    m = (raw + raw.T) / 2
    vals = sym_eigen(m)
    spread = vals[0] - vals[-1]
    bound = math.sqrt(max(2 * (m**2).sum() - 2 / 5 * np.trace(m) ** 2, 0.0))
    assert spread <= bound + 1e-8


# --- quotient-derived bounds against explicit quotients ---


def test_thm41_matches_explicit_quotient(zoo):
    for name in ("CS25", "CS22", "C5", "K23"):
        g = zoo[name]
        omega, maxima = clique_number(g)
        if omega < 2 or omega == g.n:
            continue
        p = distance_profile(g)
        for alpha in (0.0, 0.4, 0.75, 1.0):
            m = generalized_distance_matrix(p, alpha)
            best = 0.0
            for cl in maxima:
                rest = [v for v in range(g.n) if v not in cl]
                q = quotient_eigenvalues(m, [list(cl), rest])
                best = max(best, q[0] - q[-1])
            r = evaluate_bound("thm41_clique_lower", g, alpha)
            assert r["bound"] == pytest.approx(best, abs=1e-9)


def _explicit_thm35(g, alpha):
    """The best quotient spread of a maximum-degree vertex with its
    neighbours against the rest, from the matrix itself."""
    m = generalized_distance_matrix(distance_profile(g), alpha)
    degs = [len(nbrs) for nbrs in g.adjacency]
    best = 0.0
    for v in [v for v in range(g.n) if degs[v] == max(degs)]:
        blk = [v, *g.adjacency[v]]
        q = quotient_eigenvalues(m, [blk, [w for w in range(g.n) if w not in blk]])
        best = max(best, q[0] - q[-1])
    return best


def test_thm35_matches_explicit_quotient(zoo):
    for name in ("K23", "C6", "P5", "P4"):
        g = zoo[name]
        if max(len(nbrs) for nbrs in g.adjacency) > g.n - 2:
            continue
        for alpha in (0.0, 0.4, 0.75, 1.0):
            r = evaluate_bound("thm35_bipartite_lower", g, alpha)
            assert r["bound"] == pytest.approx(_explicit_thm35(g, alpha), abs=1e-9)


@given(st.lists(st.tuples(st.integers(2, 7), st.integers(0, 2**49 - 1)), min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_thm35_matches_explicit_quotient_in_mixed_blocks(shapes):
    # bipartite graphs of several orders in one block. Each has parts
    # 0..r-1 and r..2r-1 joined by a zigzag path and edges drawn in mirror
    # pairs, so swapping the parts is an automorphism: connected, at least
    # two vertices of each degree, and none adjacent to all others
    block = []
    for r, mask in shapes:
        pairs = [(i, j) for i in range(r) for j in range(i, r)
                 if j - i <= 1 or (mask >> (i * 7 + j)) & 1]
        block.append(Graph.from_edges(2 * r, [e for i, j in pairs for e in ((i, r + j), (j, r + i))]))
    assume(len({g.n for g in block}) >= 2)
    alphas = (0.0, 0.4, 0.75, 1.0)
    ev = evaluate([EvalContext(g) for g in block], alphas)
    i = BOUND_IDS.index("thm35_bipartite_lower")
    for k, g in enumerate(block):
        for j, alpha in enumerate(alphas):
            assert ev.applicable[i, k, j]
            assert ev.bound[i, k, j] == pytest.approx(_explicit_thm35(g, alpha), abs=1e-9)


# --- claimed branches: pinned counterexamples ---


def test_thm38_halfrange_counterexample_c4(zoo):
    ev = evaluate([EvalContext(zoo["C4"])], [0.5])
    i = BOUND_IDS.index("thm38_bipartite_lower")
    r = ev.reports(0, 0)[i]
    assert r["status"] == CLAIMED
    assert r["actual"] == pytest.approx(3.0, abs=1e-9)
    assert r["bound"] > r["actual"] + 0.25  # bound 3.2808 beats the spread
    assert not r["holds"]
    assert not ev.violated[i, 0, 0]  # claimed misses never count as violations
    assert ev.discrepancies(0, 0)[0]["bound_id"] == "thm38_bipartite_lower"


def test_thm43_halfrange_counterexample_diamond(zoo):
    ev = evaluate([EvalContext(zoo["CS22"])], [0.5])
    r = ev.reports(0, 0)[BOUND_IDS.index("thm43_independence_lower")]
    assert r["status"] == CLAIMED
    assert r["actual"] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-9)
    assert not r["holds"]
    assert "thm43_independence_lower" in [d["bound_id"] for d in ev.discrepancies(0, 0)]


def test_thm43_zero_alpha_equality_on_split_graphs(zoo):
    for name in ("CS25", "CS22", "K13"):
        r = evaluate_bound("thm43_independence_lower", zoo[name], 0.0)
        assert r["status"] == PROVEN
        assert r["equality"], name


def test_thm35_star_claim_discrepancy(zoo):
    ev = evaluate([EvalContext(zoo["K13"])], [0.1])
    i = BOUND_IDS.index("thm35_bipartite_lower")
    r = ev.reports(0, 0)[i]
    assert r["status"] == CLAIMED and ev.exact[i, 0, 0]
    assert r["bound"] == pytest.approx(math.sqrt(24.16), abs=1e-9)
    assert r["actual"] == pytest.approx((4.4 + math.sqrt(24.16)) / 2 + 1.3, abs=1e-9)
    assert r["holds"] and not r["equality"]  # sound as a bound, wrong as an exact value
    d = ev.discrepancies(0, 0)
    assert d and d[0]["kind"] == "exact-value mismatch"


def test_thm35_star_alpha0_exact(zoo):
    r = evaluate_bound("thm35_bipartite_lower", zoo["K13"], 0.0)
    assert r["status"] == PROVEN
    assert r["bound"] == pytest.approx(4 + math.sqrt(7), abs=1e-10)
    assert r["equality"]


# --- interlacing and edge deletion ---


def test_interlacing_quotient(zoo):
    g = zoo["K23"]
    p = distance_profile(g)
    for alpha in (0.0, 0.5, 1.0):
        m = generalized_distance_matrix(p, alpha)
        parent = sym_eigen(m)
        child = quotient_eigenvalues(m, [range(2), range(2, 5)])
        assert check_interlacing(parent, child)


def test_interlacing_child_equals_parent(zoo):
    m = generalized_distance_matrix(distance_profile(zoo["C5"]), 0.25)
    vals = sym_eigen(m)
    assert check_interlacing(vals, vals)


def test_interlacing_rejects_oversized_child():
    with pytest.raises(ValueError):
        check_interlacing(np.array([1.0]), np.array([1.0, 0.0]))


def test_interlacing_detects_failure():
    assert not check_interlacing(np.array([3.0, 1.0, 0.0]), np.array([5.0]))


def test_edge_deletion_monotone(zoo):
    assert check_edge_deletion_monotonicity(zoo["K4"], (0, 1), 0.5)
    assert check_edge_deletion_monotonicity(zoo["C5"], (0, 1), 0.75)
    assert check_edge_deletion_monotonicity(zoo["K33"], (0, 3), 1.0)


def test_edge_deletion_gates(zoo):
    with pytest.raises(ValueError, match="alpha"):
        check_edge_deletion_monotonicity(zoo["K4"], (0, 1), 0.2)
    with pytest.raises(ValueError, match="disconnects"):
        check_edge_deletion_monotonicity(zoo["P4"], (1, 2), 0.75)


# --- relabeling invariance ---


@given(
    n=st.integers(3, 8),
    mask=st.integers(0, 2**28 - 1),
    perm_seed=st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_reports_invariant_under_relabeling(n, mask, perm_seed):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if not is_connected(g):
        return
    perm = list(range(n))
    perm_seed.shuffle(perm)
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    ctx_g, ctx_h = EvalContext(g), EvalContext(h)
    ev_g, ev_h = evaluate([ctx_g], GRID), evaluate([ctx_h], GRID)
    for j, alpha in enumerate(GRID):
        assert np.allclose(ctx_g.values(alpha), ctx_h.values(alpha), rtol=0, atol=1e-9)
        for a, b in zip(ev_g.reports(0, j), ev_h.reports(0, j)):
            assert (a["applicable"], a["holds"], a["equality"]) == (
                b["applicable"], b["holds"], b["equality"])
            if a["applicable"]:
                assert abs(a["bound"] - b["bound"]) <= 1e-9, (a["bound_id"], alpha)
                assert abs(a["actual"] - b["actual"]) <= 1e-9, (a["bound_id"], alpha)


# --- random soundness mini-sweep ---


@given(n=st.integers(3, 9), mask=st.integers(0, 2**36 - 1), alpha=st.sampled_from(GRID))
@settings(max_examples=60, deadline=None)
def test_random_graph_soundness(n, mask, alpha):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if not is_connected(g):
        return
    reports = evaluate_all(g, alpha)
    bad = [r for r in reports if r["status"] == PROVEN and r["holds"] is False]
    assert bad == [], [(r["bound_id"], r["gap"]) for r in bad]
