import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dspread import bounds as bounds_mod
from dspread import cliques as cliques_mod
from dspread.bounds import (
    BOUND_IDS,
    CLAIMED,
    PROVEN,
    REGISTRY,
    EvalContext,
    clique_number,
    evaluate,
    evaluate_all,
    independence_number,
    solve_spectra,
)
from dspread.cliques import CLIQUE_BUDGET_SPENT, INDEPENDENCE_BUDGET_SPENT
from dspread.corpus import ALPHA_GRID, random_connected_graph
from dspread.eigen import sym_eigen
from dspread.families import family, parse_family
from dspread.graphs import Graph, distance_profile, is_connected, parse_graph6
from dspread.matrices import generalized_distance_matrix

from conftest import connected_graph_from_mask, contexts, evaluate_bound, graph_from_mask
from structure_oracle import (
    check_edge_deletion_monotonicity,
    check_interlacing,
    maximum_cliques,
    quotient_eigenvalues,
)

GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


# --- clique / independence ---


def _transmissions(g):
    return distance_profile(g).tr.tolist()


def _brute_clique_sums(g, weights):
    """The clique number with the least and greatest weight sum over the
    maximum cliques, from the exhaustive list."""
    maxima = maximum_cliques(g)
    sums = [sum(weights[v] for v in cl) for cl in maxima]
    return len(maxima[0]), min(sums), max(sums)


def test_clique_independence_small(zoo):
    # every edge of K23 joins a vertex of transmission 3*1 + 1*2 to one of 2*1 + 2*2
    assert clique_number(zoo["K23"], _transmissions(zoo["K23"])) == (2, 11, 11)
    assert independence_number(zoo["K23"]) == 3
    assert clique_number(zoo["C5"], _transmissions(zoo["C5"])) == (2, 12, 12)
    assert independence_number(zoo["C5"]) == 2


def test_clique_split_graph(zoo):
    g = zoo["CS25"]
    # the 2-clique (transmission 4 each) extends by any of the three
    # independent vertices (transmission 6 each)
    assert clique_number(g, _transmissions(g)) == (3, 14, 14) == _brute_clique_sums(
        g, _transmissions(g))
    assert independence_number(g) == 3


def test_clique_cap(monkeypatch):
    # the search stops after SEARCH_BUDGET nodes, whatever the order
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", 20)
    g = Graph.from_edges(45, [(i, i + 1) for i in range(44)])
    assert clique_number(g, _transmissions(g)) is None


def _brute_independence(g):
    best = 1
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if not any((u, v) in g.edges for u, v in combinations(sub, 2)):
                best = max(best, size)
    return best


@given(n=st.integers(2, 7), mask=st.integers(0, 2**21 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_clique_against_exhaustive_oracle(n, mask, data):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    weights = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    assert clique_number(g, weights) == _brute_clique_sums(g, weights)
    assert independence_number(g) == _brute_independence(g)


def test_maximum_clique_list_above_the_small_candidate_switch():
    # the complete 5-partite graph with parts of 3 has 3**5 maximum cliques,
    # searched by the colouring branch; it is transmission-regular (12*1 +
    # 2*2), so every clique sum is 5*16
    edges = [(u, v) for u in range(15) for v in range(u + 1, 15) if u % 5 != v % 5]
    g = Graph.from_edges(15, edges)
    assert g.n > cliques_mod.SMALL_CANDIDATES
    assert len(maximum_cliques(g)) == 3 ** 5
    assert clique_number(g, _transmissions(g)) == (5, 80, 80) == _brute_clique_sums(
        g, _transmissions(g))
    # without the edge 0-1, vertices 0 and 1 have transmission 17: the
    # 4 * 3**3 maximum cliques through one of them sum to 81, the 4 * 3**3
    # through neither to 80
    h = Graph.from_edges(15, edges[1:])
    assert edges[0] == (0, 1)
    assert clique_number(h, _transmissions(h)) == (5, 80, 81) == _brute_clique_sums(
        h, _transmissions(h))


@given(n=st.integers(1, 9), mask=st.integers(0, 2**36 - 1))
@settings(max_examples=60, deadline=None)
def test_independence_number_against_exhaustive_oracle(n, mask):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert independence_number(g) == _brute_independence(g)


def test_independence_cap(monkeypatch):
    # the complement of 41 isolated vertices is K41: one 42-node descent
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", 20)
    assert independence_number(Graph(n=41, edges=frozenset())) is None


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # a 300-clique, searched with 60 frames to spare above this test
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        cliques = clique_number(parse_family("complete:300"), [1] * 300)
        alpha = independence_number(parse_family("star:300"))
    finally:
        sys.setrecursionlimit(limit)
    assert (cliques, alpha) == ((300, 300, 300), 299)


@given(n=st.integers(2, 16), mask=st.integers(0, 2**120 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_searches_invariant_under_relabeling(n, mask, data):
    g = connected_graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if g is None:
        return
    perm = data.draw(st.permutations(range(n)))
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])

    def invariants(graph):
        return clique_number(graph, _transmissions(graph)), independence_number(graph)

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


def test_registry_declares_what_it_compares():
    # ineq24 bounds the largest eigenvalue, ineq25 the smallest, every other
    # entry the spread; only thm35 claims an exact value (on stars)
    compares = {"ineq24_radius_lower": "top", "ineq24_radius_upper": "top",
                "ineq25_smallest_lower": "bottom", "ineq25_smallest_upper": "bottom"}
    assert {e.id: e.compares for e in REGISTRY} == {
        i: compares.get(i, "spread") for i in BOUND_IDS}
    assert [e.id for e in REGISTRY if e.exact] == ["thm35_bipartite_lower"]
    # evaluate's actual is the named column, the same array, on a seeded block
    graphs = [random_connected_graph(n, p, seed=n) for n in (3, 6, 11, 20) for p in (0.3, 0.8)]
    ctxs = contexts(graphs)
    ev = evaluate(ctxs, GRID)
    c = bounds_mod._columns(ctxs, GRID)
    for i, e in enumerate(REGISTRY):
        assert np.array_equal(ev.actual[i], getattr(c, e.compares)), e.id


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
    g = parse_family(graph) if ":" in graph else parse_graph6(graph)
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
    ev = evaluate(contexts([path45, zoo["K13"]]), [0.1])
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
    ev = evaluate(contexts([zoo["K13"]]), [0.1])
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
    for g, ctx in zip(zoo.values(), contexts(zoo.values())):
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
            (ctx,) = contexts([g], [alpha])
            smallest = ctx.values(alpha)[-1]
            assert r["equality"] == (abs(smallest) <= 1e-6)


def test_mirsky_equals_thm210_dual_route(zoo):
    # Theorem 2.10 is Mirsky's bound in graph terms, so both entries read one
    # formula off the profile; test_frobenius_formula and
    # test_trace_and_power_sum_identities pin it against the matrix itself
    for g in zoo.values():
        for alpha in GRID:
            m = evaluate_bound("mirsky_upper", g, alpha)
            t = evaluate_bound("thm210_upper", g, alpha)
            assert m["bound"] == t["bound"]


def test_thm210_equality_condition(zoo):
    # when the equality flag fires, every middle eigenvalue must sit at the
    # midpoint of the extremes
    hits = 0
    for g, ctx in zip(zoo.values(), contexts(zoo.values())):
        for alpha in GRID:
            r = evaluate_bound("thm210_upper", g, alpha, ctx=ctx)
            if not r["equality"]:
                continue
            hits += 1
            vals = ctx.values(alpha)
            mid = (vals[0] + vals[-1]) / 2
            assert np.all(np.abs(vals[1:-1] - mid) <= 1e-6)
    assert hits  # complete graphs at alpha = 1 and K2 at alpha = 0 qualify


def test_stars_meet_mirsky_at_alpha_star():
    # off the grid, at alpha* = 2n/(3n-2), the n - 2 middle eigenvalues of
    # the star sit at the mean of its extremes: equality in Mirsky's bound,
    # reached by both of its routes (|gap| measured at most 2.2e-13)
    for n in range(3, 21):
        g = family("star", n)
        alpha = 2 * n / (3 * n - 2)
        (ctx,) = contexts([g], [alpha])
        vals = ctx.values(alpha)
        assert np.all(np.abs(vals[1:-1] - (vals[0] + vals[-1]) / 2) <= 1e-12), n
        for bound_id in ("mirsky_upper", "thm210_upper"):
            r = evaluate_bound(bound_id, g, alpha, ctx=ctx)
            assert r["holds"] and r["equality"] and abs(r["gap"]) <= 1e-11, (n, bound_id)


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


def test_context_takes_its_profile_from_the_block_stage(zoo):
    with pytest.raises(TypeError):
        EvalContext(zoo["C4"])


def test_values_runs_no_solve(zoo, monkeypatch):
    # only solve_spectra fills a context's spectra; an unsolved alpha is a KeyError
    (ctx,) = contexts([zoo["C4"]], [0.5])
    monkeypatch.setattr(bounds_mod, "solve_spectra", None)
    assert ctx.spread(0.5) == pytest.approx(3.0)
    with pytest.raises(KeyError):
        ctx.values(0.25)


def test_solve_spectra_holds_one_stack():
    # the D_alpha stack is the one buffer of the solve: sym_eigen zeroes its
    # tiny entries in it, so a private copy would add a whole stack
    (ctx,) = contexts([parse_family("cycle:300")])
    solve_spectra([ctx], ALPHA_GRID)  # warm-up: numpy and LAPACK set up their buffers
    tracemalloc.start()
    try:
        solve_spectra([ctx], ALPHA_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(ALPHA_GRID) * 300 * 300 * 8


def test_solve_spectra_record_matches_one_graph_at_a_time(monkeypatch):
    # mixed orders, contexts with some alphas solved before, a repeated alpha
    # and 0 appended, as evaluate() asks: every context is solved at every
    # asked alpha, bit for bit as one graph alone
    graphs = [parse_family(spec) for spec in ("path:4", "cycle:5", "kbip:2,3", "complete:3",
                                              "star:6", "split:2,5", "path:4")]
    ctxs = contexts(graphs)
    solve_spectra(ctxs[1:2], [0.5])
    solve_spectra(ctxs[2:4], [0.25, 0.9])
    solve_spectra(ctxs[4:5], [0.0])
    alphas = [0.25, 0.5, 0.25, 1.0, 0.0]
    solved = []
    monkeypatch.setattr(bounds_mod, "sym_eigen", lambda m: solved.append(m.shape) or sym_eigen(m))
    assert solve_spectra(ctxs, alphas) is None
    for ctx in ctxs:
        for a in alphas:
            assert np.array_equal(ctx.values(a), sym_eigen(
                generalized_distance_matrix(ctx.profile, a)))
    # one stack per order holding the 4 distinct alphas, orders in
    # first-context order; a second call solves the same stacks again
    stacks = [(2 * 4, 4, 4), (3 * 4, 5, 5), (4, 3, 3), (4, 6, 6)]
    assert solved == stacks
    solved.clear()
    solve_spectra(ctxs, alphas)
    assert solved == stacks


def test_d1_is_the_transmission_matrix(zoo):
    # the abstract's D_1 = Tr, exactly: at alpha = 1 every spectrum is the
    # transmissions as floats, sorted descending, and the |D_1|_F^2 and half
    # trace the Mirsky formula reads are their sum of squares and half their
    # sum. path:200 takes the per-vertex BFS and cycle:63 is read from its
    # long-form graph6 line; all 23 graphs are one block
    graphs = list(zoo.values())
    graphs += [random_connected_graph(n, p, seed=n) for n in (7, 16, 40) for p in (0.2, 0.6)]
    graphs += [parse_family("path:200"), parse_graph6(parse_family("cycle:63").graph6)]
    ctxs = contexts(graphs, [1.0, 0.0])
    c = bounds_mod._columns(ctxs, [1.0])
    for ctx, norm2, half_trace in zip(ctxs, c.power_sum[:, 0].tolist(),
                                      (c.a * c.wiener)[:, 0].tolist()):
        tr = ctx.profile.tr.tolist()
        assert np.array_equal(ctx.values(1.0), np.array(sorted(tr, reverse=True), dtype=float))
        assert 2 * half_trace == sum(tr) and norm2 == sum(t * t for t in tr)


# --- quotient-derived bounds against explicit quotients ---


def test_thm41_matches_explicit_quotient(zoo):
    for name in ("CS25", "CS22", "C5", "K23"):
        g = zoo[name]
        maxima = maximum_cliques(g)
        omega = len(maxima[0])
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


@given(n=st.integers(2, 12), p=st.sampled_from((0.3, 0.5, 0.8)), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_thm41_from_the_extreme_clique_sums(n, p, seed):
    # the radicand is convex in the clique sum, so the best quotient over
    # every distinct maximum-clique sum is the one at s_min or s_max, bit for bit
    g = random_connected_graph(n, p, seed=seed)
    (ctx,) = contexts([g])
    solve_spectra([ctx], [*ALPHA_GRID, 0.0])
    c = bounds_mod._columns([ctx], ALPHA_GRID)
    tr = _transmissions(g)
    sums = sorted({float(sum(tr[v] for v in cl)) for cl in maximum_cliques(g)})
    assert c.clique_tr.tolist() == [[[sums[0], sums[-1]]]]
    with np.errstate(divide="ignore", invalid="ignore"):
        extremes = bounds_mod._thm41(c)[0]
        c.clique_tr = np.array(sums)[None, None, :]
        every = bounds_mod._thm41(c)[0]
    assert (every == extremes).all()


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
    ev = evaluate(contexts(block), alphas)
    i = BOUND_IDS.index("thm35_bipartite_lower")
    for k, g in enumerate(block):
        for j, alpha in enumerate(alphas):
            assert ev.applicable[i, k, j]
            assert ev.bound[i, k, j] == pytest.approx(_explicit_thm35(g, alpha), abs=1e-9)


# --- forward error of the cancellation-free forms near alpha = 1 ---


_NEAR_ONE = (0.0, 0.5, *(1.0 - 10.0 ** -k for k in range(4, 13)), 1.0)
_ULPS = 4


def _root(x: Fraction) -> Decimal:
    """sqrt(x) to 60 digits, for a rational x >= 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def _quotient_cases(ctx, alpha):
    """(bound id, exact value, largest term of the registry's form) per
    candidate of the general branches of thm35 and thm41: the expanded
    discriminant ai^2 - 4 bi m1 m2 in rationals, on the integers the registry
    reads, against the terms of its (u - b v)^2 + 4 (m1 / n) b u v."""
    p, n, a = ctx.profile, ctx.graph.n, Fraction(alpha)
    w, b, delta = p.wiener, 1 - a, max(p.degree.tolist())
    cases = []  # (bound id, ai, bi, m1, part sum s, distance sum within the part)
    if ctx.bipartite and n >= 3 and delta < n - 1:
        for s in {s for s, d in zip(p.closed_tr.tolist(), p.degree.tolist()) if d == delta}:
            k = s - 2 * delta * delta
            ai = a * n * k + 2 * n * delta * delta + (delta + 1) * (2 * w - 2 * s)
            bi = 2 * a * w * k + 4 * w * delta * delta - s * s
            cases.append(("thm35_bipartite_lower", ai, bi, delta + 1, s, 2 * delta * delta))
    omega = ctx.cliques[0]
    if 2 <= omega < n:
        for s in set(ctx.cliques[1:]):
            ai = s * (a * n - 2 * omega) + omega * (2 * w + b * n * (omega - 1))
            bi = 2 * w * omega * (omega - 1) - s * s + 2 * w * a * (s - omega * (omega - 1))
            cases.append(("thm41_clique_lower", ai, bi, omega, s, omega * (omega - 1)))
    for bound_id, ai, bi, m1, s, inner in cases:
        u, v, m2 = n * s - 2 * m1 * w, n * (s - inner), n - m1
        largest = max(abs(u), abs(b * v), math.sqrt(abs(4 * m1 * b * u * v / n)))
        yield bound_id, _root(ai * ai - 4 * bi * m1 * m2) / (m1 * m2), largest / (m1 * m2)


def _profile_cases(ctx, alpha):
    """Mirsky's bound and thm28 from their power-sum forms in rationals,
    each with the largest term of the centred form the registry takes."""
    p, n, a = ctx.profile, ctx.graph.n, Fraction(alpha)
    b, w, tr_sq = 1 - a, p.wiener, sum(t * t for t in p.tr.tolist())
    power_sum, tr_dev = b * b * p.dist_sq_sum + a * a * tr_sq, n * tr_sq - 4 * w * w
    mirsky = _root(2 * power_sum - 8 * (a * w) ** 2 / n)
    largest = math.sqrt(max(2 * b * b * p.dist_sq_sum, 2 * a * a * tr_dev / n))
    yield from (("mirsky_upper", mirsky, largest), ("thm210_upper", mirsky, largest))
    largest = 2.0 / n * math.sqrt(max(n * b * b * p.dist_sq_sum, a * a * tr_dev))
    yield "thm28_lower", 2 * _root(n * power_sum - 4 * a * a * w * w) / n, largest


def test_cancellation_free_forms_forward_error():
    # transmission-regular graphs, where the expanded forms cancel worst,
    # and random ones; every alpha but 0 and 1/2 is within 1e-4 of 1, where
    # b = 1 - alpha is exact in float. A value is the largest over its
    # candidates, so it lies within a few ulps of the largest candidate term
    # from the largest exact value
    graphs = [parse_family(spec) for spec in (
        "cycle:6", "cycle:7", "cycle:40", "cycle:100", "complete:5", "complete:30", "kbip:3,3",
        "kbip:7,7", "kbip:20,20", "kbip:2,5", "path:9", "split:3,7")]
    graphs += [random_connected_graph(n, p, seed=n) for n in range(5, 15) for p in (0.3, 0.6)]
    ctxs = contexts(graphs)
    ev = evaluate(ctxs, _NEAR_ONE)
    seen = set()
    for g, ctx in enumerate(ctxs):
        for j, alpha in enumerate(_NEAR_ONE):
            worst = {}
            for bound_id, exact, largest in (*_quotient_cases(ctx, alpha),
                                             *_profile_cases(ctx, alpha)):
                top, scale = worst.get(bound_id, (Decimal(0), 0.0))
                worst[bound_id] = max(top, exact), max(scale, largest)
            for bound_id, (exact, scale) in worst.items():
                i = BOUND_IDS.index(bound_id)
                assert ev.applicable[i, g, j], (bound_id, graphs[g].graph6, alpha)
                err = abs(Decimal(float(ev.bound[i, g, j])) - exact)
                assert err <= Decimal(_ULPS * sys.float_info.epsilon * scale), \
                    (bound_id, graphs[g].graph6, alpha, float(err), scale)
                seen.add(bound_id)
    assert seen == {"thm35_bipartite_lower", "thm41_clique_lower", "mirsky_upper",
                    "thm210_upper", "thm28_lower"}


# --- claimed branches: pinned counterexamples ---


def test_thm38_halfrange_counterexample_c4(zoo):
    ev = evaluate(contexts([zoo["C4"]]), [0.5])
    i = BOUND_IDS.index("thm38_bipartite_lower")
    r = ev.reports(0, 0)[i]
    assert r["status"] == CLAIMED
    assert r["actual"] == pytest.approx(3.0, abs=1e-9)
    assert r["bound"] > r["actual"] + 0.25  # bound 3.2808 beats the spread
    assert not r["holds"]
    assert not ev.violated[i, 0, 0]  # claimed misses never count as violations
    assert ev.discrepancies(0, 0)[0]["bound_id"] == "thm38_bipartite_lower"


def test_thm43_halfrange_counterexample_diamond(zoo):
    ev = evaluate(contexts([zoo["CS22"]]), [0.5])
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
    ev = evaluate(contexts([zoo["K13"]]), [0.1])
    i = BOUND_IDS.index("thm35_bipartite_lower")
    r = ev.reports(0, 0)[i]
    assert r["status"] == CLAIMED and REGISTRY[i].exact
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
    ctx_g, ctx_h = contexts([g, h])
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
