import math

import pytest
from hypothesis import given, settings, strategies as st

from dspread import bounds as bounds_mod
from dspread import corpus as corpus_mod
from dspread.bounds import CLAIMED, PROVEN, evaluate_all
from dspread.corpus import (
    check_problem_39,
    iter_graph6_lines,
    load_corpus,
    random_connected_graph,
    sweep,
)
from dspread.families import FamilySpec, generate
from dspread.graphs import Graph, encode_graph6, is_connected, parse_graph6
from dspread.jsonfmt import fmt_float, json_text

from conftest import graph_from_mask


def test_sweep_zoo_clean(zoo):
    graphs = [zoo[k] for k in ("K3", "K4", "P3", "C4", "C5")]
    summary = sweep(graphs, alphas=(0.0, 0.5, 1.0))
    assert summary["graphs_seen"] == 5
    assert summary["skipped_disconnected"] == 0
    assert summary["violations"] == []
    assert summary["bounds"]["thm25_lower"]["applicable"] == 15


def test_sweep_skips_disconnected(zoo):
    graphs = [zoo["K3"], Graph.from_edges(3, [(0, 1)])]
    summary = sweep(graphs, alphas=(0.0,))
    assert summary["graphs_seen"] == 1
    assert summary["skipped_disconnected"] == 1


def test_sweep_empty():
    summary = sweep([], alphas=(0.0, 0.5))
    assert summary["graphs_seen"] == 0
    assert summary["bounds"] == {}
    assert summary["violations"] == [] and summary["discrepancies"] == []


def test_iter_graph6_lines():
    lines = ["# comment", "", "Bg", "  Bw  ", "# more"]
    assert list(iter_graph6_lines(lines)) == ["Bg", "Bw"]


def test_load_corpus(tmp_path):
    path = tmp_path / "c.g6"
    path.write_text("# two graphs\nBg\nBw\n", encoding="ascii")
    graphs = load_corpus(path)
    assert [g.n for g in graphs] == [3, 3]


def test_problem39_n3():
    result = check_problem_39([generate(FamilySpec("path", (3,)))], 3, 0.0)
    assert result["confirmed"]
    assert result["candidate_min_spread"] == pytest.approx(3 + math.sqrt(3), abs=1e-10)
    assert result["graphs_seen"] == 1


def test_problem39_n4_exhaustive():
    graphs = [
        generate(FamilySpec("path", (4,))),
        generate(FamilySpec("kbip", (1, 3))),
        generate(FamilySpec("cycle", (4,))),
    ]
    result = check_problem_39(graphs, 4, 0.0)
    assert result["confirmed"]
    assert result["candidate_min_spread"] == pytest.approx(6.0, abs=1e-10)
    assert result["candidate_min_graph"] == encode_graph6(generate(FamilySpec("cycle", (4,))))
    again = check_problem_39(graphs, 4, 0.5)
    assert again["confirmed"]  # evaluated per alpha


def test_problem39_missing_conjectured_graph():
    graphs = [generate(FamilySpec("path", (4,))), generate(FamilySpec("kbip", (1, 3)))]
    with pytest.raises(ValueError, match="incomplete"):
        check_problem_39(graphs, 4, 0.0)


def test_problem39_rejects_wrong_order(zoo):
    with pytest.raises(ValueError, match="order"):
        check_problem_39([zoo["P3"]], 4, 0.0)


def test_problem39_reproducible():
    graphs = [
        generate(FamilySpec("cycle", (4,))),
        generate(FamilySpec("path", (4,))),
        generate(FamilySpec("kbip", (1, 3))),
    ]
    a = check_problem_39(graphs, 4, 0.25)
    b = check_problem_39(graphs, 4, 0.25)
    assert json_text(a) == json_text(b)


def test_random_graph_deterministic():
    a = random_connected_graph(8, 0.4, seed=7)
    b = random_connected_graph(8, 0.4, seed=7)
    assert a.edges == b.edges and a.n == b.n == 8


def test_random_graph_full_probability():
    g = random_connected_graph(5, 1.0, seed=3)
    assert g.edge_count == 10  # K5


def test_random_graph_always_connected():
    from dspread.graphs import is_connected

    for seed in range(30):
        g = random_connected_graph(3, 0.5, seed=seed)
        assert is_connected(g) and g.edge_count >= 2


def test_random_graph_retry_cap():
    with pytest.raises(ValueError, match="tries"):
        random_connected_graph(30, 1e-6, seed=1, max_tries=3)


def test_random_graph_domain():
    with pytest.raises(ValueError):
        random_connected_graph(5, 0.0, seed=1)
    with pytest.raises(ValueError):
        random_connected_graph(0, 0.5, seed=1)


def test_shipped_corpora_complete():
    from importlib import resources

    expected = {3: 1, 4: 3, 5: 5, 6: 17}
    for n, count in expected.items():
        ref = resources.files("dspread").joinpath(f"data/bipartite_connected_n{n}.g6")
        lines = list(iter_graph6_lines(ref.read_text(encoding="ascii").splitlines()))
        assert len(lines) == count
        graphs = [parse_graph6(s) for s in lines]
        assert all(g.n == n for g in graphs)
        # spreads are isomorphism invariants; distinct graphs here
        assert len({g.edges for g in graphs}) == count
        # decode/encode round-trips every shipped line exactly
        assert [encode_graph6(g) for g in graphs] == lines


def _mixed_corpus(zoo):
    """Orders 1 to 8, a star, a 4-cycle and a diamond (the three claimed
    misses), random graphs, and one disconnected graph in the middle."""
    graphs = [Graph(n=1, edges=frozenset()), zoo["K2"], zoo["P3"], zoo["K13"], zoo["C4"],
              zoo["CS22"], zoo["K5"], zoo["C6"], Graph.from_edges(4, [(0, 1), (2, 3)])]
    graphs += [random_connected_graph(n, p, seed=n) for n in (5, 6, 7, 8) for p in (0.3, 0.7)]
    return graphs


def _tally_from_reports(graphs, alphas):
    """The sweep document rebuilt report by report from evaluate_all."""
    doc = {"graphs_seen": 0, "skipped_disconnected": 0, "bounds": {},
           "violations": [], "discrepancies": []}
    worst = {}
    for g in graphs:
        if not is_connected(g):
            doc["skipped_disconnected"] += 1
            continue
        doc["graphs_seen"] += 1
        key = encode_graph6(g)
        # thm35 claims the exact value on a star (maximum degree n - 1)
        star = max(len(nbrs) for nbrs in g.adjacency) == g.n - 1
        for alpha in alphas:
            for r in evaluate_all(g, alpha):
                if not r["applicable"]:
                    continue
                t = doc["bounds"].setdefault(r["bound_id"], {
                    "applicable": 0, "holds": 0, "equalities": 0,
                    "worst_gap": None, "worst_key": None})
                t["applicable"] += 1
                t["holds"] += r["holds"]
                t["equalities"] += r["equality"]
                margin = r["gap"] if r["direction"] == "lower" else -r["gap"]
                if r["bound_id"] not in worst or margin < worst[r["bound_id"]]:
                    worst[r["bound_id"]] = margin
                    t["worst_gap"], t["worst_key"] = r["gap"], f"{key}@{fmt_float(alpha)}"
                entry = {"graph6": key, "bound_id": r["bound_id"], "alpha": alpha}
                if r["status"] == PROVEN and not r["holds"]:
                    doc["violations"].append({**entry, "gap": r["gap"]})
                exact = star and r["bound_id"] == "thm35_bipartite_lower"
                missed = not r["equality"] if exact else not r["holds"]
                if r["status"] == CLAIMED and missed:
                    doc["discrepancies"].append(
                        {**entry, "claimed": r["bound"], "actual": r["actual"],
                         "gap": r["gap"]})
    doc["bounds"] = dict(sorted(doc["bounds"].items()))
    for name in ("violations", "discrepancies"):
        doc[name].sort(key=lambda v: (v["graph6"], v["bound_id"], v["alpha"]))
    return doc


def test_sweep_equals_per_pair_tally(zoo, monkeypatch):
    graphs = _mixed_corpus(zoo)
    alphas = (0.1, 0.5, 0.9, 1.0)  # no 0: the alpha-0 spectra are solved apart
    summary = sweep(graphs, alphas=alphas)
    assert summary["skipped_disconnected"] == 1
    assert {d["bound_id"] for d in summary["discrepancies"]} == {
        "thm35_bipartite_lower", "thm38_bipartite_lower", "thm43_independence_lower"}
    text = json_text(summary)
    assert text == json_text(_tally_from_reports(graphs, alphas))
    # smaller blocks give the same document; with one-graph blocks the
    # disconnected graph is a block with nothing to evaluate
    for size in (1, 2, 3):
        monkeypatch.setattr(bounds_mod, "BLOCK_GRAPHS", size)
        monkeypatch.setattr(corpus_mod, "BLOCK_GRAPHS", size)
        assert json_text(sweep(graphs, alphas=alphas)) == text, size


@pytest.mark.parametrize("block", [1, 2, 64])
def test_sweep_exact_tie_keeps_first_pair(zoo, monkeypatch, block):
    monkeypatch.setattr(bounds_mod, "BLOCK_GRAPHS", block)
    monkeypatch.setattr(corpus_mod, "BLOCK_GRAPHS", block)
    alphas = (0.0, 0.5, 1.0)
    # thm26 is exactly tight on every complete graph at alpha = 1: a tie across blocks
    for k in ("K4", "K5"):
        assert sweep([zoo[k]], alphas=alphas)["bounds"]["thm26_lower"]["worst_gap"] == 0.0
    tally = sweep([zoo["K3"], zoo["K4"], zoo["K5"]], alphas=alphas)["bounds"]["thm26_lower"]
    assert (tally["worst_key"], tally["worst_gap"]) == ("Bw@1", 0.0)


@given(
    specs=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2**28 - 1)), min_size=1,
                   max_size=6),
    rnd=st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_sweep_tallies_invariant_under_relabeling(specs, rnd):
    graphs = [graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1)) for n, mask in specs]
    relabeled = []
    for g in graphs:
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabeled.append(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    a, b = sweep(graphs), sweep(relabeled)
    assert (a["graphs_seen"], a["skipped_disconnected"]) == (
        b["graphs_seen"], b["skipped_disconnected"])
    assert a["bounds"].keys() == b["bounds"].keys()
    for bid, t in a["bounds"].items():
        u = b["bounds"][bid]
        assert (t["applicable"], t["holds"], t["equalities"]) == (
            u["applicable"], u["holds"], u["equalities"])
        assert abs(t["worst_gap"] - u["worst_gap"]) <= 1e-9, bid
    # worst_key and the graph6 of each entry follow the labeling

    def pairs(entries):
        return sorted((v["bound_id"], v["alpha"]) for v in entries)

    assert pairs(a["violations"]) == pairs(b["violations"])
    assert pairs(a["discrepancies"]) == pairs(b["discrepancies"])
