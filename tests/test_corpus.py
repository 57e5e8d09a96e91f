import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from dspread import corpus as corpus_mod
from dspread.bounds import CLAIMED, PROVEN, evaluate_all
from dspread.corpus import (
    check_problem_39,
    load_corpus,
    random_connected_graph,
    sweep,
)
from dspread.families import family
from dspread.graphs import (Graph, GraphParseError, InputError, encode_graph6, is_connected,
                            parse_graph6)
from dspread.jsonfmt import fmt_float, json_text

from conftest import contexts, graph_from_mask, packaged_corpus


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


def test_load_corpus(tmp_path):
    # blank, indented and comment lines: each graph keeps its stripped line
    path = tmp_path / "c.g6"
    path.write_text("# two graphs\n\nBg\n  Bw  \n\t\n  # more\n", encoding="ascii")
    graphs = load_corpus(path)
    assert [g.n for g in graphs] == [3, 3]
    assert [g.graph6 for g in graphs] == ["Bg", "Bw"]


def test_load_corpus_refusals_name_the_file(tmp_path):
    missing, latin, malformed = (tmp_path / name for name in ("missing.g6", "latin.g6", "bad.g6"))
    latin.write_bytes(b"Bg\n\xe9\n")
    malformed.write_text("Bg\nBh\n", encoding="ascii")
    for path, message in ((missing, f"cannot read corpus {missing}: "),
                          (tmp_path, f"cannot read corpus {tmp_path}: "),
                          (latin, f"{latin}: corpus is not ASCII graph6 text")):
        with pytest.raises(InputError) as info:
            load_corpus(path)
        assert str(info.value).startswith(message)
    # a line that does not parse is named by number and keeps its type and byte offset
    with pytest.raises(GraphParseError) as info:
        load_corpus(malformed)
    assert str(info.value) == f"{malformed}: line 2: nonzero padding bits (byte offset 1)"
    assert info.value.offset == 1


def test_problem39_refusals_are_input_errors(zoo):
    k4 = family("complete", 4)
    for graphs, n, message in (([zoo["C4"]], 1, "need n >= 2"),
                               ([zoo["P3"]], 4, "order 3"),
                               ([zoo["C4"], k4], 4, "non-\\(connected bipartite\\)"),
                               ([], 4, "empty corpus"),
                               ([zoo["P4"]], 4, "incomplete corpus")):
        with pytest.raises(InputError, match=message):
            check_problem_39(graphs, n, 0.5)


def test_problem39_n3():
    result = check_problem_39([family("path", 3)], 3, 0.0)
    assert result["confirmed"]
    assert result["candidate_min_spread"] == pytest.approx(3 + math.sqrt(3), abs=1e-10)
    assert result["graphs_seen"] == 1


def test_problem39_n4_exhaustive():
    graphs = [
        family("path", 4),
        family("kbip", 1, 3),
        family("cycle", 4),
    ]
    result = check_problem_39(graphs, 4, 0.0)
    assert result["confirmed"]
    assert result["candidate_min_spread"] == pytest.approx(6.0, abs=1e-10)
    assert result["candidate_min_graph"] == encode_graph6(family("cycle", 4))
    again = check_problem_39(graphs, 4, 0.5)
    assert again["confirmed"]  # evaluated per alpha


def test_problem39_missing_conjectured_graph():
    graphs = [family("path", 4), family("kbip", 1, 3)]
    with pytest.raises(ValueError, match="incomplete"):
        check_problem_39(graphs, 4, 0.0)


def test_problem39_rejects_wrong_order(zoo):
    with pytest.raises(ValueError, match="order"):
        check_problem_39([zoo["P3"]], 4, 0.0)


def test_problem39_reproducible():
    graphs = [
        family("cycle", 4),
        family("path", 4),
        family("kbip", 1, 3),
    ]
    a = check_problem_39(graphs, 4, 0.25)
    b = check_problem_39(graphs, 4, 0.25)
    assert json_text(a) == json_text(b)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_problem39_same_document_at_every_block_size(monkeypatch, alpha):
    graphs = packaged_corpus(6)
    texts = set()
    for block in (1, 2, 64):
        monkeypatch.setattr(corpus_mod, "BLOCK_GRAPHS", block)
        texts.add(json_text(check_problem_39(graphs, 6, alpha)))
    assert len(texts) == 1


@pytest.mark.parametrize("block", [1, 2, 64])
def test_problem39_tie_across_blocks_keeps_least_graph6(zoo, monkeypatch, block):
    # "Cr" and "C]" are two labelings of C4, transmission regular, so both
    # spreads are exactly 0 at alpha = 1; the later one has the smaller
    # graph6 and at block sizes 1 and 2 sits in a later block
    monkeypatch.setattr(corpus_mod, "BLOCK_GRAPHS", block)
    graphs = [zoo["K13"], parse_graph6("Cr"), parse_graph6("C]"), zoo["P4"]]
    result = check_problem_39(graphs, 4, 1.0)
    assert (result["candidate_min_graph"], result["candidate_min_spread"]) == ("C]", 0.0)
    assert result["graphs_seen"] == 4 and result["conjectured_graph_spread"] == 0.0


@pytest.mark.parametrize("block", [1, 2, 64])
def test_problem39_first_bad_graph_names_the_error(zoo, monkeypatch, block):
    monkeypatch.setattr(corpus_mod, "BLOCK_GRAPHS", block)
    c4, p4 = zoo["C4"], zoo["P4"]
    not_bipartite, disconnected = zoo["CS22"], Graph.from_edges(4, [(0, 1)])
    wrong_order, wrong_order_apart = zoo["P3"], Graph.from_edges(3, [(0, 1)])
    for bad in (not_bipartite, disconnected):
        for corpus in ([bad, wrong_order], [c4, p4, bad, wrong_order], [p4, bad, c4, wrong_order]):
            with pytest.raises(ValueError, match="non-\\(connected bipartite\\)"):
                check_problem_39(corpus, 4, 0.5)
    for first in (wrong_order, wrong_order_apart):
        for corpus in ([first, not_bipartite], [c4, p4, first, disconnected],
                       [p4, first, c4, not_bipartite]):
            with pytest.raises(ValueError, match="corpus graph of order 3 in an order-4 scan"):
                check_problem_39(corpus, 4, 0.5)


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


def test_random_graph_retry_cap(monkeypatch):
    monkeypatch.setattr(corpus_mod, "MAX_TRIES", 3)
    with pytest.raises(ValueError, match="tries"):
        random_connected_graph(30, 1e-6, seed=1)


def test_random_graph_domain():
    with pytest.raises(ValueError):
        random_connected_graph(5, 0.0, seed=1)
    with pytest.raises(ValueError):
        random_connected_graph(0, 0.5, seed=1)


def _canonical_edges(g: Graph) -> tuple:
    return min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
               for p in itertools.permutations(range(g.n)))


def test_shipped_corpora_complete():
    expected = {3: 1, 4: 3, 5: 5, 6: 17}
    for n, count in expected.items():
        graphs = packaged_corpus(n)
        lines = [g.graph6 for g in graphs]  # the stripped lines load_corpus read
        assert len(lines) == count
        assert all(g.n == n for g in graphs)
        # spreads are isomorphism invariants; distinct graphs here
        assert len({g.edges for g in graphs}) == count
        # decode/encode round-trips every shipped line exactly
        assert [encode_graph6(g) for g in graphs] == lines
        # the exhaustive set `conjecture` needs: connected bipartite graphs,
        # one per isomorphism class (the least edge tuple over all relabellings)
        assert all(ctx.bipartite for ctx in contexts(graphs))
        assert len({_canonical_edges(g) for g in graphs}) == count


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
        monkeypatch.setattr(corpus_mod, "BLOCK_GRAPHS", size)
        assert json_text(sweep(graphs, alphas=alphas)) == text, size


@pytest.mark.parametrize("block", [1, 2, 64])
def test_sweep_exact_tie_keeps_first_pair(zoo, monkeypatch, block):
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
