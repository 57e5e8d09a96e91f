import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dspread.graphs
from dspread.families import parse_family
from dspread.graphs import (
    DisconnectedGraphError,
    Graph,
    GraphParseError,
    InputError,
    distance_profile,
    encode_graph6,
    is_bipartite,
    is_connected,
    parse_graph6,
)

from conftest import graph_from_mask
from structure_oracle import induced_paths, remove_edge


# --- construction ---


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(n=3, edges=frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(n=0, edges=frozenset())


def test_from_edges_normalizes():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert sorted(g.edges) == [(0, 2), (1, 2)]
    assert g.adjacency == ((2,), (2,), (0, 1))
    assert len(g.adjacency[2]) == 2 and (0, 2) in g.edges


# --- graph6 ---


def test_parse_graph6_p3():
    g = parse_graph6("Bg")
    assert g.n == 3 and sorted(g.edges) == [(0, 1), (1, 2)]


def test_parse_graph6_triangle():
    g = parse_graph6("Bw")
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]


def test_parse_graph6_k2_and_empty_pair():
    assert sorted(parse_graph6("A_").edges) == [(0, 1)]
    assert parse_graph6("A?").edges == frozenset()


def test_parse_graph6_header():
    assert sorted(parse_graph6(">>graph6<<Bw").edges) == [(0, 1), (0, 2), (1, 2)]


def test_parse_errors_are_input_errors():
    # InputError is what the CLI reports as exit 2; a ValueError that is not
    # one is a failed precondition
    assert issubclass(InputError, ValueError) and issubclass(GraphParseError, InputError)
    assert not issubclass(DisconnectedGraphError, InputError)
    with pytest.raises(InputError, match="nonzero padding bits"):
        parse_graph6("AG")


def test_parse_graph6_nonzero_padding():
    # 'G' - 63 = 8 = 001000b: first bit (the only payload bit for n=2) is 0,
    # the rest is padding and must be zero
    with pytest.raises(GraphParseError, match="padding"):
        parse_graph6("AG")


def test_parse_graph6_truncated_reports_offset():
    with pytest.raises(GraphParseError, match="byte offset 1"):
        parse_graph6("D")  # n=5 needs data bytes


def test_parse_graph6_trailing_garbage():
    with pytest.raises(GraphParseError, match="trailing"):
        parse_graph6("BwBw")


def test_parse_graph6_out_of_range_char():
    with pytest.raises(GraphParseError, match="outside graph6 range"):
        parse_graph6("B" + chr(20))


def test_parse_graph6_long_form_unsupported():
    # the 8-byte header (n > 258047) is not read
    with pytest.raises(GraphParseError, match=r"8-byte long-form .*\(byte offset 1\)"):
        parse_graph6("~~??????")
    # a long-form header must hold n >= 63
    for text, n in (("~??@", 1), ("~??}", 62)):
        with pytest.raises(GraphParseError,
                           match=rf"header for n = {n}, .*short form \(byte offset 1\)"):
            parse_graph6(text)
    with pytest.raises(GraphParseError, match=r"truncated long-form .*\(byte offset 3\)"):
        parse_graph6("~??")
    with pytest.raises(GraphParseError, match=r"outside graph6 range \(byte offset 2\)"):
        parse_graph6("~?" + chr(20) + "?")


def test_parse_graph6_order_zero():
    # neither header form of order 0 is read, so neither points to the other
    for text, offset in (("?", 0), ("~???", 1)):
        with pytest.raises(GraphParseError,
                           match=rf"^graph of order 0 is not supported \(byte offset {offset}\)$"):
            parse_graph6(text)


def test_graph6_long_form_header():
    # McKay's formats.txt: N(63) = 126 63 63 126, N(12345) = 126 66 63 120
    assert encode_graph6(Graph(n=63, edges=frozenset())).startswith("~??~")
    with pytest.raises(GraphParseError, match="need 12698890 data bytes, found 0"):
        parse_graph6("~B?x")  # n = 12345: C(n, 2) bits in 6-bit bytes
    g = parse_graph6(encode_graph6(Graph.from_edges(63, [(0, 62), (61, 62)])))
    assert g.n == 63 and g.edges == {(0, 62), (61, 62)}
    with pytest.raises(GraphParseError, match="truncated bit string"):
        parse_graph6("~??~")


def test_encode_graph6_known():
    assert encode_graph6(parse_graph6("Bg")) == "Bg"
    assert encode_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"


@given(n=st.integers(1, 10), mask=st.integers(0, 2**45 - 1))
def test_graph6_round_trip(n, mask):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert parse_graph6(encode_graph6(g)).edges == g.edges
    # the parsed graph keeps the text it was read from as its graph6
    h = parse_graph6(encode_graph6(g))
    assert h.graph6 == encode_graph6(h)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(60, 130), data=st.data())
def test_graph6_round_trip_across_the_form_switch(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    g = Graph.from_edges(n, data.draw(st.lists(pairs, max_size=300)))
    text = encode_graph6(g)
    assert text.startswith("~") == (n > 62)
    h = parse_graph6(text)
    assert (h.n, h.edges) == (n, g.edges)
    assert h.graph6 == encode_graph6(h)


def test_graph6_keeps_the_stripped_payload():
    # a header and surrounding whitespace are not part of the graph6 text
    for line in (">>graph6<<Bg", "  >>graph6<<  Bg \n", "\tBg\r\n"):
        g = parse_graph6(line)
        assert g.graph6 == "Bg" == encode_graph6(g)
    # a graph that was not parsed encodes itself once, on first use
    assert Graph.from_edges(3, [(0, 1), (1, 2)]).graph6 == "Bg"


# --- connectivity / bipartiteness ---


def test_is_connected(zoo):
    assert is_connected(zoo["P3"])
    assert is_connected(zoo["K4"])
    assert not is_connected(Graph.from_edges(2, []))


def test_is_bipartite(zoo):
    def parts(g):
        return is_bipartite(g, distance_profile(g))

    assert parts(zoo["P3"]) == ((0, 2), (1,))
    assert parts(zoo["K3"]) is None
    assert sorted(map(len, parts(zoo["K23"]))) == [2, 3]


def test_is_bipartite_against_every_two_colouring():
    # every connected labelled graph with n <= 6: the parts are the one
    # proper 2-colouring that puts vertex 0 first, and None means none exists
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        # colouring c (bit v set: v in the second part, vertex 0 never) ->
        # the pairs it colours alike, as a mask over pairs
        alike = {c: sum(1 << i for i, (u, v) in enumerate(pairs) if (c >> u ^ c >> v) & 1 == 0)
                 for c in range(0, 1 << n, 2)}
        for mask in range(1 << len(pairs)):
            g = graph_from_mask(n, mask)
            try:
                profile = distance_profile(g)
            except DisconnectedGraphError:
                continue
            proper = [c for c, same in alike.items() if mask & same == 0]
            parts = is_bipartite(g, profile)
            if not proper:
                assert parts is None, (n, mask)
                continue
            (c,) = proper  # a connected graph has at most one
            assert parts == (tuple(v for v in range(n) if not c >> v & 1),
                             tuple(v for v in range(n) if c >> v & 1)), (n, mask)


# --- distance profile ---


def test_profile_p3(zoo):
    p = distance_profile(zoo["P3"])
    assert p.dist.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert p.tr.tolist() == [3, 2, 3]
    assert p.wiener == 4
    assert p.diameter == 2
    assert p.closed_tr.tolist() == [5, 8, 5]


def test_profile_complete(zoo):
    for name, n in [("K4", 4), ("K5", 5)]:
        p = distance_profile(zoo[name])
        assert p.diameter == 1
        assert np.all(p.tr == n - 1)
        assert p.wiener == n * (n - 1) // 2


def test_profile_c4(zoo):
    p = distance_profile(zoo["C4"])
    assert p.tr.tolist() == [4, 4, 4, 4]
    assert p.wiener == 8


def test_profile_single_vertex():
    p = distance_profile(Graph(n=1, edges=frozenset()))
    assert p.dist.tolist() == [[0]]
    assert p.wiener == 0 and p.diameter == 0
    assert p.closed_tr.tolist() == [0]


def test_profile_disconnected_raises():
    with pytest.raises(ValueError, match="requires connected graph"):
        distance_profile(Graph.from_edges(3, [(0, 1)]))


@given(n=st.integers(2, 9), mask=st.integers(0, 2**36 - 1))
def test_profile_invariants(n, mask):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    if not is_connected(g):
        return
    p = distance_profile(g)
    # transmission sum is exactly twice the Wiener index
    assert int(p.tr.sum()) == 2 * p.wiener
    d = p.dist
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    off = d[~np.eye(n, dtype=bool)]
    assert np.all(off >= 1)
    # triangle inequality over all triples
    for k in range(n):
        assert np.all(d <= d[:, [k]] + d[[k], :])



def _oracle_rows(g):
    """The neighbour lists and the BFS distances from each source, None
    where unreachable."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dist = []
    for s in range(g.n):
        row = [None] * g.n
        row[s], level, frontier = 0, 0, [s]
        while frontier:
            level, nxt = level + 1, []
            for u in frontier:
                for w in nbrs[u]:
                    if row[w] is None:
                        row[w] = level
                        nxt.append(w)
            frontier = nxt
        dist.append(row)
    return nbrs, dist


def _oracle_profile(g):
    """dist, tr, wiener, diameter, closed_tr and degree from one BFS per source."""
    nbrs, dist = _oracle_rows(g)
    tr = [sum(row) for row in dist]
    closed = [tr[v] + sum(tr[w] for w in nb) for v, nb in enumerate(nbrs)]
    return dist, tr, sum(tr) // 2, max(map(max, dist)), closed, list(map(len, nbrs))


def _assert_matches_oracle(g, p=None):
    p = distance_profile(g) if p is None else p
    dist, tr, wiener, diameter, closed, degree = _oracle_profile(g)
    assert p.dist.dtype == np.int64 and p.dist.tolist() == dist
    assert p.tr.tolist() == tr
    assert p.wiener == wiener and p.diameter == diameter
    assert p.closed_tr.dtype == np.int64 and p.closed_tr.tolist() == closed
    assert p.degree.tolist() == degree
    assert p.dist_sq_sum == sum(d * d for row in dist for d in row)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(1, 90))
    # vertex v hangs from one of the `span` vertices before it: span 1 with
    # few extra edges gives long paths (the BFS branch), a large span bushy
    # trees
    span = draw(st.just(1) | st.integers(1, n))
    tree = [(draw(st.integers(max(0, v - span), v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=draw(st.sampled_from((2, 3 * n)))))
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in tree + extra if u != v])


@settings(max_examples=150, deadline=None)
@given(g=connected_graphs())
def test_profile_matches_bfs_oracle(g):
    _assert_matches_oracle(g)


@st.composite
def _connected_edges(draw, n):
    """The edges of a connected graph on 0..n-1: a random tree plus extra edges."""
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    return [(u, v) for u, v in tree + extra if u != v]


@st.composite
def mixed_blocks(draw):
    """Graphs of order 1..15 in mixed order, one of them disconnected among
    connected graphs of its own order; returns (graphs, its index)."""
    n = draw(st.integers(2, 15))
    k = draw(st.integers(1, n - 1))
    parts = draw(_connected_edges(k)) + [(k + u, k + v) for u, v in draw(_connected_edges(n - k))]
    label = draw(st.permutations(range(n)))
    apart = Graph.from_edges(n, [(label[u], label[v]) for u, v in parts])
    graphs = [Graph.from_edges(n, draw(_connected_edges(n)))
              for _ in range(draw(st.integers(1, 3)))]
    for m in draw(st.lists(st.integers(1, 15), max_size=6)):
        graphs.append(Graph.from_edges(m, draw(_connected_edges(m))))
    graphs = draw(st.permutations(graphs))
    at = draw(st.integers(0, len(graphs)))
    return graphs[:at] + [apart] + graphs[at:], at


class _MatmulCounted:
    """numpy as dspread.graphs sees it, counting np.matmul calls: one per
    batched product of the reach loop."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.calls += 1
        return np.matmul(*args, **kwargs)


@settings(max_examples=100, deadline=None)
@given(block=mixed_blocks(), data=st.data())
def test_distance_profiles_of_a_mixed_block(block, data):
    graphs, at = block
    apart = graphs[at]
    n = apart.n
    limit = data.draw(st.sampled_from((0, 1000, dspread.graphs._MULADDS_PER_LOOP)))
    loops, reach, counted = [], dspread.graphs._reach_distances, _MatmulCounted()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dspread.graphs, "_MULADDS_PER_LOOP", limit)
        mp.setattr(dspread.graphs, "_reach_distances",
                   lambda orders, *edges: loops.append(orders) or reach(orders, *edges))
        mp.setattr(dspread.graphs, "np", counted)
        profiles = dspread.graphs.distance_profiles(graphs)
    # each order runs in one loop, whole: its own, or that of the largest
    # order N of its band (the orders with one (n - 1).bit_length()) exactly
    # when padding its graphs to N costs at most the limit
    count = Counter(g.n for g in graphs)
    top = {}
    for m in sorted(count):
        top[(m - 1).bit_length()] = m
    assert sorted(m for orders in loops for m in orders) == sorted(g.n for g in graphs)
    for orders in loops:
        big = max(orders)
        assert Counter(orders) == {m: count[m] for m in set(orders)}
        assert set(orders) == {big} or big == top[(big - 1).bit_length()]
    for m, k in count.items():
        big = top[(m - 1).bit_length()]
        shared = any(m in orders and big in orders for orders in loops)
        assert shared == (k * (big ** 3 - m ** 3) <= limit)
    # padding reaches nothing: a loop stops after its largest diameter less
    # one products, or, with the disconnected graph in it, after as many as
    # its largest finite distance
    far = [max(d for g in graphs if g.n in orders for row in _oracle_rows(g)[1] for d in row
               if d is not None) for orders in loops]
    assert counted.calls == sum(d if n in orders else max(d - 1, 0)
                                for orders, d in zip(loops, far))
    assert profiles[at] is None
    for g, p in zip(graphs, profiles):
        if g is not apart:
            _assert_matches_oracle(g, p)
    with pytest.raises(DisconnectedGraphError, match="requires connected graph"):
        distance_profile(apart)
    # alone with the connected graphs of its order, the disconnected graph
    # keeps the loop running until a product reaches no new vertex: as many
    # products as the largest finite distance, at most n - 1
    group = [g for g in graphs if g.n == n]
    largest = max(d for g in group for row in _oracle_rows(g)[1] for d in row if d is not None)
    counted = _MatmulCounted()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dspread.graphs, "np", counted)
        assert [p is None for p in dspread.graphs.distance_profiles(group)] == \
            [g is apart for g in group]
    assert counted.calls == largest <= n - 1
    # relabeling the vertices permutes every profile the same way
    labels = [data.draw(st.permutations(range(g.n))) for g in graphs]
    moved = dspread.graphs.distance_profiles(
        [Graph.from_edges(g.n, [(lab[u], lab[v]) for u, v in g.edges])
         for g, lab in zip(graphs, labels)])
    assert moved[at] is None
    for p, q, lab in zip(profiles, moved, labels):
        if p is not None:
            lab = np.array(lab)
            assert np.array_equal(q.dist[np.ix_(lab, lab)], p.dist)
            for field in ("tr", "closed_tr", "degree"):
                assert np.array_equal(getattr(q, field)[lab], getattr(p, field))
            assert (q.wiener, q.diameter) == (p.wiener, p.diameter)


@pytest.mark.parametrize("orders, loops", [
    ([n for n in range(3, 13) for _ in range(6)], [[3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]),
    ([5] * 32 + [8] * 32, [[5, 8]]),
    ([9] * 32 + [16] * 32, [[9], [16]]),
    ([17] * 32 + [32] * 32, [[17], [32]]),
    ([33] * 32 + [64] * 32, [[33], [64]]),
])
def test_orders_share_a_loop_only_where_padding_is_cheap(orders, loops):
    # many orders with few graphs each share their band's loop; a whole
    # order of 32 graphs padded by 100,000 or more multiply-adds a level
    # runs alone
    seen = []
    reach = dspread.graphs._reach_distances
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dspread.graphs, "_reach_distances",
                   lambda o, *edges: seen.append(sorted(set(o))) or reach(o, *edges))
        dspread.graphs.distance_profiles([parse_family(f"path:{n}") for n in orders])
    assert sorted(seen) == loops


def _dense_62():
    rng = random.Random(62)
    return Graph.from_edges(62, [(u, v) for v in range(1, 62) for u in range(v)
                                 if rng.random() < 0.2])


def _grid(rows, cols):
    return Graph.from_edges(rows * cols, [(r * cols + c, r * cols + c + 1)
                                          for r in range(rows) for c in range(cols - 1)]
                            + [(r * cols + c, (r + 1) * cols + c)
                               for r in range(rows - 1) for c in range(cols)])


@pytest.mark.parametrize("graph, bfs_calls", [
    (parse_family("path:62"), 2),
    (parse_family("cycle:200"), 200),
    (parse_family("complete:60"), 0),
    (_dense_62(), 0),
    (Graph(n=1, edges=frozenset()), 0),
    (parse_family("path:2"), 0),
    (parse_family("cycle:100"), 2),
    (_grid(5, 32), 2),
], ids=["path62", "cycle200", "complete60", "gnp62", "n1", "n2", "cycle100", "grid5x32"])
def test_profile_branches_match_bfs_oracle(monkeypatch, graph, bfs_calls):
    # where (2n - 1) n^2 <= 2000 (n + 2m) the products run without any BFS;
    # other graphs run a BFS from vertex 0 and one from a vertex at distance
    # ecc(0), then the products (2 BFS calls) or, for long cycles, a BFS
    # from every further vertex (n calls)
    calls = []
    bfs = dspread.graphs.bfs_distances

    def counted(g, source):
        calls.append(source)
        return bfs(g, source)

    monkeypatch.setattr(dspread.graphs, "bfs_distances", counted)
    _assert_matches_oracle(graph)
    assert len(calls) == bfs_calls


# --- helpers ---


def test_remove_edge(zoo):
    g = remove_edge(zoo["K3"], (0, 1))
    assert sorted(g.edges) == [(0, 2), (1, 2)]
    with pytest.raises(ValueError):
        remove_edge(g, (0, 1))


def test_induced_paths(zoo):
    assert list(induced_paths(zoo["K3"])) == []
    assert list(induced_paths(zoo["P3"])) == [(0, 1, 2)]
    star_paths = list(induced_paths(zoo["K13"]))
    assert len(star_paths) == 3  # centre 0, leaf pairs (1,2), (1,3), (2,3)
