import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dspread import graphs as graphs_mod
from dspread.cli import main
from dspread.eigen import sym_eigen
from dspread.families import family, parse_family
from dspread.graphs import InputError, distance_profile, is_bipartite
from dspread.matrices import generalized_distance_matrix

from family_oracle import spectrum_complete, spectrum_complete_bipartite, spectrum_complete_split

GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
TOL = 1e-8


def _numeric_values(g, alpha):
    m = generalized_distance_matrix(distance_profile(g), alpha)
    return sym_eigen(m)


# --- generators ---


def test_generate_complete():
    g = family("complete", 4)
    assert g.n == 4 and g.edge_count == 6


def test_generate_bipartite():
    g = family("kbip", 2, 3)
    assert g.n == 5 and g.edge_count == 6
    parts = is_bipartite(g, distance_profile(g))
    assert sorted(map(len, parts)) == [2, 3]


def test_generate_split():
    g = family("split", 2, 5)
    assert g.n == 5 and g.edge_count == 7  # t(n-t) + t(t-1)/2
    # clique vertices first: 0 and 1 adjacent, independent part not
    assert (0, 1) in g.edges and (2, 3) not in g.edges


def test_generate_path_cycle_star():
    assert family("path", 4).edge_count == 3
    assert family("cycle", 5).edge_count == 5
    star = family("star", 4)
    assert star.edges == family("kbip", 1, 3).edges


@pytest.mark.parametrize(
    "text,kind,params",
    [
        ("complete:4", "complete", (4,)),
        ("kbip:2,3", "kbip", (2, 3)),
        ("split:2,5", "split", (2, 5)),
        ("path:6", "path", (6,)),
        ("cycle:7", "cycle", (7,)),
        ("star:5", "star", (5,)),
    ],
)
def test_parse_family(text, kind, params):
    g, expected = parse_family(text), family(kind, *params)
    assert g.n == expected.n and g.edges == expected.edges


_BAD_SPECS = [
    ("nope:3", "unknown family spec"),
    ("complete", "unknown family spec"),
    ("kbip:2", "takes 2 parameter"),
    ("kbip:2,x", "non-integer parameter"),
    ("split:0,4", "needs 1 <= t <= n-1"),
    ("split:4,4", "needs 1 <= t <= n-1"),
    ("cycle:2", "needs n >= 3"),
    # the parameters are ASCII integers with an optional "-", no whitespace
    ("path:\t3", "non-integer parameter"),
    ("kbip: 2,3", "non-integer parameter"),
    ("path:3 ", "non-integer parameter"),
    ("path:+3", "non-integer parameter"),
    ("path:\u0663", "non-integer parameter"),  # ARABIC-INDIC DIGIT THREE
    (" path:3", "unknown family spec"),
    ("path:-1", "path needs n >= 1"),
]


@pytest.mark.parametrize("text, message", _BAD_SPECS, ids=[text for text, _ in _BAD_SPECS])
def test_parse_family_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_family(text)


@pytest.mark.parametrize("build", [
    lambda: family("nope", 3),  # unknown kind
    lambda: family("path", 2, 3),  # wrong arity
    lambda: family("cycle", 2),  # out of range
    lambda: family("path", graphs_mod.MAX_FAMILY_ORDER + 1),  # over the order cap
    lambda: family("complete", 1001),  # over the edge cap
    lambda: parse_family("nope:3"),
    lambda: parse_family("kbip:2,x"),  # a non-integer parameter
    lambda: parse_family("path:" + "1" * 5000),  # more digits than int() takes
], ids=["kind", "arity", "range", "order-cap", "edge-cap", "spec", "non-integer", "digits"])
def test_every_family_refusal_is_an_input_error(build):
    with pytest.raises(InputError):
        build()


def test_family_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown family kind"):
        family("nope")
    with pytest.raises(ValueError, match="takes 1 parameter"):
        family("path", 2, 3)


@pytest.mark.parametrize("kind, params", [("complete", (5,)), ("kbip", (2, 3)), ("split", (2, 5)),
                                          ("path", (4,)), ("cycle", (5,)), ("star", (4,))])
def test_family_size_cap(monkeypatch, kind, params):
    # the order and edge count are known from the parameters: a graph at
    # both caps is built, one over either cap is refused before building
    g = family(kind, *params)
    monkeypatch.setattr(graphs_mod, "MAX_FAMILY_ORDER", g.n)
    monkeypatch.setattr(graphs_mod, "MAX_FAMILY_EDGES", g.edge_count)
    assert family(kind, *params) == g
    for order, edges, message in (
            (g.n - 1, g.edge_count, f"of order {g.n} exceeds the cap of {g.n - 1} vertices"),
            (g.n, g.edge_count - 1,
             f"of {g.edge_count} edges exceeds the cap of {g.edge_count - 1} edges")):
        monkeypatch.setattr(graphs_mod, "MAX_FAMILY_ORDER", order)
        monkeypatch.setattr(graphs_mod, "MAX_FAMILY_EDGES", edges)
        with pytest.raises(InputError) as info:
            family(kind, *params)
        assert str(info.value) == "family graph " + message


def test_family_over_the_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(graphs_mod, "MAX_FAMILY_ORDER", 10)
    assert main(["analyze", "cycle:10", "--alpha", "0"]) == 0
    capsys.readouterr()
    assert main(["analyze", "cycle:11", "--alpha", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: family graph of order 11 exceeds the cap of 10 vertices\n"


# --- closed-form spectra ---


def test_spectrum_complete_examples():
    assert spectrum_complete(1, 0.5).tolist() == [0.0]
    assert spectrum_complete(4, 0.0).tolist() == [3.0, -1.0, -1.0, -1.0]
    assert spectrum_complete(4, 1.0).tolist() == [3.0, 3.0, 3.0, 3.0]
    s = spectrum_complete(5, 0.5)
    assert s.tolist() == [4.0, 1.5, 1.5, 1.5, 1.5]
    assert s[0] - s[-1] == pytest.approx(2.5)  # (1-alpha)*n


def test_spectrum_complete_matches_numeric():
    for n in (2, 3, 5, 8):
        g = family("complete", n)
        for alpha in GRID:
            assert_allclose(spectrum_complete(n, alpha), _numeric_values(g, alpha), rtol=0,
                            atol=TOL)


def test_spectrum_bipartite_p3():
    s = spectrum_complete_bipartite(1, 2, 0.0)
    expect = sorted([-2.0, 1 + math.sqrt(3), 1 - math.sqrt(3)], reverse=True)
    assert np.allclose(s, expect)


def test_spectrum_bipartite_k23_half():
    vals = spectrum_complete_bipartite(2, 3, 0.5)
    x1, x2 = (8.5 + math.sqrt(8.25)) / 2, (8.5 - math.sqrt(8.25)) / 2
    assert np.allclose(vals, sorted([1.5, 2.0, 2.0, x1, x2], reverse=True))
    assert vals.sum() == pytest.approx(14.0)  # 2*alpha*W with W(K_{2,3}) = 14


def test_spectrum_bipartite_matches_numeric_grid():
    for r, s in [(1, 1), (1, 4), (2, 2), (2, 5), (3, 4)]:
        g = family("kbip", r, s)
        for alpha in GRID:
            assert_allclose(spectrum_complete_bipartite(r, s, alpha), _numeric_values(g, alpha),
                            rtol=0, atol=TOL)


def test_spectrum_split_reduces_to_complete():
    for n in (3, 5, 7):
        for alpha in (0.0, 0.5, 1.0):
            assert_allclose(spectrum_complete_split(n - 1, n, alpha), spectrum_complete(n, alpha),
                            rtol=0, atol=TOL)


def test_spectrum_split_star_overlap():
    for alpha in GRID:
        split = spectrum_complete_split(1, 4, alpha)
        star = spectrum_complete_bipartite(1, 3, alpha)
        assert np.allclose(split, star, atol=1e-10)


def test_spectrum_split_matches_numeric():
    for t, n in [(1, 5), (2, 5), (3, 5), (2, 8), (5, 9)]:
        g = family("split", t, n)
        for alpha in GRID:
            assert_allclose(spectrum_complete_split(t, n, alpha), _numeric_values(g, alpha),
                            rtol=0, atol=TOL)
