import math

import numpy as np
import pytest

from dspread.eigen import sym_eigen
from dspread.families import (
    FamilySpec,
    generate,
    matches_numeric,
    parse_family,
    spectrum_complete,
    spectrum_complete_bipartite,
    spectrum_complete_split,
)
from dspread.graphs import distance_profile, is_bipartite
from dspread.matrices import generalized_distance_matrix

GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def _numeric_values(g, alpha):
    m = generalized_distance_matrix(distance_profile(g), alpha)
    return sym_eigen(m)


# --- generators ---


def test_generate_complete():
    g = generate(FamilySpec("complete", (4,)))
    assert g.n == 4 and g.edge_count == 6


def test_generate_bipartite():
    g = generate(FamilySpec("kbip", (2, 3)))
    assert g.n == 5 and g.edge_count == 6
    parts = is_bipartite(g)
    assert sorted(map(len, parts)) == [2, 3]


def test_generate_split():
    g = generate(FamilySpec("split", (2, 5)))
    assert g.n == 5 and g.edge_count == 7  # t(n-t) + t(t-1)/2
    # clique vertices first: 0 and 1 adjacent, independent part not
    assert g.has_edge(0, 1) and not g.has_edge(2, 3)


def test_generate_path_cycle_star():
    assert generate(FamilySpec("path", (4,))).edge_count == 3
    assert generate(FamilySpec("cycle", (5,))).edge_count == 5
    star = generate(FamilySpec("star", (4,)))
    assert star.edges == generate(FamilySpec("kbip", (1, 3))).edges


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
    assert parse_family(text) == FamilySpec(kind, params)


@pytest.mark.parametrize(
    "text", ["nope:3", "complete", "kbip:2", "kbip:2,x", "split:0,4", "split:4,4", "cycle:2"]
)
def test_parse_family_errors(text):
    with pytest.raises(ValueError):
        parse_family(text)


# --- closed-form spectra ---


def test_spectrum_complete_examples():
    s = spectrum_complete(4, 0.0)
    assert s.entries == [(3.0, 1), (-1.0, 3)]
    s = spectrum_complete(4, 1.0)
    assert sorted(s.values()) == [3.0, 3.0, 3.0, 3.0]
    s = spectrum_complete(5, 0.5)
    assert s.entries == [(4.0, 1), (1.5, 4)]
    assert s.values()[0] - s.values()[-1] == pytest.approx(2.5)  # (1-alpha)*n


def test_spectrum_complete_matches_numeric():
    for n in (2, 3, 5, 8):
        g = generate(FamilySpec("complete", (n,)))
        for alpha in GRID:
            assert matches_numeric(spectrum_complete(n, alpha), _numeric_values(g, alpha))


def test_spectrum_bipartite_p3():
    s = spectrum_complete_bipartite(1, 2, 0.0)
    expect = sorted([-2.0, 1 + math.sqrt(3), 1 - math.sqrt(3)], reverse=True)
    assert np.allclose(s.values(), expect)


def test_spectrum_bipartite_k23_half():
    s = spectrum_complete_bipartite(2, 3, 0.5)
    vals = s.values()
    x1, x2 = (8.5 + math.sqrt(8.25)) / 2, (8.5 - math.sqrt(8.25)) / 2
    assert np.allclose(vals, sorted([1.5, 2.0, 2.0, x1, x2], reverse=True))
    assert vals.sum() == pytest.approx(14.0)  # 2*alpha*W with W(K_{2,3}) = 14


def test_spectrum_bipartite_matches_numeric_grid():
    for r, s in [(1, 1), (1, 4), (2, 2), (2, 5), (3, 4)]:
        g = generate(FamilySpec("kbip", (r, s)))
        for alpha in GRID:
            analytic = spectrum_complete_bipartite(r, s, alpha)
            assert analytic.order == r + s
            assert matches_numeric(analytic, _numeric_values(g, alpha))


def test_spectrum_split_reduces_to_complete():
    for n in (3, 5, 7):
        for alpha in (0.0, 0.5, 1.0):
            analytic = spectrum_complete_split(n - 1, n, alpha)
            assert matches_numeric(analytic, spectrum_complete(n, alpha).values())


def test_spectrum_split_star_overlap():
    for alpha in GRID:
        split = spectrum_complete_split(1, 4, alpha)
        star = spectrum_complete_bipartite(1, 3, alpha)
        assert np.allclose(split.values(), star.values(), atol=1e-10)


def test_spectrum_split_matches_numeric():
    for t, n in [(1, 5), (2, 5), (3, 5), (2, 8), (5, 9)]:
        g = generate(FamilySpec("split", (t, n)))
        for alpha in GRID:
            assert matches_numeric(spectrum_complete_split(t, n, alpha), _numeric_values(g, alpha))
