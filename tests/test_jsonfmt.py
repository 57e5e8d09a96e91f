import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dspread import jsonfmt
from dspread.jsonfmt import Raw, fmt_float, json_text

from json_oracle import json_text as oracle_text

finite = st.floats(allow_nan=False, allow_infinity=False)
# -0, subnormals and the extremes of the double range
edge_floats = st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308, 1e308,
                               -1e308, 1.7976931348623157e308])
# lists of exact floats take the writer's one-join path
float_lists = st.lists(finite | edge_floats, min_size=1, max_size=12)
leaves = (
    float_lists
    | float_lists.map(tuple)
    | st.none()
    | st.booleans()
    | st.integers()
    | finite
    | st.sampled_from([-0.0, 0.0, 1e16, 5e-5, 3.0, -2.0, 1e-300, 123456789012.5])
    | st.text()  # non-ASCII and control characters included
)
documents = st.recursive(
    leaves,
    lambda kids: (st.lists(kids, max_size=5)
                  | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(st.text(max_size=8), kids, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_matches_recursive_oracle(doc):
    assert json_text(doc) == oracle_text(doc)


def test_layout():
    doc = {"a": [1, 2.5, None], "b": {}, "c": [], "d": {"e": (True, "x\n")}}
    assert json_text(doc) == (
        '{\n  "a": [\n    1,\n    2.5,\n    null\n  ],\n  "b": {},\n  "c": [],\n'
        '  "d": {\n    "e": [\n      true,\n      "x\\n"\n    ]\n  }\n}'
    )
    assert json_text(1 / 3) == "0.333333333333"
    assert json_text("é") == '"\\u00e9"'


@settings(max_examples=300, deadline=None)
@given(finite | edge_floats | finite.map(np.float64) | edge_floats.map(np.float64))
def test_fmt_float_is_the_12_digit_format(x):
    assert fmt_float(x) == format(x, ".12g")


@pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf, np.float64(np.nan),
                                 np.float64(-np.inf)])
def test_fmt_float_raises_on_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite float"):
        fmt_float(bad)


# -nan: a NaN with its sign bit set
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -math.nan])
def test_non_finite_raises(bad):
    for doc in (bad, [1.0, bad], {"x": {"y": bad}}):
        with pytest.raises(ValueError, match="non-finite float"):
            json_text(doc)
        with pytest.raises(ValueError, match="non-finite float"):
            oracle_text(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(np.inf)])
@pytest.mark.parametrize("depth", range(6))
def test_non_finite_raises_at_every_depth(bad, depth):
    # alternately a dict member and a list member, after finite siblings
    # and strings that spell the non-finite texts
    doc = bad
    for level in range(depth):
        doc = ({"nan": "inf", "a": -2.5, "b": doc} if level % 2 else
               ["-inf", 1e300, (0.5, doc)])
    if type(bad) is not float:  # a numpy float is no leaf: refused before any float check
        with pytest.raises(TypeError, match="cannot serialize float64"):
            json_text(doc)
        return
    with pytest.raises(ValueError, match="non-finite float"):
        json_text(doc)
    with pytest.raises(ValueError, match="non-finite float"):
        oracle_text(doc)


@settings(max_examples=200, deadline=None)
@given(float_lists, st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_non_finite_anywhere_in_a_float_list_raises(floats, bad, data):
    i = data.draw(st.integers(0, len(floats)))
    floats.insert(i, bad)
    for doc in (floats, tuple(floats), {"spectrum": floats}, [[floats]]):
        with pytest.raises(ValueError, match="non-finite float"):
            json_text(doc)
        with pytest.raises(ValueError, match="non-finite float"):
            oracle_text(doc)


def test_raw_text_goes_out_unchanged():
    doc = {"a": Raw("[1, 2]"), "b": [Raw("x")]}
    assert json_text(doc) == '{\n  "a": [1, 2],\n  "b": [\n    x\n  ]\n}'
    assert json_text(Raw("nan")) == "nan"


def test_raw_text_is_one_uncopied_fragment():
    """A Raw member is emitted as the object itself, so a document of large
    Raw texts holds no second copy of them before the join."""
    raws = [Raw("[1, 2]"), Raw("x")]
    out = []
    jsonfmt._write({"a": raws[0], "b": [raws[1]]}, out.append, "\n", {})
    assert [f for f in out if type(f) is Raw] == raws
    assert all(any(f is r for f in out) for r in raws)


def test_strings_that_spell_non_finite_floats_render():
    doc = {"nan": ["inf", "-inf", "nan"], "inf": "x nan", "f": "n", "": [""]}
    assert json_text(doc) == oracle_text(doc)


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", object(), np.int64(3), np.bool_(True)])
def test_unsupported_type_raises(bad):
    for doc in (bad, [bad], {"x": bad}):
        with pytest.raises(TypeError, match="cannot serialize"):
            json_text(doc)
        with pytest.raises(TypeError, match="cannot serialize"):
            oracle_text(doc)


def _nested(doc, depth):
    """doc at depth, alternately a dict member and a list member, after
    siblings of every leaf type and a spectrum-like float list."""
    for level in range(depth):
        doc = ({"nan": "inf", "a": -2.5, "i": 3, "b": doc} if level % 2 else
               ["-inf", 1e300, None, True, [0.5, 1.5], (0.5, doc)])
    return doc


class _Text(str):
    pass


class _Count(int):
    pass


# json_text renders the exact leaf types only: numpy.float64 is a float
# subclass, and finite or not it raises TypeError before any float check
@pytest.mark.parametrize("bad", [np.float64(1.5), np.float64(np.nan), np.float64(np.inf),
                                 np.float64(-np.inf), _Text("x"), _Count(2)])
@pytest.mark.parametrize("depth", range(6))
def test_leaf_subclass_raises_at_every_depth(bad, depth):
    # a lone leaf, and one among exact floats
    for doc in (bad, [1.0, bad, 2.0]):
        with pytest.raises(TypeError, match=f"cannot serialize {type(bad).__name__}"):
            json_text(_nested(doc, depth))


@pytest.mark.parametrize("key", [1, 0.5, True, None, ("a",), b"k"])
@pytest.mark.parametrize("depth", range(6))
def test_non_str_key_raises_at_every_depth(key, depth):
    # after a str key at the same indent, whose prefix is memoized
    with pytest.raises(TypeError):
        json_text(_nested({"k": 1, key: 2}, depth))
