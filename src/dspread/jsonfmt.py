"""Deterministic JSON rendering with fixed 12-significant-digit floats.

The stock json module prints floats with repr, which is shortest-roundtrip
rather than fixed-width; golden-file tests want the same bytes on every
platform, so this small writer formats every float with "%.12g". Objects
and arrays put one member per line, indented two spaces per level, in
insertion order; strings are ASCII with JSON escapes. Leaves are of the
exact types str, bool, None, int and float, keys are str, and a Raw is
text rendered elsewhere in this layout that goes out uncopied; anything
else, numpy scalars included, raises TypeError. fmt_float renders every
float leaf and raises ValueError on NaN and infinities; a list of exact
floats (a spectrum) is the one batch path, one join with one check.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


_NON_FINITE = "non-finite float in report"


def fmt_float(x: float) -> str:
    """x as %.12g, the one float format of JSON and TSV output; NaN and
    infinities raise ValueError."""
    text = "%.12g" % x
    if text[-1] in "nf":  # nan, inf and -inf; no finite float's text
        raise ValueError(_NON_FINITE)
    return text


class Raw(str):
    """JSON text that json_text emits unchanged; its maker renders it for the
    depth it sits at."""


# renderers of the leaf types, by exact type
_LEAF = {
    str: _quote,
    float: fmt_float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_FLOATS = {float}


def json_text(obj) -> str:
    """Render dicts (str keys), lists, tuples, Raw and the exact types str,
    bool, None, int and float; dict order is preserved. Anything else raises
    TypeError."""
    render = _LEAF.get(type(obj))
    if render is not None:
        return render(obj)
    out: list[str] = []
    _write(obj, out.append, "\n", {})
    return "".join(out)


def _write(obj, emit, nl: str, prefixes: dict) -> None:
    """Append the fragments of a dict, list, tuple or Raw to emit; anything
    else raises TypeError.

    nl is the newline plus indent of obj's closing bracket. prefixes maps
    each member indent to a memo of its '<indent>"key": ' strings.
    """
    inner = nl + "  "
    if type(obj) is Raw:
        emit(obj)
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        memo = prefixes.get(inner)
        if memo is None:
            memo = prefixes[inner] = {}
        sep = "{"
        for k, v in obj.items():
            prefix = memo.get(k)
            if prefix is None:  # _quote raises TypeError for a key that is no str
                prefix = memo[k] = inner + _quote(k) + ": "
            render = _LEAF.get(type(v))
            if render is None:
                emit(sep + prefix)
                _write(v, emit, inner, prefixes)
            else:
                emit(sep + prefix + render(v))
            sep = ","
        emit(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        if type(obj[0]) is float and set(map(type, obj)) == _FLOATS:
            # a spectrum: one join; no finite float's text holds an "n"
            text = ("," + inner).join(map("%.12g".__mod__, obj))
            if "n" in text:
                raise ValueError(_NON_FINITE)
            emit("[" + inner + text + nl + "]")
            return
        sep = "[" + inner
        for v in obj:
            render = _LEAF.get(type(v))
            if render is None:
                emit(sep)
                _write(v, emit, inner, prefixes)
            else:
                emit(sep + render(v))
            sep = "," + inner
        emit(nl + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
