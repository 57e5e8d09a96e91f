"""The recursive JSON renderer dspread used before its one-pass writer, kept
as an independent reference for tests.

dspread.jsonfmt.json_text must produce the same bytes as this function on
every document; it dispatches on exact types and memoizes key prefixes,
while this one re-renders every level with json.dumps.
"""

from __future__ import annotations

import json
import math


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    return format(x, ".12g")


def json_text(obj, indent: int = 0) -> str:
    """Render dicts/lists/str/bool/None/int/float; dict order is preserved."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {json_text(v, indent + 2)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{json_text(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
