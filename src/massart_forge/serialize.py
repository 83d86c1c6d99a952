"""JSON emission with floats at 17 significant digits.

The standard encoder prints shortest-roundtrip floats; report files pin
the full 17 significant digits instead so downstream diffs are stable.
"""

from __future__ import annotations

import math

INDENT = 2  # spaces per nesting level


def _render(obj, level: int) -> str:
    pad = " " * (INDENT * (level + 1))
    closing = " " * (INDENT * level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}"{key}": {_render(val, level + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + closing + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rows = [f"{pad}{_render(val, level + 1)}" for val in seq]
        return "[\n" + ",\n".join(rows) + "\n" + closing + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialise {type(obj)!r}")


def dumps(obj) -> str:
    return _render(obj, 0) + "\n"


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))
