"""Deterministic JSON input/output.

Output uses a hand-rolled formatter so every float prints with 17 significant
digits and dict fields keep insertion order; the stdlib encoder cannot override
float repr without global monkey-patching.  ``dumps`` makes one call to the
private ``_dump``, which recurses on its own and returns each value's text, so
one document is one ``dumps`` call even when ``dumps`` is wrapped from outside
(as ``perfbench/tracing.py`` does to count calls and bytes).  Input helpers turn
the documented function and weight-sequence schemas into model objects, with
error messages that name the offending field path.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import InvalidInputError, _check_number
from .functions import (
    BernsteinPoly,
    PiecewiseLinear,
    StepFunction,
    named_function,
)
from .lambda_seq import LambdaSequence


def format_float(x: float) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number {x!r} is not serializable")
    return format(x, ".17g")


def dumps(obj, indent: Optional[int] = None) -> str:
    """Serialize dicts/lists/scalars; floats at 17 significant digits."""
    return _dump(obj, indent, 0)


def _dump(obj, indent: Optional[int], level: int) -> str:
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        braces = "{}"
        items = [json.dumps(str(k)) + ": " + _dump(v, indent, level + 1) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        braces = "[]"
        items = [_dump(v, indent, level + 1) for v in obj]
    elif hasattr(obj, "to_json"):
        return _dump(obj.to_json(), indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return braces
    if not indent:
        return braces[0] + ", ".join(items) + braces[1]
    pad = "\n" + " " * (indent * (level + 1))
    return braces[0] + pad + ("," + pad).join(items) + "\n" + " " * (indent * level) + braces[1]


def _number_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise InvalidInputError("expected a list of numbers", field=field)
    return [_check_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


def function_from_json(obj):
    """Build a function model from {"type": "plf"|"step"|"bernstein"|"named", ...}."""
    if not isinstance(obj, dict):
        raise InvalidInputError("function description must be a JSON object", field="fn")
    kind = obj.get("type")
    if kind == "plf":
        points = obj.get("points")
        if not isinstance(points, list):
            raise InvalidInputError("expected a list of [x, y] pairs", field="points")
        pairs = []
        for i, p in enumerate(points):
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise InvalidInputError("expected an [x, y] pair", field=f"points[{i}]")
            pairs.append(
                (_check_number(p[0], f"points[{i}][0]"), _check_number(p[1], f"points[{i}][1]"))
            )
        return PiecewiseLinear(pairs)
    if kind == "step":
        return StepFunction(
            _number_list(obj.get("cuts"), "cuts"),
            _number_list(obj.get("pieces"), "pieces"),
            _number_list(obj.get("pointValues"), "pointValues"),
        )
    if kind == "bernstein":
        return BernsteinPoly(_number_list(obj.get("coeffs"), "coeffs"))
    if kind == "named":
        name = obj.get("name")
        if not isinstance(name, str):
            raise InvalidInputError(f"expected a string, got {name!r}", field="name")
        return named_function(name)
    raise InvalidInputError(f"unknown function type {kind!r}", field="type")


def parse_json_text(text: str, field: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"malformed JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})",
            field=field,
        ) from exc


def load_function_file(path: str):
    return function_from_json(parse_json_text(_read(path, "fn"), "fn"))


def load_lambda_file(path: str) -> LambdaSequence:
    return LambdaSequence.from_json(parse_json_text(_read(path, "lambda"), "lambda"))


def _read(path: str, field: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}", field=field) from exc
