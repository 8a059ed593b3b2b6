"""Deterministic JSON input/output.

Output uses a hand-rolled recursive formatter so every float prints with 17
significant digits and dict fields keep insertion order; the stdlib encoder
cannot override float repr without global monkey-patching.  Input helpers turn
the documented function and weight-sequence schemas into model objects, with
error messages that name the offending field path.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .errors import InvalidInputError
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
    pieces: list = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces)


def _emit(obj, out: list, indent: Optional[int], level: int) -> None:
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        _emit_container(
            obj.items(), out, indent, level, "{}",
            lambda item, lvl: (out.append(json.dumps(str(item[0])) + ": "),
                               _emit(item[1], out, indent, lvl)),
        )
    elif isinstance(obj, (list, tuple)):
        _emit_container(
            obj, out, indent, level, "[]",
            lambda item, lvl: _emit(item, out, indent, lvl),
        )
    elif hasattr(obj, "to_json"):
        _emit(obj.to_json(), out, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_container(items, out: list, indent, level, braces, emit_item) -> None:
    items = list(items)
    if not items:
        out.append(braces)
        return
    out.append(braces[0])
    inner = level + 1
    for i, item in enumerate(items):
        if i:
            out.append("," if indent else ", ")
        if indent:
            out.append("\n" + " " * (indent * inner))
        emit_item(item, inner)
    if indent:
        out.append("\n" + " " * (indent * level))
    out.append(braces[1])


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"expected a number, got {value!r}", field=field)
    value = float(value)
    if not math.isfinite(value):
        # json.loads accepts the NaN and Infinity literals
        raise InvalidInputError("must be finite", field=field)
    return value


def _number_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise InvalidInputError("expected a list of numbers", field=field)
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


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
                (_number(p[0], f"points[{i}][0]"), _number(p[1], f"points[{i}][1]"))
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


def lambda_from_json(obj) -> LambdaSequence:
    if not isinstance(obj, dict):
        raise InvalidInputError(
            "weight-sequence description must be a JSON object", field="lambda"
        )
    return LambdaSequence.from_json(obj)


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
    return lambda_from_json(parse_json_text(_read(path, "lambda"), "lambda"))


def _read(path: str, field: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}", field=field) from exc
