"""Deterministic JSON formatting and schema loading."""

import math
import random

import pytest

from lamvar.errors import InvalidInputError
from lamvar.functions import BernsteinPoly, PiecewiseLinear, StepFunction
from lamvar.lambda_seq import LambdaSequence
from lamvar.serialize import (
    dumps,
    format_float,
    function_from_json,
    load_function_file,
    load_lambda_file,
    parse_json_text,
)


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(-2.5) == "-2.5"
    assert format_float(1 / 3) == "0.33333333333333331"


def test_format_float_roundtrips_exactly():
    rng = random.Random(11)
    for _ in range(200):
        x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12)
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            format_float(bad)


def test_dumps_compact_layout():
    obj = {"a": 1, "b": [1.5, "x", None, True, False], "c": {}}
    assert dumps(obj) == '{"a": 1, "b": [1.5, "x", null, true, false], "c": {}}'


def test_dumps_indented_layout():
    text = dumps({"a": [1, 2]}, indent=2)
    assert text == '{\n  "a": [\n    1,\n    2\n  ]\n}'


def test_dumps_preserves_insertion_order():
    assert dumps({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'


def test_dumps_unwraps_model_objects():
    f = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)])
    assert dumps(f) == '{"type": "plf", "points": [[0, 0], [1, 1]]}'


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps(object())


def test_dumps_deterministic_across_calls():
    obj = {"xs": [0.1 * k for k in range(20)], "tag": "run"}
    assert dumps(obj, indent=2) == dumps(obj, indent=2)


def test_function_from_json_plf():
    f = function_from_json({"type": "plf", "points": [[0, 0], [0.5, 1], [1, 0]]})
    assert isinstance(f, PiecewiseLinear)
    assert f.eval(0.25) == pytest.approx(0.5, abs=1e-15)


def test_function_from_json_step():
    f = function_from_json(
        {"type": "step", "cuts": [0.5], "pieces": [0.0, 1.0], "pointValues": [1.0]}
    )
    assert isinstance(f, StepFunction)
    assert f.eval(0.25) == 0.0
    assert f.eval(0.5) == 1.0


def test_function_from_json_bernstein():
    f = function_from_json({"type": "bernstein", "coeffs": [0, 1, 0]})
    assert isinstance(f, BernsteinPoly)
    assert f.eval(0.5) == pytest.approx(0.5, abs=1e-15)


def test_function_from_json_named():
    f = function_from_json({"type": "named", "name": "hat"})
    assert f.eval(0.5) == 1.0


def test_function_from_json_field_paths():
    cases = [
        ({"type": "plf", "points": "nope"}, "points"),
        ({"type": "plf", "points": [[0, 0], [1]]}, "points[1]"),
        ({"type": "plf", "points": [[0, 0], [1, "y"]]}, "points[1][1]"),
        ({"type": "step", "cuts": None, "pieces": [], "pointValues": []}, "cuts"),
        ({"type": "bernstein", "coeffs": [0, True]}, "coeffs[1]"),
        ({"type": "named", "name": 7}, "name"),
        ({"type": "spline"}, "type"),
        ([1, 2], "fn"),
    ]
    for obj, field in cases:
        with pytest.raises(InvalidInputError) as err:
            function_from_json(obj)
        assert err.value.field == field, obj


def test_lambda_from_json_roundtrip(tmp_path):
    seq = LambdaSequence.power(0.5)
    p = tmp_path / "l.json"
    p.write_text(dumps(seq.to_json()))
    back = load_lambda_file(str(p))
    for n in (1, 5, 40):
        assert back.term(n) == seq.term(n)


def test_lambda_from_json_rejects_non_object(tmp_path):
    p = tmp_path / "l.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(InvalidInputError) as err:
        load_lambda_file(str(p))
    assert err.value.field == "lambda"


def test_parse_json_text_reports_position():
    with pytest.raises(InvalidInputError, match=r"line 1, column 8"):
        parse_json_text('{"a": 1', "fn")


def test_load_function_file(tmp_path):
    p = tmp_path / "f.json"
    p.write_text('{"type": "named", "name": "identity"}')
    assert load_function_file(str(p)).eval(0.75) == 0.75


def test_load_lambda_file(tmp_path):
    p = tmp_path / "l.json"
    p.write_text('{"family": "linear", "params": {"a": 1, "b": 0}}')
    assert load_lambda_file(str(p)).term(7) == 7.0


def test_load_missing_file_names_field(tmp_path):
    with pytest.raises(InvalidInputError) as err:
        load_function_file(str(tmp_path / "absent.json"))
    assert err.value.field == "fn"


def test_model_roundtrips_through_dumps():
    models = [
        PiecewiseLinear([(0.0, 0.2), (0.3, -0.1), (1.0, 0.9)]),
        StepFunction([0.25, 0.75], [0.0, 1.0, 0.5], [0.5, 0.75]),
        BernsteinPoly([0.0, 0.7, -0.2, 1.0]),
    ]
    for f in models:
        g = function_from_json(parse_json_text(dumps(f), "fn"))
        for k in range(33):
            x = k / 32
            assert g.eval(x) == f.eval(x), type(f).__name__
