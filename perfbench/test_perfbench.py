"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _inputs(workload: str, seed: int, rounds: int = 2) -> bytes:
    invs = [inv for r in range(rounds) for inv in wl.round_invocations(workload, seed, r)]
    return json.dumps([[inv.argv, inv.files] for inv in invs], sort_keys=True).encode()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert _inputs(workload, 11) == _inputs(workload, 11)
    assert _inputs(workload, 11) != _inputs(workload, 12)


def _sizes(workload: str, seed: int, rnd: int) -> list:
    return sorted(
        len(json.loads(text)["points"])
        for inv in wl.round_invocations(workload, seed, rnd)
        for name, text in inv.files.items()
        if name.endswith("fn.json")
    )


@pytest.mark.parametrize("workload,per_count", [("converge", 1), ("wiener", 2)])
def test_every_round_has_the_same_size_mix(workload, per_count):
    expected = sorted(list(range(2, 10)) * per_count)
    assert _sizes(workload, 5, 0) == _sizes(workload, 6, 3) == expected


def test_self_time_of_synthetic_nested_spans():
    times = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0, 11.0, 12.0, 15.0])
    t = tracing.Tracer(clock=lambda: next(times))
    a = t.begin("A")        # 0
    b = t.begin("B")        # 1
    c = t.begin("C")        # 2
    t.end(c)                # 4: C lasts 2
    t.end(b)                # 5: B lasts 4, child 2
    b = t.begin("B")        # 6
    t.end(b)                # 7: B lasts 1
    t.end(a)                # 10: A lasts 10, children 5
    t.invocation = 1
    a = t.begin("A")        # 11
    t.begin("C")            # 12, left open: closed by the end of A
    t.end(a)                # 15: C lasts 3, A lasts 4
    spans = t.by_name()
    assert spans["A"]["calls"] == 2 and spans["A"]["self_s"] == pytest.approx(5.0 + 1.0)
    assert spans["B"]["calls"] == 2 and spans["B"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert spans["C"]["calls"] == 2 and spans["C"]["self_s"] == pytest.approx(2.0 + 3.0)
    total = sum(n.self_time for n in t.nodes)
    assert total == pytest.approx(10.0 + 4.0)  # self times partition the root spans
    assert [(n.name, n.invocation, n.parent) for n in t.nodes] == [
        ("A", 0, -1), ("B", 0, 0), ("C", 0, 1), ("A", 1, -1), ("C", 1, 3)
    ]
    assert not t.stack


def test_tail_percentile_rule():
    assert run.tail_percentile([1.0] * 19) is None
    times = [float(i) for i in range(1, 31)]
    random.Random(0).shuffle(times)
    value, pct, n = run.tail_percentile(times)
    assert (value, n) == (20.0, 30) and pct == pytest.approx(200 / 3)
    assert sum(x > value for x in times) == 10
    value, pct, n = run.tail_percentile([float(i) for i in range(20)])
    assert (value, pct, n) == (9.0, 50.0, 20)


# -- output checks -----------------------------------------------------------


def _report(cases: int, violations: int = 0, **summary) -> str:
    body = {
        "campaign": "x",
        "config": {},
        "cases": [{"case_id": i} for i in range(cases)],
        "violations": [{}] * violations,
        "summary": {"cases": cases, "violation_count": violations, "min_margin": 0.5, **summary},
    }
    return json.dumps(body)


def test_diminish_check():
    inv = wl.round_invocations("diminish", 1, 0)[0]
    n = wl.DIMINISH_CASES
    assert wl.check_output(inv, 0, _report(n, skipped=0)) is None
    assert "violation_count" in wl.check_output(inv, 0, _report(n, violations=1, skipped=0))
    assert "skipped" in wl.check_output(inv, 0, _report(n, skipped=1))
    assert wl.check_output(inv, 0, _report(n - 1, skipped=0)) is not None
    assert wl.check_output(inv, 3, _report(n, skipped=0)) == "exit 3"


def test_oracle_check():
    inv = wl.round_invocations("oracle", 1, 0)[0]
    n = wl.ORACLE_CASES
    assert wl.check_output(inv, 0, _report(n, max_abs_diff=1e-12)) is None
    assert "violation_count" in wl.check_output(inv, 0, _report(n, violations=1, max_abs_diff=0.0))
    assert "max_abs_diff" in wl.check_output(inv, 0, _report(n, max_abs_diff=2e-9))


def _csv(distance: str = "0.25") -> str:
    rows = [wl.CONVERGE_CSV_HEADER]
    for i, n in enumerate(wl.CONVERGE_SCHEDULE):
        rows.append(f"{i},0123456789ab,n={n};d_bernstein={distance};d_kantorovich=0.5;norm_gap=0,0,false")
    return "\n".join(rows) + "\n"


def test_converge_check():
    inv = wl.round_invocations("converge", 1, 0)[0]
    assert wl.check_output(inv, 0, _csv()) is None
    assert wl.check_output(inv, 3, _csv()) is None  # trend verdict, still a completed run
    assert "d_bernstein" in wl.check_output(inv, 0, _csv("nan"))
    assert "d_bernstein" in wl.check_output(inv, 0, _csv("-0.5"))
    assert "rows" in wl.check_output(inv, 0, _csv().rsplit("\n", 2)[0] + "\n")
    assert wl.check_output(inv, 4, _csv()) == "exit 4"


def test_wiener_checks():
    profile_inv, restricted_inv = wl.round_invocations("wiener", 1, 0)[:2]
    upper = profile_inv.expect["upper"]
    values = [upper * (1.0 - k / 10.0) for k in range(len(wl.WIENER_DELTAS))]

    def profile(vals):
        return json.dumps({"profile": [[d, v] for d, v in zip(wl.WIENER_DELTAS, vals)]})

    assert wl.check_output(profile_inv, 0, profile(values)) is None
    assert "increases" in wl.check_output(profile_inv, 0, profile(list(reversed(values))))
    assert "outside" in wl.check_output(profile_inv, 0, profile([2 * upper] + values[1:]))
    assert "non-finite" in wl.check_output(profile_inv, 0, profile(values).replace(repr(values[-1]), "NaN"))

    upper = restricted_inv.expect["upper"]
    result = {"value": upper / 2, "witness": [], "assignment": [], "method": "exact"}
    assert wl.check_output(restricted_inv, 0, json.dumps(result)) is None
    assert "method" in wl.check_output(restricted_inv, 0, json.dumps({**result, "method": "guess"}))
    assert "outside" in wl.check_output(restricted_inv, 0, json.dumps({**result, "value": -1.0}))


def test_first_term_matches_family_files():
    assert wl.first_term("nlog") == pytest.approx(math.log(2.0))
    assert {f: wl.first_term(f) for f in ("constant", "linear", "power", "explicit")} == {
        "constant": 1.0, "linear": 1.0, "power": 1.0, "explicit": 1.0
    }


# -- tracing against the real package ---------------------------------------


def test_install_rebinds_every_site_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import lamvar.cli as cli
    from lamvar import experiments, functions, variation

    originals = (variation.lambda_variation, functions.PiecewiseLinear.eval, functions.critical_points)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.lambda_variation is experiments.lambda_variation is variation.lambda_variation
        assert variation.lambda_variation is not originals[0]
        assert functions.PiecewiseLinear.__call__ is functions.PiecewiseLinear.eval is not originals[1]
        assert variation.critical_points is experiments.critical_points is functions.critical_points
        f = functions.PiecewiseLinear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        seq = experiments.family_sequence("linear")
        assert cli.lambda_variation(f, seq).value == pytest.approx(1.5)
    finally:
        uninstall()
    assert (variation.lambda_variation, functions.PiecewiseLinear.eval, functions.critical_points) == originals
    assert experiments.lambda_variation is originals[0]
    spans = tracer.by_name()
    assert spans["variation.lambda_variation"]["calls"] == 1
    assert spans["functions.critical_points"]["calls"] == 1
    assert spans["lambda_seq.term"]["calls"] >= 1
    metrics = tracing.layer_metrics(tracer, 0.1, 1.0)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["variation.lambda_variation.candidates_mean"] == 3.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]] and 0 < m["bound"] <= 0.25
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    for m in spec["per_layer"]:
        unit, better, _, _ = tracing.LAYER_METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
