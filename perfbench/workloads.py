"""Seeded inputs, invocation mixes and output checks for the lamvar benchmark.

A workload is a repeating *round* of CLI invocations.  Every input is a pure
function of (workload, seed, round, position), drawn from ``random.Random``
seeded with a string, so the same seed gives byte-identical inputs on every
machine.  Functions are generated here rather than with the package's own
``random_plf``, so a change to the program cannot change the benchmark's
inputs.

Every round of a workload has the same mix: `converge` and `wiener` run one
input per breakpoint count 2..9, each count with a fixed weight family, so all
families appear in a round.  The seed and the round number change the random
values, never the mix, so a run's cost does not depend on how many rounds fit
in it, and the spread between seeds stays low.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Weight-sequence files, in the documented schema.
FAMILIES: Dict[str, dict] = {
    "constant": {"family": "constant", "params": {"c": 1.0}},
    "linear": {"family": "linear", "params": {"a": 1.0, "b": 0.0}},
    "power": {"family": "power", "params": {"p": 0.5}},
    "nlog": {"family": "nlog", "params": {}},
    "explicit": {"family": "explicit", "params": {"prefix": [1.0, 2.0], "tail": {"a": 1.0, "b": 1.0}}},
}
#: Families whose terms tend to infinity; `converge` accepts only these.
PROPER_FAMILIES = ("linear", "power", "nlog", "explicit")

DIMINISH_CASES = 50
ORACLE_CASES = 100
CONVERGE_SCHEDULE = (4, 16, 64, 256, 1024)
WIENER_DELTAS = tuple(2.0 ** -k for k in range(1, 8))  # 1/2 .. 1/128
CONVERGE_CSV_HEADER = "case_id,inputs_digest,key_values,margin,violation"

#: Deadline per invocation, in seconds.  The solver workloads finish in under
#: 5 s per invocation on 2 cores, so 60 s only catches hangs; `wiener` uses
#: 5 s, twenty times a completed run, so the restricted-search stall shows as
#: missed deadlines instead of holding a run for minutes.
DEADLINES = {"diminish": 60.0, "oracle": 60.0, "converge": 60.0, "wiener": 5.0}

#: What one item is, per workload; items_per_s counts these.
ITEMS = {
    "diminish": "campaign case",
    "oracle": "campaign case",
    "converge": "schedule row",
    "wiener": "profile point or restricted solve",
}

#: Rounds replayed by a traced run.  Fixed, so per-layer counts repeat
#: exactly for a seed and compare across commits.
TRACE_ROUNDS = {"diminish": 10, "oracle": 12, "converge": 1, "wiener": 1}


@dataclass
class Invocation:
    """One CLI call: its argv after ``lamvar``, the files it reads, and what
    its output check needs to know."""

    workload: str
    argv: List[str]
    files: Dict[str, str] = field(default_factory=dict)
    items: int = 0
    expect: dict = field(default_factory=dict)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def random_points(rng: random.Random, breakpoints: int) -> List[List[float]]:
    """Breakpoints of a piecewise-linear function on [0, 1]: x = 0, sorted
    uniform interior draws spaced at least 1e-6 apart, x = 1; y uniform in
    [-1, 1]."""
    while True:
        xs = [0.0] + sorted(rng.random() for _ in range(breakpoints - 2)) + [1.0]
        if all(b - a >= 1e-6 for a, b in zip(xs, xs[1:])):
            break
    return [[x, rng.uniform(-1.0, 1.0)] for x in xs]


def _fn_text(points) -> str:
    return json.dumps({"type": "plf", "points": points}) + "\n"


def _lambda_text(family: str) -> str:
    return json.dumps(FAMILIES[family]) + "\n"


def first_term(family: str) -> float:
    """lambda_1 of a family file, computed from its parameters."""
    params = FAMILIES[family]["params"]
    if family == "constant":
        return params["c"]
    if family == "linear":
        return params["a"] + params["b"]
    if family == "power":
        return 1.0
    if family == "nlog":
        return math.log(2.0)
    return params["prefix"][0]


def setup_probe(tag: str) -> Invocation:
    """An invocation that parses a weight file and does no solver work."""
    name = f"{tag}-setup-lambda.json"
    return Invocation(
        "setup",
        ["shao-sablin", "--lambda", name, "--points", "1"],
        {name: _lambda_text("linear")},
        expect={"kind": "setup"},
    )


def round_invocations(workload: str, seed: int, rnd: int) -> List[Invocation]:
    """The invocations of round `rnd` of a workload, for a workload seed."""
    if workload == "diminish":
        cseed = _rng(workload, seed, rnd).randrange(1, 2 ** 31)
        argv = ["diminish", "--seed", str(cseed), "--cases", str(DIMINISH_CASES), "--nmax", "12"]
        return [Invocation(workload, argv, items=DIMINISH_CASES, expect={"cases": DIMINISH_CASES})]
    if workload == "oracle":
        cseed = _rng(workload, seed, rnd).randrange(1, 2 ** 31)
        argv = ["oracle-check", "--seed", str(cseed), "--cases", str(ORACLE_CASES)]
        return [Invocation(workload, argv, items=ORACLE_CASES, expect={"cases": ORACLE_CASES})]
    if workload == "converge":
        return [_converge(seed, rnd, k) for k in range(8)]
    if workload == "wiener":
        out = []
        for k in range(8):
            family = list(FAMILIES)[k % len(FAMILIES)]
            out.append(_wiener(seed, rnd, k, family))
            out.append(_restricted(seed, rnd, k, family))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _converge(seed: int, rnd: int, k: int) -> Invocation:
    breakpoints = 2 + k
    family = PROPER_FAMILIES[k % len(PROPER_FAMILIES)]
    points = random_points(_rng("converge", seed, rnd, k), breakpoints)
    fn, lam = f"c{rnd}-{k}-fn.json", f"c{rnd}-{k}-lambda.json"
    schedule = ",".join(str(n) for n in CONVERGE_SCHEDULE)
    return Invocation(
        "converge",
        ["converge", "--fn", fn, "--lambda", lam, "--schedule", schedule],
        {fn: _fn_text(points), lam: _lambda_text(family)},
        items=len(CONVERGE_SCHEDULE),
        expect={"schedule": list(CONVERGE_SCHEDULE)},
    )


def _wiener_input(seed: int, rnd: int, k: int, kind: str, family: str):
    rng = _rng("wiener", kind, seed, rnd, k)
    points = random_points(rng, 2 + k)
    upper = sum(abs(b[1] - a[1]) for a, b in zip(points, points[1:])) / first_term(family)
    fn, lam = f"{kind}{rnd}-{k}-fn.json", f"{kind}{rnd}-{k}-lambda.json"
    return rng, points, upper, fn, lam


def _wiener(seed: int, rnd: int, k: int, family: str) -> Invocation:
    _, points, upper, fn, lam = _wiener_input(seed, rnd, k, "w", family)
    deltas = ",".join(repr(d) for d in WIENER_DELTAS)
    return Invocation(
        "wiener",
        ["wiener", "--fn", fn, "--lambda", lam, "--deltas", deltas],
        {fn: _fn_text(points), lam: _lambda_text(family)},
        items=len(WIENER_DELTAS),
        expect={"kind": "profile", "deltas": list(WIENER_DELTAS), "upper": upper},
    )


def _restricted(seed: int, rnd: int, k: int, family: str) -> Invocation:
    rng, points, upper, fn, lam = _wiener_input(seed, rnd, k, "v", family)
    delta = rng.choice(WIENER_DELTAS)
    return Invocation(
        "wiener",
        ["variation", "--fn", fn, "--lambda", lam, "--delta", repr(delta)],
        {fn: _fn_text(points), lam: _lambda_text(family)},
        items=1,
        expect={"kind": "restricted", "upper": upper},
    )


# -- output checks ----------------------------------------------------------


def check_output(inv: Invocation, code: int, stdout: str) -> Optional[str]:
    """None when the output is right for the invocation, else the reason."""
    try:
        if inv.workload == "setup":
            return _check_setup(code, stdout)
        if inv.workload == "diminish":
            return _check_diminish(inv, code, stdout)
        if inv.workload == "oracle":
            return _check_oracle(inv, code, stdout)
        if inv.workload == "converge":
            return _check_converge(inv, code, stdout)
        if inv.expect["kind"] == "profile":
            return _check_profile(inv, code, stdout)
        return _check_restricted(inv, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def _loads(text: str):
    # Rejects NaN and Infinity, which the program never prints on purpose.
    def bad(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=bad)


def _check_setup(code: int, stdout: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    ratios = _loads(stdout)["ratios"]
    if len(ratios) != 1 or ratios[0]["n"] != 1:
        return "wrong ratio rows"
    return None


def _check_report(inv: Invocation, code: int, stdout: str):
    if code != 0:
        return None, f"exit {code}"
    report = _loads(stdout)
    summary = report["summary"]
    if summary["violation_count"] != 0:
        return None, f"violation_count {summary['violation_count']}"
    if summary["cases"] != inv.expect["cases"] or len(report["cases"]) != inv.expect["cases"]:
        return None, f"{len(report['cases'])} cases, expected {inv.expect['cases']}"
    return summary, None


def _check_diminish(inv: Invocation, code: int, stdout: str) -> Optional[str]:
    summary, err = _check_report(inv, code, stdout)
    if err:
        return err
    if summary["skipped"] != 0:
        return f"skipped {summary['skipped']}"
    return None


def _check_oracle(inv: Invocation, code: int, stdout: str) -> Optional[str]:
    summary, err = _check_report(inv, code, stdout)
    if err:
        return err
    if not summary["max_abs_diff"] <= 1e-9:
        return f"max_abs_diff {summary['max_abs_diff']}"
    return None


def _check_converge(inv: Invocation, code: int, stdout: str) -> Optional[str]:
    # Exit 3 is the trend verdict (a heuristic); the table must still be whole.
    if code not in (0, 3):
        return f"exit {code}"
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or ",".join(rows[0]) != CONVERGE_CSV_HEADER:
        return "missing CSV header"
    body = rows[1:]
    schedule = inv.expect["schedule"]
    if len(body) != len(schedule):
        return f"{len(body)} rows, expected {len(schedule)}"
    for row, n in zip(body, schedule):
        kv = dict(pair.split("=", 1) for pair in row[2].split(";"))
        if int(kv["n"]) != n:
            return f"row for n={kv['n']}, expected n={n}"
        for key in ("d_bernstein", "d_kantorovich", "norm_gap"):
            value = float(kv[key])
            if not (math.isfinite(value) and value >= 0.0):
                return f"{key}={kv[key]} at n={n}"
    return None


def _in_range(value: float, upper: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= upper * (1.0 + 1e-12) + 1e-15


def _check_profile(inv: Invocation, code: int, stdout: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    profile = _loads(stdout)["profile"]
    deltas = [d for d, _ in profile]
    if deltas != inv.expect["deltas"]:
        return f"profile deltas {deltas}"
    values = [v for _, v in profile]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-12:
            return f"profile increases from {a!r} to {b!r}"
    for v in values:
        if not _in_range(v, inv.expect["upper"]):
            return f"value {v!r} outside [0, {inv.expect['upper']!r}]"
    return None


def _check_restricted(inv: Invocation, code: int, stdout: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    result = _loads(stdout)
    if result["method"] not in ("exact", "grid-lower-bound"):
        return f"method {result['method']!r}"
    if not _in_range(result["value"], inv.expect["upper"]):
        return f"value {result['value']!r} outside [0, {inv.expect['upper']!r}]"
    return None
