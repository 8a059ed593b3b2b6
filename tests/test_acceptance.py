"""Acceptance suite: one test per advertised guarantee of the package.

Each test prints a single ``[PASS]`` line with the measured numbers when its
guarantee holds (visible with ``pytest -s``); a failed guarantee fails the
test the normal way.  Tolerances are part of the public contract and are
asserted exactly as documented in the README.
"""

import math
import random

import pytest
from scipy.integrate import quad

from lamvar.experiments import (
    check_continuity_set,
    random_plf,
    run_convergence_study,
    run_counterexample,
    run_diminish_campaign,
    run_oracle_crosscheck,
)
from lamvar.functions import (
    BernsteinPoly,
    PiecewiseLinear,
    StepFunction,
    isolate_extrema,
    named_function,
)
from lamvar.lambda_seq import LambdaSequence
from lamvar.operators import Monotonicity, bernstein_of, monotone_certificate
from lamvar.variation import (
    lambda_distance,
    lambda_variation,
    restricted_variation,
    sigma,
    tail_variation,
    wiener_profile,
)


def _report(num: int, name: str, detail: str) -> None:
    print(f"[PASS] criterion {num:02d} {name}: {detail}")


def test_c01_variation_diminishing_campaign():
    rep = run_diminish_campaign(seed=42, cases=500, n_max=12, operators="both",
                                lambda_families=("constant", "linear", "power"))
    assert rep.config["tolerance"] == 1e-9
    assert rep.config["max_breakpoints"] == 8
    assert rep.summary["violation_count"] == 0
    assert rep.summary["skipped"] == 0
    assert rep.summary["min_margin"] >= -1e-9
    _report(1, "variation diminishing",
            f"500 cases, min margin {rep.summary['min_margin']:.3e}, 0 violations")


def test_c02_solver_matches_brute_force_oracle():
    rep = run_oracle_crosscheck(seed=7, cases=200)
    assert rep.summary["violation_count"] == 0
    assert rep.summary["max_abs_diff"] <= 1e-9
    _report(2, "oracle equivalence",
            f"200 cases, max |difference| {rep.summary['max_abs_diff']:.3e}")


def test_c03_short_interval_variation_increases():
    f = named_function("counterexample")
    seq = LambdaSequence.linear(1.0, 0.0)
    restricted = restricted_variation(f, seq, 0.75)
    assert restricted.method == "exact"
    assert abs(restricted.value - 0.8125) <= 1e-12
    system = ((0.0, 0.75), (0.75, 1.0))
    excesses = []
    for n in range(1, 11):
        p = bernstein_of(f, n)
        excess = sigma(p, system, seq) - 0.8125
        assert excess > 0.0, n
        assert p.eval(0.75) > 0.625, n
        excesses.append(excess)
    assert abs(excesses[0] - 0.0625) <= 1e-12
    _report(3, "short-interval increase",
            f"baseline 0.8125, n=1 excess {excesses[0]:.6f}, all 10 degrees positive")


def test_c04_operator_convergence_trend():
    f = named_function("abs_mid")
    seq = LambdaSequence.linear(1.0, 0.0)
    rep = run_convergence_study(f, seq, [4, 16, 64, 256])
    assert rep.ok
    rows = [rec["outputs"] for rec in rep.cases]
    for column in ("d_bernstein", "d_kantorovich"):
        values = [row[column] for row in rows]
        assert all(b < a for a, b in zip(values, values[1:])), column
        assert values[2] < values[0] / 2.0, column
    gaps = [row["norm_gap"] for row in rows]
    assert gaps[-1] < gaps[0]
    _report(4, "convergence trend",
            f"d_B {rows[0]['d_bernstein']:.5f}->{rows[-1]['d_bernstein']:.5f}, "
            f"d_K {rows[0]['d_kantorovich']:.5f}->{rows[-1]['d_kantorovich']:.5f}")


def test_c05_linear_functions_reproduced_exactly():
    seq = LambdaSequence.linear(1.0, 0.0)
    rng = random.Random(505)
    worst_point = 0.0
    worst_norm = 0.0
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        h = PiecewiseLinear([(0.0, b), (1.0, a + b)])
        for n in (1, 8, 64):
            p = bernstein_of(h, n)
            for k in range(100):
                x = k / 99
                worst_point = max(worst_point, abs(p.eval(x) - h.eval(x)))
            worst_norm = max(worst_norm, lambda_distance(p, h, seq))
    assert worst_point <= 1e-12
    assert worst_norm <= 1e-9
    _report(5, "linear reproduction",
            f"max pointwise {worst_point:.2e}, max norm distance {worst_norm:.2e}")


def test_c06_monotonicity_preserved():
    checked = 0
    for case in range(100):
        f = random_plf(9000 + case, 2 + case % 8, monotone=True)
        if case % 2:
            f = PiecewiseLinear([(x, -y) for x, y in f.breakpoints])
            expected = Monotonicity.DECREASING
        else:
            expected = Monotonicity.INCREASING
        for n in range(1, 13):
            assert monotone_certificate(bernstein_of(f, n)) is expected, (case, n)
            checked += 1
    _report(6, "monotonicity preservation", f"{checked} certificates matched")


def test_c07_short_interval_profile_of_identity():
    f = named_function("identity")
    seq = LambdaSequence.linear(1.0, 0.0)
    profile = wiener_profile(f, seq, (1 / 8, 1 / 32, 1 / 128), resolution=128)
    values = [v for _, v in profile]
    assert values[0] > values[1] > values[2]
    assert 0.040 <= values[2] <= 0.045
    closed_form = (1 / 128) * sum(1.0 / k for k in range(1, 129))
    assert abs(values[2] - closed_form) <= 1e-9
    _report(7, "shrinking-interval profile",
            f"{values[0]:.6f} > {values[1]:.6f} > {values[2]:.6f}")


def test_c08_tail_variation_nonincreasing():
    seq = LambdaSequence.linear(1.0, 0.0)
    for case in range(100):
        f = random_plf(7000 + case, 2 + case % 8)
        previous = float("inf")
        for m in range(21):
            value = tail_variation(f, seq, m)
            assert value <= previous + 1e-12, (case, m)
            previous = value
    hat_tail = tail_variation(named_function("hat"), seq, 1)
    assert abs(hat_tail - 5.0 / 6.0) <= 1e-9
    _report(8, "tail monotonicity",
            f"100 functions x 21 tails, hat one-shift value {hat_tail:.9f}")


def test_c09_doubling_ratio_of_weight_sums():
    const = LambdaSequence.constant(1.0)
    for n in list(range(1, 65)) + [100, 1000, 10000]:
        assert const.shao_sablin_ratio(n) == 2.0, n
    lin = LambdaSequence.linear(1.0, 0.0)
    ratios = [lin.shao_sablin_ratio(10 ** k) for k in (2, 3, 4, 5)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert 1.05 < ratios[-1] < 1.12
    _report(9, "doubling ratio",
            f"constant exactly 2, linear at 1e5 = {ratios[-1]:.7f}")


def test_c10_step_functions_measured_on_continuity_points():
    seq_n = LambdaSequence.linear(1.0, 0.0)
    cases = [
        (StepFunction([0.5], [0.0, 1.0], [0.5]), seq_n, 1.0),
        (StepFunction([], [0.7], []), seq_n, 0.0),
        (StepFunction([1 / 3, 2 / 3], [0.0, 0.5, 1.0], [0.25, 0.75]),
         LambdaSequence.constant(1.0), 1.0),
    ]
    diffs = []
    for f, seq, expected in cases:
        rep = check_continuity_set(f, seq)
        assert rep.ok
        assert rep.summary["abs_diff"] <= 1e-9
        assert abs(rep.cases[0]["outputs"]["full"] - expected) <= 1e-9
        diffs.append(rep.summary["abs_diff"])
    _report(10, "continuity-point restriction",
            f"3 cases, max |difference| {max(diffs):.2e}")


def test_c11_unweighted_variation_equals_arc_integral():
    const = LambdaSequence.constant(1.0)
    rng = random.Random(1111)
    worst = 0.0
    for _ in range(50):
        degree = rng.randint(1, 8)
        p = BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(degree + 1)])
        variation = lambda_variation(p, const).value
        dp = p.derivative()
        inner = [x for x in isolate_extrema(p).points if 0.0 < x < 1.0]
        integral, _ = quad(lambda x: abs(dp.eval(x)), 0.0, 1.0,
                           points=inner or None, limit=200)
        worst = max(worst, abs(variation - integral))
    assert worst <= 1e-6
    _report(11, "variation equals derivative integral",
            f"50 polynomials, max |difference| {worst:.2e}")
