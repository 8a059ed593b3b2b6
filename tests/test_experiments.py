"""Campaign runners: determinism, record shapes, and frozen outcomes."""

import hashlib
import random

import pytest

import lamvar.experiments
import lamvar.variation
from lamvar.errors import DomainError, InvalidInputError, ResourceError
from lamvar.experiments import (
    check_continuity_set,
    family_sequence,
    random_plf,
    run_convergence_study,
    run_counterexample,
    run_diminish_campaign,
    run_oracle_crosscheck,
)
from lamvar.functions import (
    BernsteinPoly,
    PiecewiseLinear,
    PiecewisePolynomial,
    StepFunction,
    critical_points,
    isolate_extrema,
    named_function,
)
from lamvar.lambda_seq import LambdaSequence
from lamvar.serialize import dumps
from lamvar.variation import grid_oracle, lambda_variation, lambda_variation_on_set
from lamvar.operators import bernstein_of, kantorovich_of


# -- random function corpus ----------------------------------------------

def test_random_plf_deterministic():
    a = random_plf(123, 5)
    b = random_plf(123, 5)
    assert a.breakpoints == b.breakpoints
    c = random_plf(124, 5)
    assert a.breakpoints != c.breakpoints


def test_random_plf_shape():
    rng = random.Random(3)
    for _ in range(50):
        bc = rng.randint(2, 9)
        f = random_plf(rng.randrange(2 ** 63), bc)
        xs = [x for x, _ in f.breakpoints]
        ys = [y for _, y in f.breakpoints]
        assert len(xs) == bc
        assert xs[0] == 0.0 and xs[-1] == 1.0
        assert all(b - a >= 1e-9 for a, b in zip(xs, xs[1:]))
        assert all(-1.0 <= y <= 1.0 for y in ys)


def test_random_plf_monotone_flag():
    for seed in range(20):
        f = random_plf(seed, 6, monotone=True)
        ys = [y for _, y in f.breakpoints]
        assert ys == sorted(ys)


def test_random_plf_rejects_bad_arguments():
    with pytest.raises(DomainError, match=r"\[2, 9\]"):
        random_plf(1, 1)
    with pytest.raises(DomainError, match=r"\[2, 9\]"):
        random_plf(1, 10)
    with pytest.raises(DomainError, match="integer"):
        random_plf(1, 2.5)


def test_family_sequence_representatives():
    assert family_sequence("constant").term(5) == 1.0
    assert family_sequence("linear").term(5) == 5.0
    assert family_sequence("power").term(4) == 2.0
    assert family_sequence("nlog").term(1) > 0.0
    assert family_sequence("explicit").term(2) == 2.0
    with pytest.raises(DomainError, match="unknown family"):
        family_sequence("cubic")


# -- diminish campaign ---------------------------------------------------

def test_diminish_small_campaign_clean():
    rep = run_diminish_campaign(seed=42, cases=20, n_max=6)
    assert rep.ok
    assert rep.summary["violation_count"] == 0
    assert rep.summary["cases"] == 20
    assert rep.summary["min_margin"] >= 0.0
    assert len(rep.cases) == 20


def test_diminish_record_shape():
    rep = run_diminish_campaign(seed=1, cases=3, n_max=4, operators="bernstein",
                                lambda_families=("constant",))
    for rec in rep.cases:
        assert set(rec) == {"case_id", "inputs", "outputs", "margin", "violation"}
        assert set(rec["inputs"]) == {"seed", "points"}
        assert rec["violation"] is False


def test_diminish_case_replayable():
    rep = run_diminish_campaign(seed=7, cases=4, n_max=5,
                                lambda_families=("constant", "linear"))
    rec = rep.cases[2]
    f = PiecewiseLinear([tuple(p) for p in rec["inputs"]["points"]])
    worst = float("inf")
    for fam in ("constant", "linear"):
        seq = family_sequence(fam)
        base = lambda_variation(f, seq).value
        for n in range(1, 6):
            for op in (bernstein_of, kantorovich_of):
                p = op(f, n)
                pts = critical_points(p).points
                worst = min(worst, base - lambda_variation_on_set(p, seq, pts).value)
    assert abs(worst - rec["margin"]) <= 1e-12


def test_diminish_rejects_bad_config():
    with pytest.raises(DomainError, match="positive integer"):
        run_diminish_campaign(cases=0)
    with pytest.raises(DomainError, match="operators"):
        run_diminish_campaign(cases=1, operators="fourier")
    with pytest.raises(DomainError, match="unknown family"):
        run_diminish_campaign(cases=1, lambda_families=("constant", "weird"))
    with pytest.raises(DomainError, match="not be empty"):
        run_diminish_campaign(cases=1, lambda_families=())


def test_report_serialization_deterministic():
    a = run_diminish_campaign(seed=5, cases=6, n_max=4)
    b = run_diminish_campaign(seed=5, cases=6, n_max=4)
    assert dumps(a.to_json(), indent=2) == dumps(b.to_json(), indent=2)
    assert a.to_csv() == b.to_csv()
    assert repr(a) == "ExperimentReport('diminish', cases=6, violations=0)"


def test_report_csv_shape():
    rep = run_diminish_campaign(seed=5, cases=4, n_max=3)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "case_id,inputs_digest,key_values,margin,violation"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first[1]) == 12
    assert "min_margin=" in first[2]
    assert first[-1] == "false"


# -- short-interval counterexample ---------------------------------------

def test_counterexample_baseline_and_first_degree():
    rep = run_counterexample(LambdaSequence.linear(1.0, 0.0))
    assert rep.ok
    assert abs(rep.summary["baseline"] - 0.8125) <= 1e-12
    rec = rep.cases[0]
    assert rec["case_id"] == 1
    assert abs(rec["outputs"]["sigma_lower_bound"] - 0.875) <= 1e-12
    assert abs(rec["outputs"]["excess"] - 0.0625) <= 1e-12
    assert abs(rec["outputs"]["value_gap"] - 0.125) <= 1e-12


def test_counterexample_every_degree_increases():
    rep = run_counterexample(LambdaSequence.linear(1.0, 0.0), n_values=range(1, 11))
    assert len(rep.cases) == 10
    assert rep.summary["min_excess"] > 0.0
    assert rep.summary["min_value_gap"] > 0.0
    for rec in rep.cases:
        assert rec["outputs"]["excess"] > 0.0


def test_counterexample_other_weights():
    rep = run_counterexample(LambdaSequence.power(0.5), delta=0.8)
    assert rep.ok
    f = named_function("counterexample")
    seq = LambdaSequence.power(0.5)
    want = abs(f.eval(0.8)) / seq.term(1) + abs(1.0 - f.eval(0.8)) / seq.term(2)
    assert abs(rep.summary["baseline"] - want) <= 1e-12


def test_counterexample_rejects_bad_config():
    with pytest.raises(DomainError, match="term"):
        run_counterexample(LambdaSequence.constant(1.0))
    with pytest.raises(DomainError, match="delta"):
        run_counterexample(LambdaSequence.linear(1.0, 0.0), delta=0.5)
    with pytest.raises(DomainError, match="delta"):
        run_counterexample(LambdaSequence.linear(1.0, 0.0), delta=1.0)
    with pytest.raises(DomainError, match="not be empty"):
        run_counterexample(LambdaSequence.linear(1.0, 0.0), n_values=())


# -- convergence study ---------------------------------------------------

def test_convergence_study_abs_mid():
    f = named_function("abs_mid")
    rep = run_convergence_study(f, LambdaSequence.linear(1.0, 0.0), [2, 4, 8, 16])
    assert rep.ok
    row = rep.cases[1]["outputs"]
    assert row["n"] == 4
    assert abs(row["d_bernstein"] - 0.28125) <= 1e-9
    for name in ("d_bernstein", "d_kantorovich", "norm_gap"):
        tr = rep.summary["trend"][name]
        assert tr["checked"] and tr["converged"]
        assert tr["last"] < tr["first"]


def test_convergence_trivial_reproduction_passes():
    f = named_function("identity")
    rep = run_convergence_study(f, LambdaSequence.linear(1.0, 0.0), [2, 8])
    assert rep.ok
    tr = rep.summary["trend"]["d_bernstein"]
    assert tr["first"] <= 1e-9 and tr["converged"]


def test_convergence_rejects_bad_config():
    seq = LambdaSequence.linear(1.0, 0.0)
    f = named_function("hat")
    with pytest.raises(DomainError, match="piecewise-linear"):
        run_convergence_study(BernsteinPoly([0.0, 1.0]), seq, [2, 4])
    with pytest.raises(DomainError, match="proper"):
        run_convergence_study(f, LambdaSequence.constant(1.0), [2, 4])
    with pytest.raises(DomainError, match="strictly increasing"):
        run_convergence_study(f, seq, [4, 2])
    with pytest.raises(DomainError, match="strictly increasing"):
        run_convergence_study(f, seq, [4])


# -- oracle crosscheck ---------------------------------------------------

def test_oracle_crosscheck_agrees():
    rep = run_oracle_crosscheck(seed=7, cases=10)
    assert rep.ok
    assert rep.summary["max_abs_diff"] <= 1e-9
    fams = [rec["inputs"]["family"] for rec in rep.cases[:5]]
    assert fams == ["constant", "explicit", "linear", "nlog", "power"]


def test_oracle_crosscheck_deterministic():
    a = run_oracle_crosscheck(seed=3, cases=6)
    b = run_oracle_crosscheck(seed=3, cases=6)
    assert dumps(a.to_json()) == dumps(b.to_json())



def test_outputs_match_pinned_digests():
    """Campaign bytes are frozen across code changes, not only across reruns.

    Cases weighted by the power and nlog families are left out: their terms
    come from libm pow and log, whose last bit may differ between platforms.
    """
    def sha1(text):
        return hashlib.sha1(text.encode("utf-8")).hexdigest()

    diminish = run_diminish_campaign(seed=42, cases=20, lambda_families=("constant", "linear"))
    oracle = [
        rec for rec in run_oracle_crosscheck(seed=7, cases=40).to_json()["cases"]
        if rec["inputs"]["family"] not in ("power", "nlog")
    ]
    converge = run_convergence_study(
        random_plf(11, 6), LambdaSequence.linear(1.0, 0.0), [4, 16, 64, 256]
    )
    # isolated roots on both sides of the numpy cutover, up to degree 1023
    rng = random.Random(6)
    polys = [
        BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(n + 1)])
        for n in list(range(2, 13)) * 3 + [48, 49]
    ]
    polys += [bernstein_of(random_plf(n, 5), n) for n in (48, 49, 200, 1023)]
    roots = [isolate_extrema(p).points for p in polys]
    assert len(oracle) == 24
    assert {
        "diminish": sha1(dumps(diminish.to_json(), indent=2)),
        "oracle": sha1(dumps(oracle, indent=2)),
        "converge": sha1(converge.to_csv()),
        "roots": sha1(dumps(roots)),
    } == {
        "diminish": "09e4fb9d76d67818afbf1ecc84bf949484981ed2",
        "oracle": "671eb0d20094d697bed1b20ff25f80132ce74949",
        "converge": "f9638895d063104d0c8a7d9a16af71b822d78082",
        "roots": "16af5b6d3b2c83808f6fc6f467cbcdda34a84286",
    }

# -- continuity-set check ------------------------------------------------

def test_continuity_set_matches_full_variation():
    f = StepFunction([0.3, 0.7], [0.0, 1.0, 0.25], [0.5, 0.5])
    for seq in (LambdaSequence.constant(1.0), LambdaSequence.linear(1.0, 0.0)):
        rep = check_continuity_set(f, seq)
        assert rep.ok
        assert rep.summary["abs_diff"] <= 1e-9


def test_continuity_set_rejects_non_step():
    with pytest.raises(DomainError, match="step"):
        check_continuity_set(named_function("hat"), LambdaSequence.constant(1.0))


# -- each campaign can report what it exists to report --------------------

def _tripled_bernstein(f, n):
    """A stand-in operator that triples every variation it touches."""
    return BernsteinPoly([3.0 * c for c in bernstein_of(f, n).coeffs])


def test_diminish_reports_violations(monkeypatch):
    monkeypatch.setattr(lamvar.experiments, "bernstein_of", _tripled_bernstein)
    rep = run_diminish_campaign(seed=1, cases=3, n_max=4, operators="bernstein",
                                lambda_families=("constant", "linear"))
    assert not rep.ok
    assert rep.summary["violation_count"] == len(rep.violations) == 2
    assert [rec["violation"] for rec in rep.cases] == [False, False, True]
    bad = rep.cases[2]
    assert [v["case_id"] for v in rep.violations] == [2, 2]
    assert all(set(v) == {"case_id", "op", "n", "family", "margin"} for v in rep.violations)
    # the record's worst entry is the case's smallest margin
    assert bad["margin"] == min(v["margin"] for v in rep.violations) < -1e-9
    assert bad["outputs"]["worst_n"] in {v["n"] for v in rep.violations}
    assert rep.summary["min_margin"] == bad["margin"]


def test_diminish_reports_skips(monkeypatch):
    monkeypatch.setattr(lamvar.variation, "SOLVER_POINT_CAP", 2)
    rep = run_diminish_campaign(seed=1, cases=4, n_max=2)
    assert rep.ok
    assert rep.summary["skipped"] == 4
    for rec in rep.cases:
        assert rec["outputs"]["skipped"] is True
        assert "exceed the solver cap of 2" in rec["outputs"]["reason"]
        assert rec["violation"] is False


def test_diminish_skipped_case_keeps_no_violations(monkeypatch):
    # violates at n = 1, then the solver hits a cap at n = 2: the whole case
    # is skipped, so none of its margins may stand as a violation
    solve = lamvar.experiments.lambda_variation_on_set

    def flaky(p, seq, points):
        if p.degree == 2:
            raise ResourceError("stand-in cap")
        return solve(p, seq, points)

    # degree n, and far more variation than any input
    monkeypatch.setattr(lamvar.experiments, "bernstein_of",
                        lambda f, n: BernsteinPoly([0.0] + [100.0] * n))
    monkeypatch.setattr(lamvar.experiments, "lambda_variation_on_set", flaky)
    rep = run_diminish_campaign(seed=1, cases=3, n_max=2, operators="bernstein")
    assert rep.violations == []
    assert rep.ok
    assert rep.summary["skipped"] == 3
    assert all(rec["outputs"] == {"skipped": True, "reason": "stand-in cap"} for rec in rep.cases)


def test_diminish_budget_trip_skips_only_its_case(monkeypatch):
    # the images of a block are isolated together; a panel-budget error is
    # carried to its own case, with the message isolating it alone gives
    monkeypatch.setattr(lamvar.functions, "_MAX_PANELS", 200)
    clean = run_diminish_campaign(seed=1, cases=3, n_max=2, operators="bernstein")
    wavy = BernsteinPoly([0.0, 1.0, -1.0, 1.0, -1.0, 1.0, 0.5])  # needs > 200 panels
    with pytest.raises(ResourceError) as stall:
        isolate_extrema(wavy)
    target = clean.cases[1]["inputs"]["points"]

    def stand_in(f, n):
        if n == 2 and [[x, y] for x, y in f.breakpoints] == target:
            return wavy
        return bernstein_of(f, n)

    monkeypatch.setattr(lamvar.experiments, "bernstein_of", stand_in)
    rep = run_diminish_campaign(seed=1, cases=3, n_max=2, operators="bernstein")
    assert rep.cases[1]["outputs"] == {"skipped": True, "reason": str(stall.value)}
    assert [rep.cases[0], rep.cases[2]] == [clean.cases[0], clean.cases[2]]
    assert rep.summary["skipped"] == 1


def test_counterexample_reports_a_flat_image(monkeypatch):
    monkeypatch.setattr(lamvar.experiments, "bernstein_of",
                        lambda f, n: BernsteinPoly([0.0] * (n + 1)))
    rep = run_counterexample(LambdaSequence.linear(1.0, 0.0), n_values=(1, 2))
    assert not rep.ok
    assert [v["case_id"] for v in rep.violations] == [1, 2]
    for rec in rep.cases:
        assert rec["violation"] is True
        assert rec["outputs"]["sigma_lower_bound"] == 0.0
        assert rec["outputs"]["excess"] == -rep.summary["baseline"]


def test_oracle_crosscheck_reports_a_disagreement(monkeypatch):
    monkeypatch.setattr(lamvar.experiments, "grid_oracle",
                        lambda f, seq, grid: grid_oracle(f, seq, grid) + 1.0)
    rep = run_oracle_crosscheck(seed=7, cases=3)
    assert not rep.ok
    assert [v["case_id"] for v in rep.violations] == [0, 1, 2]
    for rec in rep.cases:
        assert rec["violation"] is True
        assert rec["margin"] < 0.0
        assert rec["outputs"]["abs_diff"] == pytest.approx(1.0)


def test_convergence_skipped_row_leaves_trends_unchecked():
    f = named_function("abs_mid")
    rep = run_convergence_study(f, LambdaSequence.linear(1.0, 0.0), [4, 70000])
    assert rep.ok
    assert rep.cases[1]["inputs"] == {"n": 70000}
    assert rep.cases[1]["outputs"] == {
        "skipped": True, "reason": "degree 70000 exceeds the degree cap of 65536"
    }
    assert rep.summary["trend"] == {
        name: {"checked": False} for name in ("d_bernstein", "d_kantorovich", "norm_gap")
    }


def test_convergence_carries_row_errors(monkeypatch):
    # converge builds a row's operands before it isolates them; an error met
    # while building is raised or skipped where the row's own order meets it
    f = named_function("abs_mid")
    seq = LambdaSequence.linear(1.0, 0.0)
    schedule = [4, 16, 64]
    plain = run_convergence_study(f, seq, schedule)
    k16 = kantorovich_of(f, 16).coeffs
    real_subtract = lamvar.experiments.subtract

    def subtract(p, g):
        if p.coeffs == k16:
            raise InvalidInputError("stand-in overflow", field="fn")
        return real_subtract(p, g)

    monkeypatch.setattr(lamvar.experiments, "subtract", subtract)
    with pytest.raises(InvalidInputError, match="fn: stand-in overflow"):
        run_convergence_study(f, seq, schedule)

    # the Bernstein side's norm comes first in the row, so its cap skips the
    # row before the carried error is reached, and the run goes on
    real_norm = lamvar.experiments._norm_on_points

    def norm_on_points(q, seq, pts):
        if isinstance(q, PiecewisePolynomial) and q.pieces[0].degree == 16:
            raise ResourceError("stand-in cap")
        return real_norm(q, seq, pts)

    monkeypatch.setattr(lamvar.experiments, "_norm_on_points", norm_on_points)
    rep = run_convergence_study(f, seq, schedule)
    assert rep.cases[1]["outputs"] == {"skipped": True, "reason": "stand-in cap"}
    assert [rep.cases[0], rep.cases[2]] == [plain.cases[0], plain.cases[2]]
