"""Seeded verification campaigns.

Each campaign turns an inequality the operators are supposed to satisfy into a
falsification run over random or scheduled inputs and returns an
:class:`ExperimentReport`.  Reports are byte-reproducible from (seed, config):
per-case seeds derive as ``campaign_seed * 1_000_003 + case_index``, so cases
are independent and could run in any order or in parallel without changing the
output.  Reports carry no wall-clock numbers; campaigns are timed from
outside.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Sequence

from .errors import DomainError, ResourceError, _check_positive_int
from .functions import PiecewiseLinear, StepFunction, critical_points, named_function
from .lambda_seq import LambdaSequence
from .operators import _check_degree, bernstein_of, kantorovich_of
from .serialize import dumps, format_float
from .variation import (
    lambda_norm,
    lambda_distance,
    lambda_variation,
    lambda_variation_on_set,
    grid_oracle,
)

_CSV_HEADER = "case_id,inputs_digest,key_values,margin,violation"

#: A diminish margin below -DIMINISH_TOLERANCE is a violation.
DIMINISH_TOLERANCE = 1e-9
#: Largest breakpoint count of a diminish case's random function.
DIMINISH_MAX_BREAKPOINTS = 8

_FAMILY_BUILDERS = {
    "constant": lambda: LambdaSequence.constant(1.0),
    "linear": lambda: LambdaSequence.linear(1.0, 0.0),
    "power": lambda: LambdaSequence.power(0.5),
    "nlog": lambda: LambdaSequence.nlog(),
    "explicit": lambda: LambdaSequence.explicit([1.0, 2.0], 1.0, 1.0),
}


def family_sequence(name: str) -> LambdaSequence:
    """Canonical representative of a named weight-sequence family."""
    try:
        builder = _FAMILY_BUILDERS[name]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; choose from {sorted(_FAMILY_BUILDERS)}"
        ) from None
    return builder()


def _case_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _digest(obj) -> str:
    return hashlib.sha1(dumps(obj).encode("utf-8")).hexdigest()[:12]


def _csv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


class ExperimentReport:
    """Campaign result: config echo, per-case records, violations, summary.

    Every case record has the shape {case_id, inputs, outputs, margin,
    violation}; `inputs` is enough to replay the case in isolation.  The
    report holds only these deterministic values, so its JSON and CSV are
    byte-reproducible.
    """

    __slots__ = ("campaign", "config", "cases", "violations", "summary")

    def __init__(self, campaign, config, cases, violations, summary):
        self.campaign = campaign
        self.config = config
        self.cases = list(cases)
        self.violations = list(violations)
        self.summary = dict(summary)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "campaign": self.campaign,
            "config": self.config,
            "cases": self.cases,
            "violations": self.violations,
            "summary": dict(self.summary),
        }

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for rec in self.cases:
            kv = ";".join(f"{k}={_csv_value(v)}" for k, v in rec["outputs"].items())
            lines.append(
                f"{rec['case_id']},{_digest(rec['inputs'])},{kv},"
                f"{format_float(rec['margin'])},{_csv_value(rec['violation'])}"
            )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"ExperimentReport({self.campaign!r}, cases={len(self.cases)}, "
            f"violations={len(self.violations)})"
        )


def random_plf(
    seed: int,
    breakpoint_count: int,
    monotone: bool = False,
) -> PiecewiseLinear:
    """Deterministic random piecewise-linear function on [0,1].

    Breakpoint x's are 0, 1, and sorted uniform interior draws (redrawn as a
    block, still deterministically, if any spacing falls under 1e-9); y's are
    uniform in [-1, 1], sorted when monotone is set.
    """
    if isinstance(breakpoint_count, bool) or not isinstance(breakpoint_count, int):
        raise DomainError(f"breakpoint_count must be an integer, got {breakpoint_count!r}")
    if not 2 <= breakpoint_count <= 9:
        raise DomainError(f"breakpoint_count must lie in [2, 9], got {breakpoint_count}")
    rng = random.Random(seed)
    interior = breakpoint_count - 2
    while True:
        xs = [0.0] + sorted(rng.uniform(0.0, 1.0) for _ in range(interior)) + [1.0]
        if all(b - a >= 1e-9 for a, b in zip(xs, xs[1:])):
            break
    ys = [rng.uniform(-1.0, 1.0) for _ in range(breakpoint_count)]
    if monotone:
        ys.sort()
    return PiecewiseLinear(list(zip(xs, ys)))


def _operator_list(operators: str):
    ops = {
        "bernstein": (("bernstein", bernstein_of),),
        "kantorovich": (("kantorovich", kantorovich_of),),
        "both": (("bernstein", bernstein_of), ("kantorovich", kantorovich_of)),
    }
    if operators not in ops:
        raise DomainError(
            f"operators must be 'bernstein', 'kantorovich' or 'both', got {operators!r}"
        )
    return ops[operators]


def _case(case_id: int, inputs: dict, outputs: dict, margin: float, violation: bool) -> dict:
    """One case record, in the documented field order."""
    return {
        "case_id": case_id,
        "inputs": inputs,
        "outputs": outputs,
        "margin": margin,
        "violation": violation,
    }


def _skipped(case_id: int, inputs: dict, exc: ResourceError) -> dict:
    """Record of a case that hit a solver cap: kept, but no violation."""
    return _case(case_id, inputs, {"skipped": True, "reason": str(exc)}, 0.0, False)


def run_diminish_campaign(
    seed: int = 42,
    cases: int = 500,
    lambda_families: Sequence[str] = ("constant", "linear", "power"),
    n_max: int = 12,
    operators: str = "both",
) -> ExperimentReport:
    """Check variation(op_n f) <= variation(f) on a random corpus.

    Per case: draw f, compute its variation once per weight family, then for
    every (operator, degree, family) compare against the variation of the
    image polynomial on its own critical set.  margin = V(f) - V(op_n f);
    a margin below -DIMINISH_TOLERANCE is a violation.  Functions have 2 to
    DIMINISH_MAX_BREAKPOINTS breakpoints.  Solver resource errors skip the
    whole case, margins and violations included, and are counted, not fatal.
    A degree above the degree cap is refused before the first case.
    """
    cases = _check_positive_int(cases, "cases")
    n_max = _check_positive_int(n_max, "n_max")
    ops = _operator_list(operators)
    seqs = [(name, family_sequence(name)) for name in lambda_families]
    if not seqs:
        raise DomainError("lambda_families must not be empty")
    _check_degree(n_max)

    config = {
        "seed": seed,
        "cases": cases,
        "lambda_families": list(lambda_families),
        "n_max": n_max,
        "operators": operators,
        "tolerance": DIMINISH_TOLERANCE,
        "max_breakpoints": DIMINISH_MAX_BREAKPOINTS,
    }
    records: List[dict] = []
    violations: List[dict] = []

    for index in range(cases):
        cseed = _case_seed(seed, index)
        rng = random.Random(cseed)
        bc = rng.randint(2, DIMINISH_MAX_BREAKPOINTS)
        f = random_plf(rng.randrange(2 ** 63), bc)
        inputs = {"seed": cseed, "points": [[x, y] for x, y in f.breakpoints]}
        try:
            base = {name: lambda_variation(f, seq).value for name, seq in seqs}
            margins = []  # (margin, op, n, family) in loop order
            for n in range(1, n_max + 1):
                for op_name, op in ops:
                    p = op(f, n)
                    pts = critical_points(p).points
                    for name, seq in seqs:
                        margin = base[name] - lambda_variation_on_set(p, seq, pts).value
                        margins.append((margin, op_name, n, name))
        except ResourceError as exc:
            records.append(_skipped(index, inputs, exc))
            continue
        margin, op_name, n, name = min(margins, key=lambda entry: entry[0])
        outputs = {"min_margin": margin, "worst_op": op_name, "worst_n": n, "worst_family": name}
        records.append(_case(index, inputs, outputs, margin, margin < -DIMINISH_TOLERANCE))
        for margin, op_name, n, name in margins:
            if margin < -DIMINISH_TOLERANCE:
                violations.append(
                    {"case_id": index, "op": op_name, "n": n, "family": name, "margin": margin}
                )

    solved = [rec["margin"] for rec in records if "skipped" not in rec["outputs"]]
    summary = {
        "cases": cases,
        "violation_count": len(violations),
        "min_margin": min(solved, default=0.0),
        "skipped": cases - len(solved),
    }
    return ExperimentReport("diminish", config, records, violations, summary)


def run_counterexample(
    seq: LambdaSequence,
    delta: float = 0.75,
    n_values: Iterable[int] = range(1, 11),
) -> ExperimentReport:
    """Short-interval variation is NOT diminished: exhibit the strict increase.

    Uses the built-in plateau function f with f(0)=0, f(1/3)=f(2/3)=1/2,
    f(1)=1.  Its restricted variation at delta in (2/3, 1) is attained by the
    two-interval system [0,delta],[delta,1] in that order, giving the closed
    form |f(delta)-f(0)|/term(1) + |f(1)-f(delta)|/term(2).  For each degree n
    the same system applied to the image polynomial is a valid lower bound
    (both lengths <= delta), and must already exceed the baseline; the value
    of the polynomial at delta must also exceed f(delta).
    """
    if not seq.term(1) < seq.term(2):
        raise DomainError("weight sequence must have term(1) < term(2)")
    delta = float(delta)
    if not 2.0 / 3.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (2/3, 1), got {delta!r}")
    ns = [_check_positive_int(n, "n") for n in n_values]
    if not ns:
        raise DomainError("n_values must not be empty")
    for n in ns:
        _check_degree(n)

    f = named_function("counterexample")
    f_at_delta = f.eval(delta)
    baseline = abs(f_at_delta - f.eval(0.0)) / seq.term(1) + abs(
        f.eval(1.0) - f_at_delta
    ) / seq.term(2)

    config = {
        "lambda": seq.to_json(),
        "delta": delta,
        "n_values": list(ns),
        "baseline": baseline,
    }
    records: List[dict] = []
    violations: List[dict] = []

    for n in ns:
        p = bernstein_of(f, n)
        value = p.eval(delta)
        # p(0) and p(1) are its end coefficients
        lower = abs(value - p.coeffs[0]) / seq.term(1) + abs(p.coeffs[-1] - value) / seq.term(2)
        excess = lower - baseline
        gap = value - f_at_delta
        margin = min(excess, gap)
        bad = excess <= 0.0 or gap <= 0.0
        outputs = {
            "sigma_lower_bound": lower, "excess": excess, "value_at_delta": value, "value_gap": gap
        }
        records.append(_case(n, {"n": n, "delta": delta}, outputs, margin, bad))
        if bad:
            violations.append({"case_id": n, "excess": excess, "value_gap": gap})

    summary = {
        "baseline": baseline,
        "min_excess": min(rec["outputs"]["excess"] for rec in records),
        "min_value_gap": min(rec["outputs"]["value_gap"] for rec in records),
        "violation_count": len(violations),
    }
    return ExperimentReport("counterexample", config, records, violations, summary)


def run_convergence_study(
    f: PiecewiseLinear,
    seq: LambdaSequence,
    n_schedule: Sequence[int],
) -> ExperimentReport:
    """Tabulate operator distances along a degree schedule and check trends.

    Columns: d_bernstein(n) and d_kantorovich(n) are variation-norm distances
    from f; norm_gap(n) = |norm(B_n f) - norm(f)|.  The trend criterion per
    column is last < first / 2; a column whose first entry is already <= 1e-9
    (exact reproduction) counts as converged.  The criterion is a heuristic that
    depends on the schedule (linear weights: random_plf(2, 8) fails it over
    4..256 and passes over 4..1024).  Rows that exhaust a solver cap
    are recorded as skipped with the reason and excluded from the trend.
    """
    if not isinstance(f, PiecewiseLinear):
        raise DomainError("convergence study expects a piecewise-linear input")
    if not seq.proper:
        raise DomainError("weight sequence must be proper (terms tending to infinity)")
    ns = [_check_positive_int(n, "n_schedule entry") for n in n_schedule]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("n_schedule must be strictly increasing with >= 2 entries")

    norm_f = lambda_norm(f, seq)
    config = {
        "function": f.to_json(),
        "lambda": seq.to_json(),
        "schedule": list(ns),
        "norm": norm_f,
    }
    records: List[dict] = []
    violations: List[dict] = []

    for idx, n in enumerate(ns):
        try:
            p = bernstein_of(f, n)
            d_b = lambda_distance(p, f, seq)
            d_k = lambda_distance(kantorovich_of(f, n), f, seq)
            gap = abs(lambda_norm(p, seq) - norm_f)
        except ResourceError as exc:
            records.append(_skipped(idx, {"n": n}, exc))
            continue
        outputs = {"n": n, "d_bernstein": d_b, "d_kantorovich": d_k, "norm_gap": gap}
        records.append(_case(idx, {"n": n}, outputs, 0.0, False))

    rows = [rec["outputs"] for rec in records if "skipped" not in rec["outputs"]]
    trend: Dict[str, dict] = {}
    for name in ("d_bernstein", "d_kantorovich", "norm_gap"):
        values = [row[name] for row in rows]
        if len(values) < 2:
            trend[name] = {"checked": False}
            continue
        first, last = values[0], values[-1]
        converged = first <= 1e-9 or last < first / 2.0
        trend[name] = {"checked": True, "first": first, "last": last, "converged": converged}
        if not converged:
            violations.append({"column": name, "first": first, "last": last})

    summary = {
        "norm": norm_f,
        "trend": trend,
        "violation_count": len(violations),
    }
    return ExperimentReport("converge", config, records, violations, summary)


def run_oracle_crosscheck(seed: int = 7, cases: int = 200) -> ExperimentReport:
    """Exact subset solver vs the brute-force grid oracle on small corpora.

    Cases cycle through every weight family; functions keep at most 9
    breakpoints so the oracle cap is never hit.  A difference beyond 1e-9 is a
    violation (margin = 1e-9 - |difference|).
    """
    cases = _check_positive_int(cases, "cases")
    families = sorted(_FAMILY_BUILDERS)
    seqs = [(name, family_sequence(name)) for name in families]
    config = {"seed": seed, "cases": cases, "families": families}
    records: List[dict] = []
    violations: List[dict] = []

    for index in range(cases):
        cseed = _case_seed(seed, index)
        rng = random.Random(cseed)
        bc = rng.randint(2, 9)
        f = random_plf(rng.randrange(2 ** 63), bc)
        name, seq = seqs[index % len(seqs)]
        exact = lambda_variation(f, seq).value
        oracle = grid_oracle(f, seq, critical_points(f).points)
        diff = abs(exact - oracle)
        margin = 1e-9 - diff
        bad = diff > 1e-9
        inputs = {"seed": cseed, "family": name, "points": [[x, y] for x, y in f.breakpoints]}
        outputs = {"exact": exact, "oracle": oracle, "abs_diff": diff}
        records.append(_case(index, inputs, outputs, margin, bad))
        if bad:
            violations.append({"case_id": index, "family": name, "abs_diff": diff})

    summary = {
        "cases": cases,
        "max_abs_diff": max(rec["outputs"]["abs_diff"] for rec in records),
        "violation_count": len(violations),
    }
    return ExperimentReport("oracle-check", config, records, violations, summary)


def check_continuity_set(f: StepFunction, seq: LambdaSequence) -> ExperimentReport:
    """Variation of a step function restricted to representative continuity
    points (piece midpoints plus the endpoints) must equal the full variation."""
    if not isinstance(f, StepFunction):
        raise DomainError("continuity-set check expects a step function")
    continuity = sorted(set(f.piece_midpoints()) | {0.0, 1.0})
    full = lambda_variation(f, seq).value
    restricted = lambda_variation_on_set(f, seq, continuity).value
    diff = abs(full - restricted)
    margin = 1e-9 - diff
    bad = diff > 1e-9
    outputs = {"full": full, "on_continuity_set": restricted, "abs_diff": diff}
    record = _case(0, {"function": f.to_json()}, outputs, margin, bad)
    violations = [{"case_id": 0, "abs_diff": diff}] if bad else []
    summary = {"abs_diff": diff, "violation_count": len(violations)}
    config = {"function": f.to_json(), "lambda": seq.to_json()}
    return ExperimentReport("continuity-set", config, [record], violations, summary)
