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
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import DomainError, ResourceError, _check_positive_int
from .functions import (  # critical_points: perfbench's tracer test rebinds it here too
    PiecewiseLinear,
    StepFunction,
    critical_points,
    named_function,
    subtract_many,
)
from .lambda_seq import LambdaSequence
from .operators import DEGREE_CAP, _check_degree, _check_work, bernstein_of, kantorovich_of
from .serialize import dumps, format_float
from .variation import (
    _norms_many,
    _variations_many,
    lambda_norm,
    lambda_variation,
    lambda_variation_on_set,
    grid_oracle,
    sigma,
)

_CSV_HEADER = "case_id,inputs_digest,key_values,margin,violation"

#: A diminish margin below -DIMINISH_TOLERANCE is a violation.
DIMINISH_TOLERANCE = 1e-9
#: Largest breakpoint count of a diminish case's random function.
DIMINISH_MAX_BREAKPOINTS = 8
#: The work a diminish run may take: its cases times the sum of
#: n*n + DIMINISH_IMAGE_WORK over the images of one case, both operators
#: counted.  `--cases 1 --nmax 467`, the largest one-case run it admits,
#: takes 2.2-3.2 s on two cores, and `--cases 10 --nmax 209` 3.2-4.8 s.
DIMINISH_WORK_BUDGET = 70_000_000
#: The fixed work of one diminish image, in units of the n*n term: its
#: critical set and candidate solves.  Measured on two cores: an image at
#: degree 1 to 12 takes 0.09-0.10 ms, a unit of n*n about 65 ns.
DIMINISH_IMAGE_WORK = 2_000
#: The work a converge run may take: f's segments times the sum of n*n over
#: the rows of its schedule within the degree cap.  A 9-breakpoint input over
#: `--schedule 4,9999`, about the largest run it admits, takes 6.5-7.5 s on
#: two cores.
CONVERGE_WORK_BUDGET = 800_000_000

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


def _draw_case(seed: int, index: int, max_breakpoints: int) -> Tuple[int, PiecewiseLinear]:
    """Seed and random function of case index of a campaign seeded with seed;
    the function has 2 to max_breakpoints breakpoints."""
    cseed = seed * 1_000_003 + index
    rng = random.Random(cseed)
    bc = rng.randint(2, max_breakpoints)
    return cseed, random_plf(rng.randrange(2 ** 63), bc)


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
    a margin below -DIMINISH_TOLERANCE is a violation.  A case's images are
    solved with f in one _variations_many batch: one critical_points_many
    call, one evaluation pass, and one search per function that scores
    every family.  Functions have 2 to
    DIMINISH_MAX_BREAKPOINTS breakpoints.  Solver resource errors skip the
    whole case, margins and violations included, and are counted, not fatal.
    A degree above the degree cap, or work above DIMINISH_WORK_BUDGET
    (DIMINISH_IMAGE_WORK per image included), is refused before the first
    case.
    """
    cases = _check_positive_int(cases, "cases")
    n_max = _check_positive_int(n_max, "n_max")
    ops = _operator_list(operators)
    seqs = [family_sequence(name) for name in lambda_families]
    if not seqs:
        raise DomainError("lambda_families must not be empty")
    _check_degree(n_max)
    work = cases * len(ops) * sum(n * n + DIMINISH_IMAGE_WORK for n in range(1, n_max + 1))
    if work > DIMINISH_WORK_BUDGET:
        raise ResourceError(
            f"diminish work {work} (cases times the sum of n*n + {DIMINISH_IMAGE_WORK} over "
            f"a case's images) exceeds the budget of {DIMINISH_WORK_BUDGET}"
        )

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

    steps = [(n, op_name, op) for n in range(1, n_max + 1) for op_name, op in ops]
    for index in range(cases):
        cseed, f = _draw_case(seed, index, DIMINISH_MAX_BREAKPOINTS)
        inputs = {"seed": cseed, "points": [[x, y] for x, y in f.breakpoints]}
        images = [op(f, n) for n, _, op in steps]
        try:
            solves = _variations_many([f] + images, seqs)
            _, _, base = next(solves)
            margins = [  # (margin, op, n, family) in loop order
                (b - v, op_name, n, name)
                for (n, op_name, _), (_, _, variations) in zip(steps, solves)
                for name, b, v in zip(lambda_families, base, variations)
            ]
        except ResourceError as exc:
            records.append(_skipped(index, inputs, exc))
            continue
        margin, op_name, n, name = min(margins, key=lambda entry: entry[0])
        outputs = {
            "min_margin": margin, "worst_op": op_name, "worst_n": n, "worst_family": name
        }
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
    of the polynomial at delta must also exceed f(delta).  Degrees above the
    degree cap, or whose work exceeds operators.WORK_BUDGET, are refused
    before the first image.
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
    _check_work(sum(n * n for n in ns) / 2, "the sum of n*n/2 over the degrees")

    f = named_function("counterexample")
    f_at_delta = f.eval(delta)
    baseline = sigma(f, ((0.0, delta), (delta, 1.0)), seq)

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
    are recorded as skipped with the reason and excluded from the trend, as
    are rows above the degree cap; work over the other rows above
    CONVERGE_WORK_BUDGET is refused before the first row.  A row subtracts f
    from B_n f and K_n f in one call (subtract_many), then isolates the two
    differences and B_n f in one batch and evaluates them in one pass
    (_norms_many).
    """
    if not isinstance(f, PiecewiseLinear):
        raise DomainError("convergence study expects a piecewise-linear input")
    if not seq.proper:
        raise DomainError("weight sequence must be proper (terms tending to infinity)")
    ns = [_check_positive_int(n, "n_schedule entry") for n in n_schedule]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("n_schedule must be strictly increasing with >= 2 entries")
    work = (len(f.xs) - 1) * sum(n * n for n in ns if n <= DEGREE_CAP)
    if work > CONVERGE_WORK_BUDGET:
        raise ResourceError(
            f"converge work {work} (segments times the sum of n*n over the rows within "
            f"the degree cap) exceeds the budget of {CONVERGE_WORK_BUDGET}"
        )

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
            q_b, q_k = subtract_many([p, kantorovich_of(f, n)], f)
            d_b, d_k, norm_p = _norms_many([q_b, q_k, p], seq)
            gap = abs(norm_p - norm_f)
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
    breakpoints so the oracle cap is never hit.  Each case is a one-function
    _variations_many batch, whose critical points the oracle then grids.  A
    difference beyond 1e-9 is a violation (margin = 1e-9 - |difference|).
    """
    cases = _check_positive_int(cases, "cases")
    families = sorted(_FAMILY_BUILDERS)
    seqs = [(name, family_sequence(name)) for name in families]
    config = {"seed": seed, "cases": cases, "families": families}
    records: List[dict] = []
    violations: List[dict] = []

    for index in range(cases):
        cseed, f = _draw_case(seed, index, 9)
        name, seq = seqs[index % len(seqs)]
        [(pts, _, (exact,))] = _variations_many([f], [seq])
        oracle = grid_oracle(f, seq, pts)
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
