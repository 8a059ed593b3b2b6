"""Command-line front end.

Reads function and weight-sequence descriptions from JSON files, dispatches to
the solvers and campaigns, and emits JSON or CSV with 17-significant-digit
floats and fixed field order, so identical invocations produce byte-identical
output.

Exit codes: 0 success, 1 usage error, 2 invalid input (message names the
offending field), 3 property violation detected by a computation or campaign,
4 resource limit (solver cap) exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import experiments
from .errors import (
    DomainError,
    InvalidInputError,
    PropertyViolationError,
    ResourceError,
)
from .functions import eval_many
from .operators import SAMPLE_CAP, _check_work, bernstein_of, kantorovich_of
from .serialize import dumps, format_float, load_function_file, load_lambda_file
from .variation import lambda_variation, restricted_variation, wiener_profile


def _parse_list(text: str, field: str, kind: type) -> list:
    """Comma-separated entries converted by `kind` (int or float)."""
    out = []
    for i, chunk in enumerate(text.split(",")):
        try:
            out.append(kind(chunk))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise InvalidInputError(
                f"entry {i} is not {noun}: {chunk!r}", field=field
            ) from None
    return out


def _split_names(text: str, field: str) -> List[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise InvalidInputError("expected a comma-separated list", field=field)
    return names


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}", field="out") from exc


def _emit_report(report: experiments.ExperimentReport, out: Optional[str], as_csv: bool) -> int:
    text = report.to_csv() if as_csv else dumps(report.to_json(), indent=2) + "\n"
    if out:
        _write_text(out, text)
        summary = {"campaign": report.campaign, "out": out, "summary": report.summary}
        sys.stdout.write(dumps(summary, indent=2) + "\n")
    else:
        sys.stdout.write(text)
    return 3 if report.violations else 0


def _cmd_variation(args) -> int:
    f = load_function_file(args.fn)
    seq = load_lambda_file(args.lam)
    if args.tail is not None:
        seq = seq.tail(args.tail)
    if args.delta is not None:
        result = restricted_variation(f, seq, args.delta, args.resolution)
    else:
        result = lambda_variation(f, seq)
    sys.stdout.write(dumps(result.to_json(), indent=2) + "\n")
    return 0


def _cmd_operator(args) -> int:
    f = load_function_file(args.fn)
    op = bernstein_of if args.op == "bernstein" else kantorovich_of
    p = op(f, args.n)
    if args.emit == "coeffs":
        lines = ["index,coefficient"]
        lines += [f"{i},{format_float(c)}" for i, c in enumerate(p.coeffs)]
    elif args.emit.startswith("samples:"):
        try:
            count = int(args.emit.split(":", 1)[1])
        except ValueError:
            count = 0
        if count < 2:
            raise InvalidInputError(
                f"samples:K needs an integer K >= 2, got {args.emit!r}", field="emit"
            )
        if count > SAMPLE_CAP:
            raise ResourceError(f"{count} samples exceed the sample cap of {SAMPLE_CAP}")
        _check_work(count * p.degree * p.degree / 2, "K*n*n/2 for K samples at degree n")
        xs = [i / (count - 1) for i in range(count)]
        values = eval_many([p], [xs])[0]
        lines = ["x,value"]
        lines += [f"{format_float(x)},{format_float(v)}" for x, v in zip(xs, values)]
    else:
        raise InvalidInputError(
            f"expected 'coeffs' or 'samples:K', got {args.emit!r}", field="emit"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_diminish(args) -> int:
    report = experiments.run_diminish_campaign(
        seed=args.seed,
        cases=args.cases,
        lambda_families=_split_names(args.lambdas, "lambdas"),
        n_max=args.nmax,
        operators=args.ops,
    )
    return _emit_report(report, args.out, as_csv=False)


def _cmd_counterexample(args) -> int:
    seq = load_lambda_file(args.lam)
    report = experiments.run_counterexample(seq, args.delta, range(1, args.nmax + 1))
    return _emit_report(report, None, as_csv=False)


def _cmd_converge(args) -> int:
    f = load_function_file(args.fn)
    seq = load_lambda_file(args.lam)
    report = experiments.run_convergence_study(f, seq, _parse_list(args.schedule, "schedule", int))
    return _emit_report(report, args.out, as_csv=True)


def _cmd_wiener(args) -> int:
    f = load_function_file(args.fn)
    seq = load_lambda_file(args.lam)
    deltas = _parse_list(args.deltas, "deltas", float)
    profile = wiener_profile(f, seq, deltas, resolution=args.resolution)
    sys.stdout.write(dumps({"profile": [[d, v] for d, v in profile]}, indent=2) + "\n")
    return 0


def _cmd_shao_sablin(args) -> int:
    seq = load_lambda_file(args.lam)
    points = _parse_list(args.points, "points", int)
    ratios = [{"n": n, "ratio": seq.shao_sablin_ratio(n)} for n in points]
    sys.stdout.write(dumps({"ratios": ratios}, indent=2) + "\n")
    return 0


def _cmd_oracle_check(args) -> int:
    report = experiments.run_oracle_crosscheck(seed=args.seed, cases=args.cases)
    return _emit_report(report, None, as_csv=False)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamvar",
        description="Weighted-variation solvers, polynomial operators, and "
        "seeded verification campaigns on [0,1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("variation", help="weighted variation of a function")
    p.add_argument("--fn", required=True, help="function JSON file")
    p.add_argument("--lambda", dest="lam", required=True, help="weight-sequence JSON file")
    p.add_argument("--tail", type=int, default=None, help="drop the first m weights")
    p.add_argument("--delta", type=float, default=None, help="restrict interval lengths to <= delta")
    p.add_argument("--resolution", type=int, default=8, help="uniform grid fineness for --delta")
    p.set_defaults(handler=_cmd_variation)

    p = sub.add_parser(
        "operator",
        help="apply a polynomial operator",
        description="Emits CSV: 'index,coefficient' rows for --emit coeffs, "
        "'x,value' rows for --emit samples:K.",
    )
    p.add_argument("--op", required=True, choices=("bernstein", "kantorovich"))
    p.add_argument("--fn", required=True, help="function JSON file")
    p.add_argument("-n", type=int, required=True, help="operator degree")
    p.add_argument("--emit", default="coeffs", help="'coeffs' or 'samples:K'")
    p.set_defaults(handler=_cmd_operator)

    p = sub.add_parser(
        "diminish", help="random campaign checking the variation-diminishing inequality"
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--ops", default="both", choices=("bernstein", "kantorovich", "both"))
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--lambdas", default="constant,linear,power")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(handler=_cmd_diminish)

    p = sub.add_parser(
        "counterexample",
        help="strict increase of short-interval variation under the degree-n operator",
    )
    p.add_argument("--lambda", dest="lam", required=True, help="weight-sequence JSON file")
    p.add_argument("--delta", type=float, default=0.75)
    p.add_argument("--nmax", type=int, default=10)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser(
        "converge",
        help="operator distance table along a degree schedule",
        description="CSV columns: case_id,inputs_digest,key_values,margin,violation.  The "
        "verdict (last < first/2 per column, else exit 3) is a heuristic: it depends on the schedule.",
    )
    p.add_argument("--fn", required=True, help="function JSON file")
    p.add_argument("--lambda", dest="lam", required=True, help="weight-sequence JSON file")
    p.add_argument("--schedule", required=True, help="comma-separated degrees, increasing")
    p.add_argument("--out", default=None, help="write the CSV table here")
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("wiener", help="short-interval variation profile over a delta schedule")
    p.add_argument("--fn", required=True, help="function JSON file")
    p.add_argument("--lambda", dest="lam", required=True, help="weight-sequence JSON file")
    p.add_argument("--deltas", required=True, help="comma-separated deltas, strictly decreasing")
    p.add_argument("--resolution", type=int, default=128, help="uniform grid fineness")
    p.set_defaults(handler=_cmd_wiener)

    p = sub.add_parser("shao-sablin", help="doubling ratio of reciprocal partial sums")
    p.add_argument("--lambda", dest="lam", required=True, help="weight-sequence JSON file")
    p.add_argument("--points", required=True, help="comma-separated values of n")
    p.set_defaults(handler=_cmd_shao_sablin)

    p = sub.add_parser("oracle-check", help="exact solver vs brute-force oracle campaign")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=200)
    p.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    codes = {InvalidInputError: 2, DomainError: 2, PropertyViolationError: 3, ResourceError: 4}
    try:
        return args.handler(args)
    except tuple(codes) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return codes[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
