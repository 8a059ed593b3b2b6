"""Bernstein and Kantorovich polynomial constructions on [0,1].

``bernstein_of(f, n)`` samples f at the nodes k/n; ``kantorovich_of(f, n)``
replaces the samples by exact mean values of f over the n+1 equal subintervals
of length 1/(n+1).
"""

from __future__ import annotations

import enum

from .errors import InvalidInputError, ResourceError, _check_positive_int
from .functions import BernsteinPoly, isolate_extrema


class Monotonicity(enum.Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    CONSTANT = "Constant"
    NOT_MONOTONE = "NotMonotone"


#: Largest operator degree.  Memory grows by about 210 bytes per degree, so
#: the cap keeps a run to tens of megabytes and well under a second.
DEGREE_CAP = 1 << 16
#: The de Casteljau work, about n*n/2 steps per evaluation of a degree-n
#: image, that a `counterexample` run (over its degrees) or an `operator
#: --emit samples:K` run (K evaluations) may take, and (n+1)*d*d for a
#: degree-n Kantorovich image of a degree-d Bernstein input.
#: `counterexample --nmax 1982`, the largest run it admits, takes 6-10 s on
#: two cores; the slowest Kantorovich image it admits, d = 140 at degree
#: 65536, takes 22.8 s (per-cell array overhead, not d*d, dominates).
WORK_BUDGET = 1_300_000_000
#: Largest K of `operator --emit samples:K`.  With WORK_BUDGET it bounds a
#: samples run: the slowest it admits, 1,000 samples at degree 1612, takes
#: 1.5-2.3 s on two cores (one evaluation above degree 48 costs ~1 us a degree).
SAMPLE_CAP = 1_000


def _check_degree(n) -> None:
    _check_positive_int(n, "degree")
    if n > DEGREE_CAP:
        raise ResourceError(f"degree {n} exceeds the degree cap of {DEGREE_CAP}")


def _check_work(work: float, counted: str) -> None:
    """Refuse de Casteljau work above WORK_BUDGET; counted says how it was counted."""
    if work > WORK_BUDGET:
        raise ResourceError(
            f"de Casteljau work {work:.0f} ({counted}) exceeds the budget of {WORK_BUDGET}"
        )


def bernstein_of(f, n: int) -> BernsteinPoly:
    """Degree-n Bernstein polynomial of f; coefficients are the node samples."""
    _check_degree(n)
    return BernsteinPoly(tuple(f.eval(k / n) for k in range(n + 1)))


def kantorovich_of(f, n: int) -> BernsteinPoly:
    """Degree-n Kantorovich polynomial of f.

    Coefficient k is the mean of f over [k/(n+1), (k+1)/(n+1)], computed as an
    exact integral; f must be a PiecewiseLinear, StepFunction or BernsteinPoly.
    A BernsteinPoly of degree d is restricted to each of the n+1 cells by
    two de Casteljau splits, so work (n+1)*d*d above WORK_BUDGET is refused.
    """
    _check_degree(n)
    if isinstance(f, BernsteinPoly):
        _check_work((n + 1) * f.degree * f.degree, "(n+1)*d*d for n+1 cells of a degree-d input")
    if not hasattr(f, "integrate"):
        raise InvalidInputError(
            f"{type(f).__name__} does not support exact integration", field="fn"
        )
    m = n + 1
    coeffs = tuple(m * f.integrate(k / m, (k + 1) / m) for k in range(m))
    return BernsteinPoly(coeffs)


def monotone_certificate(p: BernsteinPoly) -> Monotonicity:
    """Monotonicity of p on its domain (weak sense: flat tangents allowed).

    Coefficient monotonicity is a fast sufficient certificate; otherwise the
    decision falls back to isolating sign changes of the derivative, so a
    polynomial like the one with coefficients [0, 1, 0, 1] (derivative with a
    touch point only) is still classified Increasing.
    """
    c = p.coeffs
    n = p.degree
    if n == 0 or all(x == c[0] for x in c):
        return Monotonicity.CONSTANT
    diffs = [c[k + 1] - c[k] for k in range(n)]
    if all(d >= 0.0 for d in diffs):
        return Monotonicity.INCREASING
    if all(d <= 0.0 for d in diffs):
        return Monotonicity.DECREASING
    crit = isolate_extrema(p)
    if len(crit) > 2:
        return Monotonicity.NOT_MONOTONE
    if c[-1] > c[0]:
        return Monotonicity.INCREASING
    if c[-1] < c[0]:
        return Monotonicity.DECREASING
    return Monotonicity.CONSTANT
