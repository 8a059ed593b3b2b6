"""Bernstein and Kantorovich polynomial constructions on [0,1].

``bernstein_of(f, n)`` samples f at the nodes k/n; ``kantorovich_of(f, n)``
replaces the samples by exact mean values of f over the n+1 equal subintervals
of length 1/(n+1).  The Kantorovich construction factors through an auxiliary
piecewise-linear function interpolating those mean values at the nodes, which
is exposed for testing the factorization identity.
"""

from __future__ import annotations

import enum

from .errors import InvalidInputError, ResourceError, _check_positive_int
from .functions import BernsteinPoly, PiecewiseLinear, isolate_extrema


class Monotonicity(enum.Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    CONSTANT = "Constant"
    NOT_MONOTONE = "NotMonotone"


#: Largest operator degree.  Memory grows by about 210 bytes per degree, so
#: the cap keeps a run to tens of megabytes and well under a second.
DEGREE_CAP = 1 << 16


def _check_degree(n) -> None:
    _check_positive_int(n, "degree")
    if n > DEGREE_CAP:
        raise ResourceError(f"degree {n} exceeds the degree cap of {DEGREE_CAP}")


def bernstein_of(f, n: int) -> BernsteinPoly:
    """Degree-n Bernstein polynomial of f; coefficients are the node samples."""
    _check_degree(n)
    return BernsteinPoly(tuple(f.eval(k / n) for k in range(n + 1)))


def kantorovich_of(f, n: int) -> BernsteinPoly:
    """Degree-n Kantorovich polynomial of f.

    Coefficient k is the mean of f over [k/(n+1), (k+1)/(n+1)], computed as an
    exact integral; f must therefore be piecewise linear or a step function.
    """
    _check_degree(n)
    if not hasattr(f, "integrate"):
        raise InvalidInputError(
            f"{type(f).__name__} does not support exact integration", field="fn"
        )
    m = n + 1
    coeffs = tuple(m * f.integrate(k / m, (k + 1) / m) for k in range(m))
    return BernsteinPoly(coeffs)


def kantorovich_aux(f, n: int) -> PiecewiseLinear:
    """Piecewise-linear interpolant of the Kantorovich mean values at k/n...

    ...so that ``bernstein_of(kantorovich_aux(f, n), n)`` has exactly the
    coefficients of ``kantorovich_of(f, n)``.
    """
    values = kantorovich_of(f, n).coeffs
    return PiecewiseLinear([(k / n, v) for k, v in enumerate(values)])


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
