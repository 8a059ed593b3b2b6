"""Function models on [0,1].

Four exactly-representable classes: piecewise-linear functions, step functions
with explicit values at their jump points, polynomials in the Bernstein basis
(optionally restricted to a subinterval), and piecewise collections of the
latter.  Polynomial evaluation, restriction and splitting all go through one
de Casteljau kernel, ``_dc_split`` (a value is the last coefficient of the
left half); coefficients are never converted to the monomial basis.  Degree
elevation runs one vectorized step per degree and reproduces the scalar
recurrence bit for bit.  Extrema are isolated by subdivision driven by
coefficient sign certificates, level by level over every polynomial of a batch
at once; a root is the midpoint of the gap between two certified panels of
opposite sign.

Evaluation identities hold to 1e-12.  Root positions are resolved to
``MERGE_TOL`` (1e-12), the distance at which critical points merge.
"""

from __future__ import annotations

import bisect
import math
from functools import singledispatch
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, InvalidInputError, ResourceError, _check_positive_int

# Degree above which _dc_split, the one de Casteljau kernel (evaluation reads
# its last left-edge coefficient), runs on numpy arrays; nothing else forks.
# One split costs 12 us (list) vs 45 us (arrays) at degree 12 and 38 ms vs
# 4.8 ms at degree 1023 (Python 3.11, 2-core Xeon); diminish and converge need
# both.  Elevation, which only subtract calls, is on arrays at every degree: in
# a converge benchmark round that costs ~10 ms at degrees 4 and 16, saves ~5 s at 1024.
_NUMPY_CUTOVER = 48
_MAX_PANELS = 20000
# Coefficients that root isolation splits in one array step: 32 panels of a
# degree-1024 derivative, so a wide level's scratch arrays stay ~256 KB each.
_SPLIT_COEFFS = 32 * 1024
# Points closer than this are one point: derivative roots are resolved to it,
# critical sets and candidate lists merge at it, polynomial arguments and
# interval endpoints may lie this far outside their domains, and the pieces of a
# piecewise polynomial agree to it (relative to their scale) at their seams.
MERGE_TOL = 1e-12

TAG_ENDPOINT = "endpoint"
TAG_BREAKPOINT = "breakpoint"
TAG_ROOT = "isolated-root"
TAG_REPRESENTATIVE = "piece-representative"


def _require_finite(values: Sequence[float], field: str) -> None:
    """Reject the first NaN or infinity in values, naming it field.format(index)."""
    if not all(map(math.isfinite, values)):
        i = next(i for i, v in enumerate(values) if not math.isfinite(v))
        raise InvalidInputError("must be finite", field=field.format(i))


def _check_unit_interval(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument {x!r} lies outside [0, 1]")


def _check_bounds(a: float, b: float) -> None:
    _check_unit_interval(a)
    _check_unit_interval(b)
    if a > b:
        raise DomainError(f"integration bounds out of order: {a} > {b}")


class PiecewiseLinear:
    """Continuous piecewise-linear function given by breakpoints on [0,1]."""

    __slots__ = ("xs", "ys")

    def __init__(self, points: Iterable[Tuple[float, float]]):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            raise InvalidInputError("need at least two breakpoints", field="points")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        _require_finite(xs, "points[{}][0]")
        _require_finite(ys, "points[{}][1]")
        if xs[0] != 0.0:
            raise InvalidInputError("first x must be 0", field="points[0][0]")
        if xs[-1] != 1.0:
            raise InvalidInputError(
                "last x must be 1", field=f"points[{len(pts) - 1}][0]"
            )
        for i in range(1, len(xs)):
            if xs[i] <= xs[i - 1]:
                raise InvalidInputError(
                    "x coordinates must be strictly increasing", field=f"points[{i}][0]"
                )
            if not math.isfinite(ys[i] - ys[i - 1]):
                raise InvalidInputError(
                    "increment from the previous point overflows", field=f"points[{i}][1]"
                )
        self.xs = tuple(xs)
        self.ys = tuple(ys)

    @property
    def breakpoints(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self.xs, self.ys))

    def eval(self, x: float) -> float:
        _check_unit_interval(x)
        i = bisect.bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            return self.ys[i]
        x0, x1 = self.xs[i - 1], self.xs[i]
        y0, y1 = self.ys[i - 1], self.ys[i]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    __call__ = eval

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b] by trapezoids on each linear piece."""
        _check_bounds(a, b)
        total = 0.0
        for i in range(len(self.xs) - 1):
            lo = max(a, self.xs[i])
            hi = min(b, self.xs[i + 1])
            if hi > lo:
                # halving each end first keeps the mean finite where the sum overflows
                total += (0.5 * self.eval(lo) + 0.5 * self.eval(hi)) * (hi - lo)
        return total

    def total_variation(self) -> float:
        return sum(abs(self.ys[i + 1] - self.ys[i]) for i in range(len(self.ys) - 1))

    def to_json(self) -> dict:
        return {"type": "plf", "points": [[x, y] for x, y in self.breakpoints]}

    def __repr__(self) -> str:
        return f"PiecewiseLinear({len(self.xs)} breakpoints)"


class StepFunction:
    """Right-open step function with explicit values at its cut points.

    ``cuts`` are the jump locations in (0,1); ``piece_values[i]`` is the value
    on the i-th open piece; ``point_values[i]`` is the value taken exactly at
    ``cuts[i]`` and must lie between the two adjacent piece values (a standing
    invariant of the class of step functions treated here).
    """

    __slots__ = ("cuts", "piece_values", "point_values")

    def __init__(self, cuts, piece_values, point_values):
        cuts = tuple(float(c) for c in cuts)
        piece_values = tuple(float(v) for v in piece_values)
        point_values = tuple(float(v) for v in point_values)
        _require_finite(piece_values, "pieces[{}]")
        for i, c in enumerate(cuts):
            if not 0.0 < c < 1.0:
                raise InvalidInputError("cut must lie in (0, 1)", field=f"cuts[{i}]")
            if i and c <= cuts[i - 1]:
                raise InvalidInputError(
                    "cuts must be strictly increasing", field=f"cuts[{i}]"
                )
        if len(piece_values) != len(cuts) + 1:
            raise InvalidInputError(
                f"expected {len(cuts) + 1} piece values, got {len(piece_values)}",
                field="pieces",
            )
        if len(point_values) != len(cuts):
            raise InvalidInputError(
                f"expected {len(cuts)} point values, got {len(point_values)}",
                field="pointValues",
            )
        for i, v in enumerate(point_values):
            lo = min(piece_values[i], piece_values[i + 1])
            hi = max(piece_values[i], piece_values[i + 1])
            if not lo <= v <= hi:
                raise InvalidInputError(
                    f"value {v!r} lies outside the adjacent piece range [{lo}, {hi}]",
                    field=f"pointValues[{i}]",
                )
        self.cuts = cuts
        self.piece_values = piece_values
        self.point_values = point_values

    def eval(self, x: float) -> float:
        _check_unit_interval(x)
        i = bisect.bisect_left(self.cuts, x)
        if i < len(self.cuts) and self.cuts[i] == x:
            return self.point_values[i]
        return self.piece_values[i]

    __call__ = eval

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b]; the cut points carry no measure."""
        _check_bounds(a, b)
        edges = (0.0,) + self.cuts + (1.0,)
        total = 0.0
        for i, v in enumerate(self.piece_values):
            lo = max(a, edges[i])
            hi = min(b, edges[i + 1])
            if hi > lo:
                total += v * (hi - lo)
        return total

    def piece_midpoints(self) -> Tuple[float, ...]:
        edges = (0.0,) + self.cuts + (1.0,)
        return tuple(0.5 * (edges[i] + edges[i + 1]) for i in range(len(edges) - 1))

    def to_json(self) -> dict:
        return {
            "type": "step",
            "cuts": list(self.cuts),
            "pieces": list(self.piece_values),
            "pointValues": list(self.point_values),
        }

    def __repr__(self) -> str:
        return f"StepFunction({len(self.cuts)} cuts)"


# -- de Casteljau kernel --------------------------------------------------


def _dc_split(coeffs: Sequence[float], t: float) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Coefficients of the two halves at parameter t (both on local [0,1])."""
    n = len(coeffs) - 1
    s = 1.0 - t
    if n > _NUMPY_CUTOVER:
        w = np.asarray(coeffs, dtype=np.float64)
        left = [float(w[0])]
        right = [float(w[-1])]
        for _ in range(n):
            w = s * w[:-1] + t * w[1:]
            left.append(float(w[0]))
            right.append(float(w[-1]))
        return tuple(left), tuple(reversed(right))
    w = list(coeffs)
    left = [w[0]]
    right = [w[-1]]
    for m in range(n, 0, -1):
        for i in range(m):
            w[i] = s * w[i] + t * w[i + 1]
        left.append(w[0])
        right.append(w[m - 1])
    return tuple(left), tuple(reversed(right))


class BernsteinPoly:
    """Polynomial in the Bernstein basis on a subinterval [a, b] of [0, 1].

    With local parameter t = (x - a)/(b - a), the function is
    ``sum_k coeffs[k] * C(n,k) t^k (1-t)^(n-k)``.  Evaluation is by the de
    Casteljau recurrence, which reproduces the endpoint coefficients exactly.
    """

    __slots__ = ("coeffs", "a", "b")

    def __init__(self, coeffs: Sequence[float], domain: Tuple[float, float] = (0.0, 1.0)):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise InvalidInputError("need at least one coefficient", field="coeffs")
        _require_finite(coeffs, "coeffs[{}]")
        a, b = float(domain[0]), float(domain[1])
        if not (0.0 <= a < b <= 1.0):
            raise InvalidInputError(
                f"domain [{a}, {b}] must be a nondegenerate subinterval of [0, 1]",
                field="domain",
            )
        self.coeffs = coeffs
        self.a = a
        self.b = b

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def domain(self) -> Tuple[float, float]:
        return (self.a, self.b)

    def _local(self, x: float) -> float:
        t = (x - self.a) / (self.b - self.a)
        if t < -MERGE_TOL or t > 1.0 + MERGE_TOL:
            raise DomainError(f"argument {x!r} lies outside [{self.a}, {self.b}]")
        return min(1.0, max(0.0, t))

    def eval(self, x: float) -> float:
        t = self._local(x)
        # At an end each kernel step adds a signed zero to the end coefficient,
        # which leaves a nonzero one as it is; a zero one goes through the
        # kernel, which turns -0.0 into +0.0 next to a positive neighbour.
        end = self.coeffs[0] if t == 0.0 else self.coeffs[-1] if t == 1.0 else 0.0
        if end != 0.0:
            return end
        return _dc_split(self.coeffs, t)[0][-1]

    __call__ = eval

    def derivative(self) -> "BernsteinPoly":
        """Derivative with respect to x (chain-rule factor 1/(b-a) included)."""
        n = self.degree
        if n == 0:
            return BernsteinPoly((0.0,), self.domain)
        scale = n / (self.b - self.a)
        d = tuple(scale * (self.coeffs[k + 1] - self.coeffs[k]) for k in range(n))
        return BernsteinPoly(d, self.domain)

    def elevate(self, r: int = 1) -> "BernsteinPoly":
        """Degree elevation by r; the function is unchanged.  One array step per
        degree does the scalar recurrence's IEEE operations in order, bit for bit."""
        _check_positive_int(r, "elevation count")
        c = np.asarray(self.coeffs, dtype=np.float64)
        for _ in range(r):
            n = len(c) - 1
            w = np.arange(1, n + 1) / (n + 1)
            out = np.empty(n + 2)
            out[0], out[-1] = c[0], c[-1]
            out[1:-1] = w * c[:-1] + (1.0 - w) * c[1:]
            c = out
        return BernsteinPoly(c, self.domain)

    def restrict(self, u: float, v: float) -> "BernsteinPoly":
        """The same function on [u, v], reparametrized by de Casteljau splits."""
        if not (self.a <= u < v <= self.b):
            raise DomainError(
                f"[{u}, {v}] is not a nondegenerate subinterval of [{self.a}, {self.b}]"
            )
        width = self.b - self.a
        tu = (u - self.a) / width
        tv = (v - self.a) / width
        c = self.coeffs
        if tu > 0.0:
            _, c = _dc_split(c, tu)
        if tv < 1.0:
            t2 = (tv - tu) / (1.0 - tu)
            c, _ = _dc_split(c, t2)
        return BernsteinPoly(c, (u, v))

    def to_json(self) -> dict:
        return {"type": "bernstein", "coeffs": list(self.coeffs)}

    def __repr__(self) -> str:
        return f"BernsteinPoly(degree={self.degree}, domain=({self.a:g}, {self.b:g}))"


class PiecewisePolynomial:
    """Bernstein pieces whose domains partition [0,1] and agree at the seams."""

    __slots__ = ("pieces", "_rights")

    def __init__(self, pieces: Sequence[BernsteinPoly]):
        pieces = tuple(pieces)
        if not pieces:
            raise InvalidInputError("need at least one piece", field="pieces")
        if pieces[0].a != 0.0:
            raise InvalidInputError("first piece must start at 0", field="pieces[0]")
        if pieces[-1].b != 1.0:
            raise InvalidInputError(
                "last piece must end at 1", field=f"pieces[{len(pieces) - 1}]"
            )
        scale = max(1.0, max(abs(c) for p in pieces for c in p.coeffs))
        for i in range(1, len(pieces)):
            if pieces[i].a != pieces[i - 1].b:
                raise InvalidInputError(
                    "pieces must share endpoints in order", field=f"pieces[{i}]"
                )
            gap = abs(pieces[i].coeffs[0] - pieces[i - 1].coeffs[-1])
            if gap > MERGE_TOL * scale:
                raise InvalidInputError(
                    f"pieces disagree by {gap:g} at x={pieces[i].a!r}",
                    field=f"pieces[{i}]",
                )
        self.pieces = pieces
        self._rights = tuple(p.b for p in pieces)

    def eval(self, x: float) -> float:
        _check_unit_interval(x)
        i = bisect.bisect_left(self._rights, x)
        return self.pieces[i].eval(x)

    __call__ = eval

    def __repr__(self) -> str:
        return f"PiecewisePolynomial({len(self.pieces)} pieces)"


class CriticalSet:
    """Sorted, deduplicated points of varying monotonicity with source tags; a
    merged point keeps the tag of its first entry in (stable) position order."""

    __slots__ = ("points", "tags")

    def __init__(self, entries: Iterable[Tuple[float, str]]):
        points: List[float] = []
        tags: List[str] = []
        for x, tag in sorted(entries, key=lambda e: e[0]):
            if points and x - points[-1] <= MERGE_TOL:
                continue
            points.append(x)
            tags.append(tag)
        self.points = tuple(points)
        self.tags = tuple(tags)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        inner = ", ".join(f"{x:g}:{t}" for x, t in zip(self.points, self.tags))
        return f"CriticalSet({inner})"


# -- derivative sign analysis ---------------------------------------------


def _halve(c: np.ndarray, cols: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Both halves, at t = 1/2, of the columns cols of the coefficient-major
    array c, returned as one array [left halves | right halves].  Column
    cols[i] holds lens[i] coefficients; the NaN rows below them stay NaN.

    At step j >= 1, row k >= j becomes ``0.5 * w[k - 1] + 0.5 * w[k]``: the
    IEEE operations of _dc_split, so the halves agree with it bit for bit.  A
    row never reads the rows below it, so columns of every length split
    together.  Row j is final after step j and is the left half's coefficient
    j; row lens - 1 after step j is the right half's coefficient lens - 1 - j.
    Columns are split _SPLIT_COEFFS coefficients at a time, which bounds the
    scratch arrays however wide the level is.
    """
    m, s = len(c), cols.size
    out = np.empty((m, 2 * s))
    step = max(1, _SPLIT_COEFFS // m)
    for a in range(0, s, step):
        b = min(s, a + step)
        w = c.take(cols[a:b], axis=1)
        h = np.empty_like(w)
        # diag[1 + j] is row lens - 1 after step j; diag[0] is NaN, read by
        # the right halves' rows past their length
        diag = np.empty((m + 1, b - a))
        diag[0] = np.nan
        at = (lens[a:b] - 1) * (b - a) + np.arange(b - a)
        flat = w.reshape(-1)  # a view: take reads w's current rows
        flat.take(at, out=diag[1])
        for j in range(1, m):
            np.multiply(w[j - 1 :], 0.5, out=h[j - 1 :])
            np.add(h[j - 1 : -1], h[j:], out=w[j:])
            flat.take(at, out=diag[1 + j])
        out[:, a:b] = w
        # right row i is diag[lens - i]; negative positions clip to NaN row 0
        back = at + (b - a) - np.arange(m)[:, None] * (b - a)
        out[:, s + a : s + b] = diag.reshape(-1).take(back, mode="clip")
    return out


def _sign_change_params_many(jobs: Sequence[Tuple[Sequence[float], float]]) -> List[object]:
    """Per (dcoeffs, tol) job, the parameters in (0,1) where its
    Bernstein-coefficient polynomial changes sign, or its ResourceError.

    Touch points (no sign change) are excluded: a reported root needs a
    sign-certified panel on each side, with opposite signs.  Subdivision is
    level-synchronous.  The frontier is a coefficient-major (coefficients,
    panels) array of every panel of one depth, of every job.  A panel whose
    coefficients are all >= -zcut or all <= zcut is certified (or flat, if
    both); the other panels wider than their job's tol are split, the
    narrower ones dropped.  A panel's fate depends only on its own
    coefficients, zcut and tol, so a job's panels and roots do not depend on
    its mates.  A job whose visited panels pass _MAX_PANELS leaves the
    frontier; its error names its leftmost panel of that level.
    """
    k = len(jobs)
    if not k:
        return []
    lens = np.array([len(dc) for dc, _ in jobs])
    c = np.full((lens.max(), k), np.nan)  # a column's rows past its length are NaN
    for i, (dc, _) in enumerate(jobs):
        c[: len(dc), i] = dc
    zcut = 1e-12 * np.maximum(1.0, np.fmax.reduce(np.abs(c), axis=0))
    tol = np.array([t for _, t in jobs])
    owner, lo, hi = np.arange(k), np.zeros(k), np.ones(k)
    visited = np.zeros(k, dtype=np.int64)
    stalled = {}  # job: its ResourceError
    certified = []  # per level: owner, lo, hi, positive
    while owner.size:
        visited += np.bincount(owner, minlength=k)
        if visited.max() > _MAX_PANELS:
            over = visited[owner] > _MAX_PANELS
            for j in set(owner[over].tolist()):
                i = min(np.flatnonzero(owner == j), key=lo.__getitem__)
                stalled[j] = ResourceError(
                    f"derivative sign analysis passed its budget of {_MAX_PANELS} panels; "
                    f"stalled on panel [{lo[i]:.17g}, {hi[i]:.17g}]"
                )
            c, owner, lo, hi = c[:, ~over], owner[~over], lo[~over], hi[~over]
        nonneg = np.fmin.reduce(c, axis=0) >= -zcut[owner]
        nonpos = np.fmax.reduce(c, axis=0) <= zcut[owner]
        sure = nonneg != nonpos
        certified.append((owner[sure], lo[sure], hi[sure], nonneg[sure]))
        cols = np.flatnonzero(~(nonneg | nonpos) & (hi - lo > tol[owner]))
        c = _halve(c, cols, lens[owner[cols]])
        owner, lo, hi = owner[cols], lo[cols], hi[cols]
        mid = 0.5 * (lo + hi)
        owner = np.concatenate((owner, owner))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))

    owner, lo, hi, positive = (np.concatenate(col) for col in zip(*certified))
    order = np.lexsort((lo, owner))
    owner, lo, hi, positive = owner[order], lo[order], hi[order], positive[order]
    # a root lies between neighbouring certified panels of opposite signs, at
    # the midpoint of the gap between them (adjacent panels meet on it)
    turns = np.flatnonzero((owner[1:] == owner[:-1]) & (positive[1:] != positive[:-1]))
    owner, r = owner[turns], 0.5 * (hi[turns] + lo[turns + 1])
    keep = (tol[owner] < r) & (r < 1.0 - tol[owner])
    roots: List[List[float]] = [[] for _ in range(k)]
    for j, x in zip(owner[keep].tolist(), r[keep].tolist()):
        roots[j].append(x)
    return [stalled.get(j, roots[j]) for j in range(k)]


def _derivative_job(p: BernsteinPoly):
    """(difference coefficients, local tolerance) of p's derivative, or None
    when p is constant to within rounding noise."""
    n = p.degree
    if n < 1:
        return None
    dc = tuple(p.coeffs[k + 1] - p.coeffs[k] for k in range(n))
    dmax = max(abs(c) for c in dc)
    if dmax == math.inf:
        raise InvalidInputError(
            "differences of neighbouring coefficients overflow", field="coeffs"
        )
    cscale = max(1.0, max(abs(c) for c in p.coeffs))
    # Derivative noise from O(n) convex combinations of O(cscale)
    # coefficients is below this; treat such derivatives as identically 0.
    if dmax <= n * 1e-12 * cscale:
        return None
    return dc, min(0.25, MERGE_TOL / (p.b - p.a))


def isolate_extrema_many(polys: Sequence[BernsteinPoly]) -> List[object]:
    """isolate_extrema of every polynomial in one batch: per polynomial, its
    CriticalSet or the exception isolate_extrema would raise for it (the
    overflow InvalidInputError or the panel-budget ResourceError).  Never
    raises for the batch; the result of each does not depend on its mates."""
    out: List[object] = [()] * len(polys)  # local roots, then the set; or an exception
    jobs = {}
    for i, p in enumerate(polys):
        try:
            job = _derivative_job(p)
        except InvalidInputError as exc:
            out[i] = exc
            continue
        if job is not None:
            jobs[i] = job
    for i, roots in zip(jobs, _sign_change_params_many(list(jobs.values()))):
        out[i] = roots
    for i, p in enumerate(polys):
        if not isinstance(out[i], Exception):
            width = p.b - p.a
            out[i] = CriticalSet(
                [(p.a, TAG_ENDPOINT), (p.b, TAG_ENDPOINT)]
                + [(p.a + t * width, TAG_ROOT) for t in out[i]]
            )
    return out


def isolate_extrema(p: BernsteinPoly) -> CriticalSet:
    """Interior points where p changes monotonicity, plus the domain endpoints.

    Roots of the derivative with even multiplicity (coefficient sign
    variations but no actual sign change) are excluded.
    """
    return _raised(isolate_extrema_many([p])[0])


def _raised(result):
    """A batch result, raising it if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


# -- critical points ------------------------------------------------------


@singledispatch
def critical_points(f) -> CriticalSet:
    """Points of varying monotonicity (plus endpoints) for a function model."""
    raise InvalidInputError(f"unsupported function type {type(f).__name__}")


@critical_points.register
def _(f: PiecewiseLinear) -> CriticalSet:
    entries = [(0.0, TAG_ENDPOINT), (1.0, TAG_ENDPOINT)]
    slopes = [
        (f.ys[i + 1] - f.ys[i]) / (f.xs[i + 1] - f.xs[i]) for i in range(len(f.xs) - 1)
    ]
    sign = lambda s: (s > 0) - (s < 0)
    for i in range(1, len(slopes)):
        if sign(slopes[i]) != sign(slopes[i - 1]):
            entries.append((f.xs[i], TAG_BREAKPOINT))
    return CriticalSet(entries)


@critical_points.register
def _(f: StepFunction) -> CriticalSet:
    entries = [(0.0, TAG_ENDPOINT), (1.0, TAG_ENDPOINT)]
    entries.extend((c, TAG_BREAKPOINT) for c in f.cuts)
    entries.extend((m, TAG_REPRESENTATIVE) for m in f.piece_midpoints())
    return CriticalSet(entries)


@critical_points.register
def _(f: BernsteinPoly) -> CriticalSet:
    return isolate_extrema(f)


@critical_points.register
def _(f: PiecewisePolynomial) -> CriticalSet:
    return _piecewise_critical_set(f, isolate_extrema_many(f.pieces))


def _piecewise_critical_set(f: PiecewisePolynomial, piece_sets: Sequence[object]) -> CriticalSet:
    """The critical set of f from isolate_extrema_many of its pieces; raises
    the first piece's exception, as isolating the pieces in order would."""
    entries: List[Tuple[float, str]] = [(0.0, TAG_ENDPOINT), (1.0, TAG_ENDPOINT)]
    for piece, crit in zip(f.pieces, piece_sets):
        crit = _raised(crit)
        if piece.a != 0.0:
            entries.append((piece.a, TAG_BREAKPOINT))
        # the first and last points stand for the piece's ends (a root within
        # MERGE_TOL of an end has merged into it); the roots lie between them
        entries.extend((x, TAG_ROOT) for x in crit.points[1:-1])
    return CriticalSet(entries)


# -- combinations ---------------------------------------------------------


def subtract(p: BernsteinPoly, f: PiecewiseLinear) -> PiecewisePolynomial:
    """The difference p - f as one Bernstein piece per linear segment of f.

    Each segment of f is written as a degree-1 piece on its own interval,
    elevated to the degree of p, and subtracted coefficientwise from the
    matching restriction of p.
    """
    if p.domain != (0.0, 1.0):
        raise DomainError("p must be defined on all of [0, 1]")
    pieces = []
    for i in range(len(f.xs) - 1):
        u, v = f.xs[i], f.xs[i + 1]
        local = p.restrict(u, v) if (u, v) != (0.0, 1.0) else p
        seg = BernsteinPoly((f.ys[i], f.ys[i + 1]), (u, v))
        if p.degree > 1:
            seg = seg.elevate(p.degree - 1)
        elif p.degree == 0:
            local = local.elevate(1)
        coeffs = tuple(a - b for a, b in zip(local.coeffs, seg.coeffs))
        pieces.append(BernsteinPoly(coeffs, (u, v)))
    return PiecewisePolynomial(pieces)


# -- named functions ------------------------------------------------------


def named_function(name: str) -> PiecewiseLinear:
    """Built-in test functions addressable by name in the JSON schema."""
    if name == "identity":
        return PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)])
    if name == "hat":
        return PiecewiseLinear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    if name == "counterexample":
        return PiecewiseLinear([(0.0, 0.0), (1 / 3, 0.5), (2 / 3, 0.5), (1.0, 1.0)])
    if name == "abs_mid":
        return PiecewiseLinear([(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)])
    raise InvalidInputError(
        f"unknown named function {name!r}; expected identity, hat, counterexample "
        f"or abs_mid",
        field="name",
    )
