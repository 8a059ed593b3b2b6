"""Function models on [0,1].

Four exactly-representable classes: piecewise-linear functions, step functions
with explicit values at their jump points, polynomials in the Bernstein basis
(optionally restricted to a subinterval), and piecewise collections of the
latter.  ``eval_many`` evaluates every model (``eval`` is its one-point case).
Polynomial evaluation, restriction and splitting go through one de Casteljau
kernel, ``_dc_split_many``, which splits many coefficient rows of any lengths,
each at its own parameter (a value is the last coefficient of the left half),
and streams each row's halves to its caller, which keeps only those it reads;
coefficients are never converted to the monomial basis.  Degree elevation runs
one vectorized step per degree over many rows at once, bit for bit the scalar
recurrence.  Extrema are isolated by one subdivision over every derivative of
a batch, driven by coefficient sign certificates, level by level, one kernel
call a level.  At every degree a panel whose coefficients change sign once
holds one simple root; it leaves the subdivision, and the roots of all such
panels are polished together by safeguarded Newton.  Other roots are the
midpoints of the gaps between certified panels of opposite sign.

Evaluation identities hold to 1e-12.  Root positions are resolved to
``MERGE_TOL`` (1e-12), the distance at which critical points merge; a polished
root lies within 1e-15 (in its piece's local parameter) of a sign change of the
float derivative on the reference inputs of the tests, degrees 1 to 255.
"""

from __future__ import annotations

import bisect
import math
from operator import itemgetter
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import DomainError, InvalidInputError, ResourceError, _check_positive_int

# Degree above which _dc_split_many, the one de Casteljau split kernel
# (evaluation reads its last left-edge coefficient), runs on numpy arrays: one
# array step per degree for every row of a chunk.  One row costs 12 us (list)
# vs 45 us (arrays) at degree 12 and 38 ms vs 3-5 ms at degree 1023 (Python
# 3.11, 2-core Xeon); diminish and converge need both.  The list loop also
# keeps root isolation, diminish, counterexample and operator --emit samples
# numpy-free up to this degree.
# Elevation (_elevate) is on arrays at every degree.
_NUMPY_CUTOVER = 48
_MAX_PANELS = 20000
# Coefficients that _dc_split_many splits in one array step: 32 rows of
# degree 1024, so a wide call's scratch arrays stay ~256 KB each.
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
        i = bisect.bisect_left(self.xs, x)  # in range: xs[-1] is 1.0 and x <= 1.0
        if self.xs[i] == x:
            return self.ys[i]
        x0, x1 = self.xs[i - 1], self.xs[i]
        y0, y1 = self.ys[i - 1], self.ys[i]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    __call__ = eval

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b] by trapezoids on each linear piece that
        meets it, added left to right."""
        _check_bounds(a, b)
        total = 0.0
        for i in range(bisect.bisect_right(self.xs, a) - 1, len(self.xs) - 1):
            if self.xs[i] >= b:
                break
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
        """Exact integral over [a, b] by the pieces that meet it; cuts carry no measure."""
        _check_bounds(a, b)
        total = 0.0
        lo = a
        i = bisect.bisect_right(self.cuts, a)
        while i < len(self.cuts) and self.cuts[i] < b:
            total += self.piece_values[i] * (self.cuts[i] - lo)
            lo = self.cuts[i]
            i += 1
        return total + self.piece_values[i] * (b - lo)

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


def _dc_split_many(rows: Sequence[Sequence[float]], ts: Sequence[float]):
    """Both halves of every coefficient row rows[i], of any length, at its
    parameter ts[i] (all on local [0,1]), as a stream of (i, left, right),
    one per input row: tuples for a row of at most _NUMPY_CUTOVER + 1
    coefficients, in input order, then float array views for the longer
    rows, longest first.  Callers must not depend on that order.  The
    stream reads rows and ts lazily, so they must not change while it is
    read; a chunk's arrays are freed once the caller drops its views.

    Step m overwrites the first m coefficients with ``s * w[i] + t * w[i + 1]``
    in place: coefficient 0 is then the left half's next one, and coefficient
    m, which no later step writes, is the right half's.  Longer rows are
    split on arrays, _SPLIT_COEFFS coefficients at a time: coefficient-major,
    in a chunk as long as its longest row, n + 1, with a row of d + 1
    coefficients at positions n - d ... n.  Chunk step m is then the row's
    step m - (n - d), and the row's left half is read at position n - d.
    One array step does these IEEE operations for every row of a chunk, so
    each row's halves do not depend on its mates.
    """
    longer = []  # the positions of rows split on arrays
    for r, (coeffs, t) in enumerate(zip(rows, ts)):
        n = len(coeffs) - 1
        if n > _NUMPY_CUTOVER:
            longer.append(r)
            continue
        s = 1.0 - t
        w = list(coeffs)
        left = [w[0]]
        for m in range(n, 0, -1):
            for i in range(m):
                w[i] = s * w[i] + t * w[i + 1]
            left.append(w[0])
        yield r, tuple(left), tuple(w)
    if not longer:
        return
    import numpy as np
    longer.sort(key=lambda r: -len(rows[r]))
    a = 0
    while a < len(longer):
        n = len(rows[longer[a]]) - 1
        chunk = longer[a : a + max(1, _SPLIT_COEFFS // (n + 1))]
        a += len(chunk)
        k = len(chunk)
        lens = [len(rows[r]) for r in chunk]
        # coefficient i of every row at [i * k, (i + 1) * k); a row never
        # reads the zeros before its first position
        w = np.zeros((n + 1, k))
        for x, r in enumerate(chunk):
            w[n + 1 - lens[x] :, x] = rows[r]
        w = w.reshape(-1)
        t = np.tile(np.asarray([ts[r] for r in chunk], dtype=np.float64), n + 1)
        s = 1.0 - t
        # each row's first position; a chunk of one length reads the slice w[:k]
        at = None if lens[0] == lens[-1] else (n + 1 - np.array(lens)) * k + np.arange(k)
        left = np.empty((n + 1, k))
        for j, m in enumerate(range(n * k, -1, -k)):  # read after step j, then step j + 1
            left[j] = w[:k] if at is None else w[at]
            h = t[:m] * w[k : m + k]
            step = w[:m]
            step *= s[:m]
            step += h  # s * w[i] + t * w[i + 1]: IEEE addition commutes
        left, right = left.T, w.reshape(n + 1, k).T
        for x, r in enumerate(chunk):
            yield r, left[x, : lens[x]], right[x, n + 1 - lens[x] :]


def _elevate(rows, r: int):
    """The coefficient rows (along the last axis of an array) elevated by
    r >= 0 degrees.  One array step per degree does the scalar recurrence's
    IEEE operations in order, so every row matches it bit for bit."""
    import numpy as np
    c = np.asarray(rows, dtype=np.float64)
    for _ in range(r):
        n = c.shape[-1] - 1
        w = np.arange(1, n + 1) / (n + 1)
        out = np.empty(c.shape[:-1] + (n + 2,))
        out[..., 0], out[..., -1] = c[..., 0], c[..., -1]
        out[..., 1:-1] = w * c[..., :-1] + (1.0 - w) * c[..., 1:]
        c = out
    return c


def _restrictions(rows: Sequence[Sequence[float]], spans: Sequence[Tuple[float, float]]):
    """Every coefficient row of rows (one length, on local [0, 1]) restricted
    to every local span (u, v), row-major: the right half at u where u > 0,
    then of that the left half at (v - u)/(1 - u) where v < 1.  Two kernel
    calls in all, whatever the number of rows and spans."""
    local = [row for row in rows for _ in spans]
    uv = list(spans) * len(rows)
    cut = [i for i, (u, _) in enumerate(uv) if u > 0.0]
    for x, _, right in _dc_split_many([local[i] for i in cut], [uv[i][0] for i in cut]):
        local[cut[x]] = right
    cut = [i for i, (_, v) in enumerate(uv) if v < 1.0]
    ts = [(uv[i][1] - uv[i][0]) / (1.0 - uv[i][0]) for i in cut]
    for x, left, _ in _dc_split_many([local[i] for i in cut], ts):
        local[cut[x]] = left
    return local


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

    def eval(self, x: float) -> float:
        return eval_many([self], [[x]])[0][0]

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
        """Degree elevation by r; the function is unchanged (see _elevate)."""
        _check_positive_int(r, "elevation count")
        return BernsteinPoly(_elevate([self.coeffs], r)[0], self.domain)

    def restrict(self, u: float, v: float) -> "BernsteinPoly":
        """The same function on [u, v], reparametrized by de Casteljau splits."""
        if not (self.a <= u < v <= self.b):
            raise DomainError(
                f"[{u}, {v}] is not a nondegenerate subinterval of [{self.a}, {self.b}]"
            )
        width = self.b - self.a
        span = ((u - self.a) / width, (v - self.a) / width)
        return BernsteinPoly(_restrictions([self.coeffs], [span])[0], (u, v))

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b]: the width times the mean of the coefficients
        on [a, b], each divided before it is added so the mean stays finite."""
        if a == b and self.a <= a <= self.b:
            return 0.0
        c = self.restrict(a, b).coeffs
        mean = 0.0  # not sum(): from CPython 3.12 it compensates, changing the bits
        for x in c:
            mean += x / len(c)
        return mean * (b - a)

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
        return eval_many([self], [[x]])[0][0]

    __call__ = eval

    def __repr__(self) -> str:
        return f"PiecewisePolynomial({len(self.pieces)} pieces)"


class CriticalSet:
    """Sorted, deduplicated points of varying monotonicity with source tags; a
    merged point keeps the tag of its first entry in (stable) position order.
    The one merge at MERGE_TOL: candidate lists of bare points use it too,
    passing each point as its own tag."""

    __slots__ = ("points", "tags")

    def __init__(self, entries: Iterable[Tuple[float, object]]):
        points: List[float] = []
        tags: List[object] = []
        for x, tag in sorted(entries, key=itemgetter(0)):
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


def _one_root_start(c, zcut):
    """The zero of the control polygon (local t) of the coefficients c when
    they hold exactly one root, a simple one, to start its polish; else None.
    They qualify when their end coefficients have opposite signs and lie
    beyond zcut, and their nonzero coefficients change sign once (Descartes'
    rule of signs in the Bernstein basis).  The start lies on the control
    polygon between the last coefficient of the first sign, i, and the first
    of the other, j."""
    first, last = c[0], c[-1]
    if not (abs(first) > zcut and abs(last) > zcut and (first < 0.0) != (last < 0.0)):
        return None
    s = 1.0 if first > 0.0 else -1.0
    i = max(k for k, x in enumerate(c) if s * x > 0.0)
    j = next(k for k, x in enumerate(c) if s * x < 0.0)
    if i > j:
        return None
    ci, cj = c[i], c[j]
    return (i + (j - i) * ci / (ci - cj)) / (len(c) - 1)


def _polish(rows, starts, widths, tols):
    """The root, in local t, of each coefficient row of rows (any lengths;
    ends of opposite signs, nonzero coefficients changing sign once) from its
    start starts[i], on a panel of width widths[i] in a job of tolerance
    tols[i].  Safeguarded Newton: one kernel call per pass gives every live
    row its value, left[-1], and slope, n * (right[1] - left[-2]), n its own
    degree len(left) - 1, and each row's halves are dropped once read.  A row
    keeps a sign bracket and bisects it when the Newton point leaves it or
    does not halve the previous step.  A row stops at a value of exactly 0,
    a step of at most tol / 2 in x, a bracket of at most tol in x, or after
    as many passes as the binary exponent of width / tol, which is at least
    the number of bisections that reach tol.  Each row's arithmetic reads
    only its own values."""
    t = [float(x) for x in starts]
    lo, hi, prev = [0.0] * len(t), [1.0] * len(t), [1.0] * len(t)
    passes = [math.frexp(w / e)[1] for w, e in zip(widths, tols)]
    live = range(len(t))
    while live:
        going = []
        for x, left, right in _dc_split_many([rows[i] for i in live], [t[i] for i in live]):
            i = live[x]
            at, v, d = t[i], float(left[-1]), (len(left) - 1) * float(right[1] - left[-2])
            if (v < 0.0) == (rows[i][0] < 0.0):  # at lies on the start's side of the root
                lo[i] = at
            else:
                hi[i] = at
            newton = at - v / d if d else math.nan
            if lo[i] <= newton <= hi[i] and abs(newton - at) <= 0.5 * prev[i]:
                t[i] = newton
            else:
                t[i] = 0.5 * (lo[i] + hi[i])
            prev[i] = abs(t[i] - at)
            passes[i] -= 1
            if v == 0.0:
                t[i] = at
            elif (prev[i] * widths[i] > 0.5 * tols[i] and (hi[i] - lo[i]) * widths[i] > tols[i]
                  and passes[i]):
                going.append(i)
        live = going
    return t


def _sign_change_params_many(jobs: Sequence[Tuple[Sequence[float], float]]) -> List[object]:
    """Per (dcoeffs, tol) job of a list, the parameters in (0,1) where its
    Bernstein-coefficient polynomial changes sign, or its ResourceError.

    Touch points (no sign change) are excluded: a reported root needs a
    sign-certified panel on each side, with opposite signs.  Subdivision is
    level-synchronous over every job, each job's panels of a level in a
    list, left to right.  A panel whose coefficients are all >= -zcut or all
    <= zcut is certified (or flat, if both); the other panels wider than
    their job's tol are split, the narrower ones dropped.  A panel about to
    be split that holds one simple root (_one_root_start) leaves the
    subdivision instead; after the last level the isolated panels of every
    job are polished in one _polish call, and a root r enters as two
    certified half-panels, [lo, r] and [r, hi].  A job whose visited panels
    pass _MAX_PANELS stops with a ResourceError naming its first (leftmost)
    panel of that level, and its isolated panels are dropped.

    A level is split in one _dc_split_many call, whatever its panels'
    lengths.  A panel's fate depends only on its own coefficients, zcut and
    tol, and the kernel's halves of a row do not depend on its mates, so a
    job's roots and its error do not depend on its mates either.
    """
    zcuts = [1e-12 * max(1.0, max(map(abs, dc))) for dc, _ in jobs]
    out: List[object] = [None] * len(jobs)  # a stalled job's error
    visited = [0] * len(jobs)
    certified: List[list] = [[] for _ in jobs]  # per job: lo, hi, positive
    isolated = []  # job, lo, hi, coefficients, start
    level = [(j, 0.0, 1.0, dc) for j, (dc, _) in enumerate(jobs)]
    while level:
        for j, _, _, _ in level:
            visited[j] += 1
        for j, lo, hi, _ in level:
            if visited[j] > _MAX_PANELS and out[j] is None:  # its leftmost panel of the level
                out[j] = ResourceError(
                    f"derivative sign analysis passed its budget of {_MAX_PANELS} panels; "
                    f"stalled on panel [{lo:.17g}, {hi:.17g}]"
                )
        split = []  # panels to split, each job's left to right
        for j, lo, hi, c in level:
            if out[j] is not None:
                continue
            listed = isinstance(c, (tuple, list))  # else an array row view of _dc_split_many
            zcut = zcuts[j]
            nonneg = (min(c) if listed else c.min()) >= -zcut
            nonpos = (max(c) if listed else c.max()) <= zcut
            if nonneg != nonpos:
                certified[j].append((lo, hi, nonneg))
            elif not nonneg and hi - lo > jobs[j][1]:
                start = _one_root_start(c if listed else c.tolist(), zcut)
                if start is not None:
                    isolated.append((j, lo, hi, c, start))
                else:
                    split.append((j, lo, hi, c))
        level = [None] * (2 * len(split))  # a panel's children at 2i and 2i + 1
        for i, left, right in _dc_split_many([c for _, _, _, c in split], [0.5] * len(split)):
            j, lo, hi, _ = split[i]
            mid = 0.5 * (lo + hi)
            level[2 * i], level[2 * i + 1] = (j, lo, mid, left), (j, mid, hi, right)
    batch = [panel for panel in isolated if out[panel[0]] is None]  # of jobs that did not stall
    if batch:
        js, los, his, rows, starts = zip(*batch)
        widths = [hi - lo for lo, hi in zip(los, his)]
        for (j, lo, hi, c, _), t in zip(batch, _polish(rows, starts, widths, [jobs[j][1] for j in js])):
            r = lo + t * (hi - lo)
            certified[j] += ((lo, r, c[0] > 0.0), (r, hi, c[0] < 0.0))
    return [err if err is not None else _gap_roots(certified[j], jobs[j][1]) for j, err in enumerate(out)]


def _gap_roots(certified, tol: float) -> List[float]:
    """The roots of one job from its certified panels (lo, hi, positive): a
    root lies between neighbouring panels of opposite signs, at the midpoint
    of the gap between them (adjacent panels meet on it; a polished root's
    two half-panels meet on the root), and is kept more than tol from either
    end.  hi breaks a tie on lo: a polished root within rounding of its
    panel's end makes a half-panel [lo, lo] or [hi, hi]."""
    certified = sorted(certified, key=itemgetter(0, 1))
    roots = []
    for (_, hi, positive), (lo, _, after) in zip(certified, certified[1:]):
        r = 0.5 * (hi + lo)
        if positive != after and tol < r < 1.0 - tol:
            roots.append(r)
    return roots


def _derivative_job(p: BernsteinPoly):
    """(difference coefficients, local tolerance) of p's derivative, None
    when p is constant to within rounding noise, or the overflow error."""
    n = p.degree
    if n < 1:
        return None
    dc = tuple(p.coeffs[k + 1] - p.coeffs[k] for k in range(n))
    dmax = max(abs(c) for c in dc)
    if dmax == math.inf:
        return InvalidInputError("differences of neighbouring coefficients overflow", field="coeffs")
    cscale = max(1.0, max(abs(c) for c in p.coeffs))
    # Derivative noise from O(n) convex combinations of O(cscale)
    # coefficients is below this; treat such derivatives as identically 0.
    if dmax <= n * 1e-12 * cscale:
        return None
    if dmax >= 2.0:
        # a power of two scales the coefficients into [1, 2) and zcut with
        # them, so isolation keeps its bits (short of underflow), and the
        # polish's start and slope cannot overflow
        e = math.frexp(dmax)[1] - 1
        dc = tuple(math.ldexp(c, -e) for c in dc)
    return dc, min(0.25, MERGE_TOL / (p.b - p.a))


# -- critical points ------------------------------------------------------


def critical_points_many(fs: Sequence[object]) -> List[object]:
    """critical_points of every function model in one call: per function, its
    CriticalSet or the exception critical_points would raise for it.  The
    Bernstein pieces of every function share one subdivision, and a
    function with none builds no job.  Never raises for the batch; the result
    of each function does not depend on its mates."""
    pieces: List[BernsteinPoly] = []
    for f in fs:
        if isinstance(f, BernsteinPoly):
            pieces.append(f)
        elif isinstance(f, PiecewisePolynomial):
            pieces += f.pieces
    found: List[object] = [()] * len(pieces)  # local roots, then the set; or an exception
    jobs = {}
    for i, p in enumerate(pieces):
        job = _derivative_job(p)
        if isinstance(job, Exception):
            found[i] = job
        elif job is not None:
            jobs[i] = job
    if jobs:
        for i, roots in zip(jobs, _sign_change_params_many(list(jobs.values()))):
            found[i] = roots
    for i, p in enumerate(pieces):
        if not isinstance(found[i], Exception):
            ends = [(p.a, TAG_ENDPOINT), (p.b, TAG_ENDPOINT)]
            found[i] = CriticalSet(ends + [(p.a + t * (p.b - p.a), TAG_ROOT) for t in found[i]])
    piece_sets = iter(found)
    return [_critical_set(f, piece_sets) for f in fs]


def _critical_set(f, piece_sets: Iterator[object]) -> object:
    """f's CriticalSet, or the exception critical_points raises for it; the
    sets of f's Bernstein pieces are the next ones of piece_sets."""
    if isinstance(f, BernsteinPoly):
        return next(piece_sets)
    entries = [(0.0, TAG_ENDPOINT), (1.0, TAG_ENDPOINT)]
    if isinstance(f, PiecewiseLinear):
        # the xs increase, so a slope has the sign of its increment
        for i in range(1, len(f.ys) - 1):
            a, b, c = f.ys[i - 1 : i + 2]
            if (b > a) - (b < a) != (c > b) - (c < b):
                entries.append((f.xs[i], TAG_BREAKPOINT))
    elif isinstance(f, StepFunction):
        entries += [(c, TAG_BREAKPOINT) for c in f.cuts]
        entries += [(m, TAG_REPRESENTATIVE) for m in f.piece_midpoints()]
    elif isinstance(f, PiecewisePolynomial):
        for piece, crit in zip(f.pieces, [next(piece_sets) for _ in f.pieces]):
            if isinstance(crit, Exception):
                return crit  # the first failing piece's, as isolating them in order raises
            entries.append((piece.a, TAG_BREAKPOINT))  # the first's 0.0 merges into the endpoint
            # the first and last points stand for the piece's ends (a root within
            # MERGE_TOL of an end has merged into it); the roots lie between them
            entries += [(x, TAG_ROOT) for x in crit.points[1:-1]]
    else:
        return InvalidInputError(f"unsupported function type {type(f).__name__}")
    return CriticalSet(entries)


def critical_points(f) -> CriticalSet:
    """Points of varying monotonicity (plus endpoints) for a function model."""
    return _raised(critical_points_many([f])[0])


def isolate_extrema(p: BernsteinPoly) -> CriticalSet:
    """Interior points where p changes monotonicity, plus the domain endpoints.

    Roots of the derivative with even multiplicity (coefficient sign
    variations but no actual sign change) are excluded.
    """
    return _raised(critical_points_many([p])[0])


def _raised(result):
    """A batch result, raising it if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


# -- combinations ---------------------------------------------------------


def eval_many(fs: Sequence[object], points: Sequence[Sequence[float]]) -> List[List[float]]:
    """The values of every function model fs[i] at its points points[i]; eval
    is its one-point case.  Piecewise-linear and step functions use their own
    eval; a piecewise polynomial takes x's piece, the left one at a seam.  A
    Bernstein piece admits x up to MERGE_TOL outside its domain, clamped.  A
    point at an end takes a nonzero end coefficient as it is (each kernel step
    would add a signed zero to it); the rest, zero end coefficients included
    (the kernel turns -0.0 into +0.0 next to a positive neighbour), run through
    the de Casteljau kernel in one call."""
    out: List[List[float]] = []
    slots, rows, ts = [], [], []  # (i, j) in out, its coefficient row and parameter
    for i, (f, pts) in enumerate(zip(fs, points)):
        if not isinstance(f, (BernsteinPoly, PiecewisePolynomial)):
            out.append(list(map(f.eval, pts)))
            continue
        vals = []
        for j, x in enumerate(pts):
            p = f
            if isinstance(f, PiecewisePolynomial):
                _check_unit_interval(x)
                p = f.pieces[bisect.bisect_left(f._rights, x)]
            t = (x - p.a) / (p.b - p.a)
            if not -MERGE_TOL <= t <= 1.0 + MERGE_TOL:  # NaN too
                raise DomainError(f"argument {x!r} lies outside [{p.a}, {p.b}]")
            t = min(1.0, max(0.0, t))
            end = p.coeffs[0] if t == 0.0 else p.coeffs[-1] if t == 1.0 else 0.0
            vals.append(end)
            if end == 0.0:
                slots.append((i, j))
                rows.append(p.coeffs)
                ts.append(t)
        out.append(vals)
    for x, left, _ in _dc_split_many(rows, ts):
        i, j = slots[x]
        out[i][j] = float(left[-1])
    return out


def subtract_many(ps: Sequence[BernsteinPoly], f: PiecewiseLinear) -> List[PiecewisePolynomial]:
    """The differences p - f of polynomials ps of one degree, each one
    Bernstein piece per linear segment of f.

    The polynomials are restricted to every segment in two kernel calls
    (_restrictions); the restrictions and the segments, as degree-1 rows,
    are elevated to a common degree (the polynomials', or 1 for constants),
    each set in one call, and subtracted row by row.  An overflowing
    difference is refused as a non-finite coefficient of its piece.
    """
    import numpy as np
    if any(p.domain != (0.0, 1.0) for p in ps):
        raise DomainError("p must be defined on all of [0, 1]")
    degree = ps[0].degree
    if any(p.degree != degree for p in ps):
        raise DomainError("the polynomials must share one degree")
    n = max(degree, 1)
    spans = list(zip(f.xs, f.xs[1:]))
    local = _elevate(_restrictions([p.coeffs for p in ps], spans), n - degree)
    with np.errstate(over="ignore"):
        rows = local.reshape(len(ps), len(spans), n + 1) - _elevate(list(zip(f.ys, f.ys[1:])), n - 1)
    return [
        PiecewisePolynomial([BernsteinPoly(c, span) for c, span in zip(row, spans)])
        for row in rows.tolist()
    ]


def subtract(p: BernsteinPoly, f: PiecewiseLinear) -> PiecewisePolynomial:
    """The difference p - f as one Bernstein piece per linear segment of f
    (subtract_many's one-element case)."""
    return subtract_many([p], f)[0]


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
