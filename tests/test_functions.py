import inspect
import math
import random
import re
import tracemalloc
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamvar import (
    BernsteinPoly,
    CriticalSet,
    DomainError,
    InvalidInputError,
    PiecewiseLinear,
    PiecewisePolynomial,
    ResourceError,
    StepFunction,
    bernstein_of,
    critical_points,
    critical_points_many,
    isolate_extrema,
    kantorovich_of,
    named_function,
    subtract,
)
from lamvar import functions, variation
from lamvar.experiments import random_plf


def _sign_change_params(dcoeffs, tol):
    # one job of the subdivision, raising its error
    return functions._raised(functions._sign_change_params_many([(dcoeffs, tol)])[0])


# independent oracle: convert Bernstein coefficients to the power basis
def bern_to_power(coeffs):
    n = len(coeffs) - 1
    out = []
    for j in range(n + 1):
        s = 0.0
        for k in range(j + 1):
            s += (-1) ** (j - k) * math.comb(n, j) * math.comb(j, k) * coeffs[k]
        out.append(s)
    return out


def eval_power(power, x):
    return sum(a * x ** j for j, a in enumerate(power))


def test_plf_eval_and_breakpoints():
    hat = named_function("hat")
    assert hat.eval(0.0) == 0.0
    assert hat.eval(0.5) == 1.0
    assert hat.eval(0.25) == 0.5
    assert hat.eval(1.0) == 0.0
    assert hat(0.75) == 0.5
    with pytest.raises(DomainError):
        hat.eval(1.5)


def test_plf_integrate_exact():
    hat = named_function("hat")
    assert hat.integrate(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert hat.integrate(0.25, 0.5) == pytest.approx(0.1875, abs=1e-15)
    assert hat.integrate(0.3, 0.3) == 0.0
    with pytest.raises(DomainError):
        hat.integrate(0.6, 0.2)


def _integrate_full_walk(f, a, b):
    """PiecewiseLinear.integrate by a walk over every piece, the reference for
    its narrowed walk."""
    total = 0.0
    for i in range(len(f.xs) - 1):
        lo = max(a, f.xs[i])
        hi = min(b, f.xs[i + 1])
        if hi > lo:
            total += (0.5 * f.eval(lo) + 0.5 * f.eval(hi)) * (hi - lo)
    return total


def test_plf_integrate_matches_full_walk_at_edges():
    f = PiecewiseLinear([(0.0, 0.3), (0.25, -1.0), (0.5, 0.7), (0.8, 0.1), (1.0, -0.4)])
    bounds = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (-0.0, 0.25), (0.25, 0.5), (0.5, 0.5),
              (0.8, 1.0), (0.2, 0.3), (0.3, 0.4), (0.25, 1.0), (0.0, 0.8), (0.9, 1.0)]
    bounds += [(k / 7, (k + 1) / 7) for k in range(7)]
    for a, b in bounds:
        assert f.integrate(a, b).hex() == _integrate_full_walk(f, a, b).hex(), (a, b)


@st.composite
def _plf_and_bounds(draw):
    inner = sorted(set(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                     max_size=7))))
    ys = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(inner) + 2, max_size=len(inner) + 2))
    f = PiecewiseLinear(list(zip([0.0] + inner + [1.0], ys)))
    m = draw(st.integers(1, 13))
    kind = draw(st.sampled_from(["cell", "equal", "mixed"]))
    if kind == "cell":  # one Kantorovich cell of degree m - 1
        k = draw(st.integers(0, m - 1))
        return f, k / m, (k + 1) / m
    bound = st.one_of(st.sampled_from(f.xs), st.integers(0, m).map(lambda k: k / m),
                      st.floats(0.0, 1.0))
    a = draw(bound)
    b = a if kind == "equal" else draw(bound)
    return (f, a, b) if a <= b else (f, b, a)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_plf_and_bounds())
def test_plf_integrate_matches_full_walk(case):
    f, a, b = case
    assert f.integrate(a, b).hex() == _integrate_full_walk(f, a, b).hex()


def test_plf_total_variation():
    assert named_function("hat").total_variation() == 2.0
    assert named_function("identity").total_variation() == 1.0
    assert named_function("counterexample").total_variation() == 1.0


def test_plf_validation():
    with pytest.raises(InvalidInputError, match=r"points\[0\]\[0\]"):
        PiecewiseLinear([(0.1, 0.0), (1.0, 1.0)])
    with pytest.raises(InvalidInputError, match=r"points\[1\]\[0\]"):
        PiecewiseLinear([(0.0, 0.0), (0.9, 1.0)])
    with pytest.raises(InvalidInputError, match=r"points\[1\]\[0\]"):
        PiecewiseLinear([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    with pytest.raises(InvalidInputError, match="points"):
        PiecewiseLinear([(0.0, 0.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match=r"points\[0\]\[1\]: must be finite"):
            PiecewiseLinear([(0.0, bad), (0.5, 1.0), (1.0, 0.0)])
        with pytest.raises(InvalidInputError, match=r"points\[1\]\[0\]: must be finite"):
            PiecewiseLinear([(0.0, 0.0), (bad, 1.0), (1.0, 0.0)])
    with pytest.raises(InvalidInputError, match=r"points\[2\]\[1\]: increment .* overflows"):
        PiecewiseLinear([(0.0, 0.0), (0.5, 1e308), (1.0, -1e308)])


def test_step_eval_and_cut_values():
    s = StepFunction([0.5], [0.0, 1.0], [0.5])
    assert s.eval(0.25) == 0.0
    assert s.eval(0.5) == 0.5
    assert s.eval(0.75) == 1.0
    assert s.eval(0.0) == 0.0
    assert s.eval(1.0) == 1.0


def test_step_integrate_ignores_cut_values():
    s = StepFunction([0.5], [0.0, 1.0], [0.5])
    assert s.integrate(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert s.integrate(0.25, 0.75) == pytest.approx(0.25, abs=1e-15)


def _step_integrate_full_walk(s, a, b):
    """StepFunction.integrate by a walk over every piece, the reference for
    its narrowed walk."""
    edges = (0.0,) + s.cuts + (1.0,)
    total = 0.0
    for i, v in enumerate(s.piece_values):
        lo = max(a, edges[i])
        hi = min(b, edges[i + 1])
        if hi > lo:
            total += v * (hi - lo)
    return total


def test_step_integrate_matches_full_walk_at_edges():
    s = StepFunction([0.25, 0.5, 0.8], [0.3, -1.0, 0.7, -0.4], [0.3, 0.7, 0.1])
    bounds = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (-0.0, 0.25), (0.25, 0.5), (0.5, 0.5),
              (0.8, 1.0), (0.2, 0.3), (0.3, 0.4), (0.25, 1.0), (0.0, 0.8), (0.9, 1.0)]
    bounds += [(k / 7, (k + 1) / 7) for k in range(7)]
    for a, b in bounds:
        assert s.integrate(a, b).hex() == _step_integrate_full_walk(s, a, b).hex(), (a, b)


@st.composite
def _step_and_bounds(draw):
    cuts = sorted(set(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                    max_size=7))))
    pieces = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    s = StepFunction(cuts, pieces, pieces[:-1])
    m = draw(st.integers(1, 13))
    kind = draw(st.sampled_from(["cell", "equal", "mixed"]))
    if kind == "cell":  # one Kantorovich cell of degree m - 1
        k = draw(st.integers(0, m - 1))
        return s, k / m, (k + 1) / m
    bound = st.one_of(st.sampled_from(s.cuts + (0.0, 1.0)),
                      st.integers(0, m).map(lambda k: k / m), st.floats(0.0, 1.0))
    a = draw(bound)
    b = a if kind == "equal" else draw(bound)
    return (s, a, b) if a <= b else (s, b, a)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_step_and_bounds())
def test_step_integrate_matches_full_walk(case):
    s, a, b = case
    assert s.integrate(a, b).hex() == _step_integrate_full_walk(s, a, b).hex()


def test_step_midpoints():
    s = StepFunction([1 / 3, 2 / 3], [0.0, 0.5, 1.0], [0.25, 0.75])
    mids = s.piece_midpoints()
    assert mids == pytest.approx((1 / 6, 0.5, 5 / 6), abs=1e-15)


def test_step_validation():
    with pytest.raises(InvalidInputError, match=r"cuts\[0\]"):
        StepFunction([0.0], [1.0, 2.0], [1.5])
    with pytest.raises(InvalidInputError, match=r"pointValues\[0\]"):
        StepFunction([0.5], [0.0, 1.0], [2.0])
    with pytest.raises(InvalidInputError, match="pieces"):
        StepFunction([0.5], [1.0], [0.5])
    with pytest.raises(InvalidInputError, match=r"cuts\[1\]: cuts must be strictly increasing"):
        StepFunction([0.5, 0.5], [0.0, 1.0, 2.0], [0.5, 1.5])
    with pytest.raises(InvalidInputError, match="pointValues: expected 1 point values, got 2"):
        StepFunction([0.5], [0.0, 1.0], [0.5, 0.5])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match=r"pieces\[1\]: must be finite"):
            StepFunction([0.5], [0.0, bad], [0.0])
        with pytest.raises(InvalidInputError, match=r"pieces\[0\]: must be finite"):
            StepFunction([], [bad], [])
        with pytest.raises(InvalidInputError, match=r"pointValues\[0\]"):
            StepFunction([0.5], [0.0, 1.0], [bad])


def test_bernstein_eval_matches_power_basis():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(n + 1)]
        p = BernsteinPoly(coeffs)
        power = bern_to_power(coeffs)
        for k in range(11):
            x = k / 10
            assert p.eval(x) == pytest.approx(eval_power(power, x), abs=1e-10)


def test_bernstein_endpoint_coefficients_exact():
    p = BernsteinPoly([0.3, -1.2, 0.8, 0.1])
    assert p.eval(0.0) == 0.3
    assert p.eval(1.0) == 0.1


def test_bernstein_high_degree_path():
    # degree 63 exercises the array evaluation and split kernels
    p = BernsteinPoly([0.2, 0.9]).elevate(62)
    assert p.degree == 63
    for k in range(21):
        x = k / 20
        assert p.eval(x) == pytest.approx(0.2 + 0.7 * x, abs=1e-12)
    q = p.restrict(0.25, 0.75)
    for k in range(11):
        x = 0.25 + 0.5 * k / 10
        assert q.eval(x) == pytest.approx(0.2 + 0.7 * x, abs=1e-12)


def test_derivative_matches_power_basis():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 7)
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
        d = BernsteinPoly(coeffs).derivative()
        power = bern_to_power(coeffs)
        dpower = [j * a for j, a in enumerate(power)][1:]
        for k in range(11):
            x = k / 10
            assert d.eval(x) == pytest.approx(eval_power(dpower, x), abs=1e-9)


def test_derivative_degree_zero():
    d = BernsteinPoly([0.7]).derivative()
    assert d.coeffs == (0.0,)


def test_elevate_keeps_function():
    rng = random.Random(7)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    p = BernsteinPoly(coeffs)
    q = p.elevate(5)
    assert q.degree == p.degree + 5
    for k in range(21):
        x = k / 20
        assert q.eval(x) == pytest.approx(p.eval(x), abs=1e-12)
    with pytest.raises(DomainError):
        p.elevate(0)


def _elevate_reference(coeffs, r):
    # the scalar recurrence elevate() vectorizes, one degree at a time
    c = list(coeffs)
    for _ in range(r):
        n = len(c) - 1
        out = [c[0]]
        for k in range(1, n + 1):
            w = k / (n + 1)
            out.append(w * c[k - 1] + (1.0 - w) * c[k])
        out.append(c[-1])
        c = out
    return tuple(c)


def test_elevate_bits_match_scalar_recurrence():
    # bit for bit, not approx: convergence tables depend on every last bit
    rng = random.Random(17)
    for r in (1, 2, 47, 48, 63, 255, 1023):
        for n in range(7):
            coeffs = [rng.uniform(-3.0, 3.0) for _ in range(n + 1)]
            q = BernsteinPoly(coeffs, (0.125, 0.625)).elevate(r)
            assert q.coeffs == _elevate_reference(coeffs, r)
            assert q.domain == (0.125, 0.625)
        # several rows in one call: each row as if elevated alone
        for n in (0, 1, 4):
            rows = [[rng.uniform(-3.0, 3.0) for _ in range(n + 1)] for _ in range(5)]
            out = functions._elevate(rows, r)
            assert out.shape == (5, n + r + 1)
            for row, got in zip(rows, out.tolist()):
                assert tuple(got) == _elevate_reference(row, r)
    rows = [[0.5, -1.0], [2.0, 0.25]]
    assert functions._elevate(rows, 0).tolist() == rows


def _split_reference(coeffs, t):
    # the scalar de Casteljau split: a fresh list per step
    s = 1.0 - t
    w = list(coeffs)
    left, right = [w[0]], [w[-1]]
    while len(w) > 1:
        w = [s * a + t * b for a, b in zip(w, w[1:])]
        left.append(w[0])
        right.append(w[-1])
    return tuple(left), tuple(right[::-1])


def _hexes(rows):
    return [[x.hex() for x in row] for row in rows]


def _halves(rows, ts):
    # the split kernel's stream gathered into (lefts, rights), in input order
    lefts, rights = [None] * len(rows), [None] * len(rows)
    for i, left, right in functions._dc_split_many(rows, ts):
        lefts[i], rights[i] = left, right
    return lefts, rights


def _split_one(coeffs, t):
    # both halves of one row: the one-row call of the split kernel
    lefts, rights = _halves([coeffs], [t])
    return lefts[0], rights[0]


def test_split_kernel_bits_match_scalar_reference():
    # many rows of one length, each at its own t, in one call: each row as
    # if split alone, signed zeros included, on both sides of the cutover;
    # then every row of every length in one call, in shuffled order
    rng = random.Random(23)
    ts = [0.0, 0.5, rng.random(), 1.0]
    everything = []
    for n in (1, 12, 48, 49, 64, 200, 1024):
        rows = [[rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0))) for _ in range(n + 1)]
                for _ in ts]
        rows[0][:2] = [-0.0, 0.5]
        lefts, rights = _halves(rows, ts)
        expected = [_split_reference(row, t) for row, t in zip(rows, ts)]
        assert _hexes(lefts) == _hexes([left for left, _ in expected])
        assert _hexes(rights) == _hexes([right for _, right in expected])
        # the one-row case
        assert _hexes(_split_one(rows[2], ts[2])) == _hexes(expected[2])
        everything += zip(rows, ts)
    rng.shuffle(everything)
    lefts, rights = _halves(*zip(*everything))
    expected = [_split_reference(row, t) for row, t in everything]
    assert _hexes(lefts) == _hexes([left for left, _ in expected])
    assert _hexes(rights) == _hexes([right for _, right in expected])
    assert _halves([], []) == ([], [])


def test_split_stream_yields_each_row_once_short_rows_first(monkeypatch):
    # every index once; rows of at most 49 coefficients first, in input
    # order; the longer rows after them, longest first, over several chunks
    monkeypatch.setattr(functions, "_SPLIT_COEFFS", 200)
    rng = random.Random(31)
    lengths = [rng.choice((1, 2, 13, 49, 50, 64, 97, 300)) for _ in range(40)]
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(m)] for m in lengths]
    order = [i for i, _, _ in functions._dc_split_many(rows, [0.5] * len(rows))]
    assert sorted(order) == list(range(len(rows)))
    short = [i for i, m in enumerate(lengths) if m <= functions._NUMPY_CUTOVER + 1]
    assert order[: len(short)] == short
    longer = [lengths[i] for i in order[len(short) :]]
    assert longer == sorted(longer, reverse=True) and longer[-1] > 49
    assert list(functions._dc_split_many([], [])) == []


def test_evaluation_holds_one_split_chunk_at_a_time(monkeypatch):
    # 2,000 values of a degree-99 polynomial in one call: its halves leave
    # the kernel a chunk of 10 rows at a time, so the peak stays far below
    # the 3.2 MB that holding every row's halves at once would take
    monkeypatch.setattr(functions, "_SPLIT_COEFFS", 1024)
    rng = random.Random(32)
    p = BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(100)])
    xs = [(i + 0.5) / 2000 for i in range(2000)]
    functions.eval_many([p], [xs[:2]])  # numpy imported before the trace
    tracemalloc.start()
    try:
        values = functions.eval_many([p], [xs])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[1000] == p.eval(xs[1000])
    assert peak < 1 << 20


def test_restrict_keeps_function():
    rng = random.Random(8)
    for _ in range(10):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(6)]
        p = BernsteinPoly(coeffs)
        u = rng.uniform(0.0, 0.45)
        v = rng.uniform(0.55, 1.0)
        q = p.restrict(u, v)
        assert q.domain == (u, v)
        for k in range(11):
            x = u + (v - u) * k / 10
            assert q.eval(x) == pytest.approx(p.eval(x), abs=1e-12)
    with pytest.raises(DomainError):
        BernsteinPoly([0.0, 1.0]).restrict(0.5, 0.5)


def test_bernstein_validation():
    with pytest.raises(InvalidInputError, match="coeffs"):
        BernsteinPoly([])
    with pytest.raises(InvalidInputError, match="domain"):
        BernsteinPoly([1.0], (0.5, 0.25))
    with pytest.raises(DomainError):
        BernsteinPoly([0.0, 1.0], (0.25, 0.75)).eval(0.1)
    with pytest.raises(DomainError, match="argument nan lies outside"):
        BernsteinPoly([0.25, 1.0, -0.5]).eval(math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match=r"coeffs\[1\]: must be finite"):
            BernsteinPoly([0.0, bad, 1.0])


def test_piecewise_polynomial_seams():
    left = BernsteinPoly([0.0, 1.0], (0.0, 0.5))
    right = BernsteinPoly([1.0, 0.0], (0.5, 1.0))
    pp = PiecewisePolynomial([left, right])
    assert pp.eval(0.25) == 0.5
    assert pp.eval(0.5) == 1.0
    assert pp.eval(0.75) == 0.5
    bad = BernsteinPoly([0.5, 0.0], (0.5, 1.0))
    with pytest.raises(InvalidInputError, match=r"pieces\[1\]"):
        PiecewisePolynomial([left, bad])
    with pytest.raises(InvalidInputError, match=r"pieces\[0\]"):
        PiecewisePolynomial([right])
    with pytest.raises(InvalidInputError, match="pieces: need at least one piece"):
        PiecewisePolynomial([])
    with pytest.raises(InvalidInputError, match=r"pieces\[0\]: last piece must end at 1"):
        PiecewisePolynomial([left])
    gap = BernsteinPoly([1.0, 0.0], (0.75, 1.0))
    with pytest.raises(InvalidInputError, match=r"pieces\[1\]: pieces must share endpoints"):
        PiecewisePolynomial([left, gap])


def test_critical_points_plf_slope_changes():
    zig = PiecewiseLinear([(0.0, 0.0), (1 / 3, 1.0), (2 / 3, 0.0), (1.0, 1.0)])
    cs = critical_points(zig)
    assert cs.points == pytest.approx((0.0, 1 / 3, 2 / 3, 1.0), abs=1e-15)
    assert cs.tags == ("endpoint", "breakpoint", "breakpoint", "endpoint")
    # plateau edges count: slope +,0,+ changes sign twice
    plateau = named_function("counterexample")
    assert critical_points(plateau).points == pytest.approx(
        (0.0, 1 / 3, 2 / 3, 1.0), abs=1e-15
    )
    # collinear interior breakpoint is not a monotonicity change
    straight = PiecewiseLinear([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    assert critical_points(straight).points == (0.0, 1.0)


def test_critical_points_rejects_unsupported_type():
    with pytest.raises(InvalidInputError, match="unsupported function type float"):
        critical_points(0.5)


def test_critical_points_step():
    s = StepFunction([0.5], [0.0, 1.0], [0.5])
    cs = critical_points(s)
    assert cs.points == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0), abs=1e-15)


def test_isolate_extrema_exact_junction():
    cs = isolate_extrema(BernsteinPoly([0.0, 1.0, 0.0]))
    assert cs.points == (0.0, 0.5, 1.0)
    assert cs.tags[1] == "isolated-root"


def test_isolate_extrema_interior_root():
    # vertex of c0(1-t)^2 + 2 c1 t(1-t) + c2 t^2 at (c0-c1)/(c0-2c1+c2) = 1/3
    cs = isolate_extrema(BernsteinPoly([1.0, 2.0, 0.0]))
    assert len(cs.points) == 3
    assert cs.points[1] == pytest.approx(1 / 3, abs=1e-9)
    # differences near the largest float (1e308 and -1.7e308): scaled by a
    # power of two first, the polish's start and slope stay finite, so the
    # root at 10/27 is not lost
    cs = isolate_extrema(BernsteinPoly([0.0, 1e308, -7e307]))
    assert cs.points[1] == pytest.approx(10 / 27, abs=1e-15)


def test_isolate_extrema_excludes_touch_root():
    # derivative is proportional to 3(1-2t)^2: touches zero, never changes sign
    cs = isolate_extrema(BernsteinPoly([0.0, 1.0, 0.0, 1.0]))
    assert cs.points == (0.0, 1.0)


def test_isolate_extrema_two_roots():
    zig = PiecewiseLinear([(0.0, 0.0), (1 / 3, 1.0), (2 / 3, 0.0), (1.0, 1.0)])
    coeffs = [zig.eval(k / 6) for k in range(7)]
    p = BernsteinPoly(coeffs)
    cs = isolate_extrema(p)
    roots = [x for x, t in zip(cs.points, cs.tags) if t == "isolated-root"]
    assert len(roots) == 2
    d = p.derivative()
    for r in roots:
        assert abs(d.eval(r)) <= 1e-8


def test_isolate_extrema_snaps_noise_to_constant():
    # elevating a linear function produces tiny coefficient jitter; the
    # derivative must be treated as the exact constant it represents
    p = BernsteinPoly([0.3, 0.7]).elevate(63)
    cs = isolate_extrema(p)
    assert cs.points == (0.0, 1.0)
    # degree 0 has no derivative to isolate
    assert isolate_extrema(BernsteinPoly([0.7], (0.25, 0.5))).points == (0.25, 0.5)


# A degree-48 derivative with one sign change near 0.285 that is numerically
# flat on [0.5, 1]: subdivision drops the flat right half and polishes the
# root once a panel around it changes sign once, ends included.
_FLAT_RIGHT = [0.0] * 49
_FLAT_RIGHT[1] = -(2.0 ** -7)
_FLAT_RIGHT[4] = 2.0 ** -15


def test_sign_change_params_skips_flat_panel():
    assert _sign_change_params(_FLAT_RIGHT, 1e-12) == [0.284807123723456]
    # negative before the flat half: a flat panel taken as positive would add 0.5
    dc = [0.0] * 49
    dc[0], dc[3] = 2.0 ** -7, -(2.0 ** -15)
    assert _sign_change_params(dc, 1e-12) == [0.19712657610322804]


# The polynomial whose derivative, (t - 0.3)^2 to rounding, touches 0 at 0.3
# without changing sign: its ends have one sign, so no panel is polished, and
# subdivision closes in on the touch point, two or three panels a level, until
# the panels around it turn flat.  It visits 39 panels, and at a budget of 32
# it stalls at level 16.
_TOUCH_POLY = BernsteinPoly([0.0, 0.09, -0.12, 0.37])
_TOUCH_STALL = (
    r"budget of 32 panels; stalled on panel \[0\.29998779296875, 0\.3000030517578125\]$"
)
# Derivative touching 0 at 0.3 and 0.7: at a budget of 32 it stalls at level 9.
_TWO_TOUCH_POLY = BernsteinPoly(
    [0.0, 0.04409999999999999, -0.016800000000000002, 0.053966666666666656,
     -0.006933333333333354, 0.03716666666666666]
)


def test_sign_change_params_panel_budget(monkeypatch):
    dc, tol = functions._derivative_job(_TOUCH_POLY)
    monkeypatch.setattr(functions, "_MAX_PANELS", 39)
    assert _sign_change_params(dc, tol) == []
    monkeypatch.setattr(functions, "_MAX_PANELS", 38)
    with pytest.raises(ResourceError, match=(
        r"budget of 38 panels; stalled on panel \[0\.29999923706054688, 0\.30000114440917969\]$"
    )):
        _sign_change_params(dc, tol)


def test_sign_change_params_takes_wide_gap_midpoint():
    # the uncertified gap between opposite panels is wider than the tolerance:
    # the root is its midpoint, wherever inside it the sign changes.  Here the
    # one sign change lies near 1/3 (and 2/3 in the mirror), but the panels
    # of width 0.5 around it change coefficient sign three times, so none is
    # polished, and their halves are not wider than tol
    assert _sign_change_params((0.25, -0.5, 1.0, -2.0), 0.25) == [0.375]
    assert _sign_change_params((2.0, -1.0, 0.5, -0.25), 0.25) == [0.625]
    assert _sign_change_params((0.0, -0.5, 1.0, -1.0, 0.5, 0.0), 0.25) == [0.5]
    # the panel [0.25, 0.5] between the opposite panels is flat (every
    # coefficient within zcut), so the gap is wider than tol = 1e-12
    dc = [0.0] * 282
    dc[21] = -0.0008814971969222255
    dc[25] = 1.679555373081372e-05
    dc[238] = 0.00015550241819375842
    assert _sign_change_params(tuple(dc), 1e-12) == [0.375]


def test_batch_carries_each_polynomial_error(monkeypatch):
    monkeypatch.setattr(functions, "_MAX_PANELS", 32)
    ordinary = BernsteinPoly([0.0, 1.0, 0.0])  # 1 panel: [0, 1], polished
    overflow = BernsteinPoly([0.0, 1e308, -1e308])
    stalled, crit, overflowed = critical_points_many([_TOUCH_POLY, ordinary, overflow])
    assert isinstance(stalled, ResourceError)
    assert re.search(_TOUCH_STALL, str(stalled))
    assert crit.points == (0.0, 0.5, 1.0)
    assert isinstance(overflowed, InvalidInputError) and overflowed.field == "coeffs"
    # the one-element case raises what the batch carries
    with pytest.raises(ResourceError, match=_TOUCH_STALL):
        isolate_extrema(_TOUCH_POLY)
    monkeypatch.setattr(functions, "_MAX_PANELS", 39)
    assert critical_points_many([_TOUCH_POLY])[0].points == (0.0, 1.0)


def test_stall_message_does_not_depend_on_the_batch(monkeypatch):
    # the error names the polynomial's own leftmost panel of the level that
    # passed the budget, so mates, stalled at that level or another or not
    # at all, short or long, keep it
    monkeypatch.setattr(functions, "_MAX_PANELS", 32)
    mirror = BernsteinPoly(_TOUCH_POLY.coeffs[::-1])  # stalls at the same level
    long = _TWO_TOUCH_POLY.elevate(50)  # above the cutover, at the level of the next
    stalled = [_TOUCH_POLY, mirror, long, _TWO_TOUCH_POLY]
    alone = [str(critical_points_many([p])[0]) for p in stalled]
    assert re.search(_TOUCH_STALL, alone[0])
    assert alone[2] == alone[3]
    assert all(msg.startswith("derivative sign analysis passed") for msg in alone)
    mates = [BernsteinPoly([0.0, 1.0, 0.0]), BernsteinPoly([0.3, -0.2] * 40)]
    # the last batch: short and long stalls and mates, interleaved
    for batch in (stalled + mates, mates + stalled[::-1], [mates[1], mirror, mates[0], long]):
        got = critical_points_many(batch)
        for p, msg in zip(stalled, alone):
            if p in batch:
                assert str(got[batch.index(p)]) == msg


_DEGREES = st.sampled_from([1, 2, 3, 5, 12, 13, 48, 49, 64])
_POLYS = st.tuples(
    _DEGREES.flatmap(lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)),
    st.integers(0, 6),
    st.integers(1, 8),
).map(lambda t: BernsteinPoly(t[0], (t[1] / 8, min(1.0, (t[1] + t[2]) / 8))))


def _bits(crit):
    return [x.hex() for x in crit.points], crit.tags


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.lists(_POLYS, min_size=1, max_size=12), st.lists(_POLYS, max_size=4))
def test_isolation_does_not_depend_on_the_batch(polys, mates):
    alone = [_bits(isolate_extrema(p)) for p in polys]
    assert [_bits(c) for c in critical_points_many(polys)] == alone
    assert [_bits(c) for c in critical_points_many(polys[::-1])] == alone[::-1]
    mixed = critical_points_many(mates + polys + mates)
    assert [_bits(c) for c in mixed[len(mates) : len(mates) + len(polys)]] == alone


def test_critical_points_many_matches_critical_points(monkeypatch):
    # every model in one batch: each entry is what critical_points gives or raises
    monkeypatch.setattr(functions, "_MAX_PANELS", 32)
    hat = named_function("hat")
    touch = BernsteinPoly(_TOUCH_POLY.coeffs, (0.5, 1.0))
    second_stalls = PiecewisePolynomial([BernsteinPoly([1.0, 0.0], (0.0, 0.5)), touch])
    batch = [
        PiecewiseLinear([(0.0, 0.0), (1 / 3, 1.0), (2 / 3, 0.0), (1.0, 1.0)]),
        StepFunction([0.5], [0.0, 1.0], [0.5]),
        BernsteinPoly([0.0, 1.0, 0.0]),
        subtract(bernstein_of(hat, 64), hat),
        _TOUCH_POLY,
        BernsteinPoly([0.0, 1e308, -1e308]),
        0.5,
        second_stalls,
    ]
    got = critical_points_many(batch)
    for f, crit in zip(batch, got):
        try:
            alone = critical_points(f)
        except (InvalidInputError, ResourceError) as exc:
            assert (type(crit), str(crit)) == (type(exc), str(exc))
        else:
            assert _bits(crit) == _bits(alone)
    kinds = [CriticalSet] * 4 + [ResourceError, InvalidInputError, InvalidInputError, ResourceError]
    assert [type(crit) for crit in got] == kinds
    assert str(got[-1]) == str(critical_points_many([touch])[0])


def _reference_one_root_start(c, zcut):
    """The start of the polish when the coefficients c hold one simple root
    (ends of opposite signs beyond zcut, nonzero coefficients changing sign
    once), else None: the control polygon's zero between the last
    coefficient of the first sign, i, and the first of the other, j."""
    if not (abs(c[0]) > zcut and abs(c[-1]) > zcut):
        return None
    rising = c[0] < 0.0
    if rising == (c[-1] < 0.0):
        return None
    i = max(k for k, x in enumerate(c) if (x < 0.0 if rising else x > 0.0))
    j = min(k for k, x in enumerate(c) if (x > 0.0 if rising else x < 0.0))
    if i > j:
        return None
    return (i + (j - i) * c[i] / (c[i] - c[j])) / (len(c) - 1)


def _reference_polish(c, t, width, tol):
    """The safeguarded Newton polish of one row, scalar, on the scalar split
    (_split_reference); also the branch each pass took."""
    n = len(c) - 1
    rising = c[0] < 0.0
    a, b, prev = 0.0, 1.0, 1.0
    passes = math.frexp(width / tol)[1]
    taken = []
    while True:
        left, right = _split_reference(c, t)
        v, d = left[-1], n * (right[1] - left[-2])
        if (v < 0.0) == rising:
            a = t
        else:
            b = t
        newton = t - v / d if d else math.nan
        if v == 0.0:
            taken.append("zero")
            new = t
        elif a <= newton <= b and abs(newton - t) <= 0.5 * prev:
            taken.append("newton")
            new = newton
        else:
            taken.append("bisect")
            new = 0.5 * (a + b)
        step = abs(new - t)
        passes -= 1
        t, prev = new, step
        if v == 0.0 or step * width <= 0.5 * tol or (b - a) * width <= tol or passes == 0:
            return t, taken


def _reference_sign_change_params(dcoeffs, tol, polished=None):
    """The depth-first subdivision of one derivative: the scalar loop the
    level-synchronous subdivision replaces, kept as its reference.  A panel about to be
    split that holds one simple root is polished instead
    and certified as its two halves at the root; the polished roots are
    also appended to the list polished, if one is given."""
    zcut = 1e-12 * max(1.0, max(abs(c) for c in dcoeffs))
    roots, prev = [], [0, 0.0]  # sign and hi of the last certified panel

    def certify(lo, hi, sign):
        if prev[0] and sign != prev[0]:
            roots.append(0.5 * (prev[1] + lo))
        prev[:] = sign, hi

    stack = [(0.0, 1.0, dcoeffs)]
    while stack:
        lo, hi, c = stack.pop()
        nonneg, nonpos = min(c) >= -zcut, max(c) <= zcut
        if nonneg != nonpos:
            certify(lo, hi, +1 if nonneg else -1)
        elif not nonneg and hi - lo > tol:
            start = _reference_one_root_start(c, zcut)
            if start is not None:
                r = lo + _reference_polish(c, start, hi - lo, tol)[0] * (hi - lo)
                if polished is not None:
                    polished.append(r)
                sign = -1 if c[0] < 0.0 else +1
                certify(lo, r, sign)
                certify(r, hi, -sign)
                continue
            left, right = _split_one(c, 0.5)
            mid = 0.5 * (lo + hi)
            stack += [(mid, hi, right), (lo, mid, left)]
    return [r for r in roots if tol < r < 1.0 - tol]


_JOBS = st.tuples(
    st.integers(1, 64).flatmap(
        lambda m: st.lists(
            st.sampled_from([0.0, -0.0, 1e-13, -1e-13]) | st.floats(-1.0, 1.0),
            min_size=m,
            max_size=m,
        )
    ),
    st.sampled_from([1e-12, 1e-6, 0.25]),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(_JOBS, min_size=1, max_size=6))
def test_frontier_matches_depth_first_reference(jobs):
    expected = [[r.hex() for r in _reference_sign_change_params(dc, tol)] for dc, tol in jobs]
    got = functions._sign_change_params_many(jobs)
    assert [[r.hex() for r in roots] for roots in got] == expected


def test_split_chunks_keep_the_bits(monkeypatch):
    rng = random.Random(9)
    degrees = (1, 5, 12, 49, 64, 100)
    polys = [BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(n + 1)]) for n in degrees]
    expected = [_bits(c) for c in critical_points_many(polys * 2)]
    # derivatives of one length above the cutover, whose chunks' columns
    # all end on their last row, then of mixed lengths
    jobs = [functions._derivative_job(BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(n + 1)]))
            for n in (50, 50, 50, 80)]
    roots = [[r.hex() for r in _reference_sign_change_params(dc, tol)] for dc, tol in jobs]
    for split in (functions._SPLIT_COEFFS, 200):  # 200: 2 to 100 columns a chunk
        monkeypatch.setattr(functions, "_SPLIT_COEFFS", split)
        assert [_bits(c) for c in critical_points_many(polys * 2)] == expected
        for batch in (slice(0, 3), slice(3, 4), slice(0, 4)):  # the last one mixes lengths
            got = functions._sign_change_params_many(jobs[batch])
            assert [[r.hex() for r in rs] for rs in got] == roots[batch]


def test_mixed_lengths_match_the_one_row_split(monkeypatch):
    # rows of mixed lengths, then of one length, then their own halves, at
    # t = 1/2 and at a random t, against the one-row kernel, bit for bit
    rng = random.Random(12)
    mixed = [tuple(rng.uniform(-1.0, 1.0) for _ in range(n)) for n in (50, 64, 97, 300, 64)]
    equal = [tuple(rng.uniform(-1.0, 1.0) for _ in range(80)) for _ in range(3)]
    t = rng.random()

    def bits(rows):
        return [[float(x).hex() for x in row] for row in rows]

    def one_by_one(rows, ts):
        halves = [_halves([row], [t]) for row, t in zip(rows, ts)]
        return [bits(left) + bits(right) for left, right in halves]

    for split in (functions._SPLIT_COEFFS, 1):  # 1: one row a chunk
        monkeypatch.setattr(functions, "_SPLIT_COEFFS", split)
        for rows in (mixed, equal):
            ts = [(0.5, t)[i % 2] for i in range(len(rows))]
            lefts, rights = _halves(rows, ts)
            assert [bits([a]) + bits([b]) for a, b in zip(lefts, rights)] == one_by_one(rows, ts)
            again = _halves(lefts + rights, ts + ts)
            assert [bits([a]) + bits([b]) for a, b in zip(*again)] == one_by_one(lefts + rights, ts + ts)


def test_one_polish_call_for_every_length(monkeypatch):
    # derivatives of 4, 50, 64 and 97 coefficients, each with one simple
    # root, polished in one call, each with the roots it has alone
    jobs = [(tuple(math.tanh(4.0 * (k / (m - 1) - r)) for k in range(m)), 1e-12)
            for m, r in ((4, 0.3), (50, 0.45), (64, 0.6), (97, 0.7))]
    alone = [_sign_change_params(dc, tol) for dc, tol in jobs]
    assert alone == [_reference_sign_change_params(dc, tol) for dc, tol in jobs]
    assert [len(roots) for roots in alone] == [1, 1, 1, 1]
    polished = []
    polish = functions._polish

    def counted(rows, *args):
        polished.append(len(rows))
        return polish(rows, *args)

    monkeypatch.setattr(functions, "_polish", counted)
    assert functions._sign_change_params_many(jobs) == alone
    assert polished == [4]


def test_stalled_job_drops_its_isolated_panels(monkeypatch):
    # the derivative (t - 0.3)^2 (t - 0.8), to rounding: its root at 0.8 is
    # isolated on [0.5, 1] at level 1, and at a budget of 32 its touch at
    # 0.3 stalls the job at level 16.  The stalled job's isolated panel is
    # not polished; its mate of the same length is, with the roots it has alone
    dc = (-0.072, 0.118, -0.15866666666666662, 0.098)
    mate = (-1.0, 0.5, 1.0, 2.0)
    assert _sign_change_params(dc, 1e-12) == [0.7999999999999999]
    monkeypatch.setattr(functions, "_MAX_PANELS", 32)
    alone = _sign_change_params(mate, 1e-12)
    polished = []
    polish = functions._polish

    def counted(rows, *args):
        polished.append(len(rows))
        return polish(rows, *args)

    monkeypatch.setattr(functions, "_polish", counted)
    stalled, roots = functions._sign_change_params_many([(dc, 1e-12), (mate, 1e-12)])
    assert re.search(_TOUCH_STALL, str(stalled))
    assert roots == alone and len(alone) == 1
    assert polished == [1]


def _exact_sign(dcoeffs, t):
    """The exact sign of the Bernstein polynomial with the float coefficients
    dcoeffs at the rational t = p/q: de Casteljau in integers, each step
    scaled by q, so nothing is rounded."""
    p, q = t.numerator, t.denominator
    ratios = [c.as_integer_ratio() for c in dcoeffs]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    w = [num * (den // d) for num, d in ratios]
    for _ in range(len(w) - 1):
        w = [(q - p) * a + p * b for a, b in zip(w, w[1:])]
    return (w[0] > 0) - (w[0] < 0)


#: A polished root lies within this distance, in the job's local t, of an
#: exact sign change of the float derivative (README's root contract).
_POLISH_EPS = Fraction(1, 10 ** 15)


def test_polished_roots_bracket_an_exact_sign_change():
    # derivatives of degrees 1 to 255: operator images of random
    # piecewise-linear functions at degrees 2 to 12 and 30 to 49, whose
    # derivatives are split in lists up to degree 48, and random Bernstein
    # polynomials and the pieces of a degree-256 difference B_n f - f,
    # whose derivatives are split on arrays
    ops = (bernstein_of, kantorovich_of)
    polys = [op(random_plf(s, 8), n) for s in (1, 2, 3) for n in range(2, 13) for op in ops]
    polys += [op(random_plf(4, 8), n) for n in (31, 40, 49) for op in ops]
    rng = random.Random(4)
    polys += [BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(n + 1)]) for n in (50, 64, 100, 128)]
    f = random_plf(3, 4)
    polys += subtract(bernstein_of(f, 256), f).pieces
    jobs = [functions._derivative_job(p) for p in polys]
    checked = 0
    for (dc, tol), roots in zip(jobs, functions._sign_change_params_many(jobs)):
        polished = []
        assert roots == _reference_sign_change_params(dc, tol, polished)
        for r in polished:
            if tol < r < 1.0 - tol:
                assert r in roots
                below = _exact_sign(dc, Fraction(r) - _POLISH_EPS)
                above = _exact_sign(dc, Fraction(r) + _POLISH_EPS)
                assert below * above == -1, (r, below, above)
                checked += 1
    assert checked == 154


def test_polish_branches_match_the_scalar_reference():
    # one batch of one length above the cutover, each row through another
    # branch of the safeguard: Newton steps from the control polygon's zero,
    # a start on a flat stretch whose Newton points leave the bracket, and
    # a value of exactly 0 (antisymmetric coefficients at t = 1/2)
    n = 61
    steep = [math.tanh(30.0 * (k / n - 0.6)) for k in range(n + 1)]
    antisymmetric = [k - n / 2 for k in range(n + 1)]
    start = _reference_one_root_start(steep, 1e-12)
    rows = [(steep, start), (steep, 0.02), (antisymmetric, 0.5)]
    expected = [_reference_polish(c, t, 0.5, 1e-12) for c, t in rows]
    assert [taken for _, taken in expected] == [
        ["newton"] * 3, ["bisect", "newton", "bisect"] + ["newton"] * 4, ["zero"]
    ]
    got = functions._polish(
        np.array([c for c, _ in rows]), np.array([t for _, t in rows]), np.full(3, 0.5), np.full(3, 1e-12)
    )
    assert [t.hex() for t in got] == [t.hex() for t, _ in expected]
    assert _reference_one_root_start(antisymmetric, 1e-12) == 0.5


def test_polished_root_within_tol_of_an_end_is_dropped():
    # the difference coefficients of t - 1e-7 at degree 60 hold one root;
    # it is polished on [0, 1], and the end filter drops it when
    # the tolerance is wider than its distance from the end
    rising = [k / 60 - 1e-7 for k in range(61)]
    falling = [-c for c in rising[::-1]]  # its mirror: the root at 1 - 1e-7
    jobs = [(rising, 1e-6), (rising, 1e-9), (falling, 1e-6), (falling, 1e-9)]
    got = functions._sign_change_params_many(jobs)
    assert got == [[], [1.0000000000000005e-07], [], [0.9999999]]
    assert got == [_reference_sign_change_params(dc, tol) for dc, tol in jobs]


@pytest.mark.parametrize(
    "coeffs", [[-0.0, 1.0], [-0.0, -1.0], [1.0, -0.0], [-1.0, -0.0], [-0.0, 2.0, -0.0]]
)
def test_eval_at_an_end_keeps_the_kernel_bits(coeffs):
    rng = random.Random(5)
    polys = [BernsteinPoly(coeffs, (0.25, 0.75))]
    for n in (0, 1, 4, 48, 49, 70):
        polys.append(BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(n + 1)], (0.25, 0.75)))
    for p in polys:
        for x, t in ((0.25, 0.0), (0.75, 1.0)):
            assert p.eval(x).hex() == _split_one(p.coeffs, t)[0][-1].hex()
    # the batched evaluation gives eval's floats, at ends and inside, seams
    # included, with one kernel call per degree; piecewise-linear and step
    # models in the same batch give their own eval's
    hat = named_function("hat")
    models = polys + [subtract(bernstein_of(hat, 70), hat), subtract(BernsteinPoly(coeffs), hat),
                      hat, StepFunction([0.5], [-0.0, 1.0], [0.25])]
    points = [[0.25, 0.75, 0.5, 0.3]] * len(polys) + [[0.0, 0.5, 0.7, 1.0]] * 4
    got = functions.eval_many(models, points)
    assert _hexes(got) == _hexes([list(map(f.eval, pts)) for f, pts in zip(models, points)])
    # an argument outside the domain: the same refusal from both
    for f, x in ((polys[-1], 0.8), (models[len(polys)], 1.5)):
        with pytest.raises(DomainError) as alone:
            f.eval(x)
        with pytest.raises(DomainError) as batched:
            functions.eval_many([hat, f], [[0.5], [0.5, x]])
        assert str(batched.value) == str(alone.value)


def _dc_grid(coeffs, ts):
    """de Casteljau at every t of ts at once (columns), independent of lamvar."""
    w = np.repeat(np.asarray(coeffs, dtype=np.float64)[:, None], len(ts), axis=1)
    for _ in range(len(coeffs) - 1):
        w = (1.0 - ts) * w[:-1] + ts * w[1:]
    return w[0]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)
    )
)
def test_isolated_roots_match_grid_sign_changes(coeffs):
    p = BernsteinPoly(coeffs)
    dcoeffs = p.derivative().coeffs
    cs = isolate_extrema(p)
    roots = [x for x, tag in zip(cs.points, cs.tags) if tag == "isolated-root"]
    grid = np.linspace(0.0, 1.0, 2001)
    d = _dc_grid(dcoeffs, grid)
    for i in range(len(grid) - 1):
        if d[i] * d[i + 1] < 0 and min(abs(d[i]), abs(d[i + 1])) > 1e-6:
            assert any(grid[i] < r < grid[i + 1] for r in roots), (i, roots)
    for r in roots:
        left, right = _dc_grid(dcoeffs, np.array([r - 1e-7, r + 1e-7]))
        if min(abs(left), abs(right)) > 1e-12:
            assert left * right <= 0, (r, left, right)


def test_critical_set_merges_coincident_points():
    cs = CriticalSet(
        [(0.5, "isolated-root"), (0.5 + 1e-13, "breakpoint"), (0.0, "endpoint"), (1.0, "endpoint")]
    )
    assert cs.points == (0.0, 0.5, 1.0)
    assert cs.tags[1] == "isolated-root"  # the first entry's tag
    assert len(cs) == 3
    assert list(cs) == [0.0, 0.5, 1.0]


def test_reprs():
    left = BernsteinPoly([0.0, 1.0], (0.0, 0.5))
    right = BernsteinPoly([1.0, 0.0], (0.5, 1.0))
    assert repr(named_function("hat")) == "PiecewiseLinear(3 breakpoints)"
    assert repr(StepFunction([0.5], [0.0, 1.0], [0.5])) == "StepFunction(1 cuts)"
    assert repr(left) == "BernsteinPoly(degree=1, domain=(0, 0.5))"
    assert repr(PiecewisePolynomial([left, right])) == "PiecewisePolynomial(2 pieces)"
    assert repr(isolate_extrema(BernsteinPoly([0.0, 1.0, 0.0]))) == (
        "CriticalSet(0:endpoint, 0.5:isolated-root, 1:endpoint)"
    )


def _subtract_reference(p, f):
    # per segment: two scalar splits, the scalar elevation of the restriction
    # and of the segment's line, and a Python subtraction
    n = max(p.degree, 1)
    rows = []
    for u, v, y0, y1 in zip(f.xs, f.xs[1:], f.ys, f.ys[1:]):
        c = p.coeffs
        if u > 0.0:
            c = _split_reference(c, u)[1]
        if v < 1.0:
            c = _split_reference(c, (v - u) / (1.0 - u))[0]
        line = _elevate_reference((y0, y1), n - 1)
        rows.append([a - b for a, b in zip(_elevate_reference(c, n - p.degree), line)])
    return rows


def test_subtract_many_bits_match_reference():
    # one segment (neither split pass has rows) and nine breakpoints; images
    # of one degree, constants and a degree above the cutover among them
    rng = random.Random(29)
    for f in (named_function("identity"), random_plf(3, 9)):
        spans = list(zip(f.xs, f.xs[1:]))
        for degrees in ((64, 64), (0, 0), (49, 49, 49), (3,)):
            ps = [BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(n + 1)]) for n in degrees]
            got = functions.subtract_many(ps, f)
            for p, q in zip(ps, got):
                bits = _hexes(piece.coeffs for piece in q.pieces)
                assert bits == _hexes(_subtract_reference(p, f))
                assert bits == _hexes(piece.coeffs for piece in subtract(p, f).pieces)
                assert [piece.domain for piece in q.pieces] == spans
    # polynomials of two degrees are refused, not split as rows of one length
    with pytest.raises(DomainError, match="the polynomials must share one degree"):
        functions.subtract_many([BernsteinPoly([0.0, 1.0]), BernsteinPoly([0.5])], f)


def test_subtract_evaluates_as_difference():
    hat = named_function("hat")
    p = BernsteinPoly([hat.eval(k / 3) for k in range(4)])
    diff = subtract(p, hat)
    for k in range(41):
        x = k / 40
        assert diff.eval(x) == pytest.approx(p.eval(x) - hat.eval(x), abs=1e-12)


def test_subtract_degree_zero_input():
    p = BernsteinPoly([0.5])
    diff = subtract(p, named_function("identity"))
    for k in range(11):
        x = k / 10
        assert diff.eval(x) == pytest.approx(0.5 - x, abs=1e-15)


def test_subtract_overflow_names_coefficient():
    # 1e308 - (-1e308) overflows; the refusal names it, and no numpy warning
    # (an error under the test suite's filters) escapes first
    p = BernsteinPoly([1e308] * 3)
    f = PiecewiseLinear([(0, -1e308), (0.5, -1e308), (1, -1e308)])
    with pytest.raises(InvalidInputError, match=r"coeffs\[0\]: must be finite"):
        subtract(p, f)


def test_subtract_domain_guard():
    p = BernsteinPoly([0.0, 1.0], (0.0, 0.5))
    with pytest.raises(DomainError):
        subtract(p, named_function("identity"))


def test_named_functions():
    assert named_function("identity").eval(0.3) == pytest.approx(0.3, abs=1e-15)
    ce = named_function("counterexample")
    assert ce.eval(1 / 3) == 0.5
    assert ce.eval(2 / 3) == 0.5
    assert ce.eval(0.75) == pytest.approx(0.625, abs=1e-15)
    assert named_function("abs_mid").eval(0.5) == 0.0
    with pytest.raises(InvalidInputError, match="name"):
        named_function("witch")


def test_annotations_resolve():
    # numpy is imported inside the functions that use arrays, so no
    # annotation may name it: get_type_hints evaluates them in module scope
    for module in (functions, variation):
        defined = [obj for _, obj in inspect.getmembers(module)
                   if getattr(obj, "__module__", None) == module.__name__]
        funcs = [obj for obj in defined if inspect.isfunction(obj)]
        for cls in filter(inspect.isclass, defined):
            funcs += [obj for obj in vars(cls).values() if inspect.isfunction(obj)]
        assert len(funcs) > 20
        for fn in funcs:
            typing.get_type_hints(fn)
