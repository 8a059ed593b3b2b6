import math
import random
import re

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
    critical_points,
    isolate_extrema,
    isolate_extrema_many,
    named_function,
    subtract,
)
from lamvar import functions


def _sign_change_params(dcoeffs, tol):
    # one job of the frontier, raising its error
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


# A degree-200 derivative with one sign change near 0.225 that is numerically
# flat on [0.5, 1]: subdivision visits 63 panels, [0, 1] and then two a level
# while it closes in on the root; the left one of the last level ends on it.
_FLAT_RIGHT = [0.0] * 201
_FLAT_RIGHT[24] = -1.0
_FLAT_RIGHT[48] = 0.001
_FLAT_RIGHT_STALL = (
    r"budget of 62 panels; stalled on panel \[0\.2252229992300272, 0\.22522299969568849\]$"
)


def test_sign_change_params_skips_flat_panel():
    assert _sign_change_params(_FLAT_RIGHT, 1e-12) == [0.22522299969568849]
    # negative before the flat half: a flat panel taken as positive would add 0.5
    dc = [0.0] * 201
    dc[0], dc[20] = 1.0, -1.0
    assert _sign_change_params(dc, 1e-12) == [0.04178987993509509]


def test_sign_change_params_panel_budget(monkeypatch):
    monkeypatch.setattr(functions, "_MAX_PANELS", 63)
    assert _sign_change_params(_FLAT_RIGHT, 1e-12) == [0.22522299969568849]
    monkeypatch.setattr(functions, "_MAX_PANELS", 62)
    with pytest.raises(ResourceError, match=_FLAT_RIGHT_STALL):
        _sign_change_params(_FLAT_RIGHT, 1e-12)


def test_sign_change_params_takes_wide_gap_midpoint():
    # the uncertified gap between opposite panels is wider than the tolerance:
    # the root is its midpoint, wherever inside it the sign changes
    assert _sign_change_params((-1.0, -0.5, 0.5, 0.0, 0.0, -0.5, 1.0), 0.25) == [0.5]
    assert _sign_change_params((-1.0, 1.0, -0.5, -0.5, 1.0), 0.25) == [0.5]
    assert _sign_change_params((0.0, -0.5, 1.0, -1.0, 0.5, 0.0), 0.25) == [0.5]
    # the panel [0.25, 0.5] between the opposite panels is flat (every
    # coefficient within zcut), so the gap is wider than tol = 1e-12
    dc = [0.0] * 282
    dc[21] = -0.0008814971969222255
    dc[25] = 1.679555373081372e-05
    dc[238] = 0.00015550241819375842
    assert _sign_change_params(tuple(dc), 1e-12) == [0.375]


# The polynomial whose derivative's difference coefficients are _FLAT_RIGHT.
_FLAT_RIGHT_POLY = BernsteinPoly([1.0] * 25 + [0.0] * 24 + [0.001] * 153)


def test_batch_carries_each_polynomial_error(monkeypatch):
    monkeypatch.setattr(functions, "_MAX_PANELS", 62)
    ordinary = BernsteinPoly([0.0, 1.0, 0.0])  # 3 panels: [0, 1] and its halves
    overflow = BernsteinPoly([0.0, 1e308, -1e308])
    stalled, crit, overflowed = isolate_extrema_many([_FLAT_RIGHT_POLY, ordinary, overflow])
    assert isinstance(stalled, ResourceError)
    assert re.search(_FLAT_RIGHT_STALL, str(stalled))
    assert crit.points == (0.0, 0.5, 1.0)
    assert isinstance(overflowed, InvalidInputError) and overflowed.field == "coeffs"
    # the one-element case raises what the batch carries
    with pytest.raises(ResourceError, match=_FLAT_RIGHT_STALL):
        isolate_extrema(_FLAT_RIGHT_POLY)
    monkeypatch.setattr(functions, "_MAX_PANELS", 63)
    assert isolate_extrema_many([_FLAT_RIGHT_POLY])[0].points[1] == 0.22522299969568849


def test_stall_message_does_not_depend_on_the_batch(monkeypatch):
    # the error names the polynomial's own leftmost panel of the level that
    # passed the budget, so mates, stalled at that level or another or not
    # at all, keep it
    monkeypatch.setattr(functions, "_MAX_PANELS", 62)
    mirror = BernsteinPoly(_FLAT_RIGHT_POLY.coeffs[::-1])  # stalls at the same level
    wavy = BernsteinPoly([0.0, 1.0, -1.0, 1.0, -1.0, 1.0, 0.5])  # stalls at another
    stalled = [_FLAT_RIGHT_POLY, mirror, wavy]
    alone = [str(isolate_extrema_many([p])[0]) for p in stalled]
    assert re.search(_FLAT_RIGHT_STALL, alone[0])
    assert all(msg.startswith("derivative sign analysis passed") for msg in alone)
    mates = [BernsteinPoly([0.0, 1.0, 0.0]), BernsteinPoly([0.3, -0.2] * 40)]
    for batch in (stalled + mates, mates + stalled[::-1]):
        got = isolate_extrema_many(batch)
        assert [str(got[batch.index(p)]) for p in stalled] == alone


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
    assert [_bits(c) for c in isolate_extrema_many(polys)] == alone
    assert [_bits(c) for c in isolate_extrema_many(polys[::-1])] == alone[::-1]
    mixed = isolate_extrema_many(mates + polys + mates)
    assert [_bits(c) for c in mixed[len(mates) : len(mates) + len(polys)]] == alone


def _reference_sign_change_params(dcoeffs, tol):
    """The depth-first subdivision of one derivative: the scalar loop the
    batched frontier replaces, kept as its reference."""
    zcut = 1e-12 * max(1.0, max(abs(c) for c in dcoeffs))
    roots, prev_sign, prev_hi = [], 0, 0.0
    stack = [(0.0, 1.0, dcoeffs)]
    while stack:
        lo, hi, c = stack.pop()
        nonneg, nonpos = min(c) >= -zcut, max(c) <= zcut
        if nonneg != nonpos:
            sign = +1 if nonneg else -1
            if prev_sign and sign != prev_sign:
                roots.append(0.5 * (prev_hi + lo))
            prev_sign, prev_hi = sign, hi
        elif not nonneg and hi - lo > tol:
            left, right = functions._dc_split(c, 0.5)
            mid = 0.5 * (lo + hi)
            stack += [(mid, hi, right), (lo, mid, left)]
    return [r for r in roots if tol < r < 1.0 - tol]


_JOBS = st.tuples(
    st.integers(1, 50).flatmap(
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
    expected = [_bits(c) for c in isolate_extrema_many(polys * 2)]
    monkeypatch.setattr(functions, "_SPLIT_COEFFS", 200)  # 2 to 100 columns a chunk
    assert [_bits(c) for c in isolate_extrema_many(polys * 2)] == expected


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
            assert p.eval(x).hex() == functions._dc_split(p.coeffs, t)[0][-1].hex()


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
