import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lamvar.variation
from lamvar import (
    BernsteinPoly,
    DomainError,
    IntervalSystem,
    InvalidInputError,
    LambdaSequence,
    PiecewiseLinear,
    PropertyViolationError,
    ResourceError,
    StepFunction,
    best_assignment,
    grid_oracle,
    bernstein_of,
    kantorovich_of,
    lambda_distance,
    lambda_norm,
    lambda_variation,
    lambda_variation_on_set,
    named_function,
    random_plf,
    restricted_variation,
    sigma,
    tail_variation,
    wiener_profile,
)
from lamvar.experiments import family_sequence
from lamvar.variation import (
    _best_over_permutations,
    _restricted_search,
    _subset_search,
    _weights,
)

SEQ_N = LambdaSequence.linear(1.0, 0.0)
SEQ_1 = LambdaSequence.constant(1.0)


def harmonic(k):
    return sum(1.0 / j for j in range(1, k + 1))


def brute_over_subsets(values, seq):
    """All subsets of the point indices, consecutive pairs as intervals."""
    best = 0.0
    n = len(values)
    for size in range(2, n + 1):
        for comb in itertools.combinations(range(n), size):
            diffs = [abs(values[comb[i + 1]] - values[comb[i]]) for i in range(size - 1)]
            best = max(best, best_assignment(diffs, seq))
    return best


def brute_over_short_systems(points, values, seq, delta):
    """All systems of nonoverlapping intervals with endpoints in `points` and
    length <= delta, gaps allowed."""
    n = len(points)
    best = 0.0

    def rec(start, diffs):
        nonlocal best
        if diffs:
            best = max(best, best_assignment(diffs, seq))
        for a in range(start, n):
            for b in range(a + 1, n):
                if points[b] - points[a] <= delta + 1e-12:
                    rec(b, diffs + [abs(values[b] - values[a])])

    rec(0, [])
    return best


# -- interval systems and sigma -------------------------------------------


def test_interval_system_validation():
    IntervalSystem([(0.0, 0.5), (0.5, 1.0)])
    IntervalSystem([(0.8, 1.0), (0.0, 0.3)])  # order free, only overlap matters
    with pytest.raises(InvalidInputError, match="intervals"):
        IntervalSystem([(0.0, 0.6), (0.5, 1.0)])
    with pytest.raises(InvalidInputError, match=r"intervals\[0\]"):
        IntervalSystem([(-0.1, 0.5)])
    with pytest.raises(InvalidInputError, match=r"intervals\[1\]"):
        IntervalSystem([(0.0, 0.2), (0.9, 0.4)])


def test_sigma_order_dependence():
    ident = named_function("identity")
    assert sigma(ident, [(0.0, 0.75), (0.75, 1.0)], SEQ_N) == pytest.approx(0.875, abs=1e-15)
    assert sigma(ident, [(0.75, 1.0), (0.0, 0.75)], SEQ_N) == pytest.approx(0.625, abs=1e-15)
    assert sigma(named_function("hat"), [(0.0, 0.5), (0.5, 1.0)], SEQ_N) == pytest.approx(1.5, abs=1e-15)


def test_sigma_degenerate_interval_contributes_nothing():
    assert sigma(named_function("identity"), [(0.3, 0.3)], SEQ_N) == 0.0


# -- assignment ------------------------------------------------------------


def test_best_assignment_sorted_pairing():
    val = best_assignment([0.2, 0.9, 0.5], SEQ_N)
    assert val == pytest.approx(0.9 + 0.5 / 2 + 0.2 / 3, abs=1e-15)
    assert best_assignment([], SEQ_N) == 0.0


def test_best_assignment_adds_left_to_right():
    # each 1e-16 is lost against 1.0; a compensated sum() (Python 3.12+)
    # keeps them and returns 1.0000000000000002
    assert best_assignment([1.0, 1e-16, 1e-16], SEQ_1) == 1.0


def test_best_assignment_matches_permutation_enumeration():
    rng = random.Random(21)
    seqs = [SEQ_1, SEQ_N, LambdaSequence.power(0.5), LambdaSequence.nlog()]
    for _ in range(40):
        k = rng.randint(1, 6)
        values = [rng.uniform(0.0, 2.0) for _ in range(k)]
        seq = seqs[rng.randrange(len(seqs))]
        brute = max(
            sum(v / seq.term(r) for v, r in zip(values, perm))
            for perm in itertools.permutations(range(1, k + 1))
        )
        assert best_assignment(values, seq) == pytest.approx(brute, abs=1e-12)


def test_best_assignment_rejects_negative():
    with pytest.raises(InvalidInputError, match=r"values\[1\]"):
        best_assignment([0.5, -0.1], SEQ_N)


# -- exact solver ----------------------------------------------------------


def test_variation_frozen_values():
    assert lambda_variation(named_function("identity"), SEQ_N).value == pytest.approx(1.0, abs=1e-12)
    assert lambda_variation(named_function("hat"), SEQ_1).value == pytest.approx(2.0, abs=1e-12)
    assert lambda_variation(named_function("hat"), SEQ_N).value == pytest.approx(1.5, abs=1e-12)
    # plateau in the middle does not help: the single span [0,1] wins
    assert lambda_variation(named_function("counterexample"), SEQ_N).value == pytest.approx(1.0, abs=1e-12)
    zig = PiecewiseLinear([(0.0, 0.0), (1 / 3, 1.0), (2 / 3, 0.0), (1.0, 1.0)])
    assert lambda_variation(zig, SEQ_N).value == pytest.approx(11 / 6, abs=1e-12)
    assert lambda_variation(zig, SEQ_1).value == pytest.approx(3.0, abs=1e-12)


def test_variation_of_step_function():
    s = StepFunction([0.5], [0.0, 1.0], [0.5])
    assert lambda_variation(s, SEQ_N).value == pytest.approx(1.0, abs=1e-12)


def test_variation_witness_is_deterministic_and_consistent():
    res = lambda_variation(named_function("hat"), SEQ_N)
    assert res.method == "exact"
    assert res.witness.intervals == ((0.0, 0.5), (0.5, 1.0))
    assert res.assignment == (1, 2)
    blob = res.to_json()
    assert blob["witness"] == [[0.0, 0.5], [0.5, 1.0]]
    again = lambda_variation(named_function("hat"), SEQ_N)
    assert again.witness.intervals == res.witness.intervals


def test_variation_witness_recomputes_to_value():
    rng = random.Random(22)
    hat = named_function("hat")
    for _ in range(25):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 8))
        seq = [SEQ_1, SEQ_N, LambdaSequence.power(0.5)][rng.randrange(3)]
        res = lambda_variation(f, seq)
        total = 0.0
        for (a, b), rank in zip(res.witness, res.assignment):
            total += abs(f.eval(b) - f.eval(a)) / seq.term(rank)
        assert total == pytest.approx(res.value, abs=1e-12)
        assert sorted(res.assignment) == list(range(1, len(res.assignment) + 1))
        assert res.value >= sigma(f, [(0.0, 1.0)], seq) - 1e-12
        assert res.value <= f.total_variation() / seq.term(1) + 1e-12
    del hat


def test_variation_monotone_is_single_span():
    rng = random.Random(23)
    for _ in range(15):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 7), monotone=True)
        expect = abs(f.eval(1.0) - f.eval(0.0)) / SEQ_N.term(1)
        assert lambda_variation(f, SEQ_N).value == pytest.approx(expect, abs=1e-12)


def test_subset_search_matches_brute_force():
    rng = random.Random(24)
    seqs = [SEQ_1, SEQ_N, LambdaSequence.power(0.5), LambdaSequence.nlog()]
    for _ in range(40):
        n = rng.randint(2, 9)
        values = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        seq = seqs[rng.randrange(len(seqs))]
        got, _sub = _subset_search(values, _weights(seq, n - 1))
        assert got == pytest.approx(brute_over_subsets(values, seq), abs=1e-12)


def test_variation_point_cap():
    xs = [0.0] + sorted((i + 1) / 31 for i in range(30)) + [1.0]
    ys = [float(i % 2) for i in range(len(xs))]
    f = PiecewiseLinear(list(zip(xs, ys)))
    with pytest.raises(ResourceError, match="grid_oracle"):
        lambda_variation(f, SEQ_N)


def test_variation_on_set():
    ident = named_function("identity")
    res = lambda_variation_on_set(ident, SEQ_N, [0.0, 0.25, 0.5])
    assert res.value == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        lambda_variation_on_set(ident, SEQ_N, [0.5])
    # duplicate points collapse
    res2 = lambda_variation_on_set(ident, SEQ_N, [0.0, 0.5, 0.5 + 1e-14, 1.0])
    assert res2.value == pytest.approx(1.0, abs=1e-12)


def test_tail_variation_values_and_monotonicity():
    hat = named_function("hat")
    assert tail_variation(hat, SEQ_N, 0) == pytest.approx(1.5, abs=1e-12)
    assert tail_variation(hat, SEQ_N, 1) == pytest.approx(5 / 6, abs=1e-9)
    rng = random.Random(25)
    for _ in range(10):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 8))
        prev = None
        for m in range(9):
            cur = tail_variation(f, SEQ_N, m)
            if prev is not None:
                assert cur <= prev + 1e-12
            prev = cur
    with pytest.raises(DomainError):
        tail_variation(hat, SEQ_N, -1)


def test_norm_and_distance():
    assert lambda_norm(named_function("abs_mid"), SEQ_N) == pytest.approx(1.25, abs=1e-12)
    assert lambda_norm(named_function("hat"), SEQ_1) == pytest.approx(2.0, abs=1e-12)
    hat = named_function("hat")
    # B_2 hat = 2x(1-x); difference is -2x^2 then -2(x-1)^2, swing 1/2 each way
    assert lambda_distance(bernstein_of(hat, 2), hat, SEQ_N) == pytest.approx(0.75, abs=1e-12)
    absmid = named_function("abs_mid")
    assert lambda_distance(bernstein_of(absmid, 4), absmid, SEQ_N) == pytest.approx(0.28125, abs=1e-12)


# -- brute-force oracle ----------------------------------------------------


def test_grid_oracle_agrees_with_exact_solver():
    rng = random.Random(26)
    for _ in range(20):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 8))
        seq = [SEQ_1, SEQ_N, LambdaSequence.power(0.5)][rng.randrange(3)]
        pts = lambda_variation(f, seq)
        from lamvar import critical_points

        grid = critical_points(f).points
        assert grid_oracle(f, seq, grid) == pytest.approx(pts.value, abs=1e-9)


def scalar_permutation_max(diffs, seq):
    """The oracle's permutation check as one scalar loop per permutation.
    Explicit left-to-right additions: ``sum()`` of floats is compensated from
    Python 3.12 on."""
    brute = 0.0
    for perm in itertools.permutations(range(1, len(diffs) + 1)):
        s = 0.0
        for d, r in zip(diffs, perm):
            s += d / seq.term(r)
        if s > brute:
            brute = s
    return brute


def test_permutation_columns_match_scalar_loop_bit_for_bit():
    rng = random.Random(5)
    seqs = [
        LambdaSequence.constant(1.5),
        LambdaSequence.linear(1.0, 0.0),
        LambdaSequence.power(0.7),
        LambdaSequence.nlog(),
        LambdaSequence.explicit([1.0, 1.5, 2.5], tail_a=1.0),
        LambdaSequence.linear(1, 0).tail(3),
    ]
    for seq in seqs:
        for size in range(2, 9):
            perms = list(itertools.permutations(range(1, size)))
            rank_terms = np.array([[seq.term(r) for r in perm] for perm in perms])
            pool = [0.0, 0.1, 1.0 / 3.0, rng.random(), 7.0 * rng.random()]
            trials = [
                [rng.choice(pool) for _ in range(size - 1)],
                [rng.choice(pool) for _ in range(size - 1)],
                [rng.random() for _ in range(size - 1)],
                [0.0] * (size - 1),
            ]
            for diffs in trials:
                assert _best_over_permutations(diffs, rank_terms) == scalar_permutation_max(diffs, seq)


@pytest.mark.parametrize("points, off, raises", [
    (8, 2e-9, True),
    (8, 0.5e-9, False),
    (9, 2e-9, False),
])
def test_grid_oracle_cross_check_fires(monkeypatch, points, off, raises):
    exact = lamvar.variation.best_assignment

    def skewed(values, seq):
        v = exact(values, seq)
        return v + off * max(1.0, abs(v))

    monkeypatch.setattr(lamvar.variation, "best_assignment", skewed)
    f = random_plf(11, 6)
    grid = [k / (points - 1) for k in range(points)]
    if raises:
        with pytest.raises(PropertyViolationError, match="permutation enumeration"):
            grid_oracle(f, SEQ_N, grid)
    else:
        assert grid_oracle(f, SEQ_N, grid) > 0.0


def test_grid_oracle_guards():
    ident = named_function("identity")
    assert grid_oracle(ident, SEQ_N, [k / 15 for k in range(16)]) == pytest.approx(1.0)
    with pytest.raises(ResourceError, match="oracle cap of 16"):
        grid_oracle(ident, SEQ_N, [k / 16 for k in range(17)])


# -- restricted solver -----------------------------------------------------


def test_restricted_frozen_values():
    ce = named_function("counterexample")
    res = restricted_variation(ce, SEQ_N, 0.75)
    assert res.value == pytest.approx(0.8125, abs=1e-12)
    assert res.method == "exact"
    ident = named_function("identity")
    assert restricted_variation(ident, SEQ_N, 0.5, 8).value == pytest.approx(0.75, abs=1e-12)
    # delta = 1 imposes no constraint
    hat = named_function("hat")
    assert restricted_variation(hat, SEQ_N, 1.0).value == pytest.approx(1.5, abs=1e-12)
    # slope-2 pieces double the identity profile
    assert restricted_variation(hat, SEQ_N, 0.25, 8).value == pytest.approx(
        2 * 0.25 * harmonic(4), abs=1e-12
    )


def test_restricted_identity_closed_form():
    ident = named_function("identity")
    for k in (4, 8, 16):
        res = restricted_variation(ident, SEQ_N, 1.0 / k, resolution=k)
        assert res.value == pytest.approx(harmonic(k) / k, abs=1e-12)
        assert res.method == "exact"


def test_restricted_method_tag_honest():
    # breakpoint translate chains leave the candidate set: lower bound only
    ce = named_function("counterexample")
    res = restricted_variation(ce, SEQ_N, 0.3)
    assert res.method == "grid-lower-bound"
    assert res.value <= lambda_variation(ce, SEQ_N).value + 1e-12


def test_restricted_witness_is_admissible():
    rng = random.Random(27)
    for _ in range(12):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 7))
        delta = rng.choice([0.2, 0.35, 0.6])
        res = restricted_variation(f, SEQ_N, delta)
        total = 0.0
        for (a, b), rank in zip(res.witness, res.assignment):
            assert b - a <= delta + 1e-9
            total += abs(f.eval(b) - f.eval(a)) / SEQ_N.term(rank)
        assert total == pytest.approx(res.value, abs=1e-12)
        assert res.value <= lambda_variation(f, SEQ_N).value + 1e-12


def test_restricted_search_matches_brute_force():
    rng = random.Random(28)
    for _ in range(15):
        pts = sorted({0.0, 1.0, *(rng.uniform(0.0, 1.0) for _ in range(6))})
        vals = [rng.uniform(-1.0, 1.0) for _ in pts]
        delta = rng.choice([0.25, 0.4, 0.7])
        seq = [SEQ_1, SEQ_N, LambdaSequence.power(0.5)][rng.randrange(3)]
        got, _chosen = _restricted_search(pts, vals, _weights(seq, len(pts) - 1), delta)
        want = brute_over_short_systems(pts, vals, seq, delta)
        assert got == pytest.approx(want, abs=1e-12)


def test_restricted_parameter_guards():
    ident = named_function("identity")
    with pytest.raises(DomainError):
        restricted_variation(ident, SEQ_N, 0.0)
    with pytest.raises(DomainError):
        restricted_variation(ident, SEQ_N, 1.5)
    with pytest.raises(DomainError):
        restricted_variation(ident, SEQ_N, 0.5, resolution=0)
    with pytest.raises(ResourceError, match="cap"):
        restricted_variation(ident, SEQ_N, 0.5, resolution=4096)


def test_restricted_overflow_is_refused():
    # each increment is finite, but their sums in the search's bounds are not:
    # unchecked, every branch is pruned and 0.0 comes back tagged "exact"
    f = PiecewiseLinear([(0.0, 0.0), (0.5, 0.0), (0.75, 9e307), (1.0, 0.0)])
    with pytest.raises(InvalidInputError, match="fn: the variation overflows"):
        restricted_variation(f, SEQ_1, 0.5)


# -- profiles --------------------------------------------------------------


def test_wiener_profile_identity():
    prof = wiener_profile(named_function("identity"), SEQ_N, [1 / 8, 1 / 32], resolution=32)
    assert prof[0][1] == pytest.approx(harmonic(8) / 8, abs=1e-12)
    assert prof[1][1] == pytest.approx(harmonic(32) / 32, abs=1e-12)


def test_wiener_profile_nonincreasing_random():
    rng = random.Random(29)
    for _ in range(6):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 6))
        prof = wiener_profile(f, SEQ_N, [0.5, 0.25, 0.125], resolution=16)
        vals = [v for _, v in prof]
        assert vals == sorted(vals, reverse=True) or all(
            a >= b - 1e-12 for a, b in zip(vals, vals[1:])
        )


def test_wiener_schedule_validation():
    ident = named_function("identity")
    with pytest.raises(DomainError):
        wiener_profile(ident, SEQ_N, [0.5])
    with pytest.raises(DomainError):
        wiener_profile(ident, SEQ_N, [0.25, 0.5])


# -- metamorphic properties ------------------------------------------------

SEQS = st.sampled_from(["constant", "linear", "power", "nlog", "explicit"]).map(family_sequence)
# 2-6 breakpoints at distinct hundredths, values in [-1, 1]
PLFS = st.tuples(
    st.lists(st.integers(1, 99), unique=True, max_size=4),
    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
).map(lambda t: PiecewiseLinear(list(zip([0.0] + sorted(k / 100 for k in t[0]) + [1.0], t[1]))))
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


@PROPERTY
@given(PLFS, st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7), SEQS)
def test_variation_invariant_under_reflection(f, coeffs, seq):
    mirror = PiecewiseLinear([(1.0 - x, y) for x, y in reversed(f.breakpoints)])
    assert lambda_variation(mirror, seq).value == pytest.approx(
        lambda_variation(f, seq).value, rel=1e-12, abs=1e-15)
    # reversed Bernstein coefficients are the polynomial of 1 - x
    p, q = BernsteinPoly(coeffs), BernsteinPoly(coeffs[::-1])
    assert lambda_variation(q, seq).value == pytest.approx(
        lambda_variation(p, seq).value, rel=1e-9, abs=1e-12)


@PROPERTY
@given(PLFS, SEQS, st.floats(-10.0, 10.0), st.floats(0.01, 100.0))
def test_variation_shift_invariant_and_homogeneous(f, seq, shift, scale):
    value = lambda_variation(f, seq).value
    shifted = PiecewiseLinear([(x, y + shift) for x, y in f.breakpoints])
    assert lambda_variation(shifted, seq).value == pytest.approx(value, rel=1e-12, abs=1e-13)
    scaled = PiecewiseLinear([(x, scale * y) for x, y in f.breakpoints])
    assert lambda_variation(scaled, seq).value == pytest.approx(scale * value, rel=1e-12, abs=1e-15)


@PROPERTY
@given(PLFS, SEQS)
def test_restricted_variation_at_most_unrestricted(f, seq):
    value = lambda_variation(f, seq).value
    assert restricted_variation(f, seq, 1.0).value == pytest.approx(value, rel=1e-12, abs=1e-15)
    assert restricted_variation(f, seq, 0.5).value <= value * (1.0 + 1e-12) + 1e-15


@PROPERTY
@given(PLFS, SEQS, st.integers(1, 12), st.sampled_from([bernstein_of, kantorovich_of]))
def test_operators_diminish_the_variation(f, seq, n, op):
    # the paper's theorem: V(op_n f) <= V(f) for both operators and every degree
    assert lambda_variation(op(f, n), seq).value <= lambda_variation(f, seq).value + 1e-9


@PROPERTY
@given(PLFS, SEQS)
def test_tail_variation_nonincreasing(f, seq):
    tails = [tail_variation(f, seq, m) for m in range(12)]
    for m in range(11):
        assert tails[m + 1] <= tails[m] + 1e-12
