import random

import pytest
from scipy.integrate import quad

from lamvar import (
    BernsteinPoly,
    DomainError,
    InvalidInputError,
    Monotonicity,
    PiecewiseLinear,
    PiecewisePolynomial,
    StepFunction,
    bernstein_of,
    kantorovich_of,
    lambda_variation,
    monotone_certificate,
    named_function,
    random_plf,
)
from lamvar.experiments import family_sequence


def test_bernstein_coeffs_are_node_samples():
    hat = named_function("hat")
    assert bernstein_of(hat, 2).coeffs == (0.0, 1.0, 0.0)
    assert bernstein_of(named_function("identity"), 1).coeffs == (0.0, 1.0)
    p = bernstein_of(hat, 4)
    assert p.coeffs == (0.0, 0.5, 1.0, 0.5, 0.0)


def test_bernstein_endpoint_interpolation():
    rng = random.Random(3)
    for i in range(10):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 7))
        for n in (1, 3, 9):
            p = bernstein_of(f, n)
            assert p.eval(0.0) == f.eval(0.0)
            assert p.eval(1.0) == f.eval(1.0)


def test_bernstein_reproduces_linear():
    rng = random.Random(4)
    for _ in range(10):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        h = PiecewiseLinear([(0.0, b), (1.0, a + b)])
        for n in (1, 5, 12):
            p = bernstein_of(h, n)
            for k in range(21):
                x = k / 20
                assert p.eval(x) == pytest.approx(h.eval(x), abs=1e-12)


def test_bernstein_degree_validation():
    with pytest.raises(DomainError):
        bernstein_of(named_function("hat"), 0)
    with pytest.raises(DomainError):
        bernstein_of(named_function("hat"), 2.0)


def test_kantorovich_hat_frozen_coeffs():
    k2 = kantorovich_of(named_function("hat"), 2)
    assert k2.coeffs == pytest.approx((1 / 3, 5 / 6, 1 / 3), abs=1e-15)


def test_kantorovich_step_exact_means():
    s = StepFunction([0.5], [0.0, 1.0], [0.5])
    assert kantorovich_of(s, 1).coeffs == pytest.approx((0.0, 1.0), abs=1e-15)
    k2 = kantorovich_of(s, 2)
    # panels [0,1/3],[1/3,2/3],[2/3,1]: means 0, 1/2, 1
    assert k2.coeffs == pytest.approx((0.0, 0.5, 1.0), abs=1e-15)


def test_kantorovich_means_against_quadrature():
    rng = random.Random(9)
    for _ in range(8):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 7))
        n = rng.randint(1, 9)
        coeffs = kantorovich_of(f, n).coeffs
        m = n + 1
        for k, c in enumerate(coeffs):
            lo, hi = k / m, (k + 1) / m
            kinks = [x for x in f.xs if lo < x < hi]
            ref, _ = quad(f.eval, lo, hi, points=kinks or None, limit=200)
            assert c == pytest.approx(m * ref, abs=1e-9)


def test_kantorovich_factors_through_aux():
    rng = random.Random(10)
    seqs = [family_sequence(name) for name in ("constant", "linear", "power", "nlog", "explicit")]
    for _ in range(10):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 8))
        n = rng.randint(1, 10)
        direct = kantorovich_of(f, n).coeffs
        # g interpolates the cell means at the nodes k/n, so B_n g reads them back
        g = PiecewiseLinear([(k / n, v) for k, v in enumerate(direct)])
        assert bernstein_of(g, n).coeffs == direct
        # the proof's step: each increment of g averages increments of f
        # taken at one common shift, so g has no more variation than f
        for seq in seqs:
            assert lambda_variation(g, seq).value <= lambda_variation(f, seq).value + 1e-12


def test_kantorovich_mean_of_huge_values_stays_finite():
    # f(lo) + f(hi) overflows here although their mean does not
    f = PiecewiseLinear([(0.0, 0.0), (1.0, 1.7e308)])
    coeffs = kantorovich_of(f, 3).coeffs
    assert coeffs == pytest.approx([1.7e308 / 8 * (2 * k + 1) for k in range(4)], rel=1e-15)


def test_kantorovich_of_polynomial_against_quadrature():
    rng = random.Random(12)
    for degree in [0, 60] + [rng.randint(0, 60) for _ in range(30)]:
        p = BernsteinPoly([rng.uniform(-1.0, 1.0) for _ in range(degree + 1)])
        n = rng.randint(1, 20)
        m = n + 1
        for k, c in enumerate(kantorovich_of(p, n).coeffs):
            ref, _ = quad(p.eval, k / m, (k + 1) / m)
            assert abs(c - m * ref) <= 1e-12
        assert p.integrate(0.375, 0.375) == 0.0
    # the sum of the coefficients overflows here although their mean does not
    huge = kantorovich_of(BernsteinPoly([1.7e308] * 3), 3).coeffs
    assert huge == pytest.approx([1.7e308] * 4, rel=1e-15)


def test_kantorovich_requires_exact_integration():
    pp = PiecewisePolynomial([BernsteinPoly([0.0, 1.0])])
    with pytest.raises(InvalidInputError) as err:
        kantorovich_of(pp, 3)
    assert err.value.field == "fn"


def test_certificate_directions():
    inc = PiecewiseLinear([(0.0, 0.0), (0.3, 0.2), (1.0, 1.0)])
    dec = PiecewiseLinear([(0.0, 1.0), (0.6, 0.4), (1.0, 0.0)])
    const = PiecewiseLinear([(0.0, 0.4), (1.0, 0.4)])
    for n in (1, 4, 9):
        assert monotone_certificate(bernstein_of(inc, n)) is Monotonicity.INCREASING
        assert monotone_certificate(bernstein_of(dec, n)) is Monotonicity.DECREASING
        assert monotone_certificate(bernstein_of(const, n)) is Monotonicity.CONSTANT
    assert monotone_certificate(bernstein_of(named_function("hat"), 5)) is Monotonicity.NOT_MONOTONE


def test_certificate_beyond_coefficient_test():
    # coefficients dip but 0.4 - t + 1.3 t^2 stays positive: increasing
    p = BernsteinPoly([0.0, 0.4, 0.3, 1.0])
    assert monotone_certificate(p) is Monotonicity.INCREASING
    # derivative touches zero at 1/2 without changing sign
    q = BernsteinPoly([0.0, 1.0, 0.0, 1.0])
    assert monotone_certificate(q) is Monotonicity.INCREASING
    # the mirror image decreases; the end coefficients decide the direction
    assert monotone_certificate(BernsteinPoly([1.0, 0.0, 1.0, 0.0])) is Monotonicity.DECREASING
    # a derivative below the noise floor has no roots and equal ends: constant
    assert monotone_certificate(BernsteinPoly([0.0, 1e-15, 0.0])) is Monotonicity.CONSTANT


def test_certificate_random_monotone_plf():
    rng = random.Random(12)
    for _ in range(25):
        f = random_plf(rng.randrange(2 ** 32), rng.randint(2, 8), monotone=True)
        expect = (
            Monotonicity.CONSTANT
            if f.ys[0] == f.ys[-1] and len(set(f.ys)) == 1
            else Monotonicity.INCREASING
        )
        for n in (1, 6, 12):
            assert monotone_certificate(bernstein_of(f, n)) is expect
