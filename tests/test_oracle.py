"""Tests for the fixed-point Simpson quadrature oracle."""

from fractions import Fraction

import mpmath
import pytest

from irrcert.oracle import IntegrandFamily, integrate

from reference import clear_cache

mpmath.mp.dps = 50


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _reference(family: IntegrandFamily, n: int, r: Fraction) -> mpmath.mpf:
    rf = _mp(r)
    fact = mpmath.factorial(n)
    if family is IntegrandFamily.SIN_KERNEL:
        return mpmath.quad(lambda x: (rf * x - x**2) ** n / fact * mpmath.sin(x), [0, rf])
    if family is IntegrandFamily.EXP_KERNEL:
        return mpmath.quad(lambda x: (rf * x - x**2) ** n / fact * mpmath.exp(x), [0, rf])
    weights = {
        IntegrandFamily.COS_I: lambda z: mpmath.sin(rf - z),
        IntegrandFamily.COS_J: lambda z: z * mpmath.cos(rf - z),
        IntegrandFamily.COS_K: lambda z: z**2 * mpmath.sin(rf - z),
        IntegrandFamily.COS_L: lambda z: z**3 * mpmath.cos(rf - z),
    }
    w = weights[family]
    return mpmath.quad(
        lambda z: (rf**2 * z**2 - z**4) ** n / fact * w(z), [0, rf]
    )


class TestAnalyticValues:
    def test_sin_kernel_n0(self):
        est, err = integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(1))
        assert abs(_mp(est) - (1 - mpmath.cos(1))) < 1e-24
        assert err < Fraction(1, 10**15)

    def test_exp_kernel_n1(self):
        # closed form (r-2)e**r + r + 2 at r = 1
        est, _ = integrate(IntegrandFamily.EXP_KERNEL, 1, Fraction(1))
        assert abs(_mp(est) - (3 - mpmath.e)) < 1e-24

    def test_cos_k_n0(self):
        # K_0 = r**2 - 2 + 2 cos r at r = 1
        est, _ = integrate(IntegrandFamily.COS_K, 0, Fraction(1))
        assert abs(_mp(est) - (2 * mpmath.cos(1) - 1)) < 1e-24

    @pytest.mark.parametrize("family", list(IntegrandFamily))
    @pytest.mark.parametrize("n", [0, 2])
    def test_matches_independent_quadrature(self, family, n):
        r = Fraction(2, 3)
        est, err = integrate(family, n, r, subdivisions=1 << 10)
        assert abs(_mp(est) - _reference(family, n, r)) < max(float(10 * err), 1e-30)


class TestErrorEstimate:
    def test_order_four_convergence(self):
        # doubling subdivisions shrinks the estimate error by ~16x
        coarse = integrate(IntegrandFamily.SIN_KERNEL, 2, Fraction(1), subdivisions=1 << 8)[1]
        fine = integrate(IntegrandFamily.SIN_KERNEL, 2, Fraction(1), subdivisions=1 << 9)[1]
        ratio = coarse / fine
        assert 4 < ratio < 64

    def test_estimate_within_reported_error(self):
        est, err = integrate(IntegrandFamily.COS_L, 1, Fraction(1, 2), subdivisions=1 << 10)
        assert abs(_mp(est) - _reference(IntegrandFamily.COS_L, 1, Fraction(1, 2))) < 10 * float(err)


class TestDeterminism:
    def test_cache_does_not_change_values(self):
        def run():
            return integrate(IntegrandFamily.COS_J, 3, Fraction(2, 3), subdivisions=1 << 9)

        first = run()
        second = run()  # served from cache
        clear_cache()
        third = run()  # recomputed
        assert first == second == third

    def test_exact_fraction_outputs(self):
        est, err = integrate(IntegrandFamily.SIN_KERNEL, 1, Fraction(1), subdivisions=1 << 8)
        assert isinstance(est, Fraction)
        assert isinstance(err, Fraction)


class TestValidation:
    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(-1))
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(0))

    def test_rejects_odd_subdivisions(self):
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(1), subdivisions=3)

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(1), precision_bits=32)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, -1, Fraction(1))
