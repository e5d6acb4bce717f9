"""Tests for the exact integration-by-parts oracle, against mpmath quadrature
and, as polynomials, against the tracks run on the reference ring."""

import functools
from fractions import Fraction

import mpmath
import pytest

from irrcert.oracle import IntegrandFamily, coefficients, integrate

from reference import IntPoly, cos_system, exp_sequence, tan_sequence

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


def _evaluate(family: IntegrandFamily, coeffs, r: Fraction) -> mpmath.mpf:
    # the coefficients cancel to a tiny integral, so sum them with twice the
    # digits the quadrature keeps to spare beyond the largest coefficient's
    spare = max(len(str(abs(int(c)))) for c in coeffs)
    with mpmath.workdps(2 * mpmath.mp.dps + spare):
        rf = _mp(r)
        basis = (1, mpmath.exp(rf)) if family is IntegrandFamily.EXP_KERNEL else (
            1, mpmath.cos(rf), mpmath.sin(rf)
        )
        return +sum(_mp(c) * w for c, w in zip(coeffs, basis))


class TestAnalyticValues:
    def test_sin_kernel_n0(self):
        # 1 - cos r at r = 1
        assert integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(1)) == (1, -1, 0)

    def test_exp_kernel_n1(self):
        # closed form (r-2)e**r + r + 2 at r = 1
        assert integrate(IntegrandFamily.EXP_KERNEL, 1, Fraction(1)) == (3, -1)

    def test_cos_k_n0(self):
        # K_0 = r**2 - 2 + 2 cos r at r = 1
        assert integrate(IntegrandFamily.COS_K, 0, Fraction(1)) == (-1, 2, 0)

    @pytest.mark.parametrize("family", list(IntegrandFamily))
    @pytest.mark.parametrize("n", [0, 2, 12])
    def test_matches_independent_quadrature(self, family, n):
        r = Fraction(2, 3)
        reference = _reference(family, n, r)
        value = _evaluate(family, integrate(family, n, r), r)
        assert abs(value - reference) <= mpmath.mpf(10) ** -30 * abs(reference)


class TestDeterminism:
    def test_exact_fraction_outputs(self):
        coeffs = integrate(IntegrandFamily.SIN_KERNEL, 1, Fraction(1))
        assert all(isinstance(c, Fraction) for c in coeffs)
        assert integrate(IntegrandFamily.SIN_KERNEL, 1, Fraction(1)) == coeffs


class TestValidation:
    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(-1))
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, 0, Fraction(0))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            integrate(IntegrandFamily.SIN_KERNEL, -1, Fraction(1))


# --------------------------------------------------------------------------
# coefficients against the tracks on IntPoly at the generic point: two
# derivations of the polynomials that irrcert table prints, compared as
# polynomials, so for every r at once
# --------------------------------------------------------------------------

N_COEFFICIENTS = 60


@functools.lru_cache(maxsize=1)
def _track_polynomials():
    return tan_sequence(N_COEFFICIENTS), exp_sequence(N_COEFFICIENTS), cos_system(N_COEFFICIENTS)


def _from_the_tracks(family: IntegrandFamily, n: int) -> tuple:
    """The tracks' (u_n, v_n) on coefficients' basis, as trimmed integer
    lists: (u, -u, v) for the sin kernel, (u, v) for exp and (u, v, 0) for
    cos."""
    tan, exp, cos = _track_polynomials()
    if family is IntegrandFamily.SIN_KERNEL:
        u, v = tan[n]
        polys = u, -u, v
    elif family is IntegrandFamily.EXP_KERNEL:
        polys = exp[n]
    else:
        polys = *cos[n]["IJKL".index(family.value[-1])], IntPoly()
    return tuple(list(p.coeffs) for p in polys)


class TestCoefficients:
    @pytest.mark.parametrize("family", list(IntegrandFamily))
    def test_equal_the_tracks_on_the_reference_ring(self, family):
        for n in range(N_COEFFICIENTS + 1):
            assert coefficients(family, n) == _from_the_tracks(family, n), n

    @pytest.mark.parametrize("family", list(IntegrandFamily))
    def test_rejects_negative_index(self, family):
        with pytest.raises(ValueError):
            coefficients(family, -1)
