"""Tests for rigorous series enclosures and factorial tail bounds.

mpmath supplies the independent high-precision reference values; it is never
used by the library itself.
"""

from fractions import Fraction
from math import ceil, factorial, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from irrcert.enclosure import (
    EnclosureRequest,
    Func,
    TailBoundSpec,
    TailKernel,
    enclose,
    exp_upper_bound,
    factorial_dominance_index,
    tail_bound,
)
from irrcert.exactnum import RatInterval

mpmath.mp.dps = 60


def _reference(function: Func, argument: Fraction) -> mpmath.mpf:
    x = mpmath.mpf(argument.numerator) / argument.denominator
    if function is Func.SIN:
        return mpmath.sin(x)
    if function is Func.COS:
        return mpmath.cos(x)
    if function is Func.EXP:
        return mpmath.exp(x)
    if function is Func.COS_FROM_S:
        return mpmath.cos(mpmath.sqrt(x)) if x >= 0 else mpmath.cosh(mpmath.sqrt(-x))
    if function is Func.SINC_FROM_S:
        if x == 0:
            return mpmath.mpf(1)
        root = mpmath.sqrt(abs(x))
        return mpmath.sin(root) / root if x > 0 else mpmath.sinh(root) / root
    raise AssertionError(function)


GRID = [
    Fraction(1, 2),
    Fraction(1),
    Fraction(2, 3),
    Fraction(7, 3),
    Fraction(-3, 2),
    Fraction(5),
]
WIDTHS = [Fraction(1, 2**10), Fraction(1, 2**64), Fraction(1, 10**12)]


class TestEnclose:
    @pytest.mark.parametrize("function", list(Func))
    @pytest.mark.parametrize("argument", GRID)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_contains_reference_and_respects_width(self, function, argument, width):
        iv = enclose(EnclosureRequest(function, argument, width))
        assert iv.width() <= width
        ref = _reference(function, argument)
        assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= ref
        assert mpmath.mpf(iv.hi.numerator) / iv.hi.denominator >= ref

    def test_exp_at_one_contains_e(self):
        iv = enclose(EnclosureRequest(Func.EXP, Fraction(1), Fraction(1, 10**12)))
        assert iv.width() <= Fraction(1, 10**12)
        e_ref = Fraction(2718281828459045235360287471352662497757, 10**39)
        assert iv.lo <= e_ref <= iv.hi

    def test_sin_at_zero_is_exact(self):
        iv = enclose(EnclosureRequest(Func.SIN, Fraction(0), Fraction(1, 2**10)))
        assert iv.lo == iv.hi == 0

    def test_cos_from_s_hyperbolic_branch(self):
        iv = enclose(EnclosureRequest(Func.COS_FROM_S, Fraction(-1), Fraction(1, 2**30)))
        cosh1 = Fraction(15430806348152437784779056, 10**25)
        assert iv.lo <= cosh1 <= iv.hi

    def test_request_validates_width(self):
        with pytest.raises(ValueError):
            EnclosureRequest(Func.SIN, Fraction(1), Fraction(0))


class TestTailBound:
    def test_sin_kernel_examples(self):
        assert tail_bound(TailBoundSpec(TailKernel.SIN_KERNEL, Fraction(1), 0)) == 1
        assert tail_bound(TailBoundSpec(TailKernel.SIN_KERNEL, Fraction(1), 2)) == Fraction(1, 32)

    def test_cos_system_example(self):
        # s = 1: sqrt bound is exactly 1, so R**4 * (s**2/4)**1 / 1! = 1/4
        spec = TailBoundSpec(TailKernel.COS_SYSTEM, Fraction(1), 1, 3)
        assert tail_bound(spec) == Fraction(1, 4)

    def test_exp_kernel_uses_growth_factor(self):
        # r = 1, n = 0: bound is r * U with U a tight upper bound on e
        value = tail_bound(TailBoundSpec(TailKernel.EXP_KERNEL, Fraction(1), 0))
        assert Fraction(2718, 1000) < value < Fraction(2719, 1000)

    def test_exp_upper_bound_dominates(self):
        for x in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(7, 3)):
            upper = exp_upper_bound(x)
            ref = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
            assert mpmath.mpf(upper.numerator) / upper.denominator >= ref

    def test_weight_power_only_for_cos_system(self):
        with pytest.raises(ValueError):
            TailBoundSpec(TailKernel.SIN_KERNEL, Fraction(1), 0, 1)
        with pytest.raises(ValueError):
            TailBoundSpec(TailKernel.COS_SYSTEM, Fraction(1), 0, 4)

    @pytest.mark.parametrize("kernel,arg", [
        (TailKernel.SIN_KERNEL, Fraction(1)),
        (TailKernel.EXP_KERNEL, Fraction(3, 2)),
        (TailKernel.COS_SYSTEM, Fraction(4, 9)),
        (TailKernel.COS_SYSTEM, Fraction(-1)),
    ])
    def test_eventually_decreasing(self, kernel, arg):
        values = [tail_bound(TailBoundSpec(kernel, arg, n)) for n in range(30)]
        assert all(v > 0 for v in values)
        assert values[29] < values[10] < Fraction(10**6)
        assert values[29] < Fraction(1, 10**6)

    def test_sin_kernel_dominates_reference_integral(self):
        # |integral of (x - x**2)**2 / 2! * sin x on [0,1]| <= tail bound
        ref = mpmath.quad(lambda x: (x - x**2) ** 2 / 2 * mpmath.sin(x), [0, 1])
        bound = tail_bound(TailBoundSpec(TailKernel.SIN_KERNEL, Fraction(1), 2))
        assert abs(ref) <= mpmath.mpf(bound.numerator) / bound.denominator


class TestFactorialDominanceIndex:
    def test_known_points(self):
        assert factorial_dominance_index(Fraction(1), Fraction(1, 2)) == 3
        assert factorial_dominance_index(Fraction(2), Fraction(1)) == 4

    def test_threshold_is_strict(self):
        # 1**n/n! < 1 first holds at n = 2 (at n = 1 the ratio equals 1)
        assert factorial_dominance_index(Fraction(1), Fraction(1)) == 2

    def test_large_base_frozen_value(self):
        assert factorial_dominance_index(Fraction(17), Fraction(1)) == 44

    def test_returned_index_satisfies_inequality(self):
        for base, threshold in [
            (Fraction(5, 2), Fraction(1)),
            (Fraction(10), Fraction(1, 7)),
            (Fraction(1, 3), Fraction(2)),
        ]:
            n = factorial_dominance_index(base, threshold)
            ratio = Fraction(1)
            for k in range(1, n + 1):
                ratio = ratio * base / k
            assert ratio < threshold
            if n > 0:
                prev = ratio * n / base
                assert prev >= threshold or n == 0


# --------------------------------------------------------------------------
# Reference series: the term-by-term Fraction implementation that enclose()
# used before it summed over one common integer denominator, kept so that
# every interval the library returns can be compared with it exactly.
# --------------------------------------------------------------------------

def _reference_sqrt_ceil(x: Fraction) -> int:
    c = ceil(x)
    root = isqrt(c)
    if root * root < c:
        root += 1
    return root


def _reference_even_series(s: Fraction, delta: int, target_width: Fraction) -> RatInterval:
    radius_cap = target_width / 2
    abs_s = abs(s)
    if s >= 0:
        n = 0
        while abs_s > (2 * n + 3 + delta) * (2 * n + 4 + delta):
            n += 1
        remainder = abs_s ** (n + 1) / factorial(2 * (n + 1) + delta)
        while remainder > radius_cap:
            n += 1
            remainder = remainder * abs_s / ((2 * n + 1 + delta) * (2 * n + 2 + delta))
        hyper_factor = 1
    else:
        hyper_factor = 3 ** _reference_sqrt_ceil(abs_s)
        n = 0
        remainder = abs_s / factorial(2 + delta) * hyper_factor
        while remainder > radius_cap:
            n += 1
            remainder = remainder * abs_s / ((2 * n + 1 + delta) * (2 * n + 2 + delta))
        remainder = abs_s ** (n + 1) / factorial(2 * (n + 1) + delta) * hyper_factor
    partial = Fraction(0)
    term = Fraction(1, factorial(delta))
    for m in range(n + 1):
        partial += term
        term = term * (-s) / ((2 * m + 1 + delta) * (2 * m + 2 + delta))
    return RatInterval(partial - remainder, partial + remainder)


def _reference_exp_series(x: Fraction, target_width: Fraction) -> RatInterval:
    radius_cap = target_width / 2
    abs_x = abs(x)
    growth = 3 ** ceil(abs_x) if abs_x > 0 else 1
    n = 0
    remainder = abs_x * growth
    while remainder > radius_cap:
        n += 1
        remainder = remainder * abs_x / (n + 1)
    partial = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        partial += term
        term = term * x / (k + 1)
    return RatInterval(partial - remainder, partial + remainder)


def _reference_enclose(fn: Func, x: Fraction, w: Fraction) -> RatInterval:
    if fn is Func.EXP:
        return _reference_exp_series(x, w)
    if fn is Func.COS_FROM_S:
        return _reference_even_series(x, 0, w)
    if fn is Func.SINC_FROM_S:
        return _reference_even_series(x, 1, w)
    if fn is Func.COS:
        return _reference_even_series(x * x, 0, w)
    if x == 0:
        return RatInterval.from_point(Fraction(0))
    return _reference_even_series(x * x, 1, w / abs(x)).scale(x)


def _assert_matches_reference(fn: Func, x: Fraction, w: Fraction) -> None:
    iv = enclose(EnclosureRequest(fn, x, w))
    ref = _reference_enclose(fn, x, w)
    assert (iv.lo, iv.hi) == (ref.lo, ref.hi)


class TestSeriesAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        fn=st.sampled_from(list(Func)),
        a=st.integers(min_value=-400, max_value=400),
        b=st.integers(min_value=1, max_value=60),
        e=st.integers(min_value=1, max_value=4000),
        p=st.integers(min_value=1, max_value=16),
        q=st.integers(min_value=1, max_value=16),
    )
    def test_random_requests(self, fn, a, b, e, p, q):
        _assert_matches_reference(fn, Fraction(a, b), Fraction(p, q * 2**e))

    # s = (2n+3+delta)(2n+4+delta): where the s >= 0 branch's start index moves
    @pytest.mark.parametrize("fn", [Func.COS_FROM_S, Func.SINC_FROM_S])
    @pytest.mark.parametrize("s", [12, 20, 30, 42, 56, 72])
    def test_decrease_thresholds(self, fn, s):
        for shift in (Fraction(0), Fraction(1, 7), Fraction(-1, 7)):
            for width in (Fraction(1, 2**3), Fraction(1, 2**64), Fraction(3, 2**700)):
                _assert_matches_reference(fn, s + shift, width)
                _assert_matches_reference(fn, -(s + shift), width)

    # widths at which the radius is exactly half the width at term count n
    @pytest.mark.parametrize("fn,x,radius", [
        (Func.EXP, Fraction(1, 2), lambda n: Fraction(3, 2 ** (n + 1) * factorial(n + 1))),
        (Func.COS_FROM_S, Fraction(1), lambda n: Fraction(1, factorial(2 * n + 2))),
        (Func.SINC_FROM_S, Fraction(-1), lambda n: Fraction(3, factorial(2 * n + 3))),
    ])
    def test_radius_ties(self, fn, x, radius):
        for n in range(6):
            _assert_matches_reference(fn, x, 2 * radius(n))

    @pytest.mark.parametrize("fn", list(Func))
    def test_zero_argument(self, fn):
        for width in (Fraction(1, 2**64), Fraction(1, 2**2000)):
            _assert_matches_reference(fn, Fraction(0), width)

    @pytest.mark.parametrize("fn", list(Func))
    def test_width_at_least_one(self, fn):
        for x in (Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            for width in (Fraction(1), Fraction(5, 2), Fraction(10**6)):
                _assert_matches_reference(fn, x, width)


def _reference_dominance_index(base: Fraction, threshold: Fraction) -> int:
    n = 0
    value = Fraction(1)
    while value >= threshold:
        n += 1
        value = value * base / n
    return n


class TestDominanceIndexAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        base=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(300), max_denominator=1000),
        threshold=st.fractions(
            min_value=Fraction(1, 10**40), max_value=Fraction(50), max_denominator=10**40
        ),
    )
    def test_random_inputs(self, base, threshold):
        if base <= 0 or threshold <= 0:
            return
        assert factorial_dominance_index(base, threshold) == _reference_dominance_index(base, threshold)

    @pytest.mark.parametrize("base,threshold", [
        (Fraction(1), Fraction(1)),  # ties at n = 0 and n = 1
        (Fraction(2), Fraction(2)),  # ties at n = 1 and n = 2
        (Fraction(3), Fraction(9, 2)),  # ties at n = 2 and n = 3
        (Fraction(1, 2), Fraction(3)),  # below the threshold at once
        (Fraction(1173, 10), Fraction(1, 10**30)),
    ])
    def test_ties_and_edges(self, base, threshold):
        assert factorial_dominance_index(base, threshold) == _reference_dominance_index(base, threshold)

    @pytest.mark.parametrize("base,threshold", [
        (Fraction(0), Fraction(1)),
        (Fraction(-1), Fraction(1)),
        (Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(-1, 3)),
    ])
    def test_nonpositive_inputs_raise(self, base, threshold):
        with pytest.raises(ValueError, match="base and threshold must be positive"):
            factorial_dominance_index(base, threshold)
