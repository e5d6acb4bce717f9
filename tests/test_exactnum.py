"""Unit tests for rational parsing and the sqrt window, and for the reference
integer polynomials, intervals and interval helpers of tests/reference.py."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from irrcert.exactnum import format_rational, parse_rational, sqrt_bounds

from reference import (
    DegreeBoundError, IntPoly, RatInterval, contains_zero, eval_rational, eval_scaled_integer,
    even_part_in_square, interval, min_abs, odd_part_in_square, scale, shift,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
)
small_ints = st.integers(min_value=-50, max_value=50)
polys = st.lists(small_ints, max_size=8).map(IntPoly)


class TestParseFormat:
    def test_parse_fraction(self):
        assert parse_rational("22/7") == Fraction(22, 7)
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational(" 5 ") == Fraction(5)
        assert parse_rational("0") == Fraction(0)

    def test_parse_negative_denominator_normalizes(self):
        assert parse_rational("1/-2") == Fraction(-1, 2)

    @pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1/2/3", "1.5", "2 3"])
    def test_parse_rejects_junk(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_always_explicit_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(0)) == "0/1"

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_degree_convention(self):
        assert IntPoly([]).degree == -1
        assert IntPoly([7]).degree == 0
        assert IntPoly([0, 0, 3]).degree == 2

    def test_immutable(self):
        p = IntPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (9,)

    def test_eval_rational_example(self):
        # 240 - 24 t**2 at t = 22/7
        p = IntPoly([240, 0, -24])
        assert eval_rational(p, Fraction(22, 7)) == Fraction(144, 49)

    def test_eval_scaled_integer_example(self):
        # sum c_k a**k b**(n-k) for 12 - x**2, a=1, b=2, n=2
        p = IntPoly([12, 0, -1])
        assert eval_scaled_integer(p, 1, 2, 2) == 47

    def test_eval_scaled_integer_degree_guard(self):
        with pytest.raises(DegreeBoundError):
            eval_scaled_integer(IntPoly([0, 0, 1]), 1, 2, 1)

    def test_shift(self):
        assert shift(IntPoly([1, 2]), 2).coeffs == (0, 0, 1, 2)

    def test_parity_split(self):
        assert even_part_in_square(IntPoly([12, 0, -1])).coeffs == (12, -1)
        assert odd_part_in_square(IntPoly([0, -6])).coeffs == (-6,)
        with pytest.raises(ValueError):
            even_part_in_square(IntPoly([1, 1]))
        with pytest.raises(ValueError):
            odd_part_in_square(IntPoly([1, 1]))

    @given(polys, polys, rationals)
    def test_ring_homomorphism_at_points(self, f, g, x):
        assert eval_rational(f + g, x) == eval_rational(f, x) + eval_rational(g, x)
        assert eval_rational(f - g, x) == eval_rational(f, x) - eval_rational(g, x)
        assert eval_rational(f * g, x) == eval_rational(f, x) * eval_rational(g, x)
        assert eval_rational(-f, x) == -eval_rational(f, x)

    @given(polys, small_ints, rationals)
    def test_scalar_multiplication(self, f, c, x):
        assert eval_rational(c * f, x) == c * eval_rational(f, x)
        assert eval_rational(f * c, x) == c * eval_rational(f, x)

    @given(
        polys,
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=6),
    )
    def test_scaled_integer_matches_rational_eval(self, f, a, b, extra):
        n = max(f.degree, 0) + extra
        value = eval_scaled_integer(f, a, b, n)
        assert value == eval_rational(f, Fraction(a, b)) * Fraction(b) ** n
        assert isinstance(value, int)


class TestRatInterval:
    def test_accessors(self):
        iv = RatInterval(Fraction(-1, 2), Fraction(3, 2))
        assert contains_zero(iv)
        assert min_abs(iv) == 0

    def test_min_abs_sign_cases(self):
        assert min_abs(RatInterval(Fraction(1, 3), Fraction(2))) == Fraction(1, 3)
        assert min_abs(RatInterval(Fraction(-2), Fraction(-1, 3))) == Fraction(1, 3)

    @given(rationals, rationals, rationals)
    def test_scale(self, a1, a2, c):
        iv = RatInterval(min(a1, a2), max(a1, a2))
        x = (iv.lo + iv.hi) / 2
        scaled = scale(iv, c)
        assert scaled.lo <= c * x <= scaled.hi


class TestSqrtBounds:
    def test_perfect_squares_exact(self):
        # the window of an exact root is the root's lowest terms, twice
        assert sqrt_bounds(Fraction(4)) == (2, 2, 1)
        assert sqrt_bounds(Fraction(9, 16)) == (3, 3, 4)
        assert sqrt_bounds(Fraction(0)) == (0, 0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_bounds(Fraction(-1))

    @given(st.fractions(min_value=Fraction(0), max_value=Fraction(10**6), max_denominator=10**6))
    def test_bracketing(self, x):
        iv = interval(sqrt_bounds(x))
        assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
        assert iv.lo >= 0
        assert iv.hi - iv.lo <= Fraction(1, 2**64)

    def test_two_is_tight(self):
        iv = interval(sqrt_bounds(Fraction(2)))
        assert iv.lo < iv.hi
        assert iv.hi - iv.lo == Fraction(1, 2**64)
        assert iv.hi * iv.hi > 2 > iv.lo * iv.lo
