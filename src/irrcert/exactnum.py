"""Exact arithmetic building blocks: rationals, intervals, square roots.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator), so equality is structural and no float ever enters a bound.
They are read and written as "a/b" by ``parse_rational`` and
``format_rational``.  ``RatInterval`` adds the one shape Fraction does not
cover: closed intervals with exact rational endpoints.  All endpoint
arithmetic is exact, so the usual outward-rounding worries of float
intervals do not arise: the results are conservative by construction.
``sqrt_bounds`` brackets a square root on the 2**-64 grid.

Everything here is immutable and safe to share across threads: a
``RatInterval`` is a named tuple, and ``_replace`` validates it afresh.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction.  Raises ValueError on junk."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text), 1)


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as "num/den", denominator always explicit."""
    return f"{value.numerator}/{value.denominator}"


class _RatIntervalFields(NamedTuple):
    lo: Fraction
    hi: Fraction


class RatInterval(_RatIntervalFields):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> "RatInterval":
        # Fraction() of a Fraction goes through the slow ABC isinstance path
        lo = lo if type(lo) is Fraction else Fraction(lo)
        hi = hi if type(hi) is Fraction else Fraction(hi)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:  # lo > hi
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable) -> "RatInterval":
        # so that _replace validates the new endpoints too
        return cls(*iterable)

    @classmethod
    def from_point(cls, x: Fraction) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)


def sqrt_bounds(x: Fraction) -> RatInterval:
    """Rational lo <= sqrt(x) <= hi for x >= 0, exact for perfect squares.

    Inexact case: floor/ceiling of sqrt(x) on the 2**-64 grid, so
    hi - lo == 2**-64 and hi*hi > x >= lo*lo.
    """
    x = x if type(x) is Fraction else Fraction(x)
    num, den = x.numerator, x.denominator
    if num < 0:
        raise ValueError("sqrt of a negative rational")
    num_root, den_root = isqrt(num), isqrt(den)
    if num_root * num_root == num and den_root * den_root == den:
        exact = Fraction(num_root, den_root)
        return RatInterval(exact, exact)
    root = isqrt((num << 128) // den)
    return RatInterval(Fraction(root, 1 << 64), Fraction(root + 1, 1 << 64))
