"""Exact arithmetic building blocks: rationals, integer polynomials, intervals.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator), so equality is structural and no float ever enters a bound.
This module adds the two shapes Fraction does not cover:

* ``IntPoly`` — dense univariate polynomials with integer coefficients,
  constant term first.  Degree of the zero polynomial is -1.
* ``RatInterval`` — closed intervals with exact rational endpoints.  All
  endpoint arithmetic is exact, so the usual outward-rounding worries of
  float intervals do not arise: the results are conservative by construction.

Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


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


class IntPoly:
    """Immutable dense polynomial over the integers, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if isinstance(other, IntPoly):
            if self.is_zero() or other.is_zero():
                return IntPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return IntPoly(out)
        return NotImplemented

    __rmul__ = __mul__


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def from_point(cls, x: Fraction) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    def scale(self, c: Fraction) -> "RatInterval":
        """Multiply both endpoints by an exact rational."""
        c = Fraction(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def min_abs(self) -> Fraction:
        """Least |x| over the interval (0 if it straddles zero)."""
        if self.contains_zero():
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))


def sqrt_bounds(x: Fraction) -> RatInterval:
    """Rational lo <= sqrt(x) <= hi for x >= 0, exact for perfect squares.

    Inexact case: floor/ceiling of sqrt(x) on the 2**-64 grid, so
    hi - lo == 2**-64 and hi*hi > x >= lo*lo.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    num_root = isqrt(x.numerator)
    den_root = isqrt(x.denominator)
    if num_root * num_root == x.numerator and den_root * den_root == x.denominator:
        exact = Fraction(num_root, den_root)
        return RatInterval(exact, exact)
    root = isqrt((x.numerator << 128) // x.denominator)
    return RatInterval(Fraction(root, 1 << 64), Fraction(root + 1, 1 << 64))
