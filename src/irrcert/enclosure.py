"""Rigorous rational enclosures of sin, cos and exp.

Every enclosure is the Taylor series  sum_m y**m / (k m + delta)!  at zero,
summed exactly up to a term count, plus an explicit remainder radius, so the
returned interval provably contains the true value and its width never
exceeds the requested target.  EXP is k = 1, y = x; the *_FROM_S variants
take s = r**2 and are k = 2, y = -s, delta 0 (cos) or 1 (sinc).  For s < 0
the same series sums the hyperbolic value (cos r = cosh t when r = i t),
which is how the hyperbolic claims reuse the circular machinery with no
square roots.

Remainder bounds used (the first omitted term times a growth factor):

* alternating series (s >= 0): growth 1, with the term count pushed far
  enough that terms are decreasing from there on;
* hyperbolic branch (s < 0) and EXP: growth 3**ceil(T), a rational
  stand-in for e**T >= cosh(T) in the Lagrange form.

A ``Series`` sums one of them forward over one common integer denominator:
a finer width resumes from the term count reached, a wider one starts over,
so the enclosure at a width never depends on the widths asked before.
``enclose()`` builds a fresh series for each call.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import factorial, isqrt
from typing import Tuple

from .exactnum import RatInterval


class Func(Enum):
    SIN = "sin"
    EXP = "exp"
    COS_FROM_S = "cos_from_s"
    SINC_FROM_S = "sinc_from_s"


class Series:
    """sum_m y**m / (k m + delta)! at a width, for y = a / b and k = 1 or 2:
    the partial sum up to the least N >= start whose radius
    |y|**(N+1) / (k (N+1) + delta)! * growth is at most width / 2, plus and
    minus that radius.

    The state is N, a**N, and the sum as p f_N / rden with rden = d_N f_N,
    where d_N = b**N (k N + delta)! and f_N = d_(N+1) / d_N
    = b (k N + delta + 1) ... (k N + delta + k).  A width no wider than the
    last resumes from N, since every smaller count failed the wider width; a
    wider one starts over, as the radius need not fall with N (the cosh
    branch)."""

    __slots__ = ("a", "b", "k", "delta", "start", "growth", "width", "n", "p", "apow", "f", "rden")

    def __init__(self, a: int, b: int, k: int, delta: int, start: int, growth: int):
        self.a, self.b, self.k, self.delta, self.start, self.growth = a, b, k, delta, start, growth
        self.width = None

    def window(self, width: Fraction) -> Tuple[int, int, int]:
        """(lo, hi, den): the enclosure at this width is [lo / den, hi / den],
        den > 0, over one unreduced common denominator."""
        a, b, k, delta = self.a, self.b, self.k, self.delta
        if self.width is None or width > self.width:
            # N = 0: the sum 1 / delta! over d_0 = delta!
            self.n, self.p, self.apow = 0, 1, 1
            self.f = b * (delta + 1) * (delta + 2 if k == 2 else 1)
            self.rden = factorial(delta) * self.f
        self.width = width
        abs_a, start = abs(a), self.start
        n, p, apow, f = self.n, self.p, self.apow, self.f
        # radius / (width / 2) as the unreduced pair num / den; the width is
        # folded in once, so each step multiplies big integers by small ones
        wnum, wden = width.numerator, 2 * width.denominator
        num = abs(apow * a) * self.growth * wden
        den = self.rden * wnum
        while n < start or num > den:
            n += 1
            apow *= a
            p = p * f + apow
            j = k * n + delta
            f = b * (j + 1) * (j + 2 if k == 2 else 1)
            num *= abs_a
            den *= f
        self.n, self.p, self.apow, self.f = n, p, apow, f
        self.rden = rden = den // wnum
        centre, radius = p * f, abs(apow * a) * self.growth
        return centre - radius, centre + radius, rden

    def enclose(self, width: Fraction) -> RatInterval:
        lo, hi, den = self.window(width)
        return RatInterval(Fraction(lo, den), Fraction(hi, den))


def even_series(s: Fraction, delta: int) -> Series:
    """sum_m (-1)**m s**m / (2m + delta)!  (delta 0: cos-type, delta 1:
    sinc-type), valid for either sign of s."""
    a, b = s.numerator, s.denominator
    if a < 0:
        # ceil(sqrt(-s)) = isqrt(c - 1) + 1 with c = ceil(-s) = -(a // b) >= 1
        return Series(-a, b, 2, delta, 0, 3 ** (isqrt(-(a // b) - 1) + 1))
    # start where the terms decrease from the first omitted one onward
    start = 0
    while a > (2 * start + 3 + delta) * (2 * start + 4 + delta) * b:
        start += 1
    return Series(-a, b, 2, delta, start, 1)


def enclose(fn: Func, x: Fraction, width: Fraction) -> RatInterval:
    """Interval provably containing fn(x), of width at most ``width``."""
    # Fraction() of a Fraction goes through the slow ABC isinstance path
    x = x if type(x) is Fraction else Fraction(x)
    w = width if type(width) is Fraction else Fraction(width)
    if w.numerator <= 0:
        raise ValueError("target width must be positive")
    a, b = x.numerator, x.denominator
    if fn is Func.EXP:
        return Series(a, b, 1, 0, 0, 3 ** -(-abs(a) // b)).enclose(w)  # 3**ceil|x|
    if fn is Func.COS_FROM_S:
        return even_series(x, 0).enclose(w)
    if fn is Func.SINC_FROM_S:
        return even_series(x, 1).enclose(w)
    if fn is Func.SIN:
        if a == 0:
            return RatInterval.from_point(x)
        # sin r = r * sinc(r): the sinc window at width w / |r|, times a / b
        lo, hi, den = even_series(Fraction(a * a, b * b), 1).window(
            Fraction(w.numerator * b, w.denominator * abs(a)))
        if a < 0:
            lo, hi = hi, lo
        return RatInterval(Fraction(lo * a, den * b), Fraction(hi * a, den * b))
    raise ValueError(f"unknown enclosure function {fn!r}")


# width used for the rational cosh over-approximation in the cos system's bound;
# any fixed value is sound, this one keeps the factors short
_UPPER_BOUND_WIDTH = Fraction(1, 1 << 16)


def exp_upper_bound(x: Fraction) -> Fraction:
    """Deterministic rational upper bound on e**x (also >= cosh x for x >= 0)."""
    return enclose(Func.EXP, x, _UPPER_BOUND_WIDTH).hi
