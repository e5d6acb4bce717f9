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
from math import ceil, factorial, isqrt, prod
from typing import Tuple

from .exactnum import RatInterval


class Func(Enum):
    SIN = "sin"
    EXP = "exp"
    COS_FROM_S = "cos_from_s"
    SINC_FROM_S = "sinc_from_s"


class Series:
    """sum_m y**m / (k m + delta)! at a width: the partial sum up to the least
    N >= start whose radius |y|**(N+1) / (k (N+1) + delta)! * growth is at
    most width / 2, plus and minus that radius.

    The state is N, y's numerator to the N, and the sum as p f_N / rden with
    rden = d_N f_N, where d_N = b**N (k N + delta)! and f_N = d_(N+1) / d_N.
    A width no wider than the last resumes from N, since every smaller count
    failed the wider width; a wider one starts over, as the radius need not
    fall with N (the cosh branch)."""

    __slots__ = ("a", "b", "k", "delta", "start", "growth", "width", "n", "p", "apow", "f", "rden")

    def __init__(self, y: Fraction, k: int, delta: int, start: int, growth: int):
        self.a, self.b = y.numerator, y.denominator
        self.k, self.delta, self.start, self.growth = k, delta, start, growth
        self.width = None

    def _factor(self, j: int) -> int:
        """f_j = d_(j+1) / d_j = b (k j + delta + 1) ... (k j + delta + k)."""
        low = self.k * j + self.delta
        return self.b * prod(range(low + 1, low + self.k + 1))

    def window(self, width: Fraction) -> Tuple[int, int, int]:
        """(lo, hi, den): the enclosure at this width is [lo / den, hi / den],
        den > 0, over one unreduced common denominator."""
        if self.width is None or width > self.width:
            # N = 0: the sum 1 / delta! over d_0 = delta!
            self.n, self.p, self.apow, self.f = 0, 1, 1, self._factor(0)
            self.rden = factorial(self.delta) * self.f
        self.width = width
        a, abs_a, start, factor = self.a, abs(self.a), self.start, self._factor
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
            f = factor(n)
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
    if s < 0:
        # ceil(sqrt(-s)) = isqrt(c - 1) + 1 with c = ceil(-s) >= 1
        return Series(-s, 2, delta, 0, 3 ** (isqrt(ceil(-s) - 1) + 1))
    # start where the terms decrease from the first omitted one onward
    start = 0
    while s > (2 * start + 3 + delta) * (2 * start + 4 + delta):
        start += 1
    return Series(-s, 2, delta, start, 1)


def enclose(fn: Func, x: Fraction, width: Fraction) -> RatInterval:
    """Interval provably containing fn(x), of width at most ``width``."""
    x, w = Fraction(x), Fraction(width)
    if w <= 0:
        raise ValueError("target width must be positive")
    if fn is Func.EXP:
        return Series(x, 1, 0, 0, 3 ** ceil(abs(x))).enclose(w)
    if fn is Func.COS_FROM_S:
        return even_series(x, 0).enclose(w)
    if fn is Func.SINC_FROM_S:
        return even_series(x, 1).enclose(w)
    if fn is Func.SIN:
        if x == 0:
            return RatInterval.from_point(Fraction(0))
        # sin r = r * sinc(r); scaling by r multiplies the width by |r|
        return even_series(x * x, 1).enclose(w / abs(x)).scale(x)
    raise ValueError(f"unknown enclosure function {fn!r}")


# width used for the rational cosh over-approximation in the cos system's bound;
# any fixed value is sound, this one keeps the factors short
_UPPER_BOUND_WIDTH = Fraction(1, 1 << 16)


def exp_upper_bound(x: Fraction) -> Fraction:
    """Deterministic rational upper bound on e**x (also >= cosh x for x >= 0)."""
    return enclose(Func.EXP, x, _UPPER_BOUND_WIDTH).hi
