"""Rigorous rational enclosures of sin, cos, exp and the kernel tail bounds.

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

from .exactnum import RatInterval, sqrt_bounds


class Func(Enum):
    SIN = "sin"
    COS = "cos"
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
    if fn is Func.COS:
        return even_series(x * x, 0).enclose(w)
    if fn is Func.SIN:
        if x == 0:
            return RatInterval.from_point(Fraction(0))
        # sin r = r * sinc(r); scaling by r multiplies the width by |r|
        return even_series(x * x, 1).enclose(w / abs(x)).scale(x)
    raise ValueError(f"unknown enclosure function {fn!r}")


class TailKernel(Enum):
    SIN_KERNEL = "sin_kernel"
    EXP_KERNEL = "exp_kernel"
    COS_SYSTEM = "cos_system"


# width used for the rational exp/cosh over-approximations inside tail bounds;
# any fixed value is sound, this one keeps the factors short
_UPPER_BOUND_WIDTH = Fraction(1, 1 << 16)


def exp_upper_bound(x: Fraction) -> Fraction:
    """Deterministic rational upper bound on e**x (also >= cosh x for x >= 0)."""
    return enclose(Func.EXP, x, _UPPER_BOUND_WIDTH).hi


def tail_bound(kernel: TailKernel, r_or_s: Fraction, n: int, k: int = 0) -> Fraction:
    """Rational bound with |integral_n| <= tail_bound, from the pointwise
    maximum of the kernel times the interval length times a weight bound
    z**k (the cos system's weight power, 0..3; 0 for the other kernels)."""
    r = s = Fraction(r_or_s)
    if n < 0:
        raise ValueError("index n must be nonnegative")
    if kernel is TailKernel.COS_SYSTEM:
        if k not in (0, 1, 2, 3):
            raise ValueError("cos-system weight power must be 0..3")
    elif k != 0:
        raise ValueError("weight power only applies to the cos system")
    if kernel is TailKernel.SIN_KERNEL:
        if r <= 0:
            raise ValueError("sin kernel requires r > 0")
        return r * (r * r / 4) ** n / factorial(n)
    if kernel is TailKernel.EXP_KERNEL:
        if r <= 0:
            raise ValueError("exp kernel requires r > 0")
        return r * (r * r / 4) ** n / factorial(n) * exp_upper_bound(r)
    if s == 0:
        raise ValueError("cos system requires s != 0")
    if s > 0:
        root_hi = sqrt_bounds(s).hi
        return root_hi ** (k + 1) * (s * s / 4) ** n / factorial(n)
    t_hi = sqrt_bounds(-s).hi
    return t_hi ** (k + 1) * (2 * s * s) ** n / factorial(n) * exp_upper_bound(t_hi)
