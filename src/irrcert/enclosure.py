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

``_taylor`` keeps the remainder and the partial sum (by Horner, over one
common denominator) as integer pairs and makes each a Fraction once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil, factorial, isqrt, prod

from .exactnum import RatInterval, sqrt_bounds


class Func(Enum):
    SIN = "sin"
    COS = "cos"
    EXP = "exp"
    COS_FROM_S = "cos_from_s"
    SINC_FROM_S = "sinc_from_s"


@dataclass(frozen=True)
class EnclosureRequest:
    function: Func
    argument: Fraction
    target_width: Fraction

    def __post_init__(self):
        object.__setattr__(self, "argument", Fraction(self.argument))
        object.__setattr__(self, "target_width", Fraction(self.target_width))
        if self.target_width <= 0:
            raise ValueError("target width must be positive")


def _taylor(
    y: Fraction, k: int, delta: int, start: int, growth: int, target_width: Fraction
) -> RatInterval:
    """Enclose sum_m y**m / (k m + delta)!: the partial sum up to the least
    N >= start whose radius |y|**(N+1) / (k (N+1) + delta)! * growth is at
    most target_width / 2, plus and minus that radius."""
    a, b = y.numerator, y.denominator
    abs_a = abs(a)
    cap_num, cap_den = target_width.numerator, 2 * target_width.denominator

    def step(j: int) -> int:  # (k j + delta + 1) ... (k j + delta + k)
        return prod(range(k * j + delta + 1, k * j + delta + k + 1))

    # radius / (target_width / 2) as the unreduced integer pair num / den
    n = start
    num = abs_a ** (n + 1) * growth * cap_den
    den = b ** (n + 1) * factorial(k * (n + 1) + delta) * cap_num
    while num > den:
        n += 1
        num *= abs_a
        den *= b * step(n)
    # Horner: delta! * partial = 1 + (y / step(0)) (1 + (y / step(1)) (1 + ...))
    p = q = 1
    for j in range(n - 1, -1, -1):
        d = b * step(j) * q
        p, q = d + a * p, d
    partial = Fraction(p, q * factorial(delta))
    remainder = Fraction(num // cap_den, den // cap_num)
    return RatInterval(partial - remainder, partial + remainder)


def _even_series(s: Fraction, delta: int, target_width: Fraction) -> RatInterval:
    """Enclose sum_m (-1)**m s**m / (2m + delta)!  (delta 0: cos-type,
    delta 1: sinc-type), valid for either sign of s."""
    if s < 0:
        # ceil(sqrt(-s)) = isqrt(c - 1) + 1 with c = ceil(-s) >= 1
        return _taylor(-s, 2, delta, 0, 3 ** (isqrt(ceil(-s) - 1) + 1), target_width)
    # start where the terms decrease from the first omitted one onward
    start = 0
    while s > (2 * start + 3 + delta) * (2 * start + 4 + delta):
        start += 1
    return _taylor(-s, 2, delta, start, 1, target_width)


def enclose(req: EnclosureRequest) -> RatInterval:
    """Interval provably containing the requested value, width <= target."""
    fn, x, w = req.function, req.argument, req.target_width
    if fn is Func.EXP:
        return _taylor(x, 1, 0, 0, 3 ** ceil(abs(x)), w)
    if fn is Func.COS_FROM_S:
        return _even_series(x, 0, w)
    if fn is Func.SINC_FROM_S:
        return _even_series(x, 1, w)
    if fn is Func.COS:
        return _even_series(x * x, 0, w)
    if fn is Func.SIN:
        if x == 0:
            return RatInterval.from_point(Fraction(0))
        # sin r = r * sinc(r); scaling by r multiplies the width by |r|
        sinc_part = _even_series(x * x, 1, w / abs(x))
        return sinc_part.scale(x)
    raise ValueError(f"unknown enclosure function {fn!r}")


class TailKernel(Enum):
    SIN_KERNEL = "sin_kernel"
    EXP_KERNEL = "exp_kernel"
    COS_SYSTEM = "cos_system"


# width used for the rational exp/cosh over-approximations inside tail bounds;
# any fixed value is sound, this one keeps the factors short
_UPPER_BOUND_WIDTH = Fraction(1, 1 << 16)


@dataclass(frozen=True)
class TailBoundSpec:
    kernel: TailKernel
    r_or_s: Fraction
    n: int
    k: int = 0  # weight power z**k, cos system only

    def __post_init__(self):
        object.__setattr__(self, "r_or_s", Fraction(self.r_or_s))
        if self.n < 0:
            raise ValueError("index n must be nonnegative")
        if self.kernel is TailKernel.COS_SYSTEM:
            if self.k not in (0, 1, 2, 3):
                raise ValueError("cos-system weight power must be 0..3")
        elif self.k != 0:
            raise ValueError("weight power only applies to the cos system")


def exp_upper_bound(x: Fraction) -> Fraction:
    """Deterministic rational upper bound on e**x (also >= cosh x for x >= 0)."""
    return enclose(EnclosureRequest(Func.EXP, x, _UPPER_BOUND_WIDTH)).hi


def tail_bound(spec: TailBoundSpec) -> Fraction:
    """Rational bound with |integral_n| <= tail_bound, from the pointwise
    maximum of the kernel times the interval length times a weight bound."""
    n, k = spec.n, spec.k
    if spec.kernel is TailKernel.SIN_KERNEL:
        r = spec.r_or_s
        if r <= 0:
            raise ValueError("sin kernel requires r > 0")
        return r * (r * r / 4) ** n / factorial(n)
    if spec.kernel is TailKernel.EXP_KERNEL:
        r = spec.r_or_s
        if r <= 0:
            raise ValueError("exp kernel requires r > 0")
        return r * (r * r / 4) ** n / factorial(n) * exp_upper_bound(r)
    s = spec.r_or_s
    if s == 0:
        raise ValueError("cos system requires s != 0")
    if s > 0:
        root_hi = sqrt_bounds(s).hi
        return root_hi ** (k + 1) * (s * s / 4) ** n / factorial(n)
    t_hi = sqrt_bounds(-s).hi
    return t_hi ** (k + 1) * (2 * s * s) ** n / factorial(n) * exp_upper_bound(t_hi)
