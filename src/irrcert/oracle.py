"""Exact oracle for the recurrence integrals, by integration by parts.

Each family integrates a polynomial P against sin x, e**x, sin(r - z) or
cos(r - z) over [0, r].  With C = P - C'' (so C = P - P'' + P'''' - ...)
and S = C', the functions -C cos x + S sin x, C cos(r - z) + S sin(r - z)
and S cos(r - z) - C sin(r - z) are antiderivatives of the three trig
integrands; with E = P - E', E e**x is one of P e**x.  So every integral
has coefficients on (1, cos r, sin r), or on (1, e**r), that are integer
polynomials in t = r, or in t = s = r**2 for the cos families.
``coefficients`` derives them, and ``irrcert table`` prints them;
``integrate`` evaluates them at a rational r.  No recurrence is read, so
comparing them with the tracks checks the tracks exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb, factorial, perm
from typing import List, Tuple


class IntegrandFamily(Enum):
    SIN_KERNEL = "sin-kernel"   # (r x - x**2)**n / n! * sin x
    EXP_KERNEL = "exp-kernel"   # (r x - x**2)**n / n! * e**x
    COS_I = "cos-I"             # (s z**2 - z**4)**n / n! * sin(r - z)
    COS_J = "cos-J"             # z   * kernel * cos(r - z)
    COS_K = "cos-K"             # z**2 * kernel * sin(r - z)
    COS_L = "cos-L"             # z**3 * kernel * cos(r - z)


def _quotient(p: List[int], divisor: int) -> List[int]:
    """p // divisor, exact, with trailing zeros trimmed."""
    out = [c // divisor for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def coefficients(family: IntegrandFamily, n: int) -> Tuple[List[int], ...]:
    """The integral's coefficients on (1, cos r, sin r), or on (1, e**r), as
    integer polynomials in t (t = r, or t = s = r**2 for the cos families),
    constant term first and with no trailing zero."""
    if n < 0:
        raise ValueError("index n must be nonnegative")
    quadratic = family in (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL)
    e, k = (1, 0) if quadratic else (2, "IJKL".index(family.value[-1]))
    order = 1 if family is IntegrandFamily.EXP_KERNEL else 2
    # n! P = x**k (t x**e - x**(2e))**n has the monomial (-1)**j C(n, j) t**(n-j)
    # at x**(e (n + j) + k).  Q = n! P - Q^(order) (C, or E for the exp kernel)
    # is built from the top power of x down, holding its last `order`
    # coefficients, each a polynomial in t of degree <= n; Q(r) and Q'(r) are
    # summed on the way, x**m at x = r being t**(m/e).  For the cos families C
    # has the parity of k, so of C(r) and S(r) = Q'(r) only the one whose
    # powers of x are even is whole, and only it is read.
    top = 2 * e * n + k
    held = [[0] * (n + 1) for _ in range(order)]
    value, slope = ([0] * (top // e + n + 1) for _ in range(2))
    for m in range(top, -1, -1):
        factor = perm(m + order, order)
        q = [-factor * c for c in held[-1]]
        i, rem = divmod(m - k, e)
        if rem == 0 and i >= n:
            q[2 * n - i] += (-1) ** (i - n) * comb(n, i - n)
        held = [q] + held[:-1]
        for acc, power, weight in ((value, m, 1), (slope, m - 1, m)):
            if power >= 0 and power % e == 0:
                for d, c in enumerate(q, power // e):
                    acc[d] += weight * c
    # one exact division by n!; a negative divisor also negates
    nf = factorial(n)
    if family is IntegrandFamily.EXP_KERNEL:
        return _quotient(held[0], -nf), _quotient(value, nf)
    at_0, slope_at_0 = held
    if family is IntegrandFamily.SIN_KERNEL:
        return _quotient(at_0, nf), _quotient(value, -nf), _quotient(slope, nf)
    if family in (IntegrandFamily.COS_I, IntegrandFamily.COS_K):
        return _quotient(value, nf), _quotient(at_0, -nf), _quotient(slope_at_0, -nf)
    return _quotient(slope, nf), _quotient(slope_at_0, -nf), _quotient(at_0, nf)


def _value(p: List[int], t: Fraction) -> Fraction:
    """p(t), by Horner on den**(deg p) p(t)."""
    acc, bpow = 0, 1
    for c in reversed(p):
        acc, bpow = acc * t.numerator + c * bpow, bpow * t.denominator
    return Fraction(acc * t.denominator, bpow)


def integrate(family: IntegrandFamily, n: int, r: Fraction) -> Tuple[Fraction, ...]:
    """The integral over [0, r] as its exact coefficients on (1, cos r, sin r),
    or on (1, e**r) for the exp kernel."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("integration requires r > 0")
    t = r if family in (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL) else r * r
    return tuple(_value(p, t) for p in coefficients(family, n))
