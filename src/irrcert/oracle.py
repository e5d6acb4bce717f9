"""Exact oracle for the recurrence integrals, by integration by parts.

Each family integrates a polynomial P against sin x, e**x, sin(r - z) or
cos(r - z) over [0, r].  With C = P - C'' (so C = P - P'' + P'''' - ...)
and S = C', the functions -C cos x + S sin x, C cos(r - z) + S sin(r - z)
and S cos(r - z) - C sin(r - z) are antiderivatives of the three trig
integrands; with E = P - E', E e**x is one of P e**x.  So every integral
has exact rational coefficients on (1, cos r, sin r), or on (1, e**r).  P
is scaled by b**(e n) n! (r = a/b; e = 1 for the quadratic kernel, 2 for
the quartic one) so that its coefficients are integers.  No recurrence is
read, so comparing the coefficients with the tracks checks them exactly.
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


def _kernel(a: int, b: int, n: int, e: int, k: int) -> List[int]:
    """x**k (a**e x**e - b**e x**(2e))**n, coefficients constant term first."""
    coeffs = [0] * (2 * e * n + k + 1)
    for j in range(n + 1):
        coeffs[e * (n + j) + k] = comb(n, j) * a ** (e * (n - j)) * (-(b ** e)) ** j
    return coeffs


def _alternating(p: List[int], order: int) -> List[int]:
    """Q = P - Q^(order), from the top coefficient down."""
    q = list(p)
    for m in range(len(q) - order - 1, -1, -1):
        q[m] -= perm(m + order, order) * q[m + order]
    return q


def _value(q: List[int], a: int, b: int, scale: int) -> Fraction:
    """q(a/b) / scale, by Horner on b**(deg q) q(a/b)."""
    acc, bpow = 0, 1
    for c in reversed(q):
        acc, bpow = acc * a + c * bpow, bpow * b
    return Fraction(acc * b, bpow * scale)


def integrate(family: IntegrandFamily, n: int, r: Fraction) -> Tuple[Fraction, ...]:
    """The integral over [0, r] as its exact coefficients on (1, cos r, sin r),
    or on (1, e**r) for the exp kernel."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("integration requires r > 0")
    if n < 0:
        raise ValueError("index n must be nonnegative")
    a, b = r.numerator, r.denominator
    quadratic = family in (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL)
    e = 1 if quadratic else 2
    k = 0 if quadratic else "IJKL".index(family.value[-1])
    p, scale = _kernel(a, b, n, e, k), b ** (e * n) * factorial(n)
    if family is IntegrandFamily.EXP_KERNEL:
        q = _alternating(p, 1)
        return -_value(q, 0, 1, scale), _value(q, a, b, scale)
    c = _alternating(p, 2)
    s = [m * x for m, x in enumerate(c)][1:]
    at_0 = [_value(q, 0, 1, scale) for q in (c, s)]
    at_r = [_value(q, a, b, scale) for q in (c, s)]
    if family is IntegrandFamily.SIN_KERNEL:
        return at_0[0], -at_r[0], at_r[1]
    if family in (IntegrandFamily.COS_I, IntegrandFamily.COS_K):
        return at_r[0], -at_0[0], -at_0[1]
    return at_r[1], -at_0[1], at_0[0]
