"""Exact oracle for the recurrence integrals, read off the integrands alone.

Each family integrates a polynomial P against sin x, e**x, sin(r - z) or
cos(r - z) over [0, r].  With C = P - C'' (so C = P - P'' + P'''' - ...)
and S = C', the functions -C cos x + S sin x, C cos(r - z) + S sin(r - z)
and S cos(r - z) - C sin(r - z) are antiderivatives of the three trig
integrands; with E = P - E', E e**x is one of P e**x.  So every integral
has coefficients on (1, cos r, sin r), or on (1, e**r), that are integer
polynomials in t = r, or in t = s = r**2 for the cos families.
``coefficients`` gives them, and ``irrcert table`` prints them;
``integrate`` evaluates them at a rational r.  The sin and exp kernels'
coefficient of r**i is +-c_i = +-(2n - i)! / (i! (n - i)!), 2**(n - i) times
one of the reverse Bessel polynomial theta_n (Krall & Frink, 1949); the sin
kernel's u has the even i and its v the odd.  For the cos families a pass by
parts builds C.  No recurrence is read, so the tracks are checked exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb, factorial
from typing import List, Tuple


class IntegrandFamily(Enum):
    SIN_KERNEL = "sin-kernel"   # (r x - x**2)**n / n! * sin x
    EXP_KERNEL = "exp-kernel"   # (r x - x**2)**n / n! * e**x
    COS_I = "cos-I"             # (s z**2 - z**4)**n / n! * sin(r - z)
    COS_J = "cos-J"             # z   * kernel * cos(r - z)
    COS_K = "cos-K"             # z**2 * kernel * sin(r - z)
    COS_L = "cos-L"             # z**3 * kernel * cos(r - z)


def _trimmed(p: List[int]) -> List[int]:
    """p with its trailing zeros removed."""
    while p and p[-1] == 0:
        p.pop()
    return p


def coefficients(family: IntegrandFamily, n: int) -> Tuple[List[int], ...]:
    """The integral's coefficients on (1, cos r, sin r), or on (1, e**r), as
    integer polynomials in t (t = r, or t = s = r**2 for the cos families),
    constant term first and with no trailing zero."""
    if n < 0:
        raise ValueError("index n must be nonnegative")
    if family in (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL):
        # n! P = sum (-1)**(n-i) C(n, i) r**i x**(2n-i), and P(r - x) = P(x), so
        # P^(d)(r) = (-1)**d P^(d)(0), and at 0 only D**(2n-i) x**(2n-i)
        # survives: P^(2n-i)(0) = (-1)**(n-i) c_i r**i.
        # So C(r) = C(0) and S(r) = -S(0), and every row is a signed c_i
        c = [0] * n + [1]
        for i in range(n, 0, -1):
            c[i - 1] = c[i] * i * (2 * n - i + 1) // (n - i + 1)
        if family is IntegrandFamily.EXP_KERNEL:
            return [(-1) ** (n + 1) * x for x in c], [(-1) ** (n - i) * x for i, x in enumerate(c)]
        u = _trimmed([0 if i % 2 else (-1) ** (i // 2) * x for i, x in enumerate(c)])
        v = _trimmed([(-1) ** ((i + 1) // 2) * x if i % 2 else 0 for i, x in enumerate(c)])
        return u, [-x for x in u], v
    k = "IJKL".index(family.value[-1])
    # n! P = z**k (s z**2 - z**4)**n has (-1)**j C(n, j) s**(n-j) at z**(2n+2j+k).
    # q, n! C's coefficient at z**m (a polynomial in s), is n! P's minus (m+2)(m+1)
    # times the one at z**(m+2).  C has the parity d of k, so only those m are
    # built, and of C(r) and S(r) = C'(r) only the one in even powers of z is
    # whole: whole sums it, z**m at r being s**(m/2).
    d = k % 2
    q, whole = [0] * (n + 1), [0] * (3 * n + 2)
    for m in range(4 * n + k, d - 1, -2):
        factor, weight = -(m + 2) * (m + 1), m if d else 1
        q = [factor * c for c in q]
        i = (m - k) // 2
        if i >= n:
            q[2 * n - i] += (-1) ** (i - n) * comb(n, i - n)
        for power, c in enumerate(q, (m - d) // 2):
            whole[power] += weight * c
    # q is now n! C's coefficient at z**d: n! C(0) for the even k, n! S(0)
    # for the odd, and the other one is 0
    nf = factorial(n)
    return _trimmed([c // nf for c in whole]), _trimmed([-c // nf for c in q]), []


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
