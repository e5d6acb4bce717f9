"""Reference code that the tests check the package against and the package
never runs: the kernel tail bounds, exact evaluation and parity splits of
integer polynomials, and the cos system's descent identity.  Kept in
``tests/``, the package neither ships it nor trusts it."""

from enum import Enum
from fractions import Fraction
from math import factorial

from irrcert.enclosure import exp_upper_bound
from irrcert.exactnum import IntPoly, sqrt_bounds


class DegreeBoundError(ValueError):
    """Scaled integer evaluation was requested below the polynomial degree."""


class TailKernel(Enum):
    SIN_KERNEL = "sin_kernel"
    EXP_KERNEL = "exp_kernel"
    COS_SYSTEM = "cos_system"


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
        return sqrt_bounds(s).hi ** (k + 1) * (s * s / 4) ** n / factorial(n)
    t_hi = sqrt_bounds(-s).hi
    return t_hi ** (k + 1) * (2 * s * s) ** n / factorial(n) * exp_upper_bound(t_hi)


def shift(p: IntPoly, k: int) -> IntPoly:
    """p times var**k."""
    return IntPoly((0,) * k + p.coeffs) if p.coeffs else p


def eval_rational(p: IntPoly, x: Fraction) -> Fraction:
    """Exact evaluation at a rational point (Horner)."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def eval_scaled_integer(p: IntPoly, a: int, b: int, n: int) -> int:
    """The integer b**n p(a/b) = sum c_k a**k b**(n-k); requires degree <= n
    and b != 0."""
    if b == 0:
        raise ZeroDivisionError("scale denominator is zero")
    if p.degree > n:
        raise DegreeBoundError(f"degree {p.degree} exceeds scale exponent {n}")
    return sum(c * a ** k * b ** (n - k) for k, c in enumerate(p.coeffs))


def even_part_in_square(p: IntPoly) -> IntPoly:
    """For p with only even powers, g with p(x) = g(x**2)."""
    if any(p.coeffs[1::2]):
        raise ValueError("polynomial has odd-power terms")
    return IntPoly(p.coeffs[0::2])


def odd_part_in_square(p: IntPoly) -> IntPoly:
    """For p with only odd powers, g with p(x) = x * g(x**2)."""
    if any(p.coeffs[0::2]):
        raise ValueError("polynomial has even-power terms")
    return IntPoly(p.coeffs[1::2])


def descent_identity_check(n: int, pairs) -> bool:
    """Verify L_n = (4n+3) K_n + s J_n - (2n+1) s I_n exactly (n >= 1), for
    the cos system's (u, v) pairs of I, J, K and L at index n."""
    if n < 1:
        raise ValueError("descent identity holds for n >= 1")
    for i, j, k, l in zip(*pairs):
        if l != (4 * n + 3) * k + shift(j, 1) - (2 * n + 1) * shift(i, 1):
            return False
    return True
