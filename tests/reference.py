"""Reference code that the tests check the package against and the package
never runs: the kernel tail bounds, the integer polynomial ring ``IntPoly``
with its exact evaluation and parity splits, the tracks run on that ring,
the cos system's descent identity, ``RatInterval`` with the ``enclose``,
``sqrt_bounds`` and ``exp_upper_bound`` that returned it before every
enclosure became an integer window, the helpers the engines used to build
their bounds with, those bounds' Fraction forms, the
oracle's one pass by parts for all six integrand families, the parser
that converts every number and writes the certificate back to compare it,
the tracks that form each step's coefficients from n, and the checker's
own-slot order that tried the attempt before comparing the witness.  Kept
in ``tests/``, the package neither ships it nor trusts it."""

import json
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import comb, factorial, isqrt, perm
from typing import List, NamedTuple
from unittest.mock import patch

from irrcert import certificates
from irrcert.certificates import (
    SCHEMA_VERSION, Certificate, Claim, ClaimKind, EnclosureRecord, RefutationMode, SequenceId,
    TransformRecord, to_canonical_json,
)
from irrcert.enclosure import Func, Series, even_series
from irrcert.oracle import IntegrandFamily
from irrcert.recurrences import cos_track, exp_track, tan_track


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


# --------------------------------------------------------------------------
# the tracks on IntPoly at the generic point a = x, b = 1: a second
# derivation of the coordinate polynomials that oracle.coefficients derives
# from the integrals
# --------------------------------------------------------------------------

_X, _ONE, _ZERO = IntPoly([0, 1]), IntPoly([1]), IntPoly()


def _coordinates(track, n_max: int) -> List[tuple]:
    us, vs = track(_X, _ONE, _ONE, _ZERO), track(_X, _ONE, _ZERO, _ONE)
    return list(islice(zip(us, vs), n_max + 1))


def tan_sequence(n_max: int) -> List[tuple]:
    """Tan-engine pairs (u_n, v_n); w_n = (4n - 2) w_{n-1} - r**2 w_{n-2}."""
    return _coordinates(tan_track, n_max)


def pi_sequence(n_max: int) -> List[IntPoly]:
    """Pi-engine polynomials: P_0 = 2, P_1 = 4,
    P_n = (4n - 2) P_{n-1} - t**2 P_{n-2}.  Identically 2 * u_n of the
    tan engine, so only even powers appear."""
    return list(islice(tan_track(_X, _ONE, IntPoly([2]), _ZERO), n_max + 1))


def exp_sequence(n_max: int) -> List[tuple]:
    """Exp-engine pairs (u_n, v_n); sign flips relative to the tan engine
    because the weight e**x reproduces itself under integration by parts:
    w_n = -(4n - 2) w_{n-1} + r**2 w_{n-2}."""
    return _coordinates(exp_track, n_max)


def cos_system(n_max: int) -> List[tuple]:
    """Per index, the (u_n, v_n) pairs of I, J, K and L, in that order."""
    return list(islice(cos_track(_X, _ONE), n_max + 1))


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


# --------------------------------------------------------------------------
# RatInterval, a closed interval with reduced Fraction ends, and the
# enclosures as the package returned them before they were integer windows
# (lo, hi, den); ``interval`` reads such a window as a RatInterval.  The
# engines read an enclosure's sign and least |x| off its two ends, and
# enclose(SIN, ...) scales an integer window
# --------------------------------------------------------------------------

class _RatIntervalFields(NamedTuple):
    lo: Fraction
    hi: Fraction


class RatInterval(_RatIntervalFields):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> "RatInterval":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable) -> "RatInterval":
        return cls(*iterable)

    @classmethod
    def from_point(cls, x: Fraction) -> "RatInterval":
        return cls(x, x)


def interval(window) -> RatInterval:
    """The interval [lo / den, hi / den] of an integer window (lo, hi, den)."""
    lo, hi, den = window
    if den <= 0:
        raise ValueError(f"a window's denominator is positive, not {den}")
    return RatInterval(Fraction(lo, den), Fraction(hi, den))


def enclose(fn: Func, x: Fraction, width: Fraction) -> RatInterval:
    """Interval provably containing fn(x), of width at most ``width``."""
    x, w = Fraction(x), Fraction(width)
    if w <= 0:
        raise ValueError("target width must be positive")
    a, b = x.numerator, x.denominator
    if fn is Func.EXP:
        return interval(Series(a, b, 1, 0, 0, 3 ** -(-abs(a) // b)).window(w))
    if fn is Func.COS_FROM_S:
        return interval(even_series(x, 0).window(w))
    if fn is Func.SINC_FROM_S:
        return interval(even_series(x, 1).window(w))
    if fn is Func.SIN:
        if a == 0:
            return RatInterval.from_point(x)
        lo, hi, den = even_series(Fraction(a * a, b * b), 1).window(
            Fraction(w.numerator * b, w.denominator * abs(a)))
        if a < 0:
            lo, hi = hi, lo
        return RatInterval(Fraction(lo * a, den * b), Fraction(hi * a, den * b))
    raise ValueError(f"unknown enclosure function {fn!r}")


def exp_upper_bound(x: Fraction) -> Fraction:
    """Deterministic rational upper bound on e**x (also >= cosh x for x >= 0)."""
    return enclose(Func.EXP, x, Fraction(1, 1 << 16)).hi


def sqrt_bounds(x: Fraction) -> RatInterval:
    """Rational lo <= sqrt(x) <= hi for x >= 0, exact for perfect squares;
    else floor/ceiling of sqrt(x) on the 2**-64 grid."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num < 0:
        raise ValueError("sqrt of a negative rational")
    num_root, den_root = isqrt(num), isqrt(den)
    if num_root * num_root == num and den_root * den_root == den:
        return RatInterval.from_point(Fraction(num_root, den_root))
    root = isqrt((num << 128) // den)
    return RatInterval(Fraction(root, 1 << 64), Fraction(root + 1, 1 << 64))


def scale(iv: RatInterval, c: Fraction) -> RatInterval:
    """Multiply both endpoints by an exact rational."""
    c = Fraction(c)
    if c >= 0:
        return RatInterval(iv.lo * c, iv.hi * c)
    return RatInterval(iv.hi * c, iv.lo * c)


def contains_zero(iv: RatInterval) -> bool:
    return iv.lo <= 0 <= iv.hi


def min_abs(iv: RatInterval) -> Fraction:
    """Least |x| over the interval (0 if it straddles zero)."""
    if contains_zero(iv):
        return Fraction(0)
    return min(abs(iv.lo), abs(iv.hi))


# --------------------------------------------------------------------------
# the engines' constants as the package built them on Fractions, before it
# carried them as integer pairs: the squared-trig delegation, each bound's
# start and step ratio with the enclosure records it rests on, the cos
# system's weights, hyper and gate, and the cos value window
# --------------------------------------------------------------------------

_TO_COS = {
    ClaimKind.SIN_SQ: lambda value: 1 - 2 * value,
    ClaimKind.COS_SQ: lambda value: 2 * value - 1,
    ClaimKind.TAN_SQ: lambda value: (1 - value) / (1 + value),
}


def delegate(claim: Claim) -> Claim:
    """The cos claim at 4s that a squared-trig claim reduces to; any other
    claim itself."""
    if claim.kind not in _TO_COS:
        return claim
    return Claim(ClaimKind.COS, 4 * claim.arg, _TO_COS[claim.kind](claim.value))


def _away_from_zero(fn: Func, arg: Fraction, start_width: Fraction):
    """The first enclosure of the halving schedule that excludes zero."""
    for halvings in range(64):
        iv = enclose(fn, arg, start_width / 2**halvings)
        if not contains_zero(iv):
            return iv, EnclosureRecord(fn.value, arg, iv.lo, iv.hi)
    raise ValueError(f"{fn.value}({arg}) not separable from zero")


def _tan_step(r: Fraction) -> Fraction:
    return Fraction(r.numerator ** 2, 4 * r.denominator)


def three_term_bound(claim: Claim, width: Fraction):
    """(start, ratio, enclosure records) of the bound start * ratio**n / n!
    of a tan, tan-ratio, pi, pi-squared or exp claim."""
    t, value = claim.arg, claim.value
    if claim.kind is ClaimKind.TAN:
        if t < 0:
            t, value = -t, -value
        sin_iv, record = _away_from_zero(Func.SIN, 2 * t, width)
        return value.denominator * 2 * t / min_abs(sin_iv), _tan_step(2 * t), (record,)
    if claim.kind is ClaimKind.TAN_RATIO:
        sinc_iv, record = _away_from_zero(Func.SINC_FROM_S, 4 * t, width)
        root = sqrt_bounds(t)
        start = value.denominator * root.hi / (t * min_abs(sinc_iv))
        return start, Fraction(t.numerator), (record, EnclosureRecord("sqrt", t, *root))
    if claim.kind is ClaimKind.PI:
        return value, _tan_step(value), ()
    if claim.kind is ClaimKind.PI_SQUARED:
        root = sqrt_bounds(value)
        return root.hi, Fraction(value.numerator, 4), (EnclosureRecord("sqrt", value, *root),)
    if claim.kind is ClaimKind.EXP:
        if t < 0:
            t, value = -t, 1 / value
        return value.numerator * t, _tan_step(t), ()
    raise ValueError(f"{claim.kind} has no three-term bound")


def cos_constants(s: Fraction):
    """(weights, hyper, gate start, gate ratio) of the cos system at s: the
    weight of the sequence with weight power k is sqrt|s| ** (k + 1), rounded
    up, and the gate's start is the denominator of s times hyper."""
    root_hi = sqrt_bounds(abs(s)).hi
    weights = tuple(root_hi ** (k + 1) for k in range(4))
    hyper = exp_upper_bound(root_hi) if s < 0 else Fraction(1)
    a = s.numerator
    ratio = Fraction(a * a, 4) if a > 0 else Fraction(2 * a * a)
    return weights, hyper, s.denominator * hyper, ratio


def value_window(qu: int, qv: int, window):
    """(low, high, den) for q (u + v cos r) over the cos window, from three
    full products."""
    lo, hi, den = window
    centre = qu * den
    low, high = sorted((centre + qv * lo, centre + qv * hi))
    return low, high, den


# --------------------------------------------------------------------------
# the checker's lower index as the kind table gave it, one function per kind,
# before each engine gave its own ``rise``: floor(ratio) where the claim alone
# shows the bound's start (times the cos system's least weight) to be at
# least 1, else -1.  Each reads the claim an engine runs on
# --------------------------------------------------------------------------

def _kernel_step(a: int, b: int):
    return a * a, 4 * b


def _tan_rise(claim: Claim) -> int:
    """floor(ratio): |sin r| <= |r| makes the start at least q."""
    r = Fraction(2 * claim.arg.numerator, claim.arg.denominator)
    num, den = _kernel_step(r.numerator, r.denominator)
    return num // den if r else -1


def _pi_rise(claim: Claim) -> int:
    """floor(ratio) once the start, the claimed value, is at least 1."""
    a, b = claim.value.numerator, claim.value.denominator
    num, den = _kernel_step(a, b)
    return num // den if a >= b else -1


def _pi_squared_rise(claim: Claim) -> int:
    """floor(ratio), the claimed value a/b over 4, once a >= b: the start,
    an upper bound on its square root, is then at least 1."""
    a, b = claim.value.numerator, claim.value.denominator
    return a // 4 if a >= b else -1


def _exp_rise(claim: Claim) -> int:
    """floor(ratio) once the start p a / b is at least 1, for the exponent
    a/b > 0 and the value p/q after e**-r = 1/e**r."""
    a, b = claim.arg.numerator, claim.arg.denominator
    p, q = claim.value.numerator, claim.value.denominator
    if a < 0:
        a, p, q = -a, q, p
    num, den = _kernel_step(a, b)
    return num // den if p * a >= b else -1


def _tan_ratio_rise(claim: Claim) -> int:
    """floor(ratio) = a: |sinc(4s)| <= 1 / (2 sqrt s) makes the start at
    least 2q."""
    a = claim.arg.numerator
    return a if a > 0 else -1


def _cos_rise(claim: Claim) -> int:
    """floor(ratio) once a**2 >= b, for s = a/b: the gate's start b * hyper
    times the least weight, sqrt|s| or s**2 rounded up, is then at least
    sqrt(|a| b) or a**2 / b, and so at least 1."""
    a, b = claim.arg.numerator, claim.arg.denominator
    num, den = (a * a, 4) if a > 0 else (2 * a * a, 1)
    return num // den if a * a >= b else -1


_RISES = {
    ClaimKind.TAN: _tan_rise,
    ClaimKind.TAN_RATIO: _tan_ratio_rise,
    ClaimKind.PI: _pi_rise,
    ClaimKind.PI_SQUARED: _pi_squared_rise,
    ClaimKind.EXP: _exp_rise,
    ClaimKind.COS: _cos_rise,
}


def rise(claim: Claim) -> int:
    """The lower index of a claim that an engine runs on (a squared-trig
    claim's delegated cos claim)."""
    return _RISES[claim.kind](claim)


def refusal(claim: Claim):
    """(error class name, message) with which an engine refuses a degenerate
    claim it runs on, or None."""
    arg, value = claim.arg, claim.value
    if claim.kind is ClaimKind.TAN and arg == 0:
        return "DegenerateClaimError", "tan claim requires a nonzero argument"
    if claim.kind is ClaimKind.TAN_RATIO and arg == 0:
        return "DegenerateClaimError", "tan-ratio claim requires a nonzero squared argument"
    if claim.kind is ClaimKind.TAN_RATIO and arg < 0:
        return "NegativeSquareUnsupportedError", "tan-ratio claims with s < 0 are unsupported"
    if claim.kind is ClaimKind.PI and value <= 0:
        return "DegenerateClaimError", "claimed value of pi must be positive"
    if claim.kind is ClaimKind.PI_SQUARED and value <= 0:
        return "DegenerateClaimError", "claimed value of pi**2 must be positive"
    if claim.kind is ClaimKind.EXP and arg == 0:
        return "DegenerateClaimError", "exp claim requires a nonzero exponent"
    if claim.kind is ClaimKind.EXP and value <= 0:
        return "DegenerateClaimError", "claimed value of an exponential must be positive"
    if claim.kind is ClaimKind.COS and arg == 0:
        return "DegenerateClaimError", "cos claim requires a nonzero squared argument"
    return None


# --------------------------------------------------------------------------
# oracle.coefficients as one integration-by-parts pass for all six families,
# before the sin and exp kernels' rows were read off their closed form
# --------------------------------------------------------------------------

def _quotient(p: List[int], divisor: int) -> List[int]:
    """p // divisor, exact, with trailing zeros trimmed."""
    out = [c // divisor for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def coefficients_by_parts(family: IntegrandFamily, n: int) -> tuple:
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
    # is built from the top power of x down, each coefficient a polynomial in t
    # of degree <= n, holding the last order // e built.  For the cos families
    # C has the parity of k, so only its powers x**m with m = k mod 2 are built,
    # and of C(r) and S(r) = Q'(r) only the one whose powers of x are even is
    # whole and summed; the sin kernel sums Q(r) and Q'(r), the exp kernel Q(r).
    # sums[d] holds Q^(d)(r), x**m at x = r being t**(m/e).
    derivatives = (0, 1) if family is IntegrandFamily.SIN_KERNEL else (k % 2,)
    top = 2 * e * n + k
    held = [[0] * (n + 1) for _ in range(order // e)]
    sums = {d: [0] * (top // e + n + 1) for d in derivatives}
    for m in range(top, k % 2 - 1, -e):
        factor = perm(m + order, order)
        q = [-factor * c for c in held[-1]]
        i = (m - k) // e
        if i >= n:
            q[2 * n - i] += (-1) ** (i - n) * comb(n, i - n)
        held = [q] + held[:-1]
        for d, acc in sums.items():
            if m >= d:
                weight = perm(m, d)
                for power, c in enumerate(q, (m - d) // e):
                    acc[power] += weight * c
    # one exact division by n!; a negative divisor also negates
    nf = factorial(n)
    if family is IntegrandFamily.EXP_KERNEL:
        return _quotient(held[0], -nf), _quotient(sums[0], nf)
    if family is IntegrandFamily.SIN_KERNEL:
        return _quotient(held[0], nf), _quotient(sums[0], -nf), _quotient(sums[1], nf)
    # held[0] is Q's coefficient at x**(k mod 2): C(0) for the even k, S(0)
    # for the odd, and the other one is 0
    return _quotient(sums[k % 2], nf), _quotient(held[0], -nf), []


# --------------------------------------------------------------------------
# the write-back parser: every number converted, the certificate written
# back with the writer and compared byte for byte, so that the writer alone
# states the format
# --------------------------------------------------------------------------

def _document_string(value) -> str:
    # int() of JSON's Infinity or 1e400 raises OverflowError, and an fn nested
    # a thousand lists deep makes the write-back raise RecursionError
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _document_rational(value) -> Fraction:
    num, den = _document_string(value).split("/")
    return Fraction(int(num), int(den))


def _claim_from_jsonable(doc) -> Claim:
    arg = None if doc["arg"] is None else _document_rational(doc["arg"])
    return Claim(ClaimKind(doc["kind"]), arg, _document_rational(doc["value"]))


def certificate_from_json(text: str) -> Certificate:
    """Parse a document that is byte for byte ``to_canonical_json`` of the
    certificate it describes: the certificate is written back and compared,
    so the writer alone states the format.  Anything else raises ValueError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ValueError(f"not valid JSON: {exc}") from exc
    try:
        if doc["version"] != SCHEMA_VERSION:
            raise ValueError("unsupported certificate version")
        cert = Certificate(
            claim=_claim_from_jsonable(doc["claim"]),
            n=doc["n"],
            sequence=None if doc["sequence"] is None else SequenceId(doc["sequence"]),
            mode=RefutationMode(doc["mode"]),
            witness=int(_document_string(doc["witness"])),
            bound=_document_rational(doc["bound"]),
            enclosures=tuple(
                EnclosureRecord(
                    _document_string(rec["fn"]),
                    _document_rational(rec["arg"]),
                    _document_rational(rec["lo"]),
                    _document_rational(rec["hi"]),
                )
                for rec in doc["enclosures"]
            ),
            transform=None
            if doc["transform"] is None
            else TransformRecord(
                _document_string(doc["transform"]["identity"]),
                _claim_from_jsonable(doc["transform"]["delegated_claim"]),
            ),
        )
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"schema mismatch ({type(exc).__name__}: {exc})") from exc
    if to_canonical_json(cert) != text:
        raise ValueError("document is not the canonical serialization of its certificate")
    return cert


# --------------------------------------------------------------------------
# the tracks as they formed each step's coefficients from n: (4n - 2) k for
# the three-term shape, and 4n + 1, 4n + 2, 4n + 3, 2 n a and the products
# of a and b for the cos system, on the same ring operations
# --------------------------------------------------------------------------

def three_term_track_per_step(k, c, w0, w1):
    yield w0
    yield w1
    n = 2
    while True:
        w0, w1 = w1, (4 * n - 2) * k * w1 - c * w0
        yield w1
        n += 1


def tan_track_per_step(a, b, x, y):
    return three_term_track_per_step(b, a * a, x, 2 * x * b - y * a)


def pi_squared_track_per_step(a, b):
    return three_term_track_per_step(b, a * b, 2, 4 * b)


def exp_track_per_step(a, b, x, y):
    return three_term_track_per_step(-b, -a * a, y - x, x * (2 * b + a) + y * (a - 2 * b))


def tan_ratio_track_per_step(a, b, x, y):
    return three_term_track_per_step(b, 4 * a * b, x, 2 * x * b - y * b)


def cos_track_per_step(a, b):
    ab, aa = a * b, a * a
    iu, iv = b, -b
    ju, jv = b, -b
    ku, kv = a - 2 * b, 2 * b
    lu, lv = 3 * a - 6 * b, 6 * b
    yield (iu, iv), (ju, jv), (ku, kv), (lu, lv)
    n = 1
    while True:
        qu = 4 * b * lu - 2 * a * ju
        qv = 4 * b * lv - 2 * a * jv
        iu, iv = b * qu, b * qv
        nju = (4 * n + 1) * iu - 2 * ab * ku
        njv = (4 * n + 1) * iv - 2 * ab * kv
        nku = -(4 * n + 2) * nju + 2 * ab * lu
        nkv = -(4 * n + 2) * njv + 2 * ab * lv
        lu = (4 * n + 3) * nku + 2 * n * a * qu - 2 * aa * ku
        lv = (4 * n + 3) * nkv + 2 * n * a * qv - 2 * aa * kv
        ju, jv, ku, kv = nju, njv, nku, nkv
        yield (iu, iv), (ju, jv), (ku, kv), (lu, lv)
        n += 1


# --------------------------------------------------------------------------
# the check pass with the own slot's attempt tried before the witness is
# compared, and ``check_certificate`` run on it
# --------------------------------------------------------------------------

def _check_pass_attempt_first(cert, kind, engine):
    positive = kind.mode is RefutationMode.POSITIVE_SQUEEZE
    own_n, own_sequence = cert.n, cert.sequence
    kept, beaten = [], False
    for n, sequence, witness, below, attempt in engine.stream(own_n):
        if n == own_n and sequence is own_sequence:
            break
        if below and (positive or witness != 0):
            if own_n > n + 1 and engine.settles(sequence):
                return f"index past the end of the search at n={n}"
            if not beaten:
                kept.append(attempt)
                if len(kept) == certificates._MAX_KEPT_ATTEMPTS:
                    beaten = any(tried() is not None for tried in kept)
                    kept = []
    if attempt is None:
        return "decay gate not satisfied at certificate index"
    accepted = attempt()
    if accepted is None:
        return "squeeze condition fails"
    (num, den), transcript = accepted
    if cert.witness != witness:
        return "witness mismatch"
    if not positive and witness == 0:
        return "witness is zero"
    if not certificates._matches(cert.enclosures, transcript):
        return "enclosure transcript mismatch"
    if not certificates._equals(cert.bound, num, den):
        return "bound mismatch"
    if not below:
        return "squeeze condition fails"
    if beaten or any(tried() is not None for tried in kept):
        return "not the canonical certificate for this claim"
    return None


def check_certificate_attempt_first(cert):
    """``check_certificate`` with the own slot's attempt before its witness."""
    with patch.object(certificates, "_check_pass", _check_pass_attempt_first):
        return certificates.check_certificate(cert)
