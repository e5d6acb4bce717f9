"""Refutation certificates for rational claims about tan, cos, exp and pi.

A claim asserts that a transcendental value equals p/q.  Each refuter runs
the matching recurrence engine until the claim forces an integer into a
rigorously bounded sub-unit window:

* positive squeeze (pi, pi squared, exp): under the claim, the scaled
  integral b**n * I_n equals the computed witness integer, is strictly
  positive, and is at most an exact rational bound < 1 — impossible.
* nonzero squeeze (tan, tan ratio, cos and the squared-trig transforms):
  the scaled combination equals the witness integer under the claim, while
  an unconditional enclosure traps the true value inside (-1, 1); a nonzero
  witness is then impossible.  The consecutive-zero exclusion (two adjacent
  zero witnesses force p = q = 0) guarantees the search terminates.

Searches work on integers at the claim point: the witness at each index
comes from a scalar recurrence track (``recurrences.*_track``), and each bound
is a ratio start * ratio**n / n! updated one step at a time and compared with
1 by integer cross-multiplication.  No polynomial is built; the same tracks
on ``IntPoly`` serve ``irrcert table`` and the identity tests.

One kind table (``_KINDS``) gives each of the nine kinds its mode, engine,
argument (t, s = t**2 or none) and, for the squared-trig kinds, the map
from the claimed value to cos 2r; ``Claim``, the search, the checker and the
CLI read it.  Each engine streams the slots (n, sequence) of a claim in
canonical order, and one loop, ``refute``, returns the first that certifies.

Certificates record everything a checker needs: index, sequence, witness,
bound, and the enclosure transcript.  ``check_certificate`` steps the same
stream once, up to the certificate's own slot, and re-derives every number
there from the claim alone, so no stored field is trusted; it then tries the
earlier candidates' attempts, any of which would have ended the search.  All
searches and precision schedules are pure functions of the claim; rerunning
a refutation is byte-stable.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from math import factorial, gcd
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union

from .enclosure import (
    EnclosureRequest,
    Func,
    enclose,
    exp_upper_bound,
    factorial_dominance_index,
)
from .exactnum import RatInterval, format_rational, sqrt_bounds
from .recurrences import cos_track, exp_track, pi_squared_track, tan_ratio_track, tan_track

# witness integers can run to thousands of digits; lift the int/str guard
if hasattr(sys, "set_int_max_str_digits"):
    if sys.get_int_max_str_digits() < 2_000_000:
        sys.set_int_max_str_digits(2_000_000)

SCHEMA_VERSION = 1

_DEFAULT_TARGET_WIDTH = Fraction(1, 1 << 64)
_MAX_ZERO_EXCLUSION_HALVINGS = 64
_MAX_SUBSET_HALVINGS = 512
_MAX_KEPT_ATTEMPTS = 64


class ClaimKind(Enum):
    TAN = "tan"
    TAN_RATIO = "tan_ratio"
    PI = "pi"
    PI_SQUARED = "pi_squared"
    COS = "cos"
    EXP = "exp"
    SIN_SQ = "sin_sq"
    COS_SQ = "cos_sq"
    TAN_SQ = "tan_sq"


@dataclass(frozen=True)
class Claim:
    """One rational claim, e.g. tan(a/b) = p/q; stored in lowest terms."""

    kind: ClaimKind
    arg: Optional[Fraction]
    value: Fraction

    def __post_init__(self):
        if self.arg is not None:
            object.__setattr__(self, "arg", Fraction(self.arg))
        object.__setattr__(self, "value", Fraction(self.value))
        argless = _KINDS[self.kind].arg is None
        if (self.arg is None) != argless:
            raise ValueError(f"claim kind {self.kind.value} "
                             f"{'takes no' if argless else 'requires an'} argument")


class SequenceId(Enum):
    I = "I"
    J = "J"
    K = "K"
    L = "L"


class RefutationMode(Enum):
    POSITIVE_SQUEEZE = "positive_squeeze"
    NONZERO_SQUEEZE = "nonzero_squeeze"


@dataclass(frozen=True)
class EnclosureRecord:
    """One enclosure actually used by a certificate (fn, argument, interval)."""

    fn: str
    arg: Fraction
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class TransformRecord:
    """Identity used to reduce a squared-trig claim to a cos claim."""

    identity: str
    delegated: Claim


@dataclass(frozen=True)
class Certificate:
    claim: Claim
    n: int
    sequence: Optional[SequenceId]
    mode: RefutationMode
    witness: int
    bound: Fraction
    enclosures: Tuple[EnclosureRecord, ...]
    transform: Optional[TransformRecord]


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: Optional[str] = None


class RefutationError(Exception):
    """Base class for refusal to emit a certificate."""


class DegenerateClaimError(RefutationError):
    """The claim is outside the engines' hypotheses (e.g. argument zero)."""


class NegativeSquareUnsupportedError(RefutationError):
    """tan-ratio claims with s < 0 are not supported."""


class SinZeroUnresolvedError(RefutationError):
    """Could not bound sin r (or sinc) away from zero at maximum precision."""


class InconclusiveError(RefutationError):
    """n_cap was reached without an accepted (n, witness) pair."""

    def __init__(
        self,
        last_n: int,
        last_bound: Optional[Fraction],
        largest_bound: Optional[Fraction],
    ):
        self.last_n = last_n
        self.last_bound = last_bound
        self.largest_bound = largest_bound
        shown = format_rational(largest_bound) if largest_bound is not None else "none"
        super().__init__(f"no certificate up to n={last_n} (largest bound seen: {shown})")


def _resolve_width(target_width: Optional[Fraction]) -> Fraction:
    if target_width is None:
        return _DEFAULT_TARGET_WIDTH
    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target width must be positive")
    return width


def _enclosure_away_from_zero(
    fn: Func, arg: Fraction, start_width: Fraction
) -> Tuple[RatInterval, EnclosureRecord]:
    """Deterministic zero-excluding enclosure: halve the width until the
    interval no longer straddles zero."""
    width = start_width
    for _ in range(_MAX_ZERO_EXCLUSION_HALVINGS):
        iv = enclose(EnclosureRequest(fn, arg, width))
        if not iv.contains_zero():
            return iv, EnclosureRecord(fn.value, arg, iv.lo, iv.hi)
        width /= 2
    raise SinZeroUnresolvedError(
        f"{fn.value}({arg}) not separable from zero at width {width}"
    )


def _sqrt_record(x: Fraction) -> Tuple[Fraction, EnclosureRecord]:
    iv = sqrt_bounds(x)
    return iv.hi, EnclosureRecord("sqrt", x, iv.lo, iv.hi)


class _Decay:
    """The bound start * ratio**n / n!, stepped one index at a time.

    It is kept as an unreduced integer pair num/den and compared with 1 by
    cross-multiplication; a Fraction is built only for a value that leaves
    the search.
    """

    __slots__ = ("start", "ratio", "ratio_num", "ratio_den", "num", "den", "n")

    def __init__(self, start: Fraction, ratio: Fraction):
        self.start, self.ratio = start, ratio
        # plain ints: Fraction.numerator is a property call on every step
        self.ratio_num, self.ratio_den = ratio.numerator, ratio.denominator
        self.num, self.den = start.numerator, start.denominator
        self.n = 0

    def step(self) -> None:
        n = self.n = self.n + 1
        self.num *= self.ratio_num
        self.den *= self.ratio_den * n

    def below_one(self, weight: Fraction) -> bool:
        """Whether bound * weight < 1."""
        return self.num * weight.numerator < self.den * weight.denominator

    def value(self, weight: Fraction = Fraction(1)) -> Fraction:
        return Fraction(self.num, self.den) * weight

    def inconclusive(
        self, n_cap: int, weight: Fraction = Fraction(1), peak_weight: Fraction = Fraction(1)
    ) -> InconclusiveError:
        """The diagnostic after stepping to n_cap.  The step factor ratio/n
        falls with n, so the bound rises while it is >= 1 and falls after:
        the largest bound up to n_cap is the one at m = min(n_cap, ratio)."""
        if n_cap < 0:
            return InconclusiveError(n_cap, None, None)
        m = min(n_cap, self.ratio_num // self.ratio_den)
        peak = self.start * self.ratio ** m / factorial(m)
        return InconclusiveError(n_cap, self.value(weight), peak * peak_weight)


# --------------------------------------------------------------------------
# engines.  Each one streams the slots (n, sequence) of one claim in
# canonical search order, up to a cap, as tuples
#     (n, sequence, witness, below, attempt):
# ``witness`` is the integer the claim forces at the slot, ``below`` whether
# the slot's bound (or the cos decay gate) is below 1, and ``attempt()``
# returns (bound, enclosures) or None when the slot cannot be certified.  The
# attempt of a slot that is below 1 holds that slot's numbers and stays valid
# after the stream moves on, so the checker can keep it; any other attempt
# is valid only at its slot.  A cos slot whose gate is not below 1 has no
# witness and no attempt (both None).  An engine streams once.
# --------------------------------------------------------------------------

class _ThreeTerm:
    """One claim on a three-term engine: the integer the claim forces at
    each index, the bound on it, and the enclosures the certificate records.
    Its attempts always succeed."""

    def __init__(
        self, witnesses: Iterator[int], bound: _Decay, enclosures: Tuple[EnclosureRecord, ...]
    ):
        self.witnesses, self.bound, self.enclosures = witnesses, bound, enclosures

    def stream(self, n_cap: int) -> Iterator[tuple]:
        bound, witnesses, accept, live = self.bound, self.witnesses, self._accept, self._accept_live
        for n in range(n_cap + 1):
            if n:
                bound.step()
            num, den = bound.num, bound.den
            below = num < den  # bound < 1, without below_one's multiplications by 1
            yield n, None, next(witnesses), below, partial(accept, num, den) if below else live

    def _accept(self, num: int, den: int) -> Tuple[Fraction, Tuple[EnclosureRecord, ...]]:
        return Fraction(num, den), self.enclosures

    def _accept_live(self) -> Tuple[Fraction, Tuple[EnclosureRecord, ...]]:
        return self._accept(self.bound.num, self.bound.den)

    def default_cap(self) -> int:
        return 4 * factorial_dominance_index(self.bound.ratio, 1 / self.bound.start) + 4

    def inconclusive(self, n_cap: int) -> InconclusiveError:
        return self.bound.inconclusive(n_cap)


# --------------------------------------------------------------------------
# tan engine: claim tan(t) = p/q, t = a/b != 0.  With r = 2t, the scaled
# combination B**n (p u_n(r) + q v_n(r)) equals B**n q csc(r) I_n under the
# claim; the tail bound |I_n| <= r (r**2/4)**n / n! and a zero-excluded sin
# enclosure trap it in (-1, 1).
# --------------------------------------------------------------------------

def _tan_engine(claim: Claim, width: Fraction) -> _ThreeTerm:
    t = claim.arg
    if t == 0:
        raise DegenerateClaimError("tan claim requires a nonzero argument")
    value = claim.value
    if t < 0:  # tan is odd
        t, value = -t, -value
    r = 2 * t
    sin_iv, sin_record = _enclosure_away_from_zero(Func.SIN, r, width)
    p, q, a, b = value.numerator, value.denominator, r.numerator, r.denominator
    return _ThreeTerm(
        tan_track(a, b, p, q),
        _Decay(q * r / sin_iv.min_abs(), Fraction(a * a, 4 * b)),
        (sin_record,),
    )


# --------------------------------------------------------------------------
# pi engine: claim pi = a/b > 0.  Under the claim b**n P_n(a/b) is the
# integer value of b**n I_n, which is strictly positive and at most
# B_n = b**n (a/b) ((a/b)**2/4)**n / n! — an integer in (0, 1) once B_n < 1.
# --------------------------------------------------------------------------

def _pi_engine(claim: Claim, width: Fraction) -> _ThreeTerm:
    value = claim.value
    if value <= 0:
        raise DegenerateClaimError("claimed value of pi must be positive")
    a, b = value.numerator, value.denominator
    return _ThreeTerm(tan_track(a, b, 2, 0), _Decay(value, Fraction(a * a, 4 * b)), ())


# --------------------------------------------------------------------------
# pi-squared engine: claim pi**2 = a/b > 0.  P_n has only even powers, so
# P_n(t) = Q_n(t**2) and b**n Q_n(a/b) is an integer (deg Q_n <= n).  The
# tail bound needs a rational stand-in for pi = sqrt(a/b) under the claim;
# the sqrt over-approximation goes into the transcript.
# --------------------------------------------------------------------------

def _pi_squared_engine(claim: Claim, width: Fraction) -> _ThreeTerm:
    value = claim.value
    if value <= 0:
        raise DegenerateClaimError("claimed value of pi**2 must be positive")
    root_hi, record = _sqrt_record(value)
    a, b = value.numerator, value.denominator
    return _ThreeTerm(pi_squared_track(a, b), _Decay(root_hi, Fraction(a, 4)), (record,))


# --------------------------------------------------------------------------
# exp engine: claim e**(a/b) = p/q.  Normalized to a > 0 via e**-r = 1/e**r;
# the claimed value must then be positive.  Under the claim the integer
# b**n (q u_n + p v_n)(a/b) equals b**n q I_n with 0 < I_n and the kernel
# bound gives b**n q I_n <= p b**n r (r**2/4)**n / n! — hypothesis-
# conditional, exact, and rational.
# --------------------------------------------------------------------------

def _exp_engine(claim: Claim, width: Fraction) -> _ThreeTerm:
    t = claim.arg
    if t == 0:
        raise DegenerateClaimError("exp claim requires a nonzero exponent")
    value = claim.value
    if value <= 0:
        raise DegenerateClaimError("claimed value of an exponential must be positive")
    if t < 0:
        t, value = -t, 1 / value
    p, q, a, b = value.numerator, value.denominator, t.numerator, t.denominator
    return _ThreeTerm(exp_track(a, b, q, p), _Decay(p * t, Fraction(a * a, 4 * b)), ())


# --------------------------------------------------------------------------
# tan-ratio engine: claim tan(t)/t = p/q with s = t**2 = a/b > 0.  The tan
# polynomials split by parity, u_n(r) = U_n(r**2) and v_n(r) = r V_n(r**2);
# with r = 2t this gives the integer b**n (p U_n(4s) + 2 q V_n(4s)), equal
# under the claim to (q/t) csc(r) I_n.  Division by t sin(2t) = 2 s sinc
# keeps everything inside rationals-of-s: with |I_n| <= 2 sqrt(s) s**n / n!
# the bound is q sqrt(s) a**n / (s sinc(4s) n!).
# --------------------------------------------------------------------------

def _tan_ratio_engine(claim: Claim, width: Fraction) -> _ThreeTerm:
    s = claim.arg
    if s == 0:
        raise DegenerateClaimError("tan-ratio claim requires a nonzero squared argument")
    if s < 0:
        raise NegativeSquareUnsupportedError("tan-ratio claims with s < 0 are unsupported")
    sinc_iv, sinc_record = _enclosure_away_from_zero(Func.SINC_FROM_S, 4 * s, width)
    root_hi, sqrt_rec = _sqrt_record(s)
    p, q, a, b = claim.value.numerator, claim.value.denominator, s.numerator, s.denominator
    return _ThreeTerm(
        tan_ratio_track(a, b, p, 2 * q),
        _Decay(q * root_hi / (s * sinc_iv.min_abs()), Fraction(a)),
        (sinc_record, sqrt_rec),
    )


# --------------------------------------------------------------------------
# cos system: claim cos r = p/q with s = r**2 = a/b (either sign; s < 0 is
# the hyperbolic case cosh).  For each sequence X_n = u_n(s) + v_n(s) cos r,
# the integer b**(2n+1) (q u_n + p v_n)(s) equals b**(2n+1) q X_n under the
# claim; enclosing cos r from s makes the true value's window exact.
# --------------------------------------------------------------------------

# sequence k of this order has weight power k
_COS_SEQUENCE_ORDER = (SequenceId.I, SequenceId.J, SequenceId.K, SequenceId.L)


class _CosSystem:
    """One cos claim on the I/J/K/L system: at each index the four sequences
    in order, each attempted once its decay gate times its weight is below 1,
    so the certificate's n sits past the tail crossing."""

    def __init__(self, claim: Claim, width: Fraction):
        s = claim.arg
        if s == 0:
            raise DegenerateClaimError("cos claim requires a nonzero squared argument")
        self.p, self.q = claim.value.numerator, claim.value.denominator
        self.s, self.width = s, width
        root_hi = sqrt_bounds(abs(s)).hi
        # the tail bound of the sequence with weight power k is
        # weights[k] * (s**2/4)**n / n! for s > 0, and
        # weights[k] * hyper * (2 s**2)**n / n! for s < 0, where hyper is a
        # rational upper bound on e**sqrt(-s)
        self.weights = tuple(root_hi ** (k + 1) for k in range(4))
        hyper = exp_upper_bound(root_hi) if s < 0 else Fraction(1)
        # the gate is b**(2n+1) * tail bound without the weight factor
        a, b = s.numerator, s.denominator
        ratio = Fraction(a * a, 4) if a > 0 else Fraction(2 * a * a)
        self.gate = _Decay(b * hyper, ratio)

    def stream(self, n_cap: int) -> Iterator[tuple]:
        p, q, gate, weights = self.p, self.q, self.gate, self.weights
        least = min(weights)
        tracks = cos_track(self.s.numerator, self.s.denominator)
        for n in range(n_cap + 1):
            if n:
                gate.step()
            values = next(tracks)
            # no gate is below 1 while the one with the least weight is not
            open_ = gate.below_one(least)
            for k, seq_id in enumerate(_COS_SEQUENCE_ORDER):
                if open_ and gate.below_one(weights[k]):
                    u, v = values[2 * k], values[2 * k + 1]
                    yield n, seq_id, q * u + p * v, True, partial(self._attempt, u, v)
                else:
                    yield n, seq_id, None, False, None

    def _attempt(self, u: int, v: int) -> Optional[Tuple[Fraction, Tuple[EnclosureRecord, ...]]]:
        """Adaptive subset-of-(-1,1) test for q (u + v cos r), where u and v
        are a sequence's coordinates already scaled by b**(2n+1).

        Returns (bound, (cos enclosure record,)) on success, None if the
        scaled value is provably outside or the width floor is hit while
        straddling."""
        qu, qv = self.q * u, self.q * v
        # a width-w cos enclosure becomes a value window of width w |q v|, so
        # divide the coefficient out up front; the halvings below then only fire
        # when the true value sits within the start width of the unit boundary
        width = self.width / max(1, 2 * abs(qv))
        for _ in range(_MAX_SUBSET_HALVINGS):
            cos_iv = enclose(EnclosureRequest(Func.COS_FROM_S, self.s, width))
            value_iv = cos_iv.scale(qv).translate(qu)
            if value_iv.is_inside_open_unit():
                record = EnclosureRecord(Func.COS_FROM_S.value, self.s, cos_iv.lo, cos_iv.hi)
                return value_iv.max_abs(), (record,)
            if value_iv.lo >= 1 or value_iv.hi <= -1:
                return None
            width /= 2
        return None

    def default_cap(self) -> int:
        gate = self.gate
        prefactor = self.q * max(self.weights[0], 1) ** 4 * gate.start
        return 4 * factorial_dominance_index(gate.ratio, 1 / prefactor) + 8

    def inconclusive(self, n_cap: int) -> InconclusiveError:
        # the gates at n_cap ended with L's; the largest is at the bound's
        # peak, with the largest weight
        weights = self.weights
        return self.gate.inconclusive(n_cap, weights[3], max(weights[0], weights[3]))


_Engine = Union[_ThreeTerm, _CosSystem]


# --------------------------------------------------------------------------
# squared-trig transforms: sin**2, cos**2 and tan**2 claims reduce to a cos
# claim at (2r)**2 = 4s through the double-angle identities
#   cos 2r = 1 - 2 sin**2 r = 2 cos**2 r - 1 = (1 - tan**2 r)/(1 + tan**2 r).
# --------------------------------------------------------------------------

def _tan_sq_to_cos(value: Fraction) -> Fraction:
    if value == -1:
        raise DegenerateClaimError("tan**2 = -1 leaves cos 2r undefined")
    return (1 - value) / (1 + value)


class _Kind(NamedTuple):
    """What the kind table knows of a claim kind before seeing a claim."""

    mode: RefutationMode
    sequenced: bool  # certificates name an I/J/K/L sequence
    engine: Callable[[Claim, Fraction], _Engine]
    arg: Optional[str]  # the argument: "t", "s" = t**2, or None
    # squared-trig kinds only: the claimed value mapped to the value of cos 2r
    to_cos: Optional[Callable[[Fraction], Fraction]] = None


_NONZERO, _POSITIVE = RefutationMode.NONZERO_SQUEEZE, RefutationMode.POSITIVE_SQUEEZE

_KINDS = {
    ClaimKind.TAN: _Kind(_NONZERO, False, _tan_engine, "t"),
    ClaimKind.TAN_RATIO: _Kind(_NONZERO, False, _tan_ratio_engine, "s"),
    ClaimKind.PI: _Kind(_POSITIVE, False, _pi_engine, None),
    ClaimKind.PI_SQUARED: _Kind(_POSITIVE, False, _pi_squared_engine, None),
    ClaimKind.EXP: _Kind(_POSITIVE, False, _exp_engine, "t"),
    ClaimKind.COS: _Kind(_NONZERO, True, _CosSystem, "s"),
    ClaimKind.SIN_SQ: _Kind(_NONZERO, True, _CosSystem, "s", lambda value: 1 - 2 * value),
    ClaimKind.COS_SQ: _Kind(_NONZERO, True, _CosSystem, "s", lambda value: 2 * value - 1),
    ClaimKind.TAN_SQ: _Kind(_NONZERO, True, _CosSystem, "s", _tan_sq_to_cos),
}


def _delegate(claim: Claim) -> Tuple[Claim, Optional[TransformRecord]]:
    """The claim an engine runs on, and the transform record that reduces a
    squared-trig claim to it (None for the other kinds).  The search and the
    checker both start here."""
    to_cos = _KINDS[claim.kind].to_cos
    if to_cos is None:
        return claim, None
    if claim.arg == 0:
        raise DegenerateClaimError("squared-trig claim requires a nonzero squared argument")
    delegated = Claim(ClaimKind.COS, 4 * claim.arg, to_cos(claim.value))
    return delegated, TransformRecord(identity=claim.kind.value, delegated=delegated)


def refute(
    claim: Claim,
    n_cap: Optional[int] = None,
    target_width: Optional[Fraction] = None,
) -> Certificate:
    """The canonical certificate: the first slot of the claim's stream that
    is a candidate and whose attempt succeeds.  A candidate's bound (or
    gate) is below 1 and, for the nonzero squeeze, its witness is nonzero.
    Deterministic for fixed claim/cap/width."""
    engine_claim, transform = _delegate(claim)
    kind = _KINDS[claim.kind]
    engine = kind.engine(engine_claim, _resolve_width(target_width))
    if n_cap is None:
        n_cap = engine.default_cap()
    positive = kind.mode is RefutationMode.POSITIVE_SQUEEZE
    for n, sequence, witness, below, attempt in engine.stream(n_cap):
        if below and (positive or witness != 0):
            accepted = attempt()
            if accepted is not None:
                bound, enclosures = accepted
                return Certificate(
                    claim=claim,
                    n=n,
                    sequence=sequence,
                    mode=kind.mode,
                    witness=witness,
                    bound=bound,
                    enclosures=enclosures,
                    transform=transform,
                )
    raise engine.inconclusive(n_cap)


# --------------------------------------------------------------------------
# checker: re-derives every stored number from the claim in one pass of the
# same stream, and settles canonicity from the attempts of the earlier
# candidates.  Nothing in the certificate is trusted.
# --------------------------------------------------------------------------

def _check_structure(cert: Certificate) -> Optional[str]:
    if cert.n < 0:
        return f"malformed: negative index n={cert.n}"
    kind = _KINDS[cert.claim.kind]
    if cert.mode is not kind.mode:
        return f"mode mismatch: {cert.claim.kind.value} requires {kind.mode.value}"
    if kind.sequenced and cert.sequence is None:
        return "malformed: missing sequence id"
    if not kind.sequenced and cert.sequence is not None:
        return "malformed: unexpected sequence id"
    if (cert.transform is None) != (kind.to_cos is None):
        return "malformed: transform record does not match claim kind"
    return None


def _check_pass(
    cert: Certificate, kind: _Kind, engine: _Engine, new_engine: Callable[[], _Engine]
) -> Optional[str]:
    """Step the stream to the certificate's own (n, sequence) and re-derive
    its fields there.  If they all reproduce, try the attempts of the
    earlier candidates in stream order: the search would have stopped at
    any that succeeds.  Returns the first problem found, or None."""
    positive = kind.mode is RefutationMode.POSITIVE_SQUEEZE
    own_n, own_sequence = cert.n, cert.sequence
    # an attempt holds its slot's integers, so only the first
    # _MAX_KEPT_ATTEMPTS are kept and memory stays linear in n
    kept, more = [], False
    for n, sequence, witness, below, attempt in engine.stream(own_n):
        if n == own_n and sequence is own_sequence:
            break
        if below and (positive or witness != 0):
            if len(kept) < _MAX_KEPT_ATTEMPTS:
                kept.append(attempt)
            else:
                more = True
    if attempt is None:
        return "decay gate not satisfied at certificate index"
    accepted = attempt()
    if accepted is None:
        return "squeeze condition fails"
    bound, enclosures = accepted
    if cert.witness != witness:
        return "witness mismatch"
    if not positive and witness == 0:
        return "witness is zero"
    if cert.enclosures != enclosures:
        return "enclosure transcript mismatch"
    if cert.bound != bound:
        return "bound mismatch"
    if not below:
        return "squeeze condition fails"
    if more:
        # the candidates past the kept ones, reached by a second pass
        rest = _earlier_attempts(cert, positive, new_engine())
        kept = chain(kept, islice(rest, _MAX_KEPT_ATTEMPTS, None))
    if any(tried() is not None for tried in kept):
        return "not the canonical certificate for this claim"
    return None


def _earlier_attempts(cert: Certificate, positive: bool, engine: _Engine) -> Iterator[Callable]:
    """The attempts of the candidate slots before the certificate's own."""
    for n, sequence, witness, below, attempt in engine.stream(cert.n):
        if n == cert.n and sequence is cert.sequence:
            return
        if below and (positive or witness != 0):
            yield attempt


def check_certificate(
    cert: Certificate, target_width: Optional[Fraction] = None
) -> CheckResult:
    """VALID iff every stored field reproduces from the claim alone and the
    certificate is the canonical search result for its claim.

    One pass of the claim's stream re-derives the fields at the
    certificate's own (n, sequence) and keeps the attempts of the earlier
    candidates (past the first ``_MAX_KEPT_ATTEMPTS``, a second pass reaches
    the rest).  The search stops at the first candidate whose attempt
    succeeds, so once the own fields reproduce, the certificate is canonical
    exactly when every earlier attempt fails; the search is never rerun.

    A certificate produced with a non-default target width verifies only
    when the same width is passed here; the replay is claim-driven.
    """
    width = _resolve_width(target_width)
    problem = _check_structure(cert)
    if problem is not None:
        return CheckResult(False, problem)
    try:
        claim, transform = _delegate(cert.claim)
    except RefutationError as exc:
        return CheckResult(False, f"claim rejected on replay: {exc}")
    if cert.transform != transform:
        return CheckResult(False, "transform mismatch")
    kind = _KINDS[cert.claim.kind]
    try:
        engine = kind.engine(claim, width)
    except RefutationError as exc:
        return CheckResult(False, f"claim rejected on replay: {exc}")
    problem = _check_pass(cert, kind, engine, partial(kind.engine, claim, width))
    return CheckResult(problem is None, problem)


# --------------------------------------------------------------------------
# canonical JSON serialization (version 1): sorted keys, no whitespace,
# integers and rationals as decimal strings — byte-stable across runs.
# --------------------------------------------------------------------------

def _claim_to_jsonable(claim: Claim) -> dict:
    return {
        "kind": claim.kind.value,
        "arg": None if claim.arg is None else format_rational(claim.arg),
        "value": format_rational(claim.value),
    }


def certificate_to_jsonable(cert: Certificate) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "claim": _claim_to_jsonable(cert.claim),
        "n": cert.n,
        "sequence": None if cert.sequence is None else cert.sequence.value,
        "mode": cert.mode.value,
        "witness": str(cert.witness),
        "bound": format_rational(cert.bound),
        "enclosures": [
            {
                "fn": rec.fn,
                "arg": format_rational(rec.arg),
                "lo": format_rational(rec.lo),
                "hi": format_rational(rec.hi),
            }
            for rec in cert.enclosures
        ],
        "transform": None
        if cert.transform is None
        else {
            "identity": cert.transform.identity,
            "delegated_claim": _claim_to_jsonable(cert.transform.delegated),
        },
    }
    return doc


def to_canonical_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_jsonable(cert), sort_keys=True, separators=(",", ":"))


# documents accept only what serialization emits: integers without signs,
# leading zeros, underscores or whitespace, and rationals "num/den" in lowest
# terms with a positive denominator (command-line parsing stays lenient)
_CANONICAL_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def _document_integer(text, field: str) -> int:
    if not isinstance(text, str) or _CANONICAL_INTEGER.fullmatch(text) is None:
        raise ValueError(f"{field} must be a canonical decimal integer string")
    return int(text)


def _document_rational(text, field: str) -> Fraction:
    if not isinstance(text, str) or text.count("/") != 1:
        raise ValueError(f"{field} must be a rational string num/den")
    num, den = (_document_integer(part, field) for part in text.split("/"))
    if den <= 0 or gcd(num, den) != 1:
        raise ValueError(f"{field} must be in lowest terms with a positive denominator")
    return Fraction(num, den)


def _claim_from_jsonable(doc) -> Claim:
    if not isinstance(doc, dict) or set(doc) != {"kind", "arg", "value"}:
        raise ValueError("malformed claim object")
    kind = ClaimKind(doc["kind"])
    arg = None if doc["arg"] is None else _document_rational(doc["arg"], "claim argument")
    return Claim(kind, arg, _document_rational(doc["value"], "claimed value"))


def certificate_from_json(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    expected_keys = {
        "version", "claim", "n", "sequence", "mode",
        "witness", "bound", "enclosures", "transform",
    }
    if set(doc) != expected_keys:
        raise ValueError("certificate object has unexpected structure")
    if type(doc["version"]) is not int or doc["version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported certificate version {doc['version']!r}")
    claim = _claim_from_jsonable(doc["claim"])
    if not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
        raise ValueError("index n must be an integer")
    sequence = None if doc["sequence"] is None else SequenceId(doc["sequence"])
    mode = RefutationMode(doc["mode"])
    witness = _document_integer(doc["witness"], "witness")
    bound = _document_rational(doc["bound"], "bound")
    if not isinstance(doc["enclosures"], list):
        raise ValueError("enclosures must be a list")
    records = []
    for rec in doc["enclosures"]:
        if not isinstance(rec, dict) or set(rec) != {"fn", "arg", "lo", "hi"}:
            raise ValueError("malformed enclosure record")
        records.append(
            EnclosureRecord(
                rec["fn"],
                _document_rational(rec["arg"], "enclosure argument"),
                _document_rational(rec["lo"], "enclosure bound"),
                _document_rational(rec["hi"], "enclosure bound"),
            )
        )
    transform = None
    if doc["transform"] is not None:
        tr = doc["transform"]
        if not isinstance(tr, dict) or set(tr) != {"identity", "delegated_claim"}:
            raise ValueError("malformed transform record")
        transform = TransformRecord(tr["identity"], _claim_from_jsonable(tr["delegated_claim"]))
    return Certificate(
        claim=claim,
        n=doc["n"],
        sequence=sequence,
        mode=mode,
        witness=witness,
        bound=bound,
        enclosures=tuple(records),
        transform=transform,
    )
