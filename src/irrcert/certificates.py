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
  zero witnesses force p = q = 0) and, for the cos system, the descent
  identity guarantee that the search terminates, so it needs no cap.

Searches work on integers at the claim point: the witness at each index
comes from a scalar recurrence track (``recurrences.*_track``), and each bound
is a ratio start * ratio**n / n! compared with 1 by integer
cross-multiplication.  While a bound is not below 1 no slot can certify, so
the bound jumps in closed form to the index where it crosses 1 and the track
is advanced to it without yielding a slot; past the crossing both step one
index at a time.  No polynomial is built.

One kind table (``_KINDS``) gives each of the nine kinds its mode, engine,
argument (t, s = t**2 or none) and, for the squared-trig kinds, the map
from the claimed value to cos 2r; ``Claim``, the search, the checker and the
CLI read it.  Each engine streams the slots (n, sequence) of a claim in
canonical order, and one loop, ``refute``, returns the first that certifies.

Certificates record everything a checker needs: index, sequence, witness,
bound, and the enclosure transcript.  ``check_certificate`` steps the same
stream once, up to the certificate's own slot, and re-derives every number
there from the claim alone, so no stored field is trusted; on the way it
tries the earlier candidates' attempts, any of which would have ended the
search.  It steps no further than the first slot whose attempt must
succeed, and for the kinds whose bound starts at 1 or more it rejects an
index below the bound's peak before building any enclosure.  All searches
and precision schedules are pure functions of the claim; rerunning a
refutation is byte-stable.

An attempt gives its bound as an unreduced integer pair, and its enclosures
as integer windows (fn, arg, lo, hi, den); the search reduces the one it
returns, and the checker compares the certificate's values with them by
cross-multiplication.  ``certificate_from_json`` checks a document in order
of cost on its own strings, and converts its numbers only once every cheaper
check has passed; it never calls the writer.
"""

from __future__ import annotations

import json
import re
import sys
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import islice
from math import factorial, gcd, lgamma, log
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union

from .enclosure import Func, enclose, even_series, exp_upper_bound
from .exactnum import format_rational, sqrt_bounds
from .recurrences import cos_track, exp_track, pi_squared_track, tan_ratio_track, tan_track

# witness integers can run to thousands of digits; lift the int/str guard
if hasattr(sys, "set_int_max_str_digits"):
    if sys.get_int_max_str_digits() < 2_000_000:
        sys.set_int_max_str_digits(2_000_000)

SCHEMA_VERSION = 1

_DEFAULT_TARGET_WIDTH = Fraction(1, 1 << 64)
_MAX_ZERO_EXCLUSION_HALVINGS = 64
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


class _ClaimFields(NamedTuple):
    kind: ClaimKind
    arg: Optional[Fraction]
    value: Fraction


class Claim(_ClaimFields):
    """One rational claim, e.g. tan(a/b) = p/q; stored in lowest terms."""

    __slots__ = ()

    def __new__(cls, kind: ClaimKind, arg: Optional[Fraction], value: Fraction) -> "Claim":
        # Fraction() of a Fraction goes through the slow ABC isinstance path
        if arg is not None and type(arg) is not Fraction:
            arg = Fraction(arg)
        value = value if type(value) is Fraction else Fraction(value)
        argless = _KINDS[kind].arg is None
        if (arg is None) != argless:
            raise ValueError(f"claim kind {kind.value} "
                             f"{'takes no' if argless else 'requires an'} argument")
        return tuple.__new__(cls, (kind, arg, value))

    @classmethod
    def _make(cls, iterable) -> "Claim":
        # so that _replace validates the new fields too
        return cls(*iterable)


class SequenceId(Enum):
    # definition order is the cos system's order: sequence k has weight z**k
    I = "I"
    J = "J"
    K = "K"
    L = "L"


class RefutationMode(Enum):
    POSITIVE_SQUEEZE = "positive_squeeze"
    NONZERO_SQUEEZE = "nonzero_squeeze"


class EnclosureRecord(NamedTuple):
    """One enclosure actually used by a certificate (fn, argument, interval)."""

    fn: str
    arg: Fraction
    lo: Fraction
    hi: Fraction


class TransformRecord(NamedTuple):
    """Identity used to reduce a squared-trig claim to a cos claim."""

    identity: str
    delegated: Claim


class Certificate(NamedTuple):
    claim: Claim
    n: int
    sequence: Optional[SequenceId]
    mode: RefutationMode
    witness: int
    bound: Fraction
    enclosures: Tuple[EnclosureRecord, ...]
    transform: Optional[TransformRecord]


class CheckResult(NamedTuple):
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
    """An explicit n_cap was reached without an accepted (n, witness) pair."""

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


def _enclosure_away_from_zero(fn: Func, arg: Fraction) -> Tuple[Tuple[int, int], tuple]:
    """Deterministic zero-excluding enclosure: halve the width from the
    default until the window no longer straddles zero.  Returns the least
    |x| over it as a (num, den) pair, and the window (fn, arg, lo, hi, den)."""
    width_num, width_den = _DEFAULT_TARGET_WIDTH.numerator, _DEFAULT_TARGET_WIDTH.denominator
    for halvings in range(_MAX_ZERO_EXCLUSION_HALVINGS):
        width = Fraction(width_num, width_den << halvings)
        lo, hi, den = enclose(fn, arg, width)
        if lo > 0 or hi < 0:
            return (lo if lo > 0 else -hi, den), (fn.value, arg, lo, hi, den)
    raise SinZeroUnresolvedError(f"{fn.value}({arg}) not separable from zero at width {width}")


def _sqrt_window(x: Fraction) -> Tuple[Tuple[int, int], tuple]:
    """The upper bound on sqrt(x) as a (num, den) pair, and the window
    ("sqrt", x, lo, hi, den)."""
    lo, hi, den = sqrt_bounds(x)
    return (hi, den), ("sqrt", x, lo, hi, den)


class _Decay:
    """The bound start * ratio**n / n! at an index n, for a start and a ratio
    given as (num, den) pairs of positive integers.

    It is kept as the unreduced integer pair num/den = start_num * rn**n over
    start_den * rd**n * n!, whether reached by ``step`` or by ``seek``, and
    compared with 1 by cross-multiplication.  Weights are (num, den) pairs
    too; a Fraction is built only for a value that leaves the search.
    """

    __slots__ = ("start", "ratio", "ratio_num", "ratio_den", "num", "den", "n")

    def __init__(self, start: Tuple[int, int], ratio: Tuple[int, int]):
        # the ratio in lowest terms, so that stepping carries no common factor
        divisor = gcd(*ratio)
        self.ratio_num, self.ratio_den = ratio[0] // divisor, ratio[1] // divisor
        self.start, self.ratio = start, (self.ratio_num, self.ratio_den)
        self.num, self.den = start
        self.n = 0

    def step(self) -> None:
        n = self.n = self.n + 1
        self.num *= self.ratio_num
        self.den *= self.ratio_den * n

    def _pair(self, m: int) -> Tuple[int, int]:
        """(num, den) at index m, in closed form: the pair stepping builds."""
        num, den = self.start
        return num * self.ratio_num ** m, den * self.ratio_den ** m * factorial(m)

    def seek(self, weight: Tuple[int, int], limit: int) -> None:
        """Jump to the first index in (n, limit] where bound * weight < 1, or
        to limit if there is none; bound * weight must not be below 1 at n.

        The step factor ratio/m falls with m, so the bound rises to its peak
        at m = floor(ratio) and falls after; an index past n that is below 1
        lies past the peak, and so does every later one.  The test is thus
        false and then true for good on (n, limit], and integer probes find
        the switch.  A float guess g only places the first probes: g - 1 in
        closed form (the pair at n when g - 1 = n), then g one step on; they
        decide it whenever g is right."""
        wn, wd = weight
        pairs = {}

        def below(m: int) -> bool:
            num, den = pairs[m] = self._pair(m)
            return num * wn < den * wd

        n = self.n
        guess = min(limit, max(n + 1, self._guess(weight, limit)))
        if guess - 1 > n and below(guess - 1):
            m = _first_true(below, n, guess - 1)
        else:
            num, den = pairs[guess - 1] if guess - 1 > n else (self.num, self.den)
            num, den = pairs[guess] = num * self.ratio_num, den * self.ratio_den * guess
            if num * wn < den * wd:
                m = guess
            else:
                m = min(limit, _first_true(below, guess, limit + 1))
        self.n = m
        self.num, self.den = pairs[m]

    def _guess(self, weight: Tuple[int, int], limit: int) -> int:
        """The same switch as ``seek`` finds, on the float logarithm
        log(start * weight) + m log(ratio) - lgamma(m + 1); it may be off."""
        (num, den), (wn, wd) = self.start, weight
        log_start = log(num * wn) - log(den * wd)
        log_ratio = log(self.ratio_num) - log(self.ratio_den)
        return _first_true(lambda m: log_start + m * log_ratio < lgamma(m + 1),
                           self.n, limit + 1)

    def below_one(self, weight: Tuple[int, int]) -> bool:
        """Whether bound * weight < 1."""
        wn, wd = weight
        return self.num * wn < self.den * wd

    def inconclusive(
        self, n_cap: int, weight: Tuple[int, int] = (1, 1), peak_weight: Tuple[int, int] = (1, 1)
    ) -> InconclusiveError:
        """The diagnostic after reaching n_cap.  The bound rises while the
        step factor ratio/n is >= 1 and falls after: the largest bound up to
        n_cap is the one at m = min(n_cap, ratio)."""
        if n_cap < 0:
            return InconclusiveError(n_cap, None, None)
        num, den = self._pair(min(n_cap, self.ratio_num // self.ratio_den))
        return InconclusiveError(n_cap, Fraction(self.num * weight[0], self.den * weight[1]),
                                 Fraction(num * peak_weight[0], den * peak_weight[1]))


def _first_true(test: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least m in (lo, hi] with test(m), by bisection, for a test that
    is false at lo and stays true once true; hi itself is never tested."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _visits(
    decay: _Decay, weight: Tuple[int, int], track: Iterator, n_cap: Optional[int]
) -> Iterator[tuple]:
    """(n, below, next value of track) at every index from 0 to n_cap (without
    end for None) where below, that is decay * weight < 1, holds, and at n_cap;
    decay is at n while its tuple is out.

    From an index that is not below, decay seeks the next that is, and the
    track is advanced to it unread.  A seek goes at most to 2 n + 64 (and to
    n_cap), as the closed form's factorial grows with its index: a crossing
    far away is reached in strides, each at most doubling the index."""
    if n_cap is not None and n_cap < 0:
        return
    while True:
        n = decay.n
        below = decay.below_one(weight)
        if below or n == n_cap:
            yield n, below, next(track)
            if n == n_cap:
                return
            decay.step()
        else:
            decay.seek(weight, 2 * n + 64 if n_cap is None else min(2 * n + 64, n_cap))
            skipped = decay.n - n
            next(islice(track, skipped, skipped), None)


# --------------------------------------------------------------------------
# engines.  Each one streams the slots (n, sequence) of one claim in
# canonical search order, up to n_cap (without end when it is None), as tuples
#     (n, sequence, witness, below, attempt):
# ``witness`` is the integer the claim forces at the slot, ``below`` whether
# the slot's bound (or the cos decay gate) is below 1, and ``attempt()``
# returns ((num, den), transcript), or None when the slot's true value is
# provably outside (-1, 1) (three-term attempts always succeed).  num / den
# is the bound, unreduced with den > 0; the transcript is a tuple of integer
# windows (fn, arg, lo, hi, den), one per enclosure the certificate records:
# the three-term engines build theirs in ``build()``, and the cos attempt
# returns its deciding cos window.  ``_reduced`` turns both into a
# certificate's fields, and the checker compares a certificate's fields
# with them by cross-multiplication (``_equals``, ``_matches``), so no check
# builds a Fraction for a bound or a record.  A stream yields every
# candidate slot and every slot at n_cap, and may skip the slots whose bound
# (or whose gate at the least weight) is not below 1; it yields the slots it
# does not skip in order.  Whether an attempt succeeds is fixed by its slot,
# so the checker may keep an attempt and try it after the stream moves on;
# the numbers it returns are the slot's only while the stream is at that
# slot.  A cos attempt holds its own u and v.  A cos slot whose gate is not
# below 1 has no witness and no attempt (both None).  An engine streams once.
# ``settles(sequence)``, asked while the stream is at a candidate slot, is
# True only if that slot's attempt must succeed, so that the search ends
# there at the latest.
# Constructing an engine reads the claim's integers alone and raises the
# errors of a degenerate claim; ``build()``, which ``stream`` calls first,
# makes the enclosures, series and bounds.  Before that, ``rise`` is
# floor(ratio), the peak of a bound start * ratio**n / n! whose start (times
# the least weight) the claim alone shows to be at least 1, so that no slot
# up to it is a candidate; it is -1 where the claim does not show that.
# --------------------------------------------------------------------------

class _ThreeTerm:
    """One claim on a three-term engine: the integer the claim forces at
    each index, the bound on it, and the windows of the enclosures the
    certificate records.  Its attempts always succeed.  ``start()`` gives
    the bound's start as a (num, den) pair and the windows it rests on."""

    def __init__(self, witnesses: Iterator[int], ratio: Tuple[int, int], start_at_least_one: bool,
                 start: Callable[[], Tuple[Tuple[int, int], tuple]]):
        self.witnesses, self.ratio, self._start = witnesses, ratio, start
        self.rise = ratio[0] // ratio[1] if start_at_least_one else -1

    def build(self) -> None:
        start, self.enclosures = self._start()
        self.bound = _Decay(start, self.ratio)

    def stream(self, n_cap: Optional[int]) -> Iterator[tuple]:
        self.build()
        accept = self._accept
        for n, below, witness in _visits(self.bound, (1, 1), self.witnesses, n_cap):
            yield n, None, witness, below, accept

    def settles(self, sequence: Optional[SequenceId]) -> bool:
        return True

    def _accept(self) -> Tuple[Tuple[int, int], tuple]:
        return (self.bound.num, self.bound.den), self.enclosures

    def inconclusive(self, n_cap: int) -> InconclusiveError:
        return self.bound.inconclusive(n_cap)


# --------------------------------------------------------------------------
# tan engine: claim tan(t) = p/q, t = a/b != 0.  With r = 2t, the scaled
# combination B**n (p u_n(r) + q v_n(r)) equals B**n q csc(r) I_n under the
# claim; the tail bound |I_n| <= r (r**2/4)**n / n! and a zero-excluded sin
# enclosure trap it in (-1, 1).
# --------------------------------------------------------------------------

def _tan_step(a: int, b: int) -> Tuple[int, int]:
    """The step ratio a**2 / (4 b) as (num, den) of the kernel bound
    r (r**2/4)**n / n! scaled by b**n, for r = a/b in lowest terms: the tan
    engine's at r = 2t, the pi engine's at the claimed value and the exp
    engine's at the exponent."""
    return a * a, 4 * b


def _tan_engine(claim: Claim) -> _ThreeTerm:
    a, b = claim.arg.numerator, claim.arg.denominator
    if a == 0:
        raise DegenerateClaimError("tan claim requires a nonzero argument")
    p, q = claim.value.numerator, claim.value.denominator
    if a < 0:  # tan is odd
        a, p = -a, -p
    r = Fraction(2 * a, b)
    rn, rd = r.numerator, r.denominator

    def start():
        (sin_num, sin_den), sin_window = _enclosure_away_from_zero(Func.SIN, r)
        return (q * rn * sin_den, rd * sin_num), (sin_window,)  # q r / min |sin r|

    # |sin r| <= |r| makes the start at least q
    return _ThreeTerm(tan_track(rn, rd, p, q), _tan_step(rn, rd), True, start)


# --------------------------------------------------------------------------
# pi engine: claim pi = a/b > 0.  Under the claim b**n P_n(a/b) is the
# integer value of b**n I_n, which is strictly positive and at most
# B_n = b**n (a/b) ((a/b)**2/4)**n / n! — an integer in (0, 1) once B_n < 1.
# --------------------------------------------------------------------------

def _pi_engine(claim: Claim) -> _ThreeTerm:
    a, b = claim.value.numerator, claim.value.denominator
    if a <= 0:
        raise DegenerateClaimError("claimed value of pi must be positive")
    # the start, the claimed value, is at least 1 once a >= b
    return _ThreeTerm(tan_track(a, b, 2, 0), _tan_step(a, b), a >= b, lambda: ((a, b), ()))


# --------------------------------------------------------------------------
# pi-squared engine: claim pi**2 = a/b > 0.  P_n has only even powers, so
# P_n(t) = Q_n(t**2) and b**n Q_n(a/b) is an integer (deg Q_n <= n).  The
# tail bound needs a rational stand-in for pi = sqrt(a/b) under the claim;
# the sqrt over-approximation goes into the transcript.
# --------------------------------------------------------------------------

def _pi_squared_engine(claim: Claim) -> _ThreeTerm:
    a, b = claim.value.numerator, claim.value.denominator
    if a <= 0:
        raise DegenerateClaimError("claimed value of pi**2 must be positive")

    def start():
        root, window = _sqrt_window(claim.value)
        return root, (window,)

    # the start, an upper bound on sqrt(a/b), is at least 1 once a >= b
    return _ThreeTerm(pi_squared_track(a, b), (a, 4), a >= b, start)


# --------------------------------------------------------------------------
# exp engine: claim e**(a/b) = p/q.  Normalized to a > 0 via e**-r = 1/e**r;
# the claimed value must then be positive.  Under the claim the integer
# b**n (q u_n + p v_n)(a/b) equals b**n q I_n with 0 < I_n and the kernel
# bound gives b**n q I_n <= p b**n r (r**2/4)**n / n! — hypothesis-
# conditional, exact, and rational.
# --------------------------------------------------------------------------

def _exp_engine(claim: Claim) -> _ThreeTerm:
    a, b = claim.arg.numerator, claim.arg.denominator
    if a == 0:
        raise DegenerateClaimError("exp claim requires a nonzero exponent")
    p, q = claim.value.numerator, claim.value.denominator
    if p <= 0:
        raise DegenerateClaimError("claimed value of an exponential must be positive")
    if a < 0:
        a, p, q = -a, q, p
    # the start p a / b is at least 1 once p a >= b
    return _ThreeTerm(exp_track(a, b, q, p), _tan_step(a, b), p * a >= b,
                      lambda: ((p * a, b), ()))


# --------------------------------------------------------------------------
# tan-ratio engine: claim tan(t)/t = p/q with s = t**2 = a/b > 0.  The tan
# polynomials split by parity, u_n(r) = U_n(r**2) and v_n(r) = r V_n(r**2);
# with r = 2t this gives the integer b**n (p U_n(4s) + 2 q V_n(4s)), equal
# under the claim to (q/t) csc(r) I_n.  Division by t sin(2t) = 2 s sinc
# keeps everything inside rationals-of-s: with |I_n| <= 2 sqrt(s) s**n / n!
# the bound is q sqrt(s) a**n / (s sinc(4s) n!).
# --------------------------------------------------------------------------

def _tan_ratio_engine(claim: Claim) -> _ThreeTerm:
    s = claim.arg
    a, b = s.numerator, s.denominator
    if a == 0:
        raise DegenerateClaimError("tan-ratio claim requires a nonzero squared argument")
    if a < 0:
        raise NegativeSquareUnsupportedError("tan-ratio claims with s < 0 are unsupported")
    p, q = claim.value.numerator, claim.value.denominator

    def start():
        (sinc_num, sinc_den), sinc_window = _enclosure_away_from_zero(
            Func.SINC_FROM_S, Fraction(4 * a, b))
        (root_num, root_den), root_window = _sqrt_window(s)
        # q sqrt(s) / (s min |sinc(4s)|), with sqrt(s) rounded up
        return (q * root_num * b * sinc_den, root_den * a * sinc_num), (sinc_window, root_window)

    # |sinc(4s)| <= 1 / (2 sqrt s) makes the start at least 2q
    return _ThreeTerm(tan_ratio_track(a, b, p, 2 * q), (a, 1), True, start)


# --------------------------------------------------------------------------
# cos system: claim cos r = p/q with s = r**2 = a/b (either sign; s < 0 is
# the hyperbolic case cosh).  For each sequence X_n = u_n(s) + v_n(s) cos r,
# the integer b**(2n+1) (q u_n + p v_n)(s) equals b**(2n+1) q X_n under the
# claim; enclosing cos r from s makes the true value's window exact.
# --------------------------------------------------------------------------

class _CosSystem:
    """One cos claim on the I/J/K/L system: at each index the four sequences
    in order, each attempted once its decay gate times its weight is below 1,
    so the certificate's n sits past the tail crossing."""

    def __init__(self, claim: Claim):
        s = claim.arg
        a, b = s.numerator, s.denominator
        if a == 0:
            raise DegenerateClaimError("cos claim requires a nonzero squared argument")
        self.p, self.q = claim.value.numerator, claim.value.denominator
        self.s = s
        # the gate's step ratio: a**2 / 4 for s > 0, and 2 a**2 for s < 0
        self.ratio = (a * a, 4) if a > 0 else (2 * a * a, 1)
        # once a**2 >= b, the gate's start b * hyper times the least weight,
        # sqrt|s| or s**2 rounded up, is at least sqrt(|a| b) or a**2 / b
        self.rise = self.ratio[0] // self.ratio[1] if a * a >= b else -1

    def build(self) -> None:
        s = self.s
        a, b = s.numerator, s.denominator
        self.cos = even_series(s, 0)
        self.last = None  # the last (lo, hi, den) the series returned
        _, root_num, root_den = sqrt_bounds(Fraction(abs(a), b))
        # the tail bound of the sequence with weight power k is w_k (s**2/4)**n
        # / n! for s > 0 and w_k hyper (2 s**2)**n / n! for s < 0, where w_k =
        # root**(k + 1) for the root bound root >= sqrt|s|, held as a (num, den)
        # pair per sequence, and hyper is a rational upper bound on e**sqrt(-s)
        self.weights = {seq: (root_num ** k, root_den ** k) for k, seq in enumerate(SequenceId, 1)}
        # the least and the largest weight: w_0 and w_3, as sqrt|s| is >= 1 or not
        ends = self.weights[SequenceId.I], self.weights[SequenceId.L]
        self.least, self.largest = ends if root_num >= root_den else ends[::-1]
        hyper_num, hyper_den = exp_upper_bound(Fraction(root_num, root_den)) if a < 0 else (1, 1)
        # the gate is b**(2n+1) * tail bound without the weight factor
        self.gate = _Decay((b * hyper_num, hyper_den), self.ratio)

    def stream(self, n_cap: Optional[int]) -> Iterator[tuple]:
        self.build()
        p, q, gate, weights = self.p, self.q, self.gate, self.weights.items()
        tracks = cos_track(self.s.numerator, self.s.denominator)
        # no gate is below 1 while the one with the least weight is not
        for n, open_, pairs in _visits(gate, self.least, tracks, n_cap):
            for (seq_id, weight), (u, v) in zip(weights, pairs):
                if open_ and gate.below_one(weight):
                    yield n, seq_id, q * u + p * v, True, partial(self._attempt, u, v)
                else:
                    yield n, seq_id, None, False, None

    def settles(self, sequence: SequenceId) -> bool:
        """Whether q * gate * weight < 1: the true value then lies inside
        (-1, 1), so the slot's subset attempt succeeds."""
        num, den = self.weights[sequence]
        return self.gate.below_one((self.q * num, den))

    def _attempt(self, u: int, v: int) -> Optional[Tuple[Tuple[int, int], tuple]]:
        """Adaptive subset-of-(-1,1) test for q (u + v cos r), where u and v
        are a sequence's coordinates already scaled by b**(2n+1).

        Each try decides on the claim's cos series window, in integers, if
        the value window is inside (-1, 1), outside it, or straddles a bound
        (halve the width).  The true value is never +-1 (for v != 0 that is
        the irrationality of cos r; for v = 0 the window is the point q u),
        so the halvings end.  Returns the bound as an unreduced (num, den)
        pair and the transcript (("cos_from_s", s, lo, hi, den),) of the
        deciding cos window, if inside; None if outside.

        Every window is rigorous, so a value window outside (-1, 1) on any of
        them shows that the attempt fails: the last window the series
        returned is tried first, and only an attempt it does not settle sums
        at the canonical widths, which alone fix the record and bound."""
        qu, qv = self.q * u, self.q * v
        if self.last is not None:
            low, high, den = self._value_window(qu, qv, self.last)
            if low >= den or high <= -den:
                return None
        # a width-w cos enclosure becomes a value window of width w |q v|, so
        # divide the coefficient out up front; the halvings below then only fire
        # when the true value sits within the start width of the unit boundary
        width_num = _DEFAULT_TARGET_WIDTH.numerator
        width_den = _DEFAULT_TARGET_WIDTH.denominator * max(1, 2 * abs(qv))
        while True:
            self.last = self.cos.window(Fraction(width_num, width_den))
            low, high, den = self._value_window(qu, qv, self.last)
            if -den < low and high < den:
                return (max(-low, high), den), ((Func.COS_FROM_S.value, self.s, *self.last),)
            if low >= den or high <= -den:
                return None
            width_den *= 2

    @staticmethod
    def _value_window(qu: int, qv: int, window: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """(low, high, den): q (u + v cos r) lies in [low / den, high / den]
        when cos r lies in the window [lo / den, hi / den].  hi - lo, twice
        the radius, is shorter than lo or hi: high costs no second full product."""
        lo, hi, den = window
        low = qu * den + qv * (lo if qv >= 0 else hi)
        return low, low + abs(qv) * (hi - lo), den

    def inconclusive(self, n_cap: int) -> InconclusiveError:
        # the gates at n_cap ended with L's; the largest is at the bound's
        # peak, with the largest weight
        return self.gate.inconclusive(n_cap, self.weights[SequenceId.L], self.largest)


_Engine = Union[_ThreeTerm, _CosSystem]


def _records(transcript: tuple) -> Tuple[EnclosureRecord, ...]:
    """The enclosure records of a transcript's (fn, arg, lo, hi, den) windows."""
    return tuple(EnclosureRecord(fn, arg, Fraction(lo, den), Fraction(hi, den))
                 for fn, arg, lo, hi, den in transcript)


def _reduced(accepted):
    """The bound and the enclosure records, as a certificate holds them, of
    an attempt's result; None stays None.  Only here does a search build a
    Fraction for a bound or a record."""
    if accepted is None:
        return None
    (num, den), transcript = accepted
    return Fraction(num, den), _records(transcript)


def _matches(enclosures, transcript: tuple) -> bool:
    """Whether enclosures == _records(transcript), with no gcd when
    enclosures is a tuple of EnclosureRecords."""
    if type(enclosures) is tuple and all(type(record) is EnclosureRecord for record in enclosures):
        return len(enclosures) == len(transcript) and all(
            fn == wfn and arg == warg and _equals(lo, wlo, den) and _equals(hi, whi, den)
            for (fn, arg, lo, hi), (wfn, warg, wlo, whi, den) in zip(enclosures, transcript))
    return enclosures == _records(transcript)


def _equals(value, num: int, den: int) -> bool:
    """value == num / den for den > 0, by cross-multiplication when value
    is a Fraction (in lowest terms, so no gcd is needed on either side)."""
    if type(value) is Fraction:
        return value.numerator * den == num * value.denominator
    return value == Fraction(num, den)


# --------------------------------------------------------------------------
# squared-trig transforms: sin**2, cos**2 and tan**2 claims reduce to a cos
# claim at (2r)**2 = 4s through the double-angle identities
#   cos 2r = 1 - 2 sin**2 r = 2 cos**2 r - 1 = (1 - tan**2 r)/(1 + tan**2 r).
# --------------------------------------------------------------------------

def _tan_sq_to_cos(p: int, q: int) -> Tuple[int, int]:
    if p == -q:
        raise DegenerateClaimError("tan**2 = -1 leaves cos 2r undefined")
    return q - p, q + p


class _Kind(NamedTuple):
    """What the kind table knows of a claim kind before seeing a claim."""

    mode: RefutationMode
    engine: Callable[[Claim], _Engine]
    arg: Optional[str]  # the argument: "t", "s" = t**2, or None
    # squared-trig kinds only: the claimed value p, q mapped to cos 2r as (num, den)
    to_cos: Optional[Callable[[int, int], Tuple[int, int]]] = None


_NONZERO, _POSITIVE = RefutationMode.NONZERO_SQUEEZE, RefutationMode.POSITIVE_SQUEEZE

_KINDS = {
    ClaimKind.TAN: _Kind(_NONZERO, _tan_engine, "t"),
    ClaimKind.TAN_RATIO: _Kind(_NONZERO, _tan_ratio_engine, "s"),
    ClaimKind.PI: _Kind(_POSITIVE, _pi_engine, None),
    ClaimKind.PI_SQUARED: _Kind(_POSITIVE, _pi_squared_engine, None),
    ClaimKind.EXP: _Kind(_POSITIVE, _exp_engine, "t"),
    ClaimKind.COS: _Kind(_NONZERO, _CosSystem, "s"),
    ClaimKind.SIN_SQ: _Kind(_NONZERO, _CosSystem, "s", lambda p, q: (q - 2 * p, q)),
    ClaimKind.COS_SQ: _Kind(_NONZERO, _CosSystem, "s", lambda p, q: (2 * p - q, q)),
    ClaimKind.TAN_SQ: _Kind(_NONZERO, _CosSystem, "s", _tan_sq_to_cos),
}


def _delegate(claim: Claim) -> Tuple[Claim, Optional[TransformRecord]]:
    """The claim an engine runs on, and the transform record that reduces a
    squared-trig claim to it (None for the other kinds).  The search and the
    checker both start here."""
    to_cos = _KINDS[claim.kind].to_cos
    if to_cos is None:
        return claim, None
    s, value = claim.arg, claim.value
    if s.numerator == 0:
        raise DegenerateClaimError("squared-trig claim requires a nonzero squared argument")
    delegated = Claim(ClaimKind.COS, Fraction(4 * s.numerator, s.denominator),
                      Fraction(*to_cos(value.numerator, value.denominator)))
    return delegated, TransformRecord(identity=claim.kind.value, delegated=delegated)


def refute(claim: Claim, n_cap: Optional[int] = None) -> Certificate:
    """The canonical certificate: the first slot of the claim's stream that
    is a candidate and whose attempt succeeds.  A candidate's bound (or
    gate) is below 1 and, for the nonzero squeeze, its witness is nonzero.
    Deterministic for fixed claim and cap.

    Without n_cap the search always ends with a certificate (README, "Why
    every search ends"); reaching a given n_cap raises InconclusiveError."""
    engine_claim, transform = _delegate(claim)
    kind = _KINDS[claim.kind]
    engine = kind.engine(engine_claim)
    positive = kind.mode is RefutationMode.POSITIVE_SQUEEZE
    for n, sequence, witness, below, attempt in engine.stream(n_cap):
        if below and (positive or witness != 0):
            accepted = attempt()
            if accepted is not None:
                bound, enclosures = _reduced(accepted)
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
    if type(cert.n) is not int:
        return "malformed: index n must be an integer"
    if cert.n < 0:
        return f"malformed: negative index n={cert.n}"
    kind = _KINDS[cert.claim.kind]
    if cert.mode is not kind.mode:
        return f"mode mismatch: {cert.claim.kind.value} requires {kind.mode.value}"
    sequenced = kind.engine is _CosSystem  # certificates name an I/J/K/L sequence
    if sequenced and cert.sequence is None:
        return "malformed: missing sequence id"
    if not sequenced and cert.sequence is not None:
        return "malformed: unexpected sequence id"
    if sequenced and type(cert.sequence) is not SequenceId:
        return "malformed: sequence id must be a SequenceId"
    if (cert.transform is None) != (kind.to_cos is None):
        return "malformed: transform record does not match claim kind"
    return None


def _check_pass(cert: Certificate, kind: _Kind, engine: _Engine) -> Optional[str]:
    """Step the stream to the certificate's own (n, sequence) and re-derive
    its fields there, trying the attempts of the earlier candidates on the
    way: the search would have stopped at any that succeeds.  A certificate
    more than one index past a candidate that settles is rejected there, so
    the pass steps no further than the search could have.  At the own slot
    the checks run gate, witness, zero witness, attempt, transcript, bound,
    squeeze, canonicity: a wrong witness is rejected before the attempt
    sums a series window.  The stored bound and enclosures are compared
    with the attempt's unreduced integers, so a check reduces none of them.
    Returns the first problem found, or None."""
    positive = kind.mode is RefutationMode.POSITIVE_SQUEEZE
    own_n, own_sequence = cert.n, cert.sequence
    # an attempt holds its slot's integers, so at most _MAX_KEPT_ATTEMPTS are
    # kept: a full list is tried at once, and none is kept after a success
    kept, beaten = [], False
    for n, sequence, witness, below, attempt in engine.stream(own_n):
        if n == own_n and sequence is own_sequence:
            break
        if below and (positive or witness != 0):
            # the search ends by this slot if it settles; the slack of one
            # index keeps the reason of an n + 1 mutant
            if own_n > n + 1 and engine.settles(sequence):
                return f"index past the end of the search at n={n}"
            if not beaten:
                kept.append(attempt)
                if len(kept) == _MAX_KEPT_ATTEMPTS:
                    beaten = any(tried() is not None for tried in kept)
                    kept = []
    if attempt is None:
        return "decay gate not satisfied at certificate index"
    # the witness costs nothing to compare, and a cos attempt may sum a window
    if cert.witness != witness:
        return "witness mismatch"
    if not positive and witness == 0:
        return "witness is zero"
    accepted = attempt()
    if accepted is None:
        return "squeeze condition fails"
    (num, den), transcript = accepted
    if not _matches(cert.enclosures, transcript):
        return "enclosure transcript mismatch"
    if not _equals(cert.bound, num, den):
        return "bound mismatch"
    if not below:
        return "squeeze condition fails"
    if beaten or any(tried() is not None for tried in kept):
        return "not the canonical certificate for this claim"
    return None


def check_certificate(cert: Certificate) -> CheckResult:
    """VALID iff every stored field reproduces from the claim alone and the
    certificate is the canonical search result for its claim.

    An index well below the bound's peak, where no slot is a candidate, is
    rejected before the engine builds its enclosures.  One pass of the
    claim's stream re-derives the fields at the certificate's own
    (n, sequence), stops where the search must have ended, and tries the
    attempts of the earlier candidates, each full list of
    ``_MAX_KEPT_ATTEMPTS`` as it fills and the rest at the end.  The search
    stops at the first candidate whose attempt succeeds, so once the own
    fields reproduce, the certificate is canonical exactly when every
    earlier attempt fails; the search is never rerun.
    """
    problem = _check_structure(cert)
    if problem is not None:
        return CheckResult(False, problem)
    kind = _KINDS[cert.claim.kind]
    try:
        claim, transform = _delegate(cert.claim)
        if cert.transform != transform:
            return CheckResult(False, "transform mismatch")
        engine = kind.engine(claim)
        # no slot up to the bound's peak is a candidate; checked before the
        # stream builds the enclosures, with the slack of one index that
        # keeps the reason of an n - 1 mutant
        first = engine.rise + 1
        if cert.n + 1 < first:
            return CheckResult(False, f"index before the start of the search at n={first}")
        # building the enclosures as the stream starts may fail too
        problem = _check_pass(cert, kind, engine)
    except RefutationError as exc:
        return CheckResult(False, f"claim rejected on replay: {exc}")
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
    # no "n":true or "n":1.0, which the parser refuses
    if type(cert.n) is not int:
        raise ValueError("index n must be an integer")
    return {
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


# the byte layout, which the parser checks with the same encoder
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_canonical_json(cert: Certificate) -> str:
    return _CANONICAL.encode(certificate_to_jsonable(cert))


_DOCUMENT_KEYS = frozenset(("version", "claim", "n", "sequence", "mode", "witness", "bound",
                            "enclosures", "transform"))
_CLAIM_KEYS = frozenset(("kind", "arg", "value"))
_RECORD_KEYS = frozenset(("fn", "arg", "lo", "hi"))
_TRANSFORM_KEYS = frozenset(("identity", "delegated_claim"))
# the writer's integers and rationals: [0-9] is ASCII alone, where int()
# would also read "_", spaces, "+" and other scripts' digits
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _object(value, keys: frozenset) -> dict:
    if type(value) is not dict or value.keys() != keys:
        raise ValueError(f"schema mismatch: expected an object with keys {', '.join(sorted(keys))}")
    return value


# value -> member of each enum a document names; a miss calls the enum, so
# that an unknown value raises the enum's own ValueError
_MEMBERS = {enum: {member.value: member for member in enum}
            for enum in (ClaimKind, SequenceId, RefutationMode)}


def _member(enum, value):
    member = _MEMBERS[enum].get(value)
    return enum(value) if member is None else member


def _lowest_terms(match) -> Fraction:
    num, den = int(match[1]), int(match[2])
    value = Fraction(num, den)
    if value.denominator != den:
        raise ValueError("document is not the canonical serialization of its certificate: "
                         "a rational is not in lowest terms")
    return value


def certificate_from_json(text: str) -> Certificate:
    """Parse a document that is byte for byte ``to_canonical_json`` of the
    certificate it describes; anything else raises ValueError.

    The checks run in order of cost, on the document's own strings, and
    nothing is written back: ``json.loads``; the key sets and JSON types;
    the enums; the byte layout, as the writer's encoder writes the parsed
    document; each number against the writer's decimal
    pattern; and only then ``int()``, with one lowest-terms test per
    rational, from the claim's numbers to the witness.  Together these
    accept exactly the writer's output (tests/test_parse.py holds the two
    to one another)."""
    if not isinstance(text, str):  # json.loads reads bytes too
        raise ValueError(f"a certificate document is a str, not {type(text).__name__}")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ValueError(f"not valid JSON: {exc}") from exc
    # the key sets and JSON types (no bool for an int) come first, so that
    # the encoder below never meets an fn nested a thousand lists deep
    doc = _object(doc, _DOCUMENT_KEYS)
    claims, transform = [_object(doc["claim"], _CLAIM_KEYS)], doc["transform"]
    if transform is not None:
        transform = _object(transform, _TRANSFORM_KEYS)
        claims.append(_object(transform["delegated_claim"], _CLAIM_KEYS))
    records = doc["enclosures"]
    if type(records) is not list:
        raise ValueError("schema mismatch: enclosures must be a list")
    # the rationals in the order they are converted, smallest first, which
    # is the order the keywords of the certificate below take them in
    rationals, strings = [], [doc["mode"], doc["witness"]]
    for claim in claims:
        rationals += [claim["value"]] if claim["arg"] is None else [claim["arg"], claim["value"]]
        strings.append(claim["kind"])
    rationals.append(doc["bound"])
    for record in records:
        rationals += _object(record, _RECORD_KEYS)["arg"], record["lo"], record["hi"]
        strings.append(record["fn"])
    if transform is not None:
        strings.append(transform["identity"])
    if (type(doc["version"]) is not int or type(doc["n"]) is not int
            or {*map(type, strings), *map(type, rationals)} != {str}
            or doc["sequence"] is not None and type(doc["sequence"]) is not str):
        raise ValueError("schema mismatch: a value has the wrong JSON type")
    if doc["version"] != SCHEMA_VERSION:
        raise ValueError("unsupported certificate version")
    kinds = [_member(ClaimKind, claim["kind"]) for claim in claims]
    sequence = None if doc["sequence"] is None else _member(SequenceId, doc["sequence"])
    mode = _member(RefutationMode, doc["mode"])
    if _CANONICAL.encode(doc) != text:
        raise ValueError("document is not the canonical serialization of its certificate")
    matches = list(map(_RATIONAL.fullmatch, rationals))
    if None in matches or _INTEGER.fullmatch(doc["witness"]) is None:
        raise ValueError("document is not the canonical serialization of its certificate: "
                         "a number is not in the canonical decimal form")
    values = map(_lowest_terms, matches)
    claimed = [Claim(kind, None if claim["arg"] is None else next(values), next(values))
               for kind, claim in zip(kinds, claims)]
    return Certificate(
        claim=claimed[0], n=doc["n"], sequence=sequence, mode=mode, bound=next(values),
        enclosures=tuple(EnclosureRecord(record["fn"], next(values), next(values), next(values))
                         for record in records),
        witness=int(doc["witness"]),
        transform=None if transform is None else TransformRecord(transform["identity"], claimed[1]),
    )
