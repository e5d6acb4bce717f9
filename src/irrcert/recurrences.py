"""Recurrence engines for the certificate integrals, as polynomials and as
integer tracks at one point.

Each engine tracks integrals of the shape  integral of (r*x - x**2)**n / n!
(or its quartic analogue) against a trig or exponential weight, written in a
fixed two-element basis with integer-polynomial coordinates:

* tan engine   — basis (1 - cos r, sin r), polynomials in r, degree <= n
* pi engine    — the scalar sequence P_n, polynomial in t, degree <= n
* exp engine   — basis (1, e**r), polynomials in r, degree <= n
* cos system   — four coupled sequences I, J, K, L in the basis (1, cos r),
  polynomials in s = r**2, of degree <= 2n (I, J) and <= 2n + 1 (K, L)

The recurrences come from integrating by parts twice, which is also why the
same coefficients act on u and v simultaneously.

Two forms are provided.  The ``iter_*`` generators (and their eager list
wrappers) build the whole ``IntPoly`` coordinates; ``irrcert table`` and
the identity tests use them.  The ``*_track`` generators run the same
recurrences on plain integers at one rational point a/b, already multiplied
by the power of b that makes every value an integer (b**n for the tan
family, b**(2n+1) for the cos system); the certificate search, its checker
and ``oracle-check`` use these, since each needs one value per index and
never a whole polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Tuple

from .exactnum import DegreeBoundError, IntPoly


class BasisTag(Enum):
    TAN_BASIS = "tan_basis"    # (1 - cos r, sin r)
    COS_BASIS = "cos_basis"    # (1, cos r)
    EXP_BASIS = "exp_basis"    # (1, e**r)


@dataclass(frozen=True)
class SequencePair:
    """Coordinates u, v of one integral in its two-element basis."""

    n: int
    basis: BasisTag
    u: IntPoly
    v: IntPoly
    variable: str  # 'r' for tan/exp engines, 's' = r**2 for the cos system


@dataclass(frozen=True)
class CosSystemState:
    """The four coupled sequences of the cos engine at one index n.

    For n >= 1 the exact descent identity
        L_n = (4n+3) K_n + s J_n - (2n+1) s I_n
    holds; ``descent_identity_check`` verifies it.
    """

    n: int
    I: SequencePair
    J: SequencePair
    K: SequencePair
    L: SequencePair

    def by_id(self, letter: str) -> SequencePair:
        if letter not in ("I", "J", "K", "L"):
            raise KeyError(f"unknown sequence id {letter!r}")
        return getattr(self, letter)


def _pair(n: int, basis: BasisTag, u: IntPoly, v: IntPoly, variable: str) -> SequencePair:
    return SequencePair(n=n, basis=basis, u=u, v=v, variable=variable)


def iter_tan_sequence() -> Iterator[SequencePair]:
    """Unbounded tan-engine pairs; u_n, v_n satisfy
    w_n = (4n - 2) w_{n-1} - r**2 w_{n-2}."""
    u_prev2, v_prev2 = IntPoly([1]), IntPoly([])
    u_prev1, v_prev1 = IntPoly([2]), IntPoly([0, -1])
    yield _pair(0, BasisTag.TAN_BASIS, u_prev2, v_prev2, "r")
    yield _pair(1, BasisTag.TAN_BASIS, u_prev1, v_prev1, "r")
    n = 2
    while True:
        c = 4 * n - 2
        u = c * u_prev1 - u_prev2.shift(2)
        v = c * v_prev1 - v_prev2.shift(2)
        yield _pair(n, BasisTag.TAN_BASIS, u, v, "r")
        u_prev2, v_prev2 = u_prev1, v_prev1
        u_prev1, v_prev1 = u, v
        n += 1


def tan_sequence(n_max: int) -> List[SequencePair]:
    it = iter_tan_sequence()
    return [next(it) for _ in range(n_max + 1)]


def iter_pi_sequence() -> Iterator[IntPoly]:
    """Unbounded pi-engine polynomials: P_0 = 2, P_1 = 4,
    P_n = (4n - 2) P_{n-1} - t**2 P_{n-2}.  Identically 2 * u_n of the
    tan engine, so only even powers appear."""
    p_prev2 = IntPoly([2])
    p_prev1 = IntPoly([4])
    yield p_prev2
    yield p_prev1
    n = 2
    while True:
        p = (4 * n - 2) * p_prev1 - p_prev2.shift(2)
        yield p
        p_prev2, p_prev1 = p_prev1, p
        n += 1


def pi_sequence(n_max: int) -> List[IntPoly]:
    it = iter_pi_sequence()
    return [next(it) for _ in range(n_max + 1)]


def iter_exp_sequence() -> Iterator[SequencePair]:
    """Unbounded exp-engine pairs; sign flips relative to the tan engine
    because the weight e**x reproduces itself under integration by parts:
    w_n = -(4n - 2) w_{n-1} + r**2 w_{n-2}."""
    u_prev2, v_prev2 = IntPoly([-1]), IntPoly([1])
    u_prev1, v_prev1 = IntPoly([2, 1]), IntPoly([-2, 1])
    yield _pair(0, BasisTag.EXP_BASIS, u_prev2, v_prev2, "r")
    yield _pair(1, BasisTag.EXP_BASIS, u_prev1, v_prev1, "r")
    n = 2
    while True:
        c = -(4 * n - 2)
        u = c * u_prev1 + u_prev2.shift(2)
        v = c * v_prev1 + v_prev2.shift(2)
        yield _pair(n, BasisTag.EXP_BASIS, u, v, "r")
        u_prev2, v_prev2 = u_prev1, v_prev1
        u_prev1, v_prev1 = u, v
        n += 1


def exp_sequence(n_max: int) -> List[SequencePair]:
    it = iter_exp_sequence()
    return [next(it) for _ in range(n_max + 1)]


def _cos_pair(n: int, u: IntPoly, v: IntPoly) -> SequencePair:
    return _pair(n, BasisTag.COS_BASIS, u, v, "s")


def iter_cos_system() -> Iterator[CosSystemState]:
    """Unbounded cos-system states.  Update order within a step matters:
    I_n from (L, J) at n-1, then J_n from I_n and K_{n-1}, then K_n from
    J_n and L_{n-1}, then L_n from K_n, I_n and K_{n-1}."""
    iu, iv = IntPoly([1]), IntPoly([-1])
    ju, jv = IntPoly([1]), IntPoly([-1])
    ku, kv = IntPoly([-2, 1]), IntPoly([2])
    lu, lv = IntPoly([-6, 3]), IntPoly([6])
    yield CosSystemState(
        0,
        _cos_pair(0, iu, iv),
        _cos_pair(0, ju, jv),
        _cos_pair(0, ku, kv),
        _cos_pair(0, lu, lv),
    )
    n = 1
    while True:
        niu = 4 * lu - 2 * ju.shift(1)
        niv = 4 * lv - 2 * jv.shift(1)
        nju = (4 * n + 1) * niu - 2 * ku.shift(1)
        njv = (4 * n + 1) * niv - 2 * kv.shift(1)
        nku = -(4 * n + 2) * nju + 2 * lu.shift(1)
        nkv = -(4 * n + 2) * njv + 2 * lv.shift(1)
        nlu = (4 * n + 3) * nku + 2 * n * niu.shift(1) - 2 * ku.shift(2)
        nlv = (4 * n + 3) * nkv + 2 * n * niv.shift(1) - 2 * kv.shift(2)
        yield CosSystemState(
            n,
            _cos_pair(n, niu, niv),
            _cos_pair(n, nju, njv),
            _cos_pair(n, nku, nkv),
            _cos_pair(n, nlu, nlv),
        )
        iu, iv, ju, jv, ku, kv, lu, lv = niu, niv, nju, njv, nku, nkv, nlu, nlv
        n += 1


def cos_system(n_max: int) -> List[CosSystemState]:
    it = iter_cos_system()
    return [next(it) for _ in range(n_max + 1)]


def descent_identity_check(state: CosSystemState) -> bool:
    """Verify L_n = (4n+3) K_n + s J_n - (2n+1) s I_n exactly (n >= 1)."""
    if state.n < 1:
        raise ValueError("descent identity holds for n >= 1")
    n = state.n
    for attr in ("u", "v"):
        l = getattr(state.L, attr)
        k = getattr(state.K, attr)
        j = getattr(state.J, attr)
        i = getattr(state.I, attr)
        if l != (4 * n + 3) * k + j.shift(1) - (2 * n + 1) * i.shift(1):
            return False
    return True


# --------------------------------------------------------------------------
# scalar tracks: the recurrences above at one point a/b, scaled to integers.
# The tan-family engines all share the three-term shape
#     W_n = (4n - 2) k W_{n-1} - c W_{n-2},
# and since the step is linear, a combination x u_n + y v_n is one track.
# --------------------------------------------------------------------------

def _three_term_track(k: int, c: int, w0: int, w1: int) -> Iterator[int]:
    yield w0
    yield w1
    n = 2
    while True:
        w0, w1 = w1, (4 * n - 2) * k * w1 - c * w0
        yield w1
        n += 1


def tan_track(a: int, b: int, x: int, y: int) -> Iterator[int]:
    """b**n (x u_n + y v_n)(a/b) of the tan engine, n = 0, 1, ..."""
    return _three_term_track(b, a * a, x, 2 * x * b - y * a)


def pi_track(a: int, b: int) -> Iterator[int]:
    """b**n P_n(a/b) of the pi engine."""
    return _three_term_track(b, a * a, 2, 4 * b)


def pi_squared_track(a: int, b: int) -> Iterator[int]:
    """b**n Q_n(a/b) for the even part P_n(t) = Q_n(t**2) of the pi engine."""
    return _three_term_track(b, a * b, 2, 4 * b)


def exp_track(a: int, b: int, x: int, y: int) -> Iterator[int]:
    """b**n (x u_n + y v_n)(a/b) of the exp engine (signs flipped)."""
    return _three_term_track(-b, -a * a, y - x, x * (2 * b + a) + y * (a - 2 * b))


def tan_ratio_track(a: int, b: int, x: int, y: int) -> Iterator[int]:
    """b**n (x U_n + y V_n)(4a/b) for the tan engine's parity parts
    u_n(r) = U_n(r**2) and v_n(r) = r V_n(r**2)."""
    return _three_term_track(b, 4 * a * b, x, 2 * x * b - y * b)


def _exact_quotient(value: int, b: int) -> int:
    quotient, remainder = divmod(value, b)
    if remainder:
        raise DegreeBoundError("cos-system value is not divisible by b")
    return quotient


def cos_track(a: int, b: int) -> Iterator[Tuple[int, int, int, int, int, int, int, int]]:
    """The cos system at s = a/b, n = 0, 1, ...: the eight integers
    b**(2n+1) times u and v of I, J, K and L, in that order; same update
    order as ``iter_cos_system``.

    The L step needs b**(2n) s I_n, which is b**(2n+1) I_n times a, divided
    by b.  That division is exact: I_n and J_n have degree at most 2n in s,
    K_n and L_n at most 2n + 1, by induction over the four update lines."""
    ab, bb, aa = a * b, b * b, a * a
    iu, iv = b, -b
    ju, jv = b, -b
    ku, kv = a - 2 * b, 2 * b
    lu, lv = 3 * a - 6 * b, 6 * b
    yield iu, iv, ju, jv, ku, kv, lu, lv
    n = 1
    while True:
        niu = 4 * bb * lu - 2 * ab * ju
        niv = 4 * bb * lv - 2 * ab * jv
        nju = (4 * n + 1) * niu - 2 * ab * ku
        njv = (4 * n + 1) * niv - 2 * ab * kv
        nku = -(4 * n + 2) * nju + 2 * ab * lu
        nkv = -(4 * n + 2) * njv + 2 * ab * lv
        nlu = (4 * n + 3) * nku + 2 * n * a * _exact_quotient(niu, b) - 2 * aa * ku
        nlv = (4 * n + 3) * nkv + 2 * n * a * _exact_quotient(niv, b) - 2 * aa * kv
        iu, iv, ju, jv, ku, kv, lu, lv = niu, niv, nju, njv, nku, nkv, nlu, nlv
        yield iu, iv, ju, jv, ku, kv, lu, lv
        n += 1
