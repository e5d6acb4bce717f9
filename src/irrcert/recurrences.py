"""Recurrence engines for the certificate integrals, on integers or polynomials.

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

Each recurrence is written once, as a ``*_track`` generator that uses only
ring operations.  On plain integers at a rational point a/b it yields the
values scaled by the power of b that makes them integers (b**n for the tan
family, b**(2n+1) for the cos system): one value per index is all that the
search, its checker and ``oracle-check`` need.  A tan-family track yields one
value per index, a combination x u_n + y v_n; ``cos_track`` yields the four
(u, v) pairs of I, J, K and L.  On ``IntPoly`` values at the generic point
a = x, b = 1 the tracks yield the coordinate polynomials themselves;
``tan_sequence``, ``pi_sequence``, ``exp_sequence`` and ``cos_system`` read
them so for ``irrcert table`` and the identity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List

from .exactnum import IntPoly


@dataclass(frozen=True)
class SequencePair:
    """Coordinates u, v of one integral in its two-element basis."""

    n: int
    u: IntPoly
    v: IntPoly


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


# --------------------------------------------------------------------------
# tracks.  Arguments are all ints or all IntPolys.  The tan-family engines
# share the three-term shape
#     W_n = (4n - 2) k W_{n-1} - c W_{n-2},
# and since the step is linear, a combination x u_n + y v_n is one track.
# --------------------------------------------------------------------------

def _three_term_track(k, c, w0, w1) -> Iterator:
    yield w0
    yield w1
    n = 2
    while True:
        w0, w1 = w1, (4 * n - 2) * k * w1 - c * w0
        yield w1
        n += 1


def tan_track(a, b, x, y) -> Iterator:
    """b**n (x u_n + y v_n)(a/b) of the tan engine, n = 0, 1, ...; with
    (x, y) = (2, 0) this is b**n P_n(a/b) of the pi engine."""
    return _three_term_track(b, a * a, x, 2 * x * b - y * a)


def pi_squared_track(a: int, b: int) -> Iterator[int]:
    """b**n Q_n(a/b) for the even part P_n(t) = Q_n(t**2) of the pi engine."""
    return _three_term_track(b, a * b, 2, 4 * b)


def exp_track(a, b, x, y) -> Iterator:
    """b**n (x u_n + y v_n)(a/b) of the exp engine (signs flipped)."""
    return _three_term_track(-b, -a * a, y - x, x * (2 * b + a) + y * (a - 2 * b))


def tan_ratio_track(a: int, b: int, x: int, y: int) -> Iterator[int]:
    """b**n (x U_n + y V_n)(4a/b) for the tan engine's parity parts
    u_n(r) = U_n(r**2) and v_n(r) = r V_n(r**2)."""
    return _three_term_track(b, 4 * a * b, x, 2 * x * b - y * b)


def cos_track(a, b) -> Iterator[tuple]:
    """The cos system at s = a/b, n = 0, 1, ...: the four pairs b**(2n+1)
    times (u, v) of I, J, K and L, in that order, as one tuple per index.

    Update order within a step matters: I_n from (L, J) at n-1, then J_n
    from I_n and K_{n-1}, then K_n from J_n and L_{n-1}, then L_n from K_n,
    I_n and K_{n-1}.

    The L step needs b**(2n) s I_n = a q, where b**(2n+1) I_n = b q; the I
    step keeps q = 4 b L - 2 a J, so every step is a ring operation."""
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
# polynomial views: the tracks at the generic point a = x, b = 1
# --------------------------------------------------------------------------

_X, _ONE, _ZERO = IntPoly([0, 1]), IntPoly([1]), IntPoly()


def _coordinates(track, n_max: int) -> List[SequencePair]:
    us, vs = track(_X, _ONE, _ONE, _ZERO), track(_X, _ONE, _ZERO, _ONE)
    return [SequencePair(n, next(us), next(vs)) for n in range(n_max + 1)]


def tan_sequence(n_max: int) -> List[SequencePair]:
    """Tan-engine pairs; u_n, v_n satisfy w_n = (4n - 2) w_{n-1} - r**2 w_{n-2}."""
    return _coordinates(tan_track, n_max)


def pi_sequence(n_max: int) -> List[IntPoly]:
    """Pi-engine polynomials: P_0 = 2, P_1 = 4,
    P_n = (4n - 2) P_{n-1} - t**2 P_{n-2}.  Identically 2 * u_n of the
    tan engine, so only even powers appear."""
    return list(islice(tan_track(_X, _ONE, IntPoly([2]), _ZERO), n_max + 1))


def exp_sequence(n_max: int) -> List[SequencePair]:
    """Exp-engine pairs; sign flips relative to the tan engine because the
    weight e**x reproduces itself under integration by parts:
    w_n = -(4n - 2) w_{n-1} + r**2 w_{n-2}."""
    return _coordinates(exp_track, n_max)


def cos_system(n_max: int) -> List[CosSystemState]:
    return [CosSystemState(n, *(SequencePair(n, u, v) for u, v in pairs))
            for n, pairs in zip(range(n_max + 1), cos_track(_X, _ONE))]


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
