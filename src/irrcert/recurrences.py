"""Recurrence tracks for the certificate integrals, on integers.

Each track follows integrals of the shape  integral of (r*x - x**2)**n / n!
(or its quartic analogue) against a trig or exponential weight, written in a
fixed two-element basis whose coordinates u_n, v_n are integer polynomials:

* tan engine   — basis (1 - cos r, sin r), polynomials in r, degree <= n
* pi engine    — the scalar sequence P_n = 2 u_n, polynomial in t, degree <= n
* exp engine   — basis (1, e**r), polynomials in r, degree <= n
* cos system   — four coupled sequences I, J, K, L in the basis (1, cos r),
  polynomials in s = r**2, of degree <= 2n (I, J) and <= 2n + 1 (K, L)

The recurrences come from integrating by parts twice, which is also why the
same coefficients act on u and v simultaneously.

Each recurrence is written once, as a ``*_track`` generator over integers
that uses only ring operations.  At a rational point a/b it yields the values scaled by the power of b that
makes them integers (b**n for the tan family, b**(2n+1) for the cos
system): one value per index is all that the search, its checker and
``oracle-check`` need.  A tan-family track yields one value per index, a
combination x u_n + y v_n; ``cos_track`` yields the four (u, v) pairs of I,
J, K and L.  The polynomials themselves, which ``irrcert table`` prints, are
derived from the integrals by ``oracle.coefficients``.
"""

from __future__ import annotations

from typing import Iterator


# --------------------------------------------------------------------------
# tracks.  The tan-family engines share the three-term shape
#     W_n = (4n - 2) k W_{n-1} - c W_{n-2},
# and since the step is linear, a combination x u_n + y v_n is one track.
# --------------------------------------------------------------------------

def _three_term_track(k, c, w0, w1) -> Iterator:
    yield w0
    yield w1
    # the coefficient (4n - 2) k, advanced by 4k from n = 2 on
    coefficient, increment = 2 * k, 4 * k
    while True:
        coefficient += increment
        w0, w1 = w1, coefficient * w1 - c * w0
        yield w1


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
    step keeps q = 4 b L - 2 a J, so every step is a ring operation.  The
    products of a and b are formed once, and 4n + 1 and 2 n a advance by
    addition."""
    four_b, two_a, two_ab, two_aa = 4 * b, 2 * a, 2 * a * b, 2 * a * a
    iu, iv = b, -b
    ju, jv = b, -b
    ku, kv = a - 2 * b, 2 * b
    lu, lv = 3 * a - 6 * b, 6 * b
    yield (iu, iv), (ju, jv), (ku, kv), (lu, lv)
    # m = 4n + 1 and 2 n a, at n = 1
    m, two_na = 5, two_a
    while True:
        qu = four_b * lu - two_a * ju
        qv = four_b * lv - two_a * jv
        iu, iv = b * qu, b * qv
        nju = m * iu - two_ab * ku
        njv = m * iv - two_ab * kv
        nku = two_ab * lu - (m + 1) * nju
        nkv = two_ab * lv - (m + 1) * njv
        lu = (m + 2) * nku + two_na * qu - two_aa * ku
        lv = (m + 2) * nkv + two_na * qv - two_aa * kv
        ju, jv, ku, kv = nju, njv, nku, nkv
        yield (iu, iv), (ju, jv), (ku, kv), (lu, lv)
        m += 4
        two_na += two_a
