"""Unit tests for the four recurrence engines and their exact identities."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irrcert.exactnum import IntPoly
from irrcert.recurrences import (
    cos_system,
    cos_track,
    descent_identity_check,
    exp_sequence,
    exp_track,
    pi_sequence,
    pi_squared_track,
    tan_ratio_track,
    tan_sequence,
    tan_track,
)

N_AUDIT = 16


class TestTanEngine:
    def test_initial_pairs(self):
        pairs = tan_sequence(3)
        assert [p.u.coeffs for p in pairs] == [(1,), (2,), (12, 0, -1), (120, 0, -12)]
        assert [p.v.coeffs for p in pairs] == [(), (0, -1), (0, -6), (0, -60, 0, 1)]
        assert [p.n for p in pairs] == [0, 1, 2, 3]

    def test_recurrence_step(self):
        # w_n = (4n-2) w_{n-1} - r**2 w_{n-2}, applied to both coordinates
        pairs = tan_sequence(10)
        for n in range(2, 11):
            k = 4 * n - 2
            assert pairs[n].u == k * pairs[n - 1].u - pairs[n - 2].u.shift(2)
            assert pairs[n].v == k * pairs[n - 1].v - pairs[n - 2].v.shift(2)

    def test_parity_and_degree(self):
        for pair in tan_sequence(N_AUDIT):
            assert pair.u.degree <= pair.n
            assert pair.v.degree <= pair.n
            assert not any(pair.u.coeffs[1::2]), "u_n must be even"
            assert not any(pair.v.coeffs[0::2]), "v_n must be odd"


class TestPiEngine:
    def test_first_polynomials(self):
        polys = pi_sequence(3)
        assert [p.coeffs for p in polys] == [(2,), (4,), (24, 0, -2), (240, 0, -24)]

    def test_doubles_tan_u(self):
        tans = tan_sequence(N_AUDIT)
        for n, poly in enumerate(pi_sequence(N_AUDIT)):
            assert poly == 2 * tans[n].u

    def test_even_parity(self):
        for poly in pi_sequence(N_AUDIT):
            assert not any(poly.coeffs[1::2])


class TestExpEngine:
    def test_initial_pairs(self):
        pairs = exp_sequence(2)
        assert [p.u.coeffs for p in pairs] == [(-1,), (2, 1), (-12, -6, -1)]
        assert [p.v.coeffs for p in pairs] == [(1,), (-2, 1), (12, -6, 1)]

    def test_recurrence_step(self):
        # I_n = -(4n-2) I_{n-1} + r**2 I_{n-2}
        pairs = exp_sequence(10)
        for n in range(2, 11):
            k = 4 * n - 2
            assert pairs[n].u == -k * pairs[n - 1].u + pairs[n - 2].u.shift(2)
            assert pairs[n].v == -k * pairs[n - 1].v + pairs[n - 2].v.shift(2)

    def test_value_at_one(self):
        # I_1 = u_1(1) + v_1(1) e = 3 - e
        pair = exp_sequence(1)[1]
        assert pair.u.eval_rational(Fraction(1)) == 3
        assert pair.v.eval_rational(Fraction(1)) == -1

    def test_degree_bound(self):
        for pair in exp_sequence(N_AUDIT):
            assert pair.u.degree <= pair.n
            assert pair.v.degree <= pair.n


class TestCosSystem:
    def test_initial_state(self):
        state = cos_system(0)[0]
        assert (state.I.u.coeffs, state.I.v.coeffs) == ((1,), (-1,))
        assert (state.J.u.coeffs, state.J.v.coeffs) == ((1,), (-1,))
        assert (state.K.u.coeffs, state.K.v.coeffs) == ((-2, 1), (2,))
        assert (state.L.u.coeffs, state.L.v.coeffs) == ((-6, 3), (6,))

    def test_first_step_values(self):
        state = cos_system(1)[1]
        assert (state.I.u.coeffs, state.I.v.coeffs) == ((-24, 10), (24, 2))

    def test_update_equations(self):
        # I_n = 4 L_{n-1} - 2s J_{n-1}; J_n = (4n+1) I_n - 2s K_{n-1};
        # K_n = -(4n+2) J_n + 2s L_{n-1}; L_n = (4n+3) K_n + 2ns I_n - 2s**2 K_{n-1}
        states = cos_system(8)
        for n in range(1, 9):
            prev, cur = states[n - 1], states[n]
            for attr in ("u", "v"):
                i_p, j_p, k_p, l_p = (
                    getattr(prev.I, attr),
                    getattr(prev.J, attr),
                    getattr(prev.K, attr),
                    getattr(prev.L, attr),
                )
                i_c, j_c, k_c, l_c = (
                    getattr(cur.I, attr),
                    getattr(cur.J, attr),
                    getattr(cur.K, attr),
                    getattr(cur.L, attr),
                )
                assert i_c == 4 * l_p - 2 * j_p.shift(1)
                assert j_c == (4 * n + 1) * i_c - 2 * k_p.shift(1)
                assert k_c == -(4 * n + 2) * j_c + 2 * l_p.shift(1)
                assert l_c == (4 * n + 3) * k_c + 2 * n * i_c.shift(1) - 2 * k_p.shift(2)

    def test_anchor_identity(self):
        # 2 I_0 + K_0 = (s, 0): vanishing from some index onward would
        # propagate back and contradict s != 0
        state = cos_system(0)[0]
        assert 2 * state.I.u + state.K.u == IntPoly([0, 1])
        assert 2 * state.I.v + state.K.v == IntPoly([])

    def test_descent_identity(self):
        for state in cos_system(N_AUDIT)[1:]:
            assert descent_identity_check(state)

    def test_descent_identity_rejects_index_zero(self):
        with pytest.raises(ValueError):
            descent_identity_check(cos_system(0)[0])

    def test_degree_bound(self):
        for state in cos_system(N_AUDIT):
            for pair in (state.I, state.J, state.K, state.L):
                assert pair.u.degree <= 2 * pair.n + 1
                assert pair.v.degree <= 2 * pair.n + 1

    def test_by_id(self):
        state = cos_system(0)[0]
        assert state.by_id("K") is state.K
        with pytest.raises(KeyError):
            state.by_id("X")


# --------------------------------------------------------------------------
# the int tracks at a/b against the same tracks on IntPoly at the generic
# point, evaluated at a/b: each value must equal the scaled integer
# evaluation of its polynomials, for every n <= N_TRACK
# --------------------------------------------------------------------------

N_TRACK = 50
N_DEGREE_FENCE = 150

signed_num = st.integers(min_value=-60, max_value=60)
positive_num = st.integers(min_value=1, max_value=60)
den = st.integers(min_value=1, max_value=40)
coeff = st.integers(min_value=-99, max_value=99)
track_settings = settings(max_examples=15, deadline=None)


@functools.lru_cache(maxsize=None)
def _polys(engine: str):
    return {"tan": tan_sequence, "pi": pi_sequence, "exp": exp_sequence,
            "cos": cos_system}[engine](N_TRACK)


def _take(track):
    return [next(track) for _ in range(N_TRACK + 1)]


class TestScalarTracks:
    @track_settings
    @given(a=signed_num, b=den, x=coeff, y=coeff)
    def test_tan(self, a, b, x, y):
        expected = [x * pair.u.eval_scaled_integer(a, b, pair.n)
                    + y * pair.v.eval_scaled_integer(a, b, pair.n)
                    for pair in _polys("tan")]
        assert _take(tan_track(a, b, x, y)) == expected

    @track_settings
    @given(a=positive_num, b=den)
    def test_pi(self, a, b):
        expected = [poly.eval_scaled_integer(a, b, n) for n, poly in enumerate(_polys("pi"))]
        assert _take(tan_track(a, b, 2, 0)) == expected

    @track_settings
    @given(a=positive_num, b=den)
    def test_pi_squared_even_part(self, a, b):
        expected = [poly.even_part_in_square().eval_scaled_integer(a, b, n)
                    for n, poly in enumerate(_polys("pi"))]
        assert _take(pi_squared_track(a, b)) == expected

    @track_settings
    @given(a=positive_num, b=den, x=coeff, y=coeff)
    def test_exp(self, a, b, x, y):
        expected = [x * pair.u.eval_scaled_integer(a, b, pair.n)
                    + y * pair.v.eval_scaled_integer(a, b, pair.n)
                    for pair in _polys("exp")]
        assert _take(exp_track(a, b, x, y)) == expected

    @track_settings
    @given(a=positive_num, b=den, x=coeff, y=coeff)
    def test_tan_ratio_parity_parts(self, a, b, x, y):
        expected = [x * pair.u.even_part_in_square().eval_scaled_integer(4 * a, b, pair.n)
                    + y * pair.v.odd_part_in_square().eval_scaled_integer(4 * a, b, pair.n)
                    for pair in _polys("tan")]
        assert _take(tan_ratio_track(a, b, x, y)) == expected

    @track_settings
    @given(a=signed_num.filter(bool), b=den)
    def test_cos_all_eight(self, a, b):
        for state, track in zip(_polys("cos"), cos_track(a, b)):
            exponent = 2 * state.n + 1
            for k, letter in enumerate("IJKL"):
                pair = state.by_id(letter)
                assert track[k] == (
                    pair.u.eval_scaled_integer(a, b, exponent),
                    pair.v.eval_scaled_integer(a, b, exponent),
                ), (state.n, letter)

    def test_cos_degree_fence(self):
        # cos_track emits every value at b**(2n+1); test_cos_all_eight reads
        # the polynomials at that scale through eval_scaled_integer, which
        # refuses a degree above it, so every degree must be <= 2n + 1.
        # Induction over the four update lines, from I_0 = J_0 = (1, -1),
        # K_0 = (s - 2, 2), L_0 = (3s - 6, 6): I_n = 4 L - 2s J has degree
        # <= 2n - 1, J_n = (4n+1) I_n - 2s K at most 2n, K_n = -(4n+2) J_n
        # + 2s L at most 2n, and L_n = (4n+3) K_n + 2ns I_n - 2s**2 K at
        # most 2n + 1 (L, J, K on the right at n - 1).
        for n, state in enumerate(cos_system(N_DEGREE_FENCE)):
            for pair in (state.I, state.J):
                assert max(pair.u.degree, pair.v.degree) <= 2 * n, (n, "IJ")
            for pair in (state.K, state.L):
                assert max(pair.u.degree, pair.v.degree) <= 2 * n + 1, (n, "KL")
