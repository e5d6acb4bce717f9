"""Unit tests for the four recurrence engines and their exact identities."""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from irrcert.recurrences import cos_track, exp_track, pi_squared_track, tan_ratio_track, tan_track

from reference import (
    IntPoly, cos_system, cos_track_per_step, descent_identity_check, eval_rational,
    eval_scaled_integer, even_part_in_square, exp_sequence, exp_track_per_step,
    odd_part_in_square, pi_sequence, pi_squared_track_per_step, shift, tan_ratio_track_per_step,
    tan_sequence, tan_track_per_step,
)

N_AUDIT = 16


class TestTanEngine:
    def test_initial_pairs(self):
        pairs = tan_sequence(3)
        assert [u.coeffs for u, _ in pairs] == [(1,), (2,), (12, 0, -1), (120, 0, -12)]
        assert [v.coeffs for _, v in pairs] == [(), (0, -1), (0, -6), (0, -60, 0, 1)]
        assert len(pairs) == 4

    def test_recurrence_step(self):
        # w_n = (4n-2) w_{n-1} - r**2 w_{n-2}, applied to both coordinates
        pairs = tan_sequence(10)
        for n in range(2, 11):
            k = 4 * n - 2
            for c in (0, 1):
                assert pairs[n][c] == k * pairs[n - 1][c] - shift(pairs[n - 2][c], 2)

    def test_parity_and_degree(self):
        for n, (u, v) in enumerate(tan_sequence(N_AUDIT)):
            assert u.degree <= n
            assert v.degree <= n
            assert not any(u.coeffs[1::2]), "u_n must be even"
            assert not any(v.coeffs[0::2]), "v_n must be odd"


class TestPiEngine:
    def test_first_polynomials(self):
        polys = pi_sequence(3)
        assert [p.coeffs for p in polys] == [(2,), (4,), (24, 0, -2), (240, 0, -24)]

    def test_doubles_tan_u(self):
        tans = tan_sequence(N_AUDIT)
        for n, poly in enumerate(pi_sequence(N_AUDIT)):
            assert poly == 2 * tans[n][0]

    def test_even_parity(self):
        for poly in pi_sequence(N_AUDIT):
            assert not any(poly.coeffs[1::2])


class TestExpEngine:
    def test_initial_pairs(self):
        pairs = exp_sequence(2)
        assert [u.coeffs for u, _ in pairs] == [(-1,), (2, 1), (-12, -6, -1)]
        assert [v.coeffs for _, v in pairs] == [(1,), (-2, 1), (12, -6, 1)]

    def test_recurrence_step(self):
        # I_n = -(4n-2) I_{n-1} + r**2 I_{n-2}
        pairs = exp_sequence(10)
        for n in range(2, 11):
            k = 4 * n - 2
            for c in (0, 1):
                assert pairs[n][c] == -k * pairs[n - 1][c] + shift(pairs[n - 2][c], 2)

    def test_value_at_one(self):
        # I_1 = u_1(1) + v_1(1) e = 3 - e
        u, v = exp_sequence(1)[1]
        assert eval_rational(u, Fraction(1)) == 3
        assert eval_rational(v, Fraction(1)) == -1

    def test_degree_bound(self):
        for n, (u, v) in enumerate(exp_sequence(N_AUDIT)):
            assert u.degree <= n
            assert v.degree <= n


class TestCosSystem:
    def test_initial_state(self):
        (iu, iv), (ju, jv), (ku, kv), (lu, lv) = cos_system(0)[0]
        assert (iu.coeffs, iv.coeffs) == ((1,), (-1,))
        assert (ju.coeffs, jv.coeffs) == ((1,), (-1,))
        assert (ku.coeffs, kv.coeffs) == ((-2, 1), (2,))
        assert (lu.coeffs, lv.coeffs) == ((-6, 3), (6,))

    def test_first_step_values(self):
        (iu, iv), _, _, _ = cos_system(1)[1]
        assert (iu.coeffs, iv.coeffs) == ((-24, 10), (24, 2))

    def test_update_equations(self):
        # I_n = 4 L_{n-1} - 2s J_{n-1}; J_n = (4n+1) I_n - 2s K_{n-1};
        # K_n = -(4n+2) J_n + 2s L_{n-1}; L_n = (4n+3) K_n + 2ns I_n - 2s**2 K_{n-1}
        states = cos_system(8)
        for n in range(1, 9):
            # zip(*pairs) gives the u coordinates of I, J, K, L, then the v ones
            for (i_p, j_p, k_p, l_p), (i_c, j_c, k_c, l_c) in zip(
                zip(*states[n - 1]), zip(*states[n])
            ):
                assert i_c == 4 * l_p - 2 * shift(j_p, 1)
                assert j_c == (4 * n + 1) * i_c - 2 * shift(k_p, 1)
                assert k_c == -(4 * n + 2) * j_c + 2 * shift(l_p, 1)
                assert l_c == (4 * n + 3) * k_c + 2 * n * shift(i_c, 1) - 2 * shift(k_p, 2)

    def test_anchor_identity(self):
        # 2 I_0 + K_0 = (s, 0): vanishing from some index onward would
        # propagate back and contradict s != 0
        (iu, iv), _, (ku, kv), _ = cos_system(0)[0]
        assert 2 * iu + ku == IntPoly([0, 1])
        assert 2 * iv + kv == IntPoly([])

    def test_descent_identity(self):
        for n, pairs in enumerate(cos_system(N_AUDIT)[1:], 1):
            assert descent_identity_check(n, pairs)

    def test_descent_identity_rejects_index_zero(self):
        with pytest.raises(ValueError):
            descent_identity_check(0, cos_system(0)[0])

    def test_degree_bound(self):
        for n, pairs in enumerate(cos_system(N_AUDIT)):
            for u, v in pairs:
                assert u.degree <= 2 * n + 1
                assert v.degree <= 2 * n + 1


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
        expected = [x * eval_scaled_integer(u, a, b, n) + y * eval_scaled_integer(v, a, b, n)
                    for n, (u, v) in enumerate(_polys("tan"))]
        assert _take(tan_track(a, b, x, y)) == expected

    @track_settings
    @given(a=positive_num, b=den)
    def test_pi(self, a, b):
        expected = [eval_scaled_integer(poly, a, b, n) for n, poly in enumerate(_polys("pi"))]
        assert _take(tan_track(a, b, 2, 0)) == expected

    @track_settings
    @given(a=positive_num, b=den)
    def test_pi_squared_even_part(self, a, b):
        expected = [eval_scaled_integer(even_part_in_square(poly), a, b, n)
                    for n, poly in enumerate(_polys("pi"))]
        assert _take(pi_squared_track(a, b)) == expected

    @track_settings
    @given(a=positive_num, b=den, x=coeff, y=coeff)
    def test_exp(self, a, b, x, y):
        expected = [x * eval_scaled_integer(u, a, b, n) + y * eval_scaled_integer(v, a, b, n)
                    for n, (u, v) in enumerate(_polys("exp"))]
        assert _take(exp_track(a, b, x, y)) == expected

    @track_settings
    @given(a=positive_num, b=den, x=coeff, y=coeff)
    def test_tan_ratio_parity_parts(self, a, b, x, y):
        expected = [x * eval_scaled_integer(even_part_in_square(u), 4 * a, b, n)
                    + y * eval_scaled_integer(odd_part_in_square(v), 4 * a, b, n)
                    for n, (u, v) in enumerate(_polys("tan"))]
        assert _take(tan_ratio_track(a, b, x, y)) == expected

    @track_settings
    @given(a=signed_num.filter(bool), b=den)
    def test_cos_all_eight(self, a, b):
        for n, (pairs, track) in enumerate(zip(_polys("cos"), cos_track(a, b))):
            exponent = 2 * n + 1
            for k, (letter, (u, v)) in enumerate(zip("IJKL", pairs)):
                assert track[k] == (
                    eval_scaled_integer(u, a, b, exponent),
                    eval_scaled_integer(v, a, b, exponent),
                ), (n, letter)

    def test_cos_degree_fence(self):
        # cos_track emits every value at b**(2n+1); test_cos_all_eight reads
        # the polynomials at that scale through eval_scaled_integer, which
        # refuses a degree above it, so every degree must be <= 2n + 1.
        # Induction over the four update lines, from I_0 = J_0 = (1, -1),
        # K_0 = (s - 2, 2), L_0 = (3s - 6, 6): I_n = 4 L - 2s J has degree
        # <= 2n - 1, J_n = (4n+1) I_n - 2s K at most 2n, K_n = -(4n+2) J_n
        # + 2s L at most 2n, and L_n = (4n+3) K_n + 2ns I_n - 2s**2 K at
        # most 2n + 1 (L, J, K on the right at n - 1).
        for n, (i, j, k, l) in enumerate(cos_system(N_DEGREE_FENCE)):
            for u, v in (i, j):
                assert max(u.degree, v.degree) <= 2 * n, (n, "IJ")
            for u, v in (k, l):
                assert max(u.degree, v.degree) <= 2 * n + 1, (n, "KL")


# -- running coefficients against the per-step forms -----------------------

N_RUNNING = 300
running_settings = settings(max_examples=40, deadline=None)
index = st.integers(min_value=0, max_value=N_RUNNING)
# s = a/b: a square of a rational, or any a != 0 of either sign over b
root = st.integers(min_value=1, max_value=30)
square_point = st.tuples(root, root).map(lambda ab: (ab[0] ** 2, ab[1] ** 2))
cos_point = st.one_of(square_point, st.tuples(signed_num.filter(bool), den))


def _first(track, n):
    return [next(track) for _ in range(n + 1)]


class TestRunningCoefficients:
    @running_settings
    @given(point=cos_point, n=index)
    @example(point=(4, 9), n=N_RUNNING)
    @example(point=(3, 10), n=N_RUNNING)
    @example(point=(-3, 10), n=N_RUNNING)
    @example(point=(-49, 1), n=N_RUNNING)
    def test_cos(self, point, n):
        a, b = point
        assert _first(cos_track(a, b), n) == _first(cos_track_per_step(a, b), n)

    @running_settings
    @given(a=signed_num, b=den, x=coeff, y=coeff, n=index)
    @example(a=-60, b=40, x=-99, y=99, n=N_RUNNING)
    def test_tan(self, a, b, x, y, n):
        assert _first(tan_track(a, b, x, y), n) == _first(tan_track_per_step(a, b, x, y), n)

    @running_settings
    @given(a=signed_num, b=den, n=index)
    @example(a=60, b=1, n=N_RUNNING)
    def test_pi_squared(self, a, b, n):
        assert _first(pi_squared_track(a, b), n) == _first(pi_squared_track_per_step(a, b), n)

    @running_settings
    @given(a=signed_num, b=den, x=coeff, y=coeff, n=index)
    @example(a=-60, b=7, x=3, y=-5, n=N_RUNNING)
    def test_exp(self, a, b, x, y, n):
        assert _first(exp_track(a, b, x, y), n) == _first(exp_track_per_step(a, b, x, y), n)

    @running_settings
    @given(a=signed_num, b=den, x=coeff, y=coeff, n=index)
    @example(a=60, b=40, x=99, y=-99, n=N_RUNNING)
    def test_tan_ratio(self, a, b, x, y, n):
        assert (_first(tan_ratio_track(a, b, x, y), n)
                == _first(tan_ratio_track_per_step(a, b, x, y), n))
