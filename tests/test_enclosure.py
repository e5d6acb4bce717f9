"""Tests for rigorous series enclosures and factorial tail bounds, and for
the squeeze that ends every search once those bounds fall below 1.

mpmath supplies the independent high-precision reference values; it is never
used by the library itself.
"""

from fractions import Fraction
from math import ceil, factorial, isqrt

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from test_acceptance import full_corpus

from irrcert import certificates, enclosure
from irrcert.certificates import Claim, ClaimKind, InconclusiveError, check_certificate, refute
from irrcert.enclosure import Func, enclose, even_series, exp_upper_bound
from irrcert.exactnum import RatInterval
from reference import TailKernel, tail_bound

mpmath.mp.dps = 60


def _reference(function: Func, argument: Fraction) -> mpmath.mpf:
    x = mpmath.mpf(argument.numerator) / argument.denominator
    if function is Func.SIN:
        return mpmath.sin(x)
    if function is Func.EXP:
        return mpmath.exp(x)
    if function is Func.COS_FROM_S:
        return mpmath.cos(mpmath.sqrt(x)) if x >= 0 else mpmath.cosh(mpmath.sqrt(-x))
    if function is Func.SINC_FROM_S:
        if x == 0:
            return mpmath.mpf(1)
        root = mpmath.sqrt(abs(x))
        return mpmath.sin(root) / root if x > 0 else mpmath.sinh(root) / root
    raise AssertionError(function)


GRID = [
    Fraction(1, 2),
    Fraction(1),
    Fraction(2, 3),
    Fraction(7, 3),
    Fraction(-3, 2),
    Fraction(5),
]
WIDTHS = [Fraction(1, 2**10), Fraction(1, 2**64), Fraction(1, 10**12)]


class TestEnclose:
    @pytest.mark.parametrize("function", list(Func))
    @pytest.mark.parametrize("argument", GRID)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_contains_reference_and_respects_width(self, function, argument, width):
        iv = enclose(function, argument, width)
        assert iv.hi - iv.lo <= width
        ref = _reference(function, argument)
        assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= ref
        assert mpmath.mpf(iv.hi.numerator) / iv.hi.denominator >= ref

    # cos x is enclosed as COS_FROM_S at x**2, as acceptance criterion 3 does
    @pytest.mark.parametrize("argument", GRID)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_cos_from_s_at_square_contains_cos(self, argument, width):
        iv = enclose(Func.COS_FROM_S, argument * argument, width)
        assert iv.hi - iv.lo <= width
        ref = mpmath.cos(mpmath.mpf(argument.numerator) / argument.denominator)
        assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= ref
        assert mpmath.mpf(iv.hi.numerator) / iv.hi.denominator >= ref

    def test_exp_at_one_contains_e(self):
        iv = enclose(Func.EXP, Fraction(1), Fraction(1, 10**12))
        assert iv.hi - iv.lo <= Fraction(1, 10**12)
        e_ref = Fraction(2718281828459045235360287471352662497757, 10**39)
        assert iv.lo <= e_ref <= iv.hi

    def test_sin_at_zero_is_exact(self):
        iv = enclose(Func.SIN, Fraction(0), Fraction(1, 2**10))
        assert iv.lo == iv.hi == 0

    def test_cos_from_s_hyperbolic_branch(self):
        iv = enclose(Func.COS_FROM_S, Fraction(-1), Fraction(1, 2**30))
        cosh1 = Fraction(15430806348152437784779056, 10**25)
        assert iv.lo <= cosh1 <= iv.hi

    def test_request_validates_width(self):
        with pytest.raises(ValueError):
            enclose(Func.SIN, Fraction(1), Fraction(0))


class TestTailBound:
    def test_sin_kernel_examples(self):
        assert tail_bound(TailKernel.SIN_KERNEL, Fraction(1), 0) == 1
        assert tail_bound(TailKernel.SIN_KERNEL, Fraction(1), 2) == Fraction(1, 32)

    def test_cos_system_example(self):
        # s = 1: sqrt bound is exactly 1, so R**4 * (s**2/4)**1 / 1! = 1/4
        assert tail_bound(TailKernel.COS_SYSTEM, Fraction(1), 1, 3) == Fraction(1, 4)

    def test_exp_kernel_uses_growth_factor(self):
        # r = 1, n = 0: bound is r * U with U a tight upper bound on e
        value = tail_bound(TailKernel.EXP_KERNEL, Fraction(1), 0)
        assert Fraction(2718, 1000) < value < Fraction(2719, 1000)

    def test_exp_upper_bound_dominates(self):
        for x in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(7, 3)):
            upper = exp_upper_bound(x)
            ref = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
            assert mpmath.mpf(upper.numerator) / upper.denominator >= ref

    def test_weight_power_only_for_cos_system(self):
        with pytest.raises(ValueError):
            tail_bound(TailKernel.SIN_KERNEL, Fraction(1), 0, 1)
        with pytest.raises(ValueError):
            tail_bound(TailKernel.COS_SYSTEM, Fraction(1), 0, 4)

    @pytest.mark.parametrize("kernel,arg", [
        (TailKernel.SIN_KERNEL, Fraction(1)),
        (TailKernel.EXP_KERNEL, Fraction(3, 2)),
        (TailKernel.COS_SYSTEM, Fraction(4, 9)),
        (TailKernel.COS_SYSTEM, Fraction(-1)),
    ])
    def test_eventually_decreasing(self, kernel, arg):
        values = [tail_bound(kernel, arg, n) for n in range(30)]
        assert all(v > 0 for v in values)
        assert values[29] < values[10] < Fraction(10**6)
        assert values[29] < Fraction(1, 10**6)

    def test_sin_kernel_dominates_reference_integral(self):
        # |integral of (x - x**2)**2 / 2! * sin x on [0,1]| <= tail bound
        ref = mpmath.quad(lambda x: (x - x**2) ** 2 / 2 * mpmath.sin(x), [0, 1])
        bound = tail_bound(TailKernel.SIN_KERNEL, Fraction(1), 2)
        assert abs(ref) <= mpmath.mpf(bound.numerator) / bound.denominator


# --------------------------------------------------------------------------
# Reference series: the term-by-term Fraction implementation that enclose()
# used before it summed over one common integer denominator, kept so that
# every interval the library returns can be compared with it exactly.
# --------------------------------------------------------------------------

def _reference_sqrt_ceil(x: Fraction) -> int:
    c = ceil(x)
    root = isqrt(c)
    if root * root < c:
        root += 1
    return root


def _reference_even_series(s: Fraction, delta: int, target_width: Fraction) -> RatInterval:
    radius_cap = target_width / 2
    abs_s = abs(s)
    if s >= 0:
        n = 0
        while abs_s > (2 * n + 3 + delta) * (2 * n + 4 + delta):
            n += 1
        remainder = abs_s ** (n + 1) / factorial(2 * (n + 1) + delta)
        while remainder > radius_cap:
            n += 1
            remainder = remainder * abs_s / ((2 * n + 1 + delta) * (2 * n + 2 + delta))
        hyper_factor = 1
    else:
        hyper_factor = 3 ** _reference_sqrt_ceil(abs_s)
        n = 0
        remainder = abs_s / factorial(2 + delta) * hyper_factor
        while remainder > radius_cap:
            n += 1
            remainder = remainder * abs_s / ((2 * n + 1 + delta) * (2 * n + 2 + delta))
        remainder = abs_s ** (n + 1) / factorial(2 * (n + 1) + delta) * hyper_factor
    partial = Fraction(0)
    term = Fraction(1, factorial(delta))
    for m in range(n + 1):
        partial += term
        term = term * (-s) / ((2 * m + 1 + delta) * (2 * m + 2 + delta))
    return RatInterval(partial - remainder, partial + remainder)


def _reference_exp_series(x: Fraction, target_width: Fraction) -> RatInterval:
    radius_cap = target_width / 2
    abs_x = abs(x)
    growth = 3 ** ceil(abs_x) if abs_x > 0 else 1
    n = 0
    remainder = abs_x * growth
    while remainder > radius_cap:
        n += 1
        remainder = remainder * abs_x / (n + 1)
    partial = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        partial += term
        term = term * x / (k + 1)
    return RatInterval(partial - remainder, partial + remainder)


def _reference_enclose(fn: Func, x: Fraction, w: Fraction) -> RatInterval:
    if fn is Func.EXP:
        return _reference_exp_series(x, w)
    if fn is Func.COS_FROM_S:
        return _reference_even_series(x, 0, w)
    if fn is Func.SINC_FROM_S:
        return _reference_even_series(x, 1, w)
    if x == 0:
        return RatInterval.from_point(Fraction(0))
    return _reference_even_series(x * x, 1, w / abs(x)).scale(x)


def _assert_matches_reference(fn: Func, x: Fraction, w: Fraction) -> None:
    iv = enclose(fn, x, w)
    ref = _reference_enclose(fn, x, w)
    assert (iv.lo, iv.hi) == (ref.lo, ref.hi)


class TestSeriesAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        fn=st.sampled_from(list(Func)),
        a=st.integers(min_value=-400, max_value=400),
        b=st.integers(min_value=1, max_value=60),
        e=st.integers(min_value=1, max_value=4000),
        p=st.integers(min_value=1, max_value=16),
        q=st.integers(min_value=1, max_value=16),
    )
    def test_random_requests(self, fn, a, b, e, p, q):
        _assert_matches_reference(fn, Fraction(a, b), Fraction(p, q * 2**e))

    # s = (2n+3+delta)(2n+4+delta): where the s >= 0 branch's start index moves
    @pytest.mark.parametrize("fn", [Func.COS_FROM_S, Func.SINC_FROM_S])
    @pytest.mark.parametrize("s", [12, 20, 30, 42, 56, 72])
    def test_decrease_thresholds(self, fn, s):
        for shift in (Fraction(0), Fraction(1, 7), Fraction(-1, 7)):
            for width in (Fraction(1, 2**3), Fraction(1, 2**64), Fraction(3, 2**700)):
                _assert_matches_reference(fn, s + shift, width)
                _assert_matches_reference(fn, -(s + shift), width)

    # widths at which the radius is exactly half the width at term count n
    @pytest.mark.parametrize("fn,x,radius", [
        (Func.EXP, Fraction(1, 2), lambda n: Fraction(3, 2 ** (n + 1) * factorial(n + 1))),
        (Func.COS_FROM_S, Fraction(1), lambda n: Fraction(1, factorial(2 * n + 2))),
        (Func.SINC_FROM_S, Fraction(-1), lambda n: Fraction(3, factorial(2 * n + 3))),
    ])
    def test_radius_ties(self, fn, x, radius):
        for n in range(6):
            _assert_matches_reference(fn, x, 2 * radius(n))

    @pytest.mark.parametrize("fn", list(Func))
    def test_zero_argument(self, fn):
        for width in (Fraction(1, 2**64), Fraction(1, 2**2000)):
            _assert_matches_reference(fn, Fraction(0), width)

    @pytest.mark.parametrize("fn", list(Func))
    def test_width_at_least_one(self, fn):
        for x in (Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            for width in (Fraction(1), Fraction(5, 2), Fraction(10**6)):
                _assert_matches_reference(fn, x, width)


# a width after the previous one: the same, half of it, or a fresh draw that
# may be narrower or wider
_WIDTH = st.builds(lambda p, q, e: Fraction(p, q * 2**e),
                   st.integers(1, 16), st.integers(1, 16), st.integers(0, 1200))
_NEXT_WIDTH = st.one_of(st.just("same"), st.just("half"), _WIDTH)


class TestResumableSeries:
    """One series asked for many widths answers each exactly as a fresh
    reference sum at that width would, whatever came before."""

    @settings(max_examples=120, deadline=None)
    @given(
        a=st.integers(-400, 400),
        b=st.integers(1, 60),
        delta=st.sampled_from([0, 1]),
        first=_WIDTH,
        moves=st.lists(_NEXT_WIDTH, min_size=1, max_size=8),
    )
    def test_width_sequences(self, a, b, delta, first, moves):
        s = Fraction(a, b)
        series = even_series(s, delta)
        width = first
        for move in [first] + moves:
            width = width if move == "same" else width / 2 if move == "half" else move
            lo, hi, den = series.window(width)
            ref = _reference_even_series(s, delta, width)
            assert den > 0 and (Fraction(lo, den), Fraction(hi, den)) == (ref.lo, ref.hi)
            assert series.enclose(width) == ref

    # wider after narrower; on the cosh branch the radius first rises, so a
    # wider width may need fewer terms than any asked before
    @pytest.mark.parametrize("s", [Fraction(-30), Fraction(-49, 9), Fraction(56), Fraction(1, 3)])
    def test_wider_after_narrower(self, s):
        series = even_series(s, 0)
        for e in (800, 3, 400, 1, 0, 64, 64, 2000, 5):
            width = Fraction(1, 2**e)
            assert series.enclose(width) == _reference_even_series(s, 0, width)


def _reference_attempt(s: Fraction, q: int, u: int, v: int, start_width: Fraction):
    """The cos subset attempt on reduced Fraction intervals: a fresh
    reference enclosure at each width, tested with the strict (-1, 1)."""
    qu, qv = q * u, q * v
    width = start_width / max(1, 2 * abs(qv))
    while True:
        cos_iv = _reference_even_series(s, 0, width)
        low, high = sorted((qu + qv * cos_iv.lo, qu + qv * cos_iv.hi))
        if low > -1 and high < 1:
            record = certificates.EnclosureRecord("cos_from_s", s, cos_iv.lo, cos_iv.hi)
            return max(-low, high), (record,)
        if low >= 1 or high <= -1:
            return None
        width /= 2


def _cos_engine(s: Fraction, q: int, start_width: Fraction):
    return certificates._CosSystem(Claim(ClaimKind.COS, s, Fraction(1, q)), start_width)


def _cos_attempt_widths(monkeypatch, s: Fraction, u: int, v: int, start_width: Fraction):
    """The attempt's result (q = 1) and the number of widths it tried."""
    engine, widths = _cos_engine(s, 1, start_width), []
    window = enclosure.Series.window

    def recorded(series, width):
        widths.append(width)
        return window(series, width)

    with monkeypatch.context() as patch:
        patch.setattr(enclosure.Series, "window", recorded)
        return engine._attempt(u, v), len(widths)


def _edge_case(s: Fraction, v: int, edge: int, at_hi: bool, width: Fraction):
    """(u, v, start width): v is scaled so that one end of the value window
    of the first try is exactly edge (q = 1)."""
    cos_iv = _reference_even_series(s, 0, width)
    end = cos_iv.hi if (v > 0) == at_hi else cos_iv.lo
    v *= end.denominator
    u = edge - v * end
    assert u.denominator == 1
    return int(u), v, width * max(1, 2 * abs(v))


class TestCosAttemptAgainstReference:
    """_CosSystem._attempt decides on integer windows; the reference decides
    on reduced Fraction intervals at each width."""

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 9)),
        q=st.integers(1, 3),
        digits=st.integers(0, 40),
        edge=st.sampled_from([-1, 0, 1]),
        e=st.integers(0, 12),
    )
    def test_random_attempts(self, s, q, digits, edge, e):
        # P / v is the best approximation of cos r with v <= 10**digits, so
        # u + v cos r = edge + (v cos r - P) sits within about 1 / v of the
        # edge: inside, outside and straddle-then-halve all occur
        cos_lo = _reference_even_series(s, 0, Fraction(1, 2 ** (4 * digits + 80))).lo
        approx = cos_lo.limit_denominator(10**digits)
        u, v = edge - approx.numerator, approx.denominator
        width = Fraction(1, 2**e)
        for u, v in ((u, v), (-u, -v)):
            assert _cos_engine(s, q, width)._attempt(u, v) == _reference_attempt(s, q, u, v, width)

    @settings(max_examples=12, deadline=None)
    @given(
        s=st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 9)),
        digits=st.integers(170, 200),
        e=st.integers(0, 8),
    )
    def test_values_near_one_are_decided(self, s, digits, e):
        # P / v is the best approximation of cos r with v <= 10**digits, so
        # u + v cos r = edge + (v cos r - P) sits within about 10**-digits of
        # +-1, more than 512 halvings below the value window's start width of
        # about 2**-(e+1).  Each attempt is decided all the same, as mpmath
        # decides it
        cos_lo = _reference_even_series(s, 0, Fraction(1, 2 ** (8 * digits + 80))).lo
        approx = cos_lo.limit_denominator(10**digits)
        width, mpf = Fraction(1, 2**e), mpmath.mpmathify
        with mpmath.workdps(4 * digits):
            cos_r = _reference(Func.COS_FROM_S, s)
            for edge in (1, -1):
                u, v = edge - approx.numerator, approx.denominator
                for u, v in ((u, v), (-u, -v)):
                    value = u + v * cos_r
                    gap = abs(abs(value) - 1)
                    assert mpf(10) ** (-3 * digits) < gap < mpf(2) ** -(e + 530)
                    accepted = _cos_engine(s, 1, width)._attempt(u, v)
                    assert (accepted is not None) == (abs(value) < 1)
                    if accepted is not None:
                        bound, (record,) = accepted
                        assert abs(value) <= mpf(bound) < 1
                        assert mpf(record.lo) <= cos_r <= mpf(record.hi)

    @pytest.mark.parametrize("s", [Fraction(1), Fraction(-4), Fraction(49, 9)])
    @pytest.mark.parametrize("edge", [1, -1])
    @pytest.mark.parametrize("at_hi", [True, False])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_value_window_ends_exactly_at_one(self, monkeypatch, s, edge, at_hi, sign):
        u, v, width = _edge_case(s, sign * 3, edge, at_hi, Fraction(1, 2**40))
        expected = _reference_attempt(s, 1, u, v, width)
        got, tries = _cos_attempt_widths(monkeypatch, s, u, v, width)
        assert got == expected
        # +1 as the window's low end, or -1 as its high end, is outside at
        # the first try; the other end on the boundary straddles
        outside = (edge == 1) != at_hi
        assert outside == (tries == 1)
        if outside:
            assert expected is None

    def test_straddle_and_halve(self, monkeypatch):
        # the window's high end at exactly 1: the first try straddles.  At
        # s = 1 the cos window is 2 / (2N+2)! wide and v, the denominator of
        # its end, divides (2N+2)!, so the value window is at most 2 wide and
        # the true value, irrational and below 1, is above -1: the halvings
        # end inside
        s = Fraction(1)
        u, v, width = _edge_case(s, 1, 1, True, Fraction(1, 2**20))
        accepted, tries = _cos_attempt_widths(monkeypatch, s, u, v, width)
        assert accepted is not None and accepted == _reference_attempt(s, 1, u, v, width)
        assert tries >= 2

    # v = 0: the value window is the point u, decided at the first try
    @pytest.mark.parametrize("u,inside", [(0, True), (1, False), (-1, False), (2, False)])
    def test_no_cos_coefficient(self, monkeypatch, u, inside):
        s, width = Fraction(3), Fraction(1, 2**64)
        got, tries = _cos_attempt_widths(monkeypatch, s, u, 0, width)
        assert got == _reference_attempt(s, 1, u, 0, width)
        assert (got is not None) == inside and tries == 1


def _reference_dominance_index(base: Fraction, threshold: Fraction) -> int:
    """Least n >= 0 with base**n / n! < threshold, on Fractions."""
    n = 0
    value = Fraction(1)
    while value >= threshold:
        n += 1
        value = value * base / n
    return n


def _crossing_and_old_cap(claim: Claim):
    """(m, cap): m is the first index where the claim's bound is below 1 (for
    the cos system, the gate times the prefactor q * max(w_0, 1)**4, which
    bounds every open slot's value); cap is the search cap that refute used
    to derive from m when given none."""
    delegated, _ = certificates._delegate(claim)
    engine = certificates._KINDS[claim.kind].engine(
        delegated, certificates._DEFAULT_TARGET_WIDTH
    )
    if certificates._KINDS[claim.kind].engine is certificates._CosSystem:
        gate = engine.gate
        prefactor = engine.q * max(engine.weights[0], 1) ** 4 * gate.start
        m = _reference_dominance_index(gate.ratio, 1 / prefactor)
        return m, 4 * m + 8
    bound = engine.bound
    m = _reference_dominance_index(bound.ratio, 1 / bound.start)
    return m, 4 * m + 4


def _assert_search_ends_by_itself(claim: Claim) -> None:
    """Every search ends without a cap, where the paper's argument says.

    * Three-term kinds: the bound start * ratio**n / n! is unimodal, so from
      its first index m below 1 it stays below 1 (m = 0 when start < 1, which
      only the positive squeeze allows, and there the first attempt succeeds);
      the consecutive-zero exclusion leaves a nonzero witness at m or m + 1.
    * Cos system: from m on every slot is open and its value is inside
      (-1, 1); the descent identity leaves a nonzero witness at every index.
    """
    cert = refute(claim)
    m, old_cap = _crossing_and_old_cap(claim)
    assert refute(claim, n_cap=old_cap) == cert
    # a stream capped at the found index still reaches it; one below does not
    assert refute(claim, n_cap=cert.n) == cert
    if cert.n:
        with pytest.raises(InconclusiveError):
            refute(claim, n_cap=cert.n - 1)
    if certificates._KINDS[claim.kind].engine is certificates._CosSystem:
        assert cert.n <= m
    else:
        assert m <= cert.n <= m + 1
    _assert_bracket(claim, cert)


def _assert_bracket(claim: Claim, cert) -> None:
    """The checker's bracket on n holds: no slot up to the kind's rise index
    is a candidate, every candidate whose engine says it settles has an
    attempt that succeeds, and the canonical n is at most the first of them.
    Below the rise index, the pre-build check only takes over a rejection
    the check pass would make."""
    kind = certificates._KINDS[claim.kind]
    delegated, _ = certificates._delegate(claim)
    width = certificates._DEFAULT_TARGET_WIDTH
    rise = kind.rise(delegated)
    assert cert.n > rise
    if rise >= 1:
        forged = cert._replace(n=rise - 1)
        assert check_certificate(forged).reason == (
            f"index before the start of the search at n={rise + 1}")
        assert certificates._check_pass(forged, kind, kind.engine(delegated, width)) is not None
    engine = kind.engine(delegated, width)
    positive = kind.mode is certificates.RefutationMode.POSITIVE_SQUEEZE
    settled = None
    for n, sequence, witness, below, attempt in engine.stream(None):
        if settled is not None and n > max(settled, cert.n) + 1:
            break
        if below and (positive or witness != 0):
            assert n > rise
            if engine.settles(sequence):
                assert attempt() is not None, (n, sequence)
                settled = n if settled is None else settled
    assert cert.n <= settled


# the width-pinned certificates of tests/test_certificates.py
FINE_WIDTH_CLAIMS = (
    Claim(ClaimKind.SIN_SQ, Fraction(7, 5), Fraction(1, 2)),
    Claim(ClaimKind.COS, Fraction(-4), Fraction(376, 100)),
)

# start < 1: pi = value, exp (normalized to t > 0) p * t, pi**2 sqrt(value),
# cos (s = a/b) the gate's start b times the least weight, about a**2 / b for
# s < 1.  The last four certify at n = 0 although floor(ratio) >= 1, so a rise
# that ignored the start would reject them before the search starts
START_BELOW_ONE_CLAIMS = (
    Claim(ClaimKind.PI, None, Fraction(1, 2)),
    Claim(ClaimKind.PI, None, Fraction(39, 40)),
    Claim(ClaimKind.EXP, Fraction(1, 6), Fraction(1, 40)),
    Claim(ClaimKind.EXP, Fraction(-1, 6), Fraction(40)),
    Claim(ClaimKind.PI_SQUARED, None, Fraction(1, 3)),
    Claim(ClaimKind.PI, None, Fraction(9, 10)),
    Claim(ClaimKind.EXP, Fraction(9, 20), Fraction(2, 3)),
    Claim(ClaimKind.PI_SQUARED, None, Fraction(9, 10)),
    Claim(ClaimKind.COS, Fraction(2, 5), Fraction(1, 3)),
)


def _fractions(low: int, high: int, den: int, nonzero: bool = False):
    """Fractions num / d with low <= num <= high and 1 <= d <= den.  The search
    index grows with the numerators, so those, not the magnitudes, stay small."""
    nums = st.integers(low, high).filter(bool) if nonzero else st.integers(low, high)
    return st.builds(Fraction, nums, st.integers(1, den))


_NONZERO_ARG = _fractions(-6, 6, 6, nonzero=True)
# 4s is the cos argument of a squared-trig claim; |numerator| <= 3 keeps n below ~800
_NONZERO_SQUARED_TRIG_ARG = _fractions(-3, 3, 6, nonzero=True)
_VALUE = _fractions(-40, 40, 40)
_POSITIVE_VALUE = _fractions(1, 40, 40)

_CLAIMS = st.one_of(
    st.builds(Claim, st.just(ClaimKind.TAN), _NONZERO_ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.TAN_RATIO), _fractions(1, 6, 6), _VALUE),
    st.builds(Claim, st.just(ClaimKind.PI), st.none(), _POSITIVE_VALUE),
    st.builds(Claim, st.just(ClaimKind.PI_SQUARED), st.none(), _POSITIVE_VALUE),
    st.builds(Claim, st.just(ClaimKind.EXP), _NONZERO_ARG, _POSITIVE_VALUE),
    st.builds(Claim, st.just(ClaimKind.COS), _NONZERO_ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.SIN_SQ), _NONZERO_SQUARED_TRIG_ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.COS_SQ), _NONZERO_SQUARED_TRIG_ARG, _VALUE),
    st.builds(
        Claim, st.just(ClaimKind.TAN_SQ), _NONZERO_SQUARED_TRIG_ARG, _VALUE.filter(lambda v: v != -1)
    ),
)


class TestSearchEndsWithoutCap:
    """refute needs no default cap: differential against the cap it used to
    take, 4 m + 4 (three-term) or 4 m + 8 (cos), and the index the squeeze
    argument predicts."""

    @pytest.mark.parametrize("claim", [entry[1] for entry in full_corpus()],
                             ids=[entry[0] for entry in full_corpus()])
    def test_corpus(self, claim):
        _assert_search_ends_by_itself(claim)

    @pytest.mark.parametrize("claim", FINE_WIDTH_CLAIMS, ids=["sin_sq_7_5", "cosh_2"])
    def test_fine_width_pins(self, claim):
        _assert_search_ends_by_itself(claim)

    @pytest.mark.parametrize("claim", START_BELOW_ONE_CLAIMS)
    def test_start_below_one(self, claim):
        if claim.kind is ClaimKind.COS:
            # the crossing above carries the prefactor q b >= 1, so read the
            # gate's start times the least weight directly
            engine = certificates._CosSystem(claim, certificates._DEFAULT_TARGET_WIDTH)
            assert engine.gate.below_one(min(engine.weights))
        else:
            assert _crossing_and_old_cap(claim)[0] == 0
        assert refute(claim).n == 0
        _assert_search_ends_by_itself(claim)

    @settings(max_examples=200, deadline=None)
    @given(claim=_CLAIMS)
    @example(claim=Claim(ClaimKind.COS, Fraction(-6), Fraction(40)))
    @example(claim=Claim(ClaimKind.COS, Fraction(-1, 5), Fraction(1, 3)))
    @example(claim=Claim(ClaimKind.SIN_SQ, Fraction(-3, 2), Fraction(39, 40)))
    @example(claim=Claim(ClaimKind.TAN_SQ, Fraction(-1), Fraction(2)))
    def test_random_claims(self, claim):
        _assert_search_ends_by_itself(claim)
