"""Differential tests of the engines' integer pairs against the Fraction
expressions they replaced, which ``reference.py`` keeps.

For claims of all nine kinds, with arguments of both signs where the kind
allows them: the delegated claim, each bound's start and step ratio, the
enclosure records, and the cos system's weights, hyper and gate equal their
Fraction forms.  ``enclose(SIN, x, w)`` equals the sinc enclosure at x**2 and
width w / |x|, scaled by x, and the cos value window equals its three-product
form.

Each engine's lower index, read off the claim when it is constructed,
equals the kind table's function it replaced, and constructing one builds
no enclosure, series or bound.
"""

from fractions import Fraction
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

import reference
from irrcert import certificates
from irrcert.certificates import Claim, ClaimKind, SequenceId
from irrcert.enclosure import Func, enclose, even_series

WIDTH = certificates._DEFAULT_TARGET_WIDTH

_ARG = st.builds(Fraction, st.integers(-400, 400).filter(bool), st.integers(1, 60))
_VALUE = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
_POSITIVE = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))

_CLAIMS = st.one_of(
    st.builds(Claim, st.just(ClaimKind.TAN), _ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.TAN_RATIO), _ARG.map(abs), _VALUE),
    st.builds(Claim, st.just(ClaimKind.PI), st.none(), _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.PI_SQUARED), st.none(), _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.EXP), _ARG, _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.COS), _ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.SIN_SQ), _ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.COS_SQ), _ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.TAN_SQ), _ARG, _VALUE.filter(lambda v: v != -1)),
)


def _fraction(pair):
    return Fraction(*pair)


@settings(max_examples=400, deadline=None)
@given(claim=_CLAIMS)
@example(claim=Claim(ClaimKind.TAN, Fraction(-22, 7), Fraction(7, 1000)))
@example(claim=Claim(ClaimKind.TAN, Fraction(1, 2), Fraction(1)))  # r = 1: the ratio reduces
@example(claim=Claim(ClaimKind.TAN_RATIO, Fraction(4, 9), Fraction(3, 2)))  # a perfect square
@example(claim=Claim(ClaimKind.PI_SQUARED, None, Fraction(49, 4)))
@example(claim=Claim(ClaimKind.EXP, Fraction(-5), Fraction(1, 148)))
@example(claim=Claim(ClaimKind.COS, Fraction(-4), Fraction(376, 100)))
@example(claim=Claim(ClaimKind.COS, Fraction(1, 4), Fraction(1, 3)))  # sqrt|s| < 1
@example(claim=Claim(ClaimKind.TAN_SQ, Fraction(-1), Fraction(-3)))  # 1 + tan**2 < 0
def test_engine_constants_equal_the_fraction_forms(claim):
    delegated, _ = certificates._delegate(claim)
    assert delegated == reference.delegate(claim)
    engine = certificates._KINDS[claim.kind].engine(delegated)
    engine.build()
    if isinstance(engine, certificates._CosSystem):
        weights, hyper, start, ratio = reference.cos_constants(delegated.arg)
        assert [_fraction(w) for w in engine.weights.values()] == list(weights)
        assert list(engine.weights) == list(SequenceId)
        assert _fraction(engine.least) == min(weights)
        assert _fraction(engine.largest) == max(weights)
        # the gate's start is b * hyper, for s = a / b
        assert _fraction(engine.gate.start) / delegated.arg.denominator == hyper
        decay = engine.gate
    else:
        start, ratio, records = reference.three_term_bound(delegated, WIDTH)
        assert engine.enclosures == records
        decay = engine.bound
    assert (_fraction(decay.start), _fraction(decay.ratio)) == (start, ratio)
    # the ratio pair is in lowest terms, as the Fraction it replaced
    assert decay.ratio == (ratio.numerator, ratio.denominator)


_WIDTHS = st.builds(lambda p, q, e: Fraction(p, q * 2**e),
                    st.integers(1, 16), st.integers(1, 16), st.integers(0, 400))


@settings(max_examples=300, deadline=None)
@given(x=_ARG, width=_WIDTHS)
@example(x=Fraction(1), width=Fraction(1, 2**64))
@example(x=Fraction(-355, 113), width=Fraction(5, 2))
def test_sin_enclosure_is_the_sinc_enclosure_scaled_by_x(x, width):
    for x in (x, -x):
        sinc = even_series(x * x, 1).enclose(width / abs(x))
        assert enclose(Func.SIN, x, width) == reference.scale(sinc, x)


_BIG = st.integers(-10**60, 10**60)


@settings(max_examples=300, deadline=None)
@given(qu=_BIG, qv=_BIG, lo=_BIG, radius=st.integers(0, 10**40), den=st.integers(1, 10**60))
@example(qu=3, qv=0, lo=-5, radius=2, den=7)
@example(qu=-1, qv=-1, lo=0, radius=0, den=1)
def test_value_window_equals_the_three_product_form(qu, qv, lo, radius, den):
    window = (lo, lo + 2 * radius, den)
    assert (certificates._CosSystem._value_window(qu, qv, window)
            == reference.value_window(qu, qv, window))


# the claims _CLAIMS draws, with the edges of each lower index: pi and pi**2
# below 1, exp with p t < 1, cos with |s| < 1 and s < 0, and the claims an
# engine refuses
_SMALL = st.builds(Fraction, st.integers(1, 60), st.integers(61, 10**4))
_EDGE_CLAIMS = st.one_of(
    _CLAIMS,
    st.builds(Claim, st.just(ClaimKind.PI), st.none(), _SMALL),
    st.builds(Claim, st.just(ClaimKind.PI_SQUARED), st.none(), _SMALL),
    st.builds(Claim, st.just(ClaimKind.EXP), _SMALL, _SMALL),
    st.builds(Claim, st.just(ClaimKind.EXP), _SMALL.map(lambda t: -t), _SMALL.map(lambda v: 1 / v)),
    st.builds(Claim, st.just(ClaimKind.COS), st.one_of(_SMALL, _SMALL.map(lambda s: -s)), _VALUE),
    st.builds(Claim, st.just(ClaimKind.COS), _ARG.map(lambda s: -abs(s)), _VALUE),
    st.builds(Claim, st.sampled_from([ClaimKind.TAN, ClaimKind.TAN_RATIO, ClaimKind.EXP,
                                      ClaimKind.COS]), st.just(Fraction(0)), _VALUE),
    st.builds(Claim, st.just(ClaimKind.TAN_RATIO), _ARG.map(lambda s: -abs(s)), _VALUE),
    st.builds(Claim, st.sampled_from([ClaimKind.PI, ClaimKind.PI_SQUARED]), st.none(),
              _VALUE.map(lambda v: -abs(v))),
    st.builds(Claim, st.just(ClaimKind.EXP), _ARG, _VALUE.map(lambda v: -abs(v))),
)


def _built(*args, **kwargs):
    raise AssertionError("constructing an engine built an enclosure, series or bound")


@settings(max_examples=400, deadline=None)
@given(claim=_EDGE_CLAIMS)
@example(claim=Claim(ClaimKind.PI, None, Fraction(39, 40)))  # a < b
@example(claim=Claim(ClaimKind.PI, None, Fraction(1)))  # a = b
@example(claim=Claim(ClaimKind.PI_SQUARED, None, Fraction(9, 10)))
@example(claim=Claim(ClaimKind.EXP, Fraction(1, 6), Fraction(1, 40)))  # p a < b
@example(claim=Claim(ClaimKind.EXP, Fraction(-1, 6), Fraction(40)))  # the same, flipped
@example(claim=Claim(ClaimKind.EXP, Fraction(1, 6), Fraction(6)))  # p a = b
@example(claim=Claim(ClaimKind.COS, Fraction(2, 5), Fraction(1, 3)))  # |s| < 1
@example(claim=Claim(ClaimKind.COS, Fraction(-999, 1000), Fraction(1, 2)))  # a**2 < b < 0
@example(claim=Claim(ClaimKind.COS, Fraction(-1, 1000), Fraction(3, 2)))
@example(claim=Claim(ClaimKind.COS, Fraction(1, 1000), Fraction(1, 2)))  # a**2 < b
@example(claim=Claim(ClaimKind.SIN_SQ, Fraction(1, 4), Fraction(1, 2)))  # delegates to s = 1
@example(claim=Claim(ClaimKind.TAN_RATIO, Fraction(-1), Fraction(1)))
@example(claim=Claim(ClaimKind.PI_SQUARED, None, Fraction(0)))
def test_engine_rise_equals_the_kind_table_function(claim):
    delegated, _ = certificates._delegate(claim)
    kind = certificates._KINDS[claim.kind]
    expected = reference.refusal(delegated)
    with patch.multiple(certificates, enclose=_built, even_series=_built,
                        exp_upper_bound=_built, sqrt_bounds=_built):
        try:
            engine = kind.engine(delegated)
        except certificates.RefutationError as exc:
            assert (type(exc).__name__, str(exc)) == expected
            return
    assert expected is None
    assert engine.rise == reference.rise(delegated)
