"""Streams that jump to their bound's crossing: differential tests against
the per-index stepping they replace, the closed-form crossing and its stride
limit, and pins on how many slots, steps and cos windows a search takes.

The reference streams below are the streams as they were before the jump:
they step the bound (or the cos gate) at every index and yield every slot,
and a reference cos attempt sums at the canonical widths alone.
"""

import time
from fractions import Fraction
from functools import partial
from itertools import count
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st
from test_check_pass import DEEP_COS_CLAIM
from test_enclosure import _CLAIMS, START_BELOW_ONE_CLAIMS, _fractions

from irrcert import certificates, enclosure
from irrcert.certificates import Claim, ClaimKind, InconclusiveError, refute


def F(*args):
    return Fraction(*args)


def _pair(x):
    return x.numerator, x.denominator


def _least(weights):
    """The least of the cos system's weights, compared as Fractions."""
    return min(weights.values(), key=lambda weight: F(*weight))


def _indices(n_cap):
    return count() if n_cap is None else range(n_cap + 1)


def _stepped_three_term(engine, n_cap):
    engine.build()
    bound = engine.bound
    for n in _indices(n_cap):
        if n:
            bound.step()
        yield n, None, next(engine.witnesses), bound.num < bound.den, engine._accept


def _canonical_attempt(engine, u, v):
    # with no last window, an attempt sums at the canonical widths only
    engine.last = None
    return certificates._CosSystem._attempt(engine, u, v)


def _stepped_cos(engine, n_cap):
    engine.build()
    p, q, gate, weights = engine.p, engine.q, engine.gate, engine.weights
    least = _least(weights)
    tracks = certificates.cos_track(engine.s.numerator, engine.s.denominator)
    for n in _indices(n_cap):
        if n:
            gate.step()
        pairs = next(tracks)
        open_ = gate.below_one(least)
        for seq_id, (u, v) in zip(certificates.SequenceId, pairs):
            if open_ and gate.below_one(weights[seq_id]):
                yield n, seq_id, q * u + p * v, True, partial(_canonical_attempt, engine, u, v)
            else:
                yield n, seq_id, None, False, None


def _outcome(claim, n_cap):
    """refute's certificate, or its InconclusiveError's fields."""
    try:
        return refute(claim, n_cap=n_cap)
    except InconclusiveError as exc:
        return exc.last_n, exc.last_bound, exc.largest_bound


def _stepped_outcome(claim, n_cap):
    with patch.object(certificates._ThreeTerm, "stream", _stepped_three_term), \
            patch.object(certificates._CosSystem, "stream", _stepped_cos):
        return _outcome(claim, n_cap)


def _engine(claim):
    delegated, _ = certificates._delegate(claim)
    return certificates._KINDS[claim.kind].engine(delegated)


def _candidates(claim, stream, n_cap):
    """(n, sequence, witness, below, attempt outcome) of every candidate slot
    up to n_cap, each attempt tried while the stream is at its slot."""
    positive = certificates._KINDS[claim.kind].mode is certificates.RefutationMode.POSITIVE_SQUEEZE
    return [
        (n, sequence, witness, below, attempt())
        for n, sequence, witness, below, attempt in stream(_engine(claim), n_cap)
        if below and (positive or witness != 0)
    ]


def _stream(engine, n_cap):
    return engine.stream(n_cap)


def _reference_stream(engine, n_cap):
    if isinstance(engine, certificates._CosSystem):
        return _stepped_cos(engine, n_cap)
    return _stepped_three_term(engine, n_cap)


# cosh; a cos claim whose least-weight gate is below 1 at n = 0 (b = 10,
# w_3 ~ s**2), rises above 1 at n = 1 and falls below again at n = 4, with a
# denominator that keeps n = 0 from certifying; and the same gate with a
# value that certifies at n = 0
GATE_REOPENS = Claim(ClaimKind.COS, F(3, 10), F(1, 5))
EXTRA_CLAIMS = START_BELOW_ONE_CLAIMS + (
    Claim(ClaimKind.COS, F(-1), F(3, 2)),
    Claim(ClaimKind.COS, F(-6), F(40)),
    GATE_REOPENS,
    Claim(ClaimKind.COS, F(3, 10), F(1, 3)),
    Claim(ClaimKind.SIN_SQ, F(1), F(177, 250)),
)


def test_the_reopening_gate_is_covered():
    engine = _engine(GATE_REOPENS)
    engine.build()
    gate, least = engine.gate, _least(engine.weights)
    below = []
    for n in range(6):
        if n:
            gate.step()
        below.append(gate.below_one(least))
    assert below == [True, False, False, False, True, True]
    assert refute(GATE_REOPENS).n == 4


def _with_examples(test):
    for claim in EXTRA_CLAIMS:
        test = example(claim=claim)(test)
    return test


@settings(max_examples=120, deadline=None)
@given(claim=_CLAIMS)
@_with_examples
def test_candidate_slots_match_stepping(claim):
    cert = refute(claim)
    jumped = _candidates(claim, _stream, cert.n)
    assert jumped == _candidates(claim, _reference_stream, cert.n)
    assert next(slot[:2] for slot in jumped if slot[4] is not None) == (cert.n, cert.sequence)


# claims whose certificate index stays below about 120, so that every cap
# up to it can be searched
_ARG = _fractions(-3, 3, 4, nonzero=True)
_VALUE = _fractions(-12, 12, 12)
_POSITIVE = _fractions(1, 12, 12)
_SQUARED_TRIG_ARG = _fractions(-1, 1, 4, nonzero=True)
_SWEEP_CLAIMS = st.one_of(
    st.builds(Claim, st.just(ClaimKind.TAN), _ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.TAN_RATIO), _fractions(1, 3, 4), _VALUE),
    st.builds(Claim, st.just(ClaimKind.PI), st.none(), _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.PI_SQUARED), st.none(), _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.EXP), _ARG, _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.COS), _ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.SIN_SQ), _SQUARED_TRIG_ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.COS_SQ), _SQUARED_TRIG_ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.TAN_SQ), _SQUARED_TRIG_ARG,
              _VALUE.filter(lambda v: v != -1)),
)


@settings(max_examples=60, deadline=None)
@given(claim=_SWEEP_CLAIMS)
@_with_examples
def test_every_cap_gives_the_stepped_outcome(claim):
    cert = refute(claim)
    for n_cap in range(-1, cert.n + 1):
        assert _outcome(claim, n_cap) == _stepped_outcome(claim, n_cap), n_cap
    assert _stepped_outcome(claim, None) == cert


# -- the closed-form crossing ----------------------------------------------

def _stepped_pairs(start, ratio, last):
    decay = certificates._Decay(_pair(start), _pair(ratio))
    pairs = [(decay.num, decay.den)]
    while decay.n < last:
        decay.step()
        pairs.append((decay.num, decay.den))
    return pairs


def _check_seek(start, ratio, weight, limit_offset):
    pairs = _stepped_pairs(start, ratio, 700)

    def below(m):
        num, den = pairs[m]
        return num * weight.numerator < den * weight.denominator

    # seek starts from an index that is not below
    origin = next((m for m in range(100) if not below(m)), None)
    if origin is None:
        return
    limit = origin + limit_offset
    expected = next((m for m in range(origin + 1, limit + 1) if below(m)), limit)
    decay = certificates._Decay(_pair(start), _pair(ratio))
    while decay.n < origin:
        decay.step()
    decay.seek(_pair(weight), limit)
    assert decay.n == expected
    assert (decay.num, decay.den) == pairs[expected]


_START = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))
# ratios below 1, integer ratios (a flat peak: the bound at ratio - 1 and
# ratio agree) and ratios up to 200
_RATIO = st.one_of(
    st.builds(Fraction, st.integers(1, 20), st.integers(21, 40)),
    st.builds(Fraction, st.integers(1, 200)),
    st.builds(Fraction, st.integers(1, 2000), st.integers(1, 20)),
)
_WEIGHT = st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000))


@settings(max_examples=300, deadline=None)
@given(start=_START, ratio=_RATIO, weight=_WEIGHT, limit_offset=st.integers(1, 600))
@example(start=F(1), ratio=F(5), weight=F(1), limit_offset=600)
@example(start=F(1, 2), ratio=F(3), weight=F(1), limit_offset=600)
@example(start=F(3), ratio=F(1, 2), weight=F(1), limit_offset=1)
def test_seek_lands_where_stepping_crosses(start, ratio, weight, limit_offset):
    _check_seek(start, ratio, weight, limit_offset)


@pytest.mark.parametrize("offset", [-100, -1, 1, 100])
@settings(max_examples=100, deadline=None)
@given(start=_START, ratio=_RATIO, weight=_WEIGHT, limit_offset=st.integers(1, 600))
def test_a_wrong_guess_moves_no_index(offset, start, ratio, weight, limit_offset):
    guess = certificates._Decay._guess
    with patch.object(certificates._Decay, "_guess",
                      lambda self, weight, limit: guess(self, weight, limit) + offset):
        _check_seek(start, ratio, weight, limit_offset)


@pytest.mark.parametrize("claim", [
    Claim(ClaimKind.PI, None, F(355, 113)),
    Claim(ClaimKind.TAN, F(22, 7), F(-7, 1000)),
    DEEP_COS_CLAIM,
    Claim(ClaimKind.COS, F(-4), F(376, 100)),
], ids=lambda c: f"{c.kind.value}-{c.arg}-{c.value}")
def test_closed_form_stays_within_the_stride(monkeypatch, claim):
    # the closed form's factorial is never taken above 2 n + 64, where n is
    # the index the stream has reached
    reached, arguments = [], []
    seek, factorial = certificates._Decay.seek, certificates.factorial

    def traced_seek(self, weight, limit):
        reached.append(self.n)
        return seek(self, weight, limit)

    def traced_factorial(m):
        arguments.append((reached[-1], m))
        return factorial(m)

    monkeypatch.setattr(certificates._Decay, "seek", traced_seek)
    monkeypatch.setattr(certificates, "factorial", traced_factorial)
    cert = refute(claim)
    assert certificates.check_certificate(cert).ok
    assert arguments and all(m <= 2 * n + 64 for n, m in arguments)


PI_SQUARED_FAR = Claim(ClaimKind.PI_SQUARED, None, F(9869604401, 10**9))


def test_a_far_crossing_under_a_cap_is_reached_in_strides():
    # the crossing is near n = 6.7e9; one jump there would take a factorial
    # of that size
    began = time.perf_counter()
    outcome = _outcome(PI_SQUARED_FAR, 3000)
    assert time.perf_counter() - began < 1
    assert outcome[0] == 3000
    assert outcome == _stepped_outcome(PI_SQUARED_FAR, 3000)


# -- count pins --------------------------------------------------------------

def test_three_term_search_draws_only_slots_past_the_crossing(monkeypatch):
    slots, steps = [], []
    stream, step = certificates._ThreeTerm.stream, certificates._Decay.step

    def counted_stream(self, n_cap):
        for slot in stream(self, n_cap):
            slots.append(slot[0])
            yield slot

    def counted_step(self):
        steps.append(self.n)
        step(self)

    monkeypatch.setattr(certificates._ThreeTerm, "stream", counted_stream)
    monkeypatch.setattr(certificates._Decay, "step", counted_step)
    cert = refute(Claim(ClaimKind.PI, None, F(314, 100)))
    assert cert.n == 333
    assert len(slots) <= 3 and slots[-1] == 333
    assert len(steps) <= 3


def test_deep_cos_search_starts_at_the_least_weight_crossing(monkeypatch):
    engine = _engine(DEEP_COS_CLAIM)
    engine.build()
    gate, least = engine.gate, _least(engine.weights)
    while not gate.below_one(least):
        gate.step()
    crossing = gate.n
    slots, windows = [], []
    stream, window = certificates._CosSystem.stream, enclosure.Series.window

    def counted_stream(self, n_cap):
        for slot in stream(self, n_cap):
            slots.append(slot[0])
            yield slot

    def counted_window(self, width):
        windows.append(width)
        return window(self, width)

    monkeypatch.setattr(certificates._CosSystem, "stream", counted_stream)
    monkeypatch.setattr(enclosure.Series, "window", counted_window)
    cert = refute(DEEP_COS_CLAIM)
    assert cert.n == 133 and 0 < crossing <= cert.n
    assert slots[0] == crossing
    assert len(slots) == 4 * (cert.n - crossing) + 1
    # the first attempt fails on the window it sums; the certificate's sums
    # at its own width
    assert len(windows) == 2
    windows.clear()
    assert certificates.check_certificate(cert).ok
    # the failing attempt is settled on the window the canonical one summed
    assert len(windows) == 1
