"""Differential tests of the integer windows against the Fraction intervals
they replaced, which ``reference.py`` keeps.

``enclose`` and ``sqrt_bounds`` return a window (lo, hi, den) with den > 0,
and ``exp_upper_bound`` a pair (num, den); read as Fractions, each equals
the reduced ends the reference returns.  The checker's ``_matches`` compares
a certificate's records with a transcript of windows as ``==`` compares
them with the records ``_records`` builds, for every corpus transcript and
every record variant, odd-typed ones included.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from test_acceptance import corpus_certificates, full_corpus, mutations
from test_check_pass import _comparison_variants

import reference
from irrcert import certificates
from irrcert.certificates import EnclosureRecord
from irrcert.enclosure import Func, enclose, exp_upper_bound
from irrcert.exactnum import sqrt_bounds

_SIGNED = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 60))
_WIDTH = st.builds(lambda p, k: Fraction(p, 2**k), st.integers(1, 16), st.integers(0, 200))


def _ends(window):
    lo, hi, den = window
    assert type(lo) is int and type(hi) is int and type(den) is int and den > 0
    return Fraction(lo, den), Fraction(hi, den)


@settings(max_examples=400, deadline=None)
@given(fn=st.sampled_from(list(Func)), x=_SIGNED, width=_WIDTH)
@example(fn=Func.SIN, x=Fraction(0), width=Fraction(1, 2**64))
@example(fn=Func.SIN, x=Fraction(-355, 113), width=Fraction(1, 2**200))
@example(fn=Func.COS_FROM_S, x=Fraction(-4), width=Fraction(1, 2**64))
@example(fn=Func.SINC_FROM_S, x=Fraction(0), width=Fraction(1))
@example(fn=Func.EXP, x=Fraction(0), width=Fraction(1, 2**200))
def test_enclose_window_is_the_reference_interval(fn, x, width):
    for x in (x, -x):
        ref = reference.enclose(fn, x, width)
        assert _ends(enclose(fn, x, width)) == (ref.lo, ref.hi)


@settings(max_examples=300, deadline=None)
@given(root=st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6)),
       x=st.builds(Fraction, st.integers(0, 10**12), st.integers(1, 10**12)))
@example(root=Fraction(0), x=Fraction(2))
@example(root=Fraction(3, 4), x=Fraction(1, 3))
def test_sqrt_window_is_the_reference_interval(root, x):
    # root**2 is an exact root; x mostly is not
    for value in (root * root, x):
        ref = reference.sqrt_bounds(value)
        assert _ends(sqrt_bounds(value)) == (ref.lo, ref.hi)
    lo, hi, den = sqrt_bounds(root * root)
    assert lo == hi and Fraction(lo, den) == root


def test_sqrt_window_of_an_inexact_root_is_one_grid_step():
    for x in (Fraction(2), Fraction(1, 3), Fraction(227, 23), Fraction(10**12 + 1)):
        lo, hi, den = sqrt_bounds(x)
        assert (hi - lo, den) == (1, 1 << 64)
        assert lo * lo <= x * den * den < hi * hi


@settings(max_examples=200, deadline=None)
@given(x=_SIGNED)
@example(x=Fraction(0))
def test_exp_upper_bound_pair_is_the_reference_bound(x):
    num, den = exp_upper_bound(x)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == reference.exp_upper_bound(x)


def _transcript(cert):
    """The transcript of windows the check pass compares at the certificate's
    own slot."""
    claim, _ = certificates._delegate(cert.claim)
    engine = certificates._KINDS[cert.claim.kind].engine(claim)
    for n, sequence, _witness, _below, attempt in engine.stream(cert.n):
        if (n, sequence) == (cert.n, cert.sequence):
            return attempt()[1]
    raise AssertionError("the certificate's slot is not in its stream")


def _variants(cert):
    """Records as the checker may meet them: the certificate's own, its
    criterion-5 mutants', the comparison variants of test_check_pass.py
    (ints, bools, floats and Fractions for an end or the bound, plain tuples
    and a list), and a few more shapes."""
    yield cert.enclosures
    for _, mutant in mutations(cert):
        yield mutant.enclosures
    for _, _, variant in _comparison_variants(cert):
        yield variant.enclosures
    yield cert.enclosures[:-1]
    yield cert.enclosures + cert.enclosures
    yield None
    yield (None,) * len(cert.enclosures)
    for record in cert.enclosures:
        yield (record._replace(fn=record.fn.upper()),) + cert.enclosures[1:]
        yield (record._replace(arg=record.arg + 1),) + cert.enclosures[1:]
        yield (record._replace(arg=float(record.arg)),) + cert.enclosures[1:]
        yield (tuple(record),) + cert.enclosures[1:]


@pytest.mark.parametrize("label", [entry[0] for entry in full_corpus()])
def test_matches_is_equality_with_the_records(label):
    certs = {entry[0]: entry[2] for entry in corpus_certificates()}
    cert = certs[label]
    own = _transcript(cert)
    assert certificates._records(own) == cert.enclosures
    # the corpus's other transcripts: other lengths, functions and arguments
    transcripts = [own] + [_transcript(other) for other in certs.values() if other is not cert]
    for enclosures in _variants(cert):
        for transcript in transcripts:
            assert (certificates._matches(enclosures, transcript)
                    == (enclosures == certificates._records(transcript)))


def test_matches_reads_no_records_for_a_tuple_of_records(monkeypatch):
    # a length mismatch is decided before any record is built
    cert = next(entry[2] for entry in corpus_certificates() if entry[0] == "sin2-7/10")
    transcript = _transcript(cert)

    def records(*args):
        raise AssertionError("_matches built records")

    monkeypatch.setattr(certificates, "_records", records)
    assert certificates._matches(cert.enclosures, transcript)
    assert not certificates._matches((), transcript)
    assert not certificates._matches(cert.enclosures * 2, transcript)
    bogus = EnclosureRecord("sin", Fraction(1), Fraction(-2), Fraction(2))
    assert not certificates._matches((bogus,), transcript)
