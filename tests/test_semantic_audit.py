"""Semantic audit of the certificates' witnesses: each witness re-derived at
the certificate's own slot from the integrals' exact coefficients
(``oracle.coefficients``), never from the recurrence tracks.

The witness is the claim's combination of the engine's coordinate
polynomials at the claim point, scaled by b**n for the point's denominator
b.  The tan, pi, pi**2 and tan-ratio engines read the sin kernel's rows
(u, -u, v) on (1, cos r, sin r), the exp engine the exp kernel's (E0, E1):

* tan(t) = p/q: p u + q v at r = 2|t|, with p negated when t < 0;
* pi = a/b: 2u at a/b;
* pi**2 = a/b: the even coefficients of 2u, as a polynomial in a/b;
* e**(a/b) = p/q: q E0 + p E1 at a/b, after (a, p, q) -> (-a, q, p) for a < 0;
* tan(t)/t = p/q, s = t**2 = a/b: p U + 2q V at 4a/b, where u(r) = U(r**2)
  and v(r) = r V(r**2).

A cos-family certificate names its sequence X of I, J, K and L; the witness
is the cos claim's combination of the family cos-X's rows (u, v) on
(1, cos r), polynomials in s, scaled by b**(2n+1):

* cos r = p/q, s = r**2 = a/b: q u + p v at a/b;
* sin**2, cos**2 and tan**2 claims: the same at the cos claim they delegate
  to, cos 2r at s' = 4s (``reference.delegate``).

``test_oracle.py`` checks the tracks against the same coefficients as
polynomials up to n = 60; the certificates sit at up to n = 3043 here.  The
cos-family audit also runs over the cos-family certificates of the
benchmark's seed-0 streams, each refuted under the cap its workload stays
within, so that a wrong track fails fast instead of searching on.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from irrcert.certificates import Claim, ClaimKind, InconclusiveError, SequenceId, refute
from irrcert.oracle import IntegrandFamily, coefficients

from reference import delegate
from test_acceptance import full_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import ClaimStream, StreamExhausted  # noqa: E402

THREE_TERM = (ClaimKind.TAN, ClaimKind.PI, ClaimKind.PI_SQUARED, ClaimKind.EXP,
              ClaimKind.TAN_RATIO)
COS_FAMILY = (ClaimKind.COS, ClaimKind.SIN_SQ, ClaimKind.COS_SQ, ClaimKind.TAN_SQ)


def _scaled(poly, a: int, b: int, n: int) -> int:
    """b**n poly(a/b), for a polynomial of degree <= n, by Horner."""
    acc, bpow = 0, 1
    for c in reversed(poly):
        acc, bpow = acc * a + c * bpow, bpow * b
    return acc * b ** (n + 1 - len(poly))


def _combine(x: int, p, y: int, q) -> list:
    """x p + y q as coefficient lists."""
    width = max(len(p), len(q))
    p, q = p + [0] * (width - len(p)), q + [0] * (width - len(q))
    return [x * c + y * d for c, d in zip(p, q)]


def audit_witness(claim: Claim, n: int) -> int:
    """The witness of a three-term claim at index n, from the integrals."""
    value = claim.value
    p, q = value.numerator, value.denominator
    if claim.kind is ClaimKind.EXP:
        a, b = claim.arg.numerator, claim.arg.denominator
        if a < 0:
            a, p, q = -a, q, p
        e0, e1 = coefficients(IntegrandFamily.EXP_KERNEL, n)
        return _scaled(_combine(q, e0, p, e1), a, b, n)
    u, _, v = coefficients(IntegrandFamily.SIN_KERNEL, n)
    if claim.kind is ClaimKind.PI:
        return _scaled([2 * c for c in u], p, q, n)
    if claim.kind is ClaimKind.PI_SQUARED:
        return _scaled([2 * c for c in u[::2]], p, q, n)
    if claim.kind is ClaimKind.TAN_RATIO:
        a, b = claim.arg.numerator, claim.arg.denominator
        return _scaled(_combine(p, u[::2], 2 * q, v[1::2]), 4 * a, b, n)
    assert claim.kind is ClaimKind.TAN
    if claim.arg < 0:
        p = -p
    r = 2 * abs(claim.arg)
    return _scaled(_combine(p, u, q, v), r.numerator, r.denominator, n)


def audit_cos_witness(claim: Claim, n: int, sequence: SequenceId) -> int:
    """The witness of a cos-family claim at (n, sequence), from the integrals."""
    cos_claim = delegate(claim)
    s, value = cos_claim.arg, cos_claim.value
    u, v, _ = coefficients(IntegrandFamily(f"cos-{sequence.value}"), n)
    return _scaled(_combine(value.denominator, u, value.numerator, v),
                   s.numerator, s.denominator, 2 * n + 1)


def _assert_audited(cert) -> None:
    if cert.claim.kind in COS_FAMILY:
        expected = audit_cos_witness(cert.claim, cert.n, cert.sequence)
    else:
        expected = audit_witness(cert.claim, cert.n)
    assert cert.witness == expected, (cert.claim, cert.n, cert.sequence)


def test_corpus_three_term_witnesses():
    # each refuted under its pinned index as the cap, as the cos families are
    claims = [(claim, n) for _, claim, n, *_ in full_corpus() if claim.kind in THREE_TERM]
    assert len(claims) == 20
    for claim, n in claims:
        _assert_audited(refute(claim, n_cap=n))


def test_tan_355_113_at_its_own_index():
    cert = refute(Claim(ClaimKind.TAN, Fraction(355, 113), Fraction(1)))
    assert cert.n == 3043
    _assert_audited(cert)


def test_the_audit_sees_a_wrong_witness_and_a_wrong_index():
    _, claim, n, *_ = next(entry for entry in full_corpus() if entry[0] == "pi-22/7")
    cert = refute(claim, n_cap=n)
    assert audit_witness(claim, cert.n) == cert.witness
    assert audit_witness(claim, cert.n) != cert.witness + 1
    assert audit_witness(claim, cert.n + 1) != cert.witness


_ARG = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 12))
_VALUE = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**4))
_POSITIVE = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4))

_CLAIMS = st.one_of(
    st.builds(Claim, st.just(ClaimKind.TAN), _ARG, _VALUE),
    st.builds(Claim, st.just(ClaimKind.TAN_RATIO), _ARG.map(abs), _VALUE),
    st.builds(Claim, st.just(ClaimKind.PI), st.none(), _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.PI_SQUARED), st.none(), _POSITIVE),
    st.builds(Claim, st.just(ClaimKind.EXP), _ARG, _POSITIVE),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(claim=_CLAIMS)
def test_random_three_term_witnesses(claim):
    try:
        cert = refute(claim, n_cap=600)
    except InconclusiveError:
        assume(False)
    _assert_audited(cert)


# the corpus's cos-family claims, each refuted under its pinned index as the
# cap, so that a wrong track fails fast instead of searching on
COS_CORPUS = [(label, claim, n) for label, claim, n, *_ in full_corpus()
              if claim.kind in COS_FAMILY]


def test_corpus_cos_family_witnesses():
    assert len(COS_CORPUS) == 4
    assert {claim.kind for _, claim, _ in COS_CORPUS} == {ClaimKind.COS, ClaimKind.SIN_SQ,
                                                          ClaimKind.COS_SQ}
    for _, claim, n in COS_CORPUS:
        _assert_audited(refute(claim, n_cap=n))


def test_the_cos_audit_sees_a_wrong_witness_a_wrong_index_and_a_wrong_sequence():
    _, claim, n = next(entry for entry in COS_CORPUS if entry[0] == "sin2-7/10")
    cert = refute(claim, n_cap=n)
    sequence = cert.sequence
    other = SequenceId.J if sequence is SequenceId.I else SequenceId.I
    assert audit_cos_witness(claim, n, sequence) == cert.witness
    assert audit_cos_witness(claim, n, sequence) != cert.witness + 1
    assert audit_cos_witness(claim, n + 1, sequence) != cert.witness
    assert audit_cos_witness(claim, n, other) != cert.witness


_PROGRAM_KINDS = {kind.value.replace("_", "-"): kind for kind in ClaimKind}


# (workload, n_cap, cos-family claims in its seed-0 stream, the sequences
# their certificates name): every one of them certifies at or below the cap,
# so InconclusiveError fails the test
@pytest.mark.parametrize("workload, n_cap, count, named", [
    ("shallow", 50, 904, "IJKL"),
    ("deep", 138, 60, "I"),
])
def test_benchmark_cos_family_witnesses(workload, n_cap, count, named):
    stream, claims = ClaimStream(workload, 0), []
    try:
        while True:
            claims += [Claim(_PROGRAM_KINDS[claim.kind], claim.arg, claim.value)
                       for claim in stream.next_batch()]
    except StreamExhausted:
        pass
    cos_family = [claim for claim in claims if claim.kind in COS_FAMILY]
    assert len(cos_family) == count
    sequences = set()
    for claim in cos_family:
        cert = refute(claim, n_cap=n_cap)
        _assert_audited(cert)
        sequences.add(cert.sequence)
    assert sequences == {SequenceId(letter) for letter in named}
