"""Semantic audit of the three-term certificates: each witness re-derived at
the certificate's own index from the integrals' exact coefficients
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

``test_oracle.py`` checks the tracks against the same coefficients as
polynomials up to n = 60; the certificates sit at up to n = 3043 here.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from irrcert.certificates import Claim, ClaimKind, InconclusiveError, refute
from irrcert.oracle import IntegrandFamily, coefficients

from test_acceptance import corpus_certificates

THREE_TERM = (ClaimKind.TAN, ClaimKind.PI, ClaimKind.PI_SQUARED, ClaimKind.EXP,
              ClaimKind.TAN_RATIO)


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


def _assert_audited(cert) -> None:
    assert cert.witness == audit_witness(cert.claim, cert.n), (cert.claim, cert.n)


def test_corpus_three_term_witnesses():
    certs = [cert for _, claim, cert, *_ in corpus_certificates() if claim.kind in THREE_TERM]
    assert len(certs) == 20
    for cert in certs:
        _assert_audited(cert)


def test_tan_355_113_at_its_own_index():
    cert = refute(Claim(ClaimKind.TAN, Fraction(355, 113), Fraction(1)))
    assert cert.n == 3043
    _assert_audited(cert)


def test_the_audit_sees_a_wrong_witness_and_a_wrong_index():
    _, claim, cert, *_ = next(entry for entry in corpus_certificates() if entry[0] == "pi-22/7")
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
