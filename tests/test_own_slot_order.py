"""The checker's order at the certificate's own slot: gate, witness, zero
witness, attempt, transcript, bound, squeeze, canonicity.

A wrong or zero witness is rejected before the slot's attempt, which for the
cos family may sum a series window.  ``reference.check_certificate_attempt_first``
keeps the order that tried the attempt first.  The two agree on ``ok``
everywhere, and on the reason except for a document whose witness is wrong
or zero at a slot whose attempt fails: that order named the squeeze, this
one names the witness.
"""

import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hostile_documents import PI_22_7
from reference import check_certificate_attempt_first
from test_acceptance import corpus_certificates, mutations
from test_check_pass import DEEP_COS_CLAIM

from irrcert import certificates, enclosure
from irrcert.certificates import (
    Claim, ClaimKind, SequenceId, certificate_from_json, check_certificate, refute,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import MUTANTS, ClaimStream, mutants  # noqa: E402


def F(*args):
    return Fraction(*args)


GATE = "decay gate not satisfied at certificate index"
SQUEEZE = "squeeze condition fails"
WITNESS_REASONS = ("witness mismatch", "witness is zero")

# cos(sqrt(7/25)) = 863/1000 certifies at (35, K); (32, K) is a candidate
# whose attempt fails
COS_7_25 = Claim(ClaimKind.COS, F(7, 25), F(863, 1000))
# cos r = 1 - s/2 at s = 3/10: the witness of (0, L) is zero, and its
# attempt fails
COS_3_10_TRUNCATED = Claim(ClaimKind.COS, F(3, 10), F(17, 20))


def _slot_witness(claim, n, sequence):
    engine = certificates._KINDS[claim.kind].engine(certificates._delegate(claim)[0])
    return next(slot[2] for slot in engine.stream(n) if slot[:2] == (n, sequence))


def _moved(claim, n, sequence, witness=None):
    """The claim's certificate at (n, sequence), with the given witness or
    the one it carries."""
    cert = refute(claim)._replace(n=n, sequence=sequence)
    return cert if witness is None else cert._replace(witness=witness)


def _bumped(cert, *fields):
    return cert._replace(**{name: getattr(cert, name) + 1 for name in fields})


def _widened(cert):
    record = cert.enclosures[0]
    return cert._replace(enclosures=(record._replace(hi=record.hi + 1),) + cert.enclosures[1:])


# (document, reason now, reason with the attempt first)
TWO_FAULT_DOCUMENTS = {
    "cos-7/25-at-32K": (
        lambda: _moved(COS_7_25, 32, SequenceId.K), "witness mismatch", SQUEEZE),
    "cos-3/10-zero-witness-at-0L": (
        lambda: _moved(COS_3_10_TRUNCATED, 0, SequenceId.L, witness=0), "witness is zero", SQUEEZE),
    "cos-7/25-at-30I-gate-first": (
        lambda: _moved(COS_7_25, 30, SequenceId.I), GATE, GATE),
    "cos-7/25-at-32K-own-witness": (
        lambda: _moved(COS_7_25, 32, SequenceId.K, _slot_witness(COS_7_25, 32, SequenceId.K)),
        SQUEEZE, SQUEEZE),
    "cos-7/25-witness-and-transcript": (
        lambda: _widened(_bumped(refute(COS_7_25), "witness")),
        "witness mismatch", "witness mismatch"),
    "pi-22/7-witness-and-bound": (
        lambda: _bumped(refute(PI_22_7), "witness", "bound"),
        "witness mismatch", "witness mismatch"),
}


def test_the_zero_witness_document_holds_a_zero_witness():
    assert _slot_witness(COS_3_10_TRUNCATED, 0, SequenceId.L) == 0
    assert refute(COS_7_25)[1:3] == (35, SequenceId.K)


@pytest.mark.parametrize("name", TWO_FAULT_DOCUMENTS)
def test_two_fault_documents(name):
    make, now, attempt_first = TWO_FAULT_DOCUMENTS[name]
    document = make()
    assert check_certificate(document) == (False, now)
    assert check_certificate_attempt_first(document) == (False, attempt_first)


def _assert_orders_agree(cert):
    now, before = check_certificate(cert), check_certificate_attempt_first(cert)
    assert now.ok == before.ok
    if now.reason != before.reason:
        assert before.reason == SQUEEZE and now.reason in WITNESS_REASONS


def test_the_orders_agree_on_the_corpus_and_its_mutants():
    checked = 0
    for _label, _claim, cert, *_ in corpus_certificates():
        for _name, document in [("", cert), *mutations(cert)]:
            _assert_orders_agree(document)
            checked += 1
    assert checked == 24 + 168


@lru_cache(maxsize=None)
def _stream_texts(workload: str, seed: int):
    """The canonical documents of the benchmark's two digested batches."""
    stream = ClaimStream(workload, seed)
    texts = []
    for _ in range(2):
        for claim in stream.next_batch():
            kind = getattr(ClaimKind, claim.kind.upper().replace("-", "_"))
            texts.append(certificates.to_canonical_json(
                refute(Claim(kind, claim.arg, claim.value))))
    return texts


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("workload", ["shallow", "deep"])
def test_the_orders_agree_on_benchmark_documents_and_every_mutant_class(workload, seed):
    classes = [name for name, _, _ in MUTANTS]
    checked = Counter()
    for text in _stream_texts(workload, seed):
        for name, mutant in [("canonical", text), *mutants(text, classes)]:
            try:
                document = certificate_from_json(mutant)
            except ValueError:
                continue
            _assert_orders_agree(document)
            checked[name] += 1
    assert checked["canonical"] == len(_stream_texts(workload, seed))
    assert checked["witness_plus_1"] == checked["canonical"]


@pytest.mark.parametrize("delta", [1, -1], ids=["witness+1", "witness-1"])
def test_a_wrong_witness_sums_no_cos_window(monkeypatch, delta):
    # windows of the claim's cos series, the one series the stream builds;
    # an s < 0 claim also sums the exp series of its hyperbolic bound
    windows, cos_series = Counter(), []
    even_series, window = certificates.even_series, enclosure.Series.window

    def recorded_series(*args):
        cos_series.append(even_series(*args))
        return cos_series[-1]

    def counted_window(series, width):
        windows[series] += 1
        return window(series, width)

    monkeypatch.setattr(certificates, "even_series", recorded_series)
    monkeypatch.setattr(enclosure.Series, "window", counted_window)

    def cos_windows(check, document):
        windows.clear()
        cos_series.clear()
        assert check(document) == (False, "witness mismatch")
        assert len(cos_series) == 1
        return windows[cos_series[0]]

    certs = [cert for _label, claim, cert, *_ in corpus_certificates()
             if certificates._KINDS[claim.kind].engine is certificates._CosSystem]
    certs.append(refute(DEEP_COS_CLAIM))
    assert len(certs) == 5
    for cert in certs:
        mutant = cert._replace(witness=cert.witness + delta)
        assert cos_windows(check_certificate, mutant) == 0
        assert cos_windows(check_certificate_attempt_first, mutant) >= 1
