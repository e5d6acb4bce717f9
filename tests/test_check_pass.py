"""The checker's single pass: pinned reasons and one stream per check.

The reason table was recorded from the checker that replayed each
certificate at its index and then reran the whole search; the one-pass
checker must give the same (ok, reason) for the corpus and every
criterion-5 mutant.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from test_acceptance import corpus_certificates, full_corpus, mutations

from irrcert import certificates
from irrcert.certificates import (
    Claim, ClaimKind, InconclusiveError, SequenceId, check_certificate, refute,
)


def F(*args):
    return Fraction(*args)


GATE = "decay gate not satisfied at certificate index"
COS_LABELS = ("cos1-1/2", "cosh1-3/2", "sin2-7/10", "cos2-1/4")

# mutation -> (reason for every corpus certificate that gets this mutation,
# {label: reason} where it differs); the corpus certificates are all VALID
PINNED_REASONS = {
    "witness+1": ("witness mismatch", {}),
    "witness-1": ("witness mismatch", {}),
    "n+1": ("witness mismatch", {}),
    "n-1": ("witness mismatch", {label: GATE for label in COS_LABELS}),
    "sequence-added": ("malformed: unexpected sequence id", {}),
    "sequence-swap": ("witness mismatch", {"sin2-7/10": GATE, "cos2-1/4": GATE}),
    "bound-num+1": ("bound mismatch", {}),
    "enclosure-added": ("enclosure transcript mismatch", {}),
    "enclosure-widened": ("enclosure transcript mismatch", {}),
}


def test_pinned_reasons_cover_the_corpus():
    certs = corpus_certificates()
    assert len(certs) == 24
    assert sum(1 for entry in certs for _ in mutations(entry[2])) == 168


@pytest.mark.parametrize("label", [entry[0] for entry in full_corpus()])
def test_pinned_reasons(label):
    cert = next(entry[2] for entry in corpus_certificates() if entry[0] == label)
    result = check_certificate(cert)
    assert (result.ok, result.reason) == (True, None)
    for name, mutant in mutations(cert):
        usual, exceptions = PINNED_REASONS[name]
        result = check_certificate(mutant)
        assert (result.ok, result.reason) == (False, exceptions.get(label, usual)), name


THREE_TERM_CLAIMS = [
    ("tan_track", Claim(ClaimKind.TAN, F(1), F(1557, 1000))),
    ("tan_track", Claim(ClaimKind.TAN, F(-3, 2), F(14))),
    ("tan_ratio_track", Claim(ClaimKind.TAN_RATIO, F(1), F(14, 9))),
    ("tan_track", Claim(ClaimKind.PI, None, F(22, 7))),
    ("pi_squared_track", Claim(ClaimKind.PI_SQUARED, None, F(227, 23))),
    ("exp_track", Claim(ClaimKind.EXP, F(2), F(7))),
    ("exp_track", Claim(ClaimKind.EXP, F(1), F(19, 7))),
]


@pytest.mark.parametrize("track,claim", THREE_TERM_CLAIMS)
def test_three_term_check_is_one_pass(monkeypatch, track, claim):
    cert = refute(claim)
    draws = []
    original = getattr(certificates, track)

    def counted(*args):
        for value in original(*args):
            draws.append(value)
            yield value

    def no_search(*args, **kwargs):
        raise AssertionError("the checker reran the search")

    monkeypatch.setattr(certificates, track, counted)
    monkeypatch.setattr(certificates, "refute", no_search)
    assert check_certificate(cert).ok
    assert len(draws) == cert.n + 1


def test_forged_cos_sequence_is_rejected_without_search(monkeypatch):
    # at (n=1, J) every local condition holds for cos 1 = 1/2, but (1, I)
    # comes first in the stream and succeeds, so only the earlier attempt,
    # kept by the check pass, can reject it
    claim = Claim(ClaimKind.COS, F(1), F(1, 2))
    cert = refute(claim)
    engine = certificates._CosSystem(claim, certificates._DEFAULT_TARGET_WIDTH)
    for n, sequence, witness, _below, attempt in engine.stream(1):
        if (n, sequence) == (1, SequenceId.J):
            bound, enclosures = attempt()
            break
    forged = replace(cert, sequence=SequenceId.J, witness=witness, bound=bound,
                     enclosures=enclosures)
    calls = []
    search = certificates.refute

    def counted_search(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(certificates, "refute", counted_search)
    result = check_certificate(forged)
    assert (result.ok, result.reason) == (False, "not the canonical certificate for this claim")
    assert len(calls) == 0


# cos-family claims whose streams up to the canonical n hold earlier slots
# that succeed, earlier slots whose attempts fail, and later slots at the
# canonical n
COS_FAMILY_CLAIMS = [
    Claim(ClaimKind.COS, F(1), F(1, 2)),
    Claim(ClaimKind.COS, F(-1), F(3, 2)),
    Claim(ClaimKind.COS, F(2), F(-416, 1000)),
    Claim(ClaimKind.COS, F(1), F(5403, 10000)),
    Claim(ClaimKind.SIN_SQ, F(1), F(708, 1000)),
    Claim(ClaimKind.COS_SQ, F(1, 4), F(77, 100)),
    Claim(ClaimKind.TAN_SQ, F(3), F(2, 37)),
]


def _search(claim, n_cap):
    try:
        return refute(claim, n_cap=n_cap)
    except InconclusiveError:
        return None


@pytest.mark.parametrize("kept", [None, 0, 2], ids=lambda k: f"kept={k}")
@pytest.mark.parametrize("claim", COS_FAMILY_CLAIMS, ids=lambda c: f"{c.kind.value}-{c.value}")
def test_canonicity_agrees_with_the_search(monkeypatch, claim, kept):
    # the check pass settles canonicity from the attempts it kept (and a
    # second pass past them); the search it replaces would accept a forged
    # certificate exactly when rerunning refute up to its n returns it
    if kept is not None:
        monkeypatch.setattr(certificates, "_MAX_KEPT_ATTEMPTS", kept)
    cert = refute(claim)
    engine_claim, _ = certificates._delegate(claim)
    engine = certificates._CosSystem(engine_claim, certificates._DEFAULT_TARGET_WIDTH)
    forged_count = 0
    for n, sequence, witness, _below, attempt in engine.stream(cert.n):
        if attempt is None:
            continue
        accepted = attempt()
        bound, enclosures = accepted if accepted is not None else (cert.bound, cert.enclosures)
        forged = replace(cert, n=n, sequence=sequence, witness=witness, bound=bound,
                         enclosures=enclosures)
        assert check_certificate(forged).ok == (_search(claim, n) == forged), (n, sequence)
        forged_count += 1
    assert forged_count >= 2
