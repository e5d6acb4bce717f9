"""The checker's single pass: pinned reasons, one stream per check that
stops where the search must have ended, and a cos series summed at most
once per search and twice per check.

The reason table was recorded from the checker that replayed each
certificate at its index and then reran the whole search; the one-pass
checker must give the same (ok, reason) for the corpus and every
criterion-5 mutant.
"""

import time
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hostile_documents import (
    COS_49_9, OUT_OF_BRACKET, PI_22_7, forged_index_text,
)
from test_acceptance import corpus_certificates, full_corpus, mutations

from irrcert import certificates, enclosure
from irrcert.certificates import (
    Claim, ClaimKind, InconclusiveError, SequenceId, certificate_from_json, check_certificate,
    refute,
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


# (track, claim, forged n from the canonical n, the first candidate index
# whose attempt must succeed: for pi every candidate, for this cos claim one
# past the canonical n = 1631)
FORGED_INDICES = [
    ("tan_track", PI_22_7, lambda n: 2 * n, 46),
    ("tan_track", PI_22_7, lambda n: 10**4, 46),
    ("tan_track", PI_22_7, lambda n: 10**5, 46),
    ("tan_track", PI_22_7, lambda n: 10**6, 46),
    ("cos_track", COS_49_9, lambda n: 3 * n, 1632),
]


@pytest.mark.parametrize("track,claim,forge,settled", FORGED_INDICES,
                         ids=["pi-2n", "pi-1e4", "pi-1e5", "pi-1e6", "cos-49/9-3n"])
def test_forged_index_stops_at_the_end_of_the_search(monkeypatch, track, claim, forge, settled):
    forged = certificate_from_json(forged_index_text(claim, forge))
    draws = []
    original = getattr(certificates, track)

    def counted(*args):
        for value in original(*args):
            draws.append(value)
            yield value

    monkeypatch.setattr(certificates, track, counted)
    start = time.perf_counter()
    result = check_certificate(forged)
    assert time.perf_counter() - start < 1
    assert (result.ok, result.reason) == (
        False, f"index past the end of the search at n={settled}")
    assert len(draws) <= settled + 1


def test_huge_argument_is_rejected_before_the_engine_builds(monkeypatch):
    def no_enclosure(*args):
        raise AssertionError("the checker built the zero-excluding enclosure")

    cert = certificate_from_json(OUT_OF_BRACKET["huge_argument"]())
    monkeypatch.setattr(certificates, "_enclosure_away_from_zero", no_enclosure)
    start = time.perf_counter()
    result = check_certificate(cert)
    assert time.perf_counter() - start < 1
    assert (result.ok, result.reason) == (
        False, f"index before the start of the search at n={10**14 + 1}")


@pytest.mark.parametrize("claim, degenerate, reason", [
    (Claim(ClaimKind.EXP, F(1), F(3)), Claim(ClaimKind.EXP, F(0), F(3)),
     "exp claim requires a nonzero exponent"),
    (Claim(ClaimKind.EXP, F(1), F(3)), Claim(ClaimKind.EXP, F(-1), F(-3)),
     "claimed value of an exponential must be positive"),
    (Claim(ClaimKind.PI, None, F(3)), Claim(ClaimKind.PI, None, F(-3)),
     "claimed value of pi must be positive"),
    (Claim(ClaimKind.PI_SQUARED, None, F(3)), Claim(ClaimKind.PI_SQUARED, None, F(0)),
     "claimed value of pi**2 must be positive"),
    (Claim(ClaimKind.COS, F(1), F(1, 2)), Claim(ClaimKind.COS, F(0), F(1, 2)),
     "cos claim requires a nonzero squared argument"),
], ids=["exp_t_0", "exp_negative", "pi_negative", "pi_squared_0", "cos_s_0"])
def test_a_degenerate_claim_keeps_its_reason_before_the_lower_check(claim, degenerate, reason):
    # the lower check reads the claim before the engine does, and must leave
    # the engine's own refusal as the reason
    result = check_certificate(refute(claim)._replace(claim=degenerate))
    assert (result.ok, result.reason) == (False, f"claim rejected on replay: {reason}")


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
    forged = cert._replace(sequence=SequenceId.J, witness=witness, bound=bound,
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


@pytest.mark.parametrize("kept", [None, 1, 2], ids=lambda k: f"kept={k}")
@pytest.mark.parametrize("claim", COS_FAMILY_CLAIMS, ids=lambda c: f"{c.kind.value}-{c.value}")
def test_canonicity_agrees_with_the_search(monkeypatch, claim, kept):
    # the check pass settles canonicity from the attempts it tries on the
    # way, a full kept list at once; the search it replaces would accept a
    # forged certificate exactly when rerunning refute up to its n returns it
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
        forged = cert._replace(n=n, sequence=sequence, witness=witness, bound=bound,
                               enclosures=enclosures)
        assert check_certificate(forged).ok == (_search(claim, n) == forged), (n, sequence)
        forged_count += 1
    assert forged_count >= 2


# sin**2(1) = 177/250: its certificate sits at (12, I) after four failing
# candidates, and (12, I) and most later candidate slots succeed
SIN_SQ_CLAIM = Claim(ClaimKind.SIN_SQ, F(1), F(177, 250))


def test_check_is_one_pass_when_the_kept_list_fills(monkeypatch):
    cert = refute(SIN_SQ_CLAIM)
    assert (cert.n, cert.sequence) == (12, SequenceId.I)
    monkeypatch.setattr(certificates, "_MAX_KEPT_ATTEMPTS", 2)
    draws = []
    original = certificates.cos_track

    def counted(*args):
        for value in original(*args):
            draws.append(value)
            yield value

    monkeypatch.setattr(certificates, "cos_track", counted)
    assert check_certificate(cert).ok
    assert len(draws) == cert.n + 1


def test_full_kept_list_is_tried_at_once_and_not_after_a_success(monkeypatch):
    # forged at the later (14, L), every local condition holds; with room for
    # one kept attempt, each earlier candidate is tried before the next slot
    # is drawn, and none after the canonical (12, I) succeeds
    cert = refute(SIN_SQ_CLAIM)
    engine_claim, _ = certificates._delegate(SIN_SQ_CLAIM)
    engine = certificates._CosSystem(engine_claim, certificates._DEFAULT_TARGET_WIDTH)
    for n, sequence, witness, _below, attempt in engine.stream(14):
        if (n, sequence) == (14, SequenceId.L):
            bound, enclosures = attempt()
    forged = cert._replace(n=14, sequence=SequenceId.L, witness=witness, bound=bound,
                           enclosures=enclosures)
    monkeypatch.setattr(certificates, "_MAX_KEPT_ATTEMPTS", 1)
    events = []
    stream = certificates._CosSystem.stream

    def tried(slot, attempt):
        accepted = attempt()
        events.append(("try", slot, accepted is not None))
        return accepted

    def traced(self, n_cap):
        for n, sequence, witness, below, attempt in stream(self, n_cap):
            events.append(("slot", (n, sequence)))
            if attempt is not None:
                attempt = partial(tried, (n, sequence), attempt)
            yield n, sequence, witness, below, attempt

    monkeypatch.setattr(certificates._CosSystem, "stream", traced)
    result = check_certificate(forged)
    assert (result.ok, result.reason) == (False, "not the canonical certificate for this claim")
    tries = [(i, event) for i, event in enumerate(events) if event[0] == "try"]
    assert all(events[i - 1] == ("slot", event[1]) for i, event in tries)
    assert [event[1] for _, event in tries] == [
        (10, SequenceId.I), (11, SequenceId.I), (11, SequenceId.J), (11, SequenceId.K),
        (12, SequenceId.I), (14, SequenceId.L),
    ]


# a deep-band cos claim (n = 133) whose check keeps earlier failed attempts
DEEP_COS_CLAIM = Claim(ClaimKind.COS, F(14), F(-83, 100))


@pytest.mark.parametrize("claim", COS_FAMILY_CLAIMS + [DEEP_COS_CLAIM],
                         ids=lambda c: f"{c.kind.value}-{c.arg}-{c.value}")
def test_cos_series_sums_once_per_search_and_twice_per_check(monkeypatch, claim):
    # each term step of a series computes one factor f_j; a series that
    # reaches N terms and never starts over computes N + 1 of them
    factors, reached = Counter(), Counter()
    factor, window = enclosure.Series._factor, enclosure.Series.window

    def counted_factor(series, j):
        factors[series] += 1
        return factor(series, j)

    def counted_window(series, width):
        result = window(series, width)
        reached[series] = max(reached[series], series.n)
        return result

    monkeypatch.setattr(enclosure.Series, "_factor", counted_factor)
    monkeypatch.setattr(enclosure.Series, "window", counted_window)
    cert = refute(claim)
    assert factors and all(factors[key] <= reached[key] + 1 for key in factors)
    factors.clear()
    reached.clear()
    assert check_certificate(cert).ok
    assert factors and all(factors[key] <= 2 * (reached[key] + 1) for key in factors)
