"""Tests for the refutation engines, the checker, and serialization."""

import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irrcert.certificates import (
    _KINDS,
    Certificate,
    Claim,
    ClaimKind,
    DegenerateClaimError,
    EnclosureRecord,
    InconclusiveError,
    NegativeSquareUnsupportedError,
    RefutationMode,
    SequenceId,
    SinZeroUnresolvedError,
    TransformRecord,
    certificate_from_json,
    check_certificate,
    refute,
    to_canonical_json,
)

from hostile_documents import HOSTILE, canonical_text, on_fresh_stack
from reference import cos_system, eval_scaled_integer
from test_acceptance import corpus_certificates


def F(*args):
    return Fraction(*args)


class TestEngineLandingSpots:
    """First verified run constants, kept as regression anchors."""

    def test_pi_three(self):
        cert = refute(Claim(ClaimKind.PI, None, F(3)))
        assert (cert.n, cert.witness) == (6, 104382)
        assert cert.mode is RefutationMode.POSITIVE_SQUEEZE
        assert cert.sequence is None and cert.enclosures == ()

    def test_pi_squared_ten(self):
        cert = refute(Claim(ClaimKind.PI_SQUARED, None, F(10)))
        assert (cert.n, cert.witness) == (7, -394240)
        assert len(cert.enclosures) == 1 and cert.enclosures[0].fn == "sqrt"

    def test_exp_convergent_witness_zero_is_fine(self):
        # 19/7 is a continued-fraction convergent of e, so the forced
        # integer vanishes; positivity of the integral still contradicts it
        cert = refute(Claim(ClaimKind.EXP, F(1), F(19, 7)))
        assert (cert.n, cert.witness) == (2, 0)
        assert cert.mode is RefutationMode.POSITIVE_SQUEEZE
        assert check_certificate(cert).ok

    def test_exp_squared(self):
        cert = refute(Claim(ClaimKind.EXP, F(2), F(7)))
        assert (cert.n, cert.witness) == (4, -224)

    def test_cos_one_half(self):
        cert = refute(Claim(ClaimKind.COS, F(1), F(1, 2)))
        assert (cert.n, cert.sequence, cert.witness) == (1, SequenceId.I, -2)
        assert cert.bound < 1 and cert.witness != 0

    def test_cosh_hyperbolic_path(self):
        cert = refute(Claim(ClaimKind.COS, F(-1), F(3, 2)))
        assert (cert.n, cert.sequence, cert.witness) == (
            5,
            SequenceId.I,
            -1724014125907680,
        )

    def test_tan_one(self):
        cert = refute(Claim(ClaimKind.TAN, F(1), F(1557, 1000)))
        assert (cert.n, cert.witness) == (7, -3960448)
        assert cert.enclosures[0].fn == "sin"

    def test_tan_ratio(self):
        cert = refute(Claim(ClaimKind.TAN_RATIO, F(1), F(14, 9)))
        assert (cert.n, cert.witness) == (4, -16)
        assert [rec.fn for rec in cert.enclosures] == ["sinc_from_s", "sqrt"]

    def test_tan_ratio_at_one_half(self):
        cert = refute(Claim(ClaimKind.TAN_RATIO, F(1, 4), F(1)))
        assert (cert.n, cert.witness) == (3, -640)

    def test_tan_deep_index(self):
        # n = 3043 with a 17358-digit witness; refute and verify together
        # take well under a second on the integer tracks
        cert = refute(Claim(ClaimKind.TAN, F(355, 113), F(1)))
        assert (cert.n, len(str(abs(cert.witness)))) == (3043, 17358)
        assert check_certificate(cert).ok

    def test_squared_trig_delegation(self):
        cert = refute(Claim(ClaimKind.SIN_SQ, F(1), F(7, 10)))
        assert cert.transform == TransformRecord(
            "sin_sq", Claim(ClaimKind.COS, F(4), F(-2, 5))
        )
        cert = refute(Claim(ClaimKind.COS_SQ, F(1), F(1, 4)))
        assert cert.transform.delegated == Claim(ClaimKind.COS, F(4), F(-1, 2))
        cert = refute(Claim(ClaimKind.TAN_SQ, F(1), F(9, 4)))
        assert cert.transform.delegated == Claim(ClaimKind.COS, F(4), F(-5, 13))


class TestNormalization:
    def test_tan_is_odd(self):
        pos = refute(Claim(ClaimKind.TAN, F(1), F(1557, 1000)))
        neg = refute(Claim(ClaimKind.TAN, F(-1), F(-1557, 1000)))
        assert (neg.n, neg.witness, neg.bound) == (pos.n, pos.witness, pos.bound)
        assert check_certificate(neg).ok

    def test_exp_negative_exponent(self):
        pos = refute(Claim(ClaimKind.EXP, F(1), F(19, 7)))
        neg = refute(Claim(ClaimKind.EXP, F(-1), F(7, 19)))
        assert (neg.n, neg.witness, neg.bound) == (pos.n, pos.witness, pos.bound)
        assert check_certificate(neg).ok


class TestDegenerateClaims:
    @pytest.mark.parametrize(
        "claim",
        [
            Claim(ClaimKind.TAN, F(0), F(0)),
            Claim(ClaimKind.EXP, F(0), F(1)),
            Claim(ClaimKind.EXP, F(1), F(-2)),
            Claim(ClaimKind.EXP, F(1), F(0)),
            Claim(ClaimKind.PI, None, F(-1)),
            Claim(ClaimKind.PI, None, F(0)),
            Claim(ClaimKind.PI_SQUARED, None, F(-1)),
            Claim(ClaimKind.COS, F(0), F(1)),
            Claim(ClaimKind.TAN_RATIO, F(0), F(1)),
            Claim(ClaimKind.SIN_SQ, F(0), F(0)),
            Claim(ClaimKind.TAN_SQ, F(1), F(-1)),
        ],
    )
    def test_rejected(self, claim):
        with pytest.raises(DegenerateClaimError):
            refute(claim)

    def test_tan_ratio_negative_square_unsupported(self):
        with pytest.raises(NegativeSquareUnsupportedError):
            refute(Claim(ClaimKind.TAN_RATIO, F(-1), F(1, 2)))

    def test_claim_argument_arity_validated(self):
        with pytest.raises(ValueError):
            Claim(ClaimKind.PI, F(1), F(22, 7))
        with pytest.raises(ValueError):
            Claim(ClaimKind.TAN, None, F(1))


class TestInconclusive:
    def test_cap_reached_reports_bounds(self):
        with pytest.raises(InconclusiveError) as info:
            refute(Claim(ClaimKind.COS, F(9), F(2)), n_cap=4)
        assert info.value.last_n == 4
        assert info.value.largest_bound is not None
        assert info.value.largest_bound >= 1

    def test_pi_with_tiny_cap(self):
        with pytest.raises(InconclusiveError) as info:
            refute(Claim(ClaimKind.PI, None, F(22, 7)), n_cap=3)
        assert info.value.last_n == 3
        assert info.value.last_bound > 1

    # (claim, n_cap, last_bound, largest_bound), recorded from the search
    # that evaluated a Fraction bound at every index; the corpus never
    # reaches this path, so these pin its diagnostics.  Small caps stop
    # before or at the bound's peak, caps of n - 1 stop past it.
    PINNED = [
        (Claim(ClaimKind.TAN, F(1), F(1557, 1000)), 3,
         "12726023443093898437500/34715221111585751813",
         "76356140658563390625000/34715221111585751813"),
        (Claim(ClaimKind.TAN, F(1), F(1557, 1000)), 6,
         "212100390718231640625/69430442223171503626",
         "76356140658563390625000/34715221111585751813"),
        (Claim(ClaimKind.TAN, F(3, 2), F(-14)), 7,
         "641685914826391378944000/521126015052362119157437",
         "28042095031096317050880000/521126015052362119157437"),
        (Claim(ClaimKind.TAN_RATIO, F(1), F(14, 9)), 2,
         "687205265927070515625/69430442223171503626",
         "687205265927070515625/34715221111585751813"),
        (Claim(ClaimKind.TAN_RATIO, F(1), F(14, 9)), 3,
         "229068421975690171875/69430442223171503626",
         "687205265927070515625/34715221111585751813"),
        (Claim(ClaimKind.PI, None, F(22, 7)), 3, "19487171/7203", "19487171/7203"),
        (Claim(ClaimKind.PI, None, F(22, 7)), 45,
         "3991752525806366807142706250946898793976707904191394898908669641212605833694395345300019971"
         "/3059996751780507314531551777010370245292717194608178901169535792123908578418360320000000000",
         "255476698618765889551019445759400441/26327556568969158387935232000"),
        (Claim(ClaimKind.PI_SQUARED, None, F(227, 23)), 5,
         "34929954429636658167144910812169/2266735911777429702574080",
         "34929954429636658167144910812169/2266735911777429702574080"),
        (Claim(ClaimKind.PI_SQUARED, None, F(10)), 6,
         "60764298632432457134375/56668397794435742564352",
         "1458343167178378971225/147573952589676412928"),
        (Claim(ClaimKind.EXP, F(2), F(7)), 2, "7/1", "14/1"),
        (Claim(ClaimKind.EXP, F(2), F(7)), 3, "7/3", "14/1"),
        (Claim(ClaimKind.COS, F(9), F(2)), 4, "1162261467/2048", "1162261467/2048"),
        (Claim(ClaimKind.COS, F(-1), F(3, 2)), 2, "9864103/1814400", "9864103/1814400"),
        (Claim(ClaimKind.COS, F(-1), F(3, 2)), 4, "9864103/5443200", "9864103/1814400"),
        (Claim(ClaimKind.COS, F(5), F(-3, 5)), 15,
         "84249833334845749359125109260787919884764989027250911801034752367235733217604458332061767578125"
         "/5080756631749080752307669055811039947559320730512768535001572723519757412336425546321059905536",
         "552139707743245102999962316051499711756795832088991575579261353113916101214892578125"
         "/266784973602776514255907549460016939693934044669635859546910273554231850690412544"),
        (Claim(ClaimKind.SIN_SQ, F(1), F(7, 10)), 3, "512/3", "512/3"),
        (Claim(ClaimKind.SIN_SQ, F(1), F(7, 10)), 9, "32768/2835", "512/3"),
        (Claim(ClaimKind.COS_SQ, F(1), F(1, 4)), 9, "32768/2835", "512/3"),
        (Claim(ClaimKind.TAN_SQ, F(1), F(9, 4)), 9, "32768/2835", "512/3"),
    ]

    @pytest.mark.parametrize("claim,n_cap,last,largest", PINNED)
    def test_pinned_diagnostics(self, claim, n_cap, last, largest):
        with pytest.raises(InconclusiveError) as info:
            refute(claim, n_cap=n_cap)
        assert info.value.last_n == n_cap
        assert info.value.last_bound == F(last)
        assert info.value.largest_bound == F(largest)

    def test_negative_cap_reports_no_bounds(self):
        for claim in (Claim(ClaimKind.TAN, F(1), F(2)), Claim(ClaimKind.PI, None, F(3)),
                      Claim(ClaimKind.COS, F(1), F(1, 2))):
            with pytest.raises(InconclusiveError) as info:
                refute(claim, n_cap=-1)
            assert (info.value.last_n, info.value.last_bound, info.value.largest_bound) == (
                -1, None, None)


class TestZeroExclusionFailure:
    # a pi convergent with |c - pi| < 2**-200: sin c, and sinc at 4s for
    # s = (c/2)**2, straddle zero at every width the halvings reach
    c = F(3295067114621516485591085556500, 1048852438223126443433921604719)

    @pytest.mark.parametrize("claim", [
        Claim(ClaimKind.TAN, c / 2, F(1)),
        Claim(ClaimKind.TAN_RATIO, (c / 2) ** 2, F(1)),
    ], ids=["tan", "tan_ratio"])
    def test_reports_the_last_width_tried(self, claim):
        # 64 enclosures from the default width 2**-64: the last is at 2**-127
        start = time.perf_counter()
        with pytest.raises(SinZeroUnresolvedError, match=f"at width {F(1, 2 ** 127)}$"):
            refute(claim)
        assert time.perf_counter() - start < 1


class TestHypothesisIndependence:
    def test_nonzero_enclosures_ignore_claimed_value(self):
        # rigor side of the tan squeeze depends on r only, never on p/q
        one = refute(Claim(ClaimKind.TAN, F(1), F(1557, 1000)))
        other = refute(Claim(ClaimKind.TAN, F(1), F(2)))
        assert one.enclosures == other.enclosures


class TestChecker:
    def test_structural_rejections(self):
        cert = refute(Claim(ClaimKind.TAN, F(1), F(2)))
        assert not check_certificate(cert._replace(n=-1)).ok
        assert not check_certificate(cert._replace(sequence=SequenceId.I)).ok
        assert not check_certificate(
            cert._replace(mode=RefutationMode.POSITIVE_SQUEEZE)
        ).ok
        assert not check_certificate(
            cert._replace(
                transform=TransformRecord("sin_sq", Claim(ClaimKind.COS, F(4), F(1, 3))),
            )
        ).ok
        cos_cert = refute(Claim(ClaimKind.COS, F(1), F(1, 2)))
        assert not check_certificate(cos_cert._replace(sequence=None)).ok

    # an index that is not an int must not reach the stream: True == 1 would
    # replay as n = 1, and a float breaks the integer arithmetic
    @pytest.mark.parametrize("claim, n", [
        (Claim(ClaimKind.COS, F(1), F(1, 2)), True),
        (Claim(ClaimKind.COS, F(1), F(1, 2)), 1.0),
        (Claim(ClaimKind.PI, None, F(355, 113)), 755.0),
    ])
    def test_a_non_integer_index_is_malformed(self, claim, n):
        cert = refute(claim)._replace(n=n)
        assert check_certificate(cert).reason == "malformed: index n must be an integer"

    def test_transform_mutations(self):
        cert = refute(Claim(ClaimKind.SIN_SQ, F(1), F(7, 10)))
        wrong_value = cert._replace(
            transform=TransformRecord("sin_sq", Claim(ClaimKind.COS, F(4), F(1, 5)))
        )
        assert check_certificate(wrong_value).reason == "transform mismatch"
        wrong_identity = cert._replace(
            transform=TransformRecord("cos_sq", cert.transform.delegated)
        )
        assert check_certificate(wrong_identity).reason == "transform mismatch"

    def test_witness_and_bound_mutations(self):
        cert = refute(Claim(ClaimKind.PI, None, F(22, 7)))
        assert check_certificate(cert._replace(witness=cert.witness + 1)).reason == "witness mismatch"
        worse = cert._replace(bound=cert.bound + 1)
        assert check_certificate(worse).reason == "bound mismatch"

    def test_enclosure_mutation(self):
        cert = refute(Claim(ClaimKind.COS, F(1), F(1, 2)))
        widened = cert._replace(
            enclosures=(cert.enclosures[0]._replace(lo=F(-2), hi=F(2)),),
        )
        assert check_certificate(widened).reason == "enclosure transcript mismatch"

    def test_non_canonical_sequence_rejected(self):
        # at (n=1, J) the cos engine's local conditions all hold for the
        # claim cos 1 = 1/2, but the canonical search picks (1, I); a
        # record-replay-only checker would wave this certificate through
        from irrcert.certificates import _CosSystem, _reduced

        claim = Claim(ClaimKind.COS, F(1), F(1, 2))
        cert = refute(claim)
        _, (ju, jv), _, _ = cos_system(1)[1]
        witness = 2 * eval_scaled_integer(ju, 1, 1, 3) + 1 * eval_scaled_integer(jv, 1, 1, 3)
        assert witness == -10
        engine = _CosSystem(claim)
        engine.build()
        accepted = _reduced(engine, engine._attempt(
            eval_scaled_integer(ju, 1, 1, 3),
            eval_scaled_integer(jv, 1, 1, 3),
        ))
        assert accepted is not None
        bound, enclosures = accepted
        forged = cert._replace(
            sequence=SequenceId.J,
            witness=witness,
            bound=bound,
            enclosures=enclosures,
        )
        result = check_certificate(forged)
        assert not result.ok
        assert result.reason == "not the canonical certificate for this claim"

    def test_checker_rejects_degenerate_claim_certificates(self):
        cert = refute(Claim(ClaimKind.TAN, F(1), F(2)))
        doctored = cert._replace(claim=Claim(ClaimKind.TAN, F(0), F(2)))
        result = check_certificate(doctored)
        assert not result.ok
        assert "rejected on replay" in result.reason


# st.fractions() draws about twice as slowly
any_rational = st.builds(Fraction, st.integers(), st.integers(min_value=1))


def _claims() -> st.SearchStrategy:
    """Any claim: a kind, an argument exactly when the kind takes one, a value."""
    return st.sampled_from(ClaimKind).flatmap(lambda kind: st.builds(
        Claim, st.just(kind), st.none() if _KINDS[kind].arg is None else any_rational,
        any_rational,
    ))


# every well-typed certificate, whether or not it is a proof of anything
any_certificate = st.builds(
    Certificate,
    claim=_claims(),
    n=st.integers(min_value=-5, max_value=10**6),
    sequence=st.none() | st.sampled_from(SequenceId),
    mode=st.sampled_from(RefutationMode),
    witness=st.integers(),
    bound=any_rational,
    enclosures=st.lists(
        st.builds(EnclosureRecord, st.text(), any_rational, any_rational, any_rational),
        max_size=3,
    ).map(tuple),
    transform=st.none() | st.builds(TransformRecord, st.text(), _claims()),
)


class TestSerialization:
    def test_schema_shape(self):
        cert = refute(Claim(ClaimKind.PI_SQUARED, None, F(10)))
        doc = json.loads(to_canonical_json(cert))
        assert set(doc) == {
            "version", "claim", "n", "sequence", "mode",
            "witness", "bound", "enclosures", "transform",
        }
        assert doc["version"] == 1
        assert doc["claim"] == {"kind": "pi_squared", "arg": None, "value": "10/1"}
        assert isinstance(doc["n"], int)
        assert doc["witness"] == "-394240"
        assert doc["mode"] == "positive_squeeze"
        assert "/" in doc["bound"]
        assert set(doc["enclosures"][0]) == {"fn", "arg", "lo", "hi"}

    def test_round_trip_and_byte_stability(self):
        for claim in [
            Claim(ClaimKind.TAN, F(1), F(2)),
            Claim(ClaimKind.COS, F(-1), F(3, 2)),
            Claim(ClaimKind.SIN_SQ, F(1), F(7, 10)),
            Claim(ClaimKind.PI, None, F(22, 7)),
        ]:
            cert = refute(claim)
            text = to_canonical_json(cert)
            assert to_canonical_json(refute(claim)) == text
            restored = certificate_from_json(text)
            assert restored == cert
            assert to_canonical_json(restored) == text

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(any_certificate)
    def test_every_certificate_the_writer_accepts_parses_back_to_itself(self, cert):
        assert certificate_from_json(to_canonical_json(cert)) == cert

    # the writer refuses what the parser would refuse, rather than writing
    # "n":true or "n":1.0
    @pytest.mark.parametrize("n", [True, 1.0])
    def test_the_writer_refuses_a_non_integer_index(self, n):
        cert = refute(Claim(ClaimKind.COS, F(1), F(1, 2)))._replace(n=n)
        with pytest.raises(ValueError, match="^index n must be an integer$"):
            to_canonical_json(cert)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.update(version=2),
            lambda d: d.pop("bound"),
            lambda d: d.update(extra=1),
            lambda d: d.update(witness=5),
            lambda d: d.update(n=True),
            lambda d: d.update(n="7"),
            lambda d: d.update(sequence="Z"),
            lambda d: d.update(mode="squeeze"),
            lambda d: d.update(enclosures={}),
            lambda d: d.update(claim={"kind": "tan"}),
            lambda d: d.update(transform={"identity": "sin_sq"}),
            lambda d: d.update(version=True),
            lambda d: d.update(version=1.0),
            # only the canonical integer and rational strings are accepted
            lambda d: d.update(witness="+" + d["witness"]),
            lambda d: d.update(witness="0" + d["witness"]),
            lambda d: d.update(witness=d["witness"] + " "),
            lambda d: d.update(witness=d["witness"][:2] + "_" + d["witness"][2:]),
            lambda d: d.update(witness="٣"),
            lambda d: d.update(witness="-0"),
            lambda d: d.update(bound="2/4"),
            lambda d: d.update(bound="1/-2"),
            lambda d: d.update(bound="-1/-2"),
            lambda d: d.update(bound="1/0"),
            lambda d: d.update(bound="1"),
            lambda d: d.update(bound="1/2/3"),
            lambda d: d.update(bound=0.5),
            lambda d: d["claim"].update(value="4/2"),
            lambda d: d["claim"].update(value="0/2"),
            lambda d: d["claim"].update(value=2),
            lambda d: d["claim"].update(arg=""),
            lambda d: d["claim"].update(arg=["1/1"]),
            lambda d: d["enclosures"][0].update(lo=0),
            lambda d: d["enclosures"][0].update(hi="1/1.0"),
        ],
    )
    def test_malformed_documents_rejected(self, mangle):
        doc = json.loads(to_canonical_json(refute(Claim(ClaimKind.TAN, F(1), F(2)))))
        mangle(doc)
        # dumped canonically, so that each mangle is rejected for its own defect
        with pytest.raises(ValueError):
            certificate_from_json(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    def test_unmangled_canonical_dump_parses(self):
        cert = refute(Claim(ClaimKind.TAN, F(1), F(2)))
        doc = json.loads(to_canonical_json(cert))
        assert certificate_from_json(json.dumps(doc, sort_keys=True, separators=(",", ":"))) == cert

    @pytest.mark.parametrize("mangle", HOSTILE.values(), ids=HOSTILE.keys())
    def test_non_canonical_and_hostile_documents_raise_value_error(self, mangle):
        # pytest.raises lets any other exception type through as an error
        with pytest.raises(ValueError):
            on_fresh_stack(certificate_from_json, mangle(canonical_text()))

    def test_nested_cases_reach_past_the_decoder(self):
        # on a fresh stack the shallowest nested cases decode, so they test
        # the parser's own type checks and not json.loads' recursion limit
        for name in ("fn_nested_980", "identity_nested_980"):
            assert isinstance(on_fresh_stack(json.loads, HOSTILE[name](canonical_text())), dict)

    def test_corpus_certificates_round_trip(self):
        for label, _claim, cert, *_rest in corpus_certificates():
            assert certificate_from_json(to_canonical_json(cert)) == cert, label

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            certificate_from_json("[" * 100000 + "]" * 100000)

    def test_not_json_rejected(self):
        with pytest.raises(ValueError):
            certificate_from_json("{not json")
        with pytest.raises(ValueError):
            certificate_from_json("[1,2,3]")


class TestFineWidthPins:
    """Certificates whose enclosures are thousands of bits finer than the
    default width, and one through the s < 0 (cosh) series; n and the
    SHA-256 of the canonical JSON were recorded before the enclosure series
    was summed over a common integer denominator."""

    @pytest.mark.parametrize("claim,n,digest", [
        (Claim(ClaimKind.SIN_SQ, F(7, 5), F(1, 2)), 532,
         "b0f31fa85abbe7ce973f69bbf6c4d5d1e8931026cc8087a5697bc7e23f04175a"),
        (Claim(ClaimKind.COS, F(-4), F(376, 100)), 87,
         "8c63d97bdf326388d8026104df3e2c29d7ee542fa3652233e008d37da5f5aeec"),
    ], ids=["sin_sq_7_5", "cosh_2"])
    def test_certificate_bytes(self, claim, n, digest):
        cert = refute(claim)
        text = to_canonical_json(cert)
        assert cert.n == n
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert check_certificate(certificate_from_json(text)).ok


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from([ClaimKind.TAN, ClaimKind.COS, ClaimKind.EXP]),
    a=st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0),
    b=st.integers(min_value=1, max_value=6),
    p=st.integers(min_value=-40, max_value=40),
    q=st.integers(min_value=1, max_value=40),
)
def test_random_claims_produce_valid_certificates(kind, a, b, p, q):
    value = F(p, q)
    if kind is ClaimKind.EXP and value <= 0:
        value = value + 1 + abs(value)
    claim = Claim(kind, F(a, b), value)
    cert = refute(claim)
    assert check_certificate(cert).ok
    assert certificate_from_json(to_canonical_json(cert)) == cert
