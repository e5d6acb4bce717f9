"""The record types are immutable named tuples: their repr strings, equality,
hashing and immutability hold, ``_replace`` validates its fields as the
constructor does, and a certificate survives pickle and deepcopy."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from irrcert import (
    Certificate, CheckResult, Claim, ClaimKind, EnclosureRecord, TransformRecord, refute,
)

TAN_CLAIM = Claim(ClaimKind.TAN, F(1), F(1, 2))


def test_repr_of_a_claim_and_a_certificate():
    assert repr(TAN_CLAIM) == (
        "Claim(kind=<ClaimKind.TAN: 'tan'>, arg=Fraction(1, 1), value=Fraction(1, 2))"
    )
    assert repr(refute(TAN_CLAIM)) == (
        "Certificate(claim=Claim(kind=<ClaimKind.TAN: 'tan'>, arg=Fraction(1, 1), "
        "value=Fraction(1, 2)), n=3, sequence=None, "
        "mode=<RefutationMode.NONZERO_SQUEEZE: 'nonzero_squeeze'>, witness=-152, "
        "bound=Fraction(25452046886187796875, 34715221111585751813), "
        "enclosures=(EnclosureRecord(fn='sin', arg=Fraction(2, 1), "
        "lo=Fraction(69430442223171503626, 76356140658563390625), "
        "hi=Fraction(1180317517793915561674, 1298054391195577640625)),), transform=None)"
    )
    assert repr(CheckResult(True)) == "CheckResult(ok=True, reason=None)"


@pytest.mark.parametrize("make", [
    lambda: Claim(ClaimKind.TAN, 1, "1/2"),
    lambda: Claim(kind=ClaimKind.PI, arg=None, value=F(22, 7)),
    lambda: EnclosureRecord("sin", F(2), F(0), F(1)),
    lambda: TransformRecord("sin_sq", Claim(ClaimKind.COS, F(4), F(-2, 5))),
    lambda: refute(TAN_CLAIM),
    lambda: CheckResult(False, "witness mismatch"),
])
def test_equal_records_hash_equal(make):
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


def test_a_changed_field_breaks_equality():
    assert Claim(ClaimKind.TAN, F(1), F(1, 3)) != TAN_CLAIM
    assert TAN_CLAIM._replace(value=F(1, 2)) == TAN_CLAIM


@pytest.mark.parametrize("record, field", [
    (TAN_CLAIM, "value"),
    (refute(TAN_CLAIM), "n"),
    (EnclosureRecord("sin", F(2), F(0), F(1)), "lo"),
    (CheckResult(True), "reason"),
])
def test_assigning_a_field_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_replace_converts_the_value():
    assert TAN_CLAIM._replace(value="1/2").value == F(1, 2)
    assert type(TAN_CLAIM._replace(value="1/2").value) is F
    assert type(TAN_CLAIM._replace(value="1/2")) is Claim


def test_replace_checks_the_argument_against_the_kind():
    with pytest.raises(ValueError, match="^claim kind tan requires an argument$"):
        TAN_CLAIM._replace(arg=None)
    with pytest.raises(ValueError, match="^claim kind pi takes no argument$"):
        TAN_CLAIM._replace(kind=ClaimKind.PI)


def test_a_certificate_survives_pickle_and_deepcopy():
    cert = refute(Claim(ClaimKind.SIN_SQ, F(1), F(7, 10)))
    for copied in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
        assert copied == cert
        assert type(copied) is Certificate
        assert type(copied.claim) is Claim
        assert type(copied.transform.delegated) is Claim
        assert repr(copied) == repr(cert)
