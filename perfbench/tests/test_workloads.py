"""Determinism of the benchmark's claim streams and mutants.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_HOLES, MUTANTS, WORKLOADS, ClaimStream, StreamExhausted, claim_list_bytes,
    mutant_class, mutants,
)

BATCHES = {"shallow": 12, "deep": 6}


def _claims(name, seed, batches):
    stream = ClaimStream(name, seed)
    return [claim for _ in range(batches) for claim in stream.next_batch()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_claim_bytes(name):
    first = claim_list_bytes(_claims(name, 7, BATCHES[name]))
    second = claim_list_bytes(_claims(name, 7, BATCHES[name]))
    assert first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_distinct_claims_in_band(name):
    claims = _claims(name, 8, BATCHES[name])
    assert claim_list_bytes(claims) != claim_list_bytes(_claims(name, 7, BATCHES[name]))
    assert len(set(claims)) == len(claims)
    workload = WORKLOADS[name]
    for claim in claims:
        lo, hi = workload.kinds[claim.kind].band
        estimate = workloads.estimated_index(claim.kind, claim.arg, claim.value)
        assert lo <= estimate <= hi, claim


def test_a_drained_stream_says_so_instead_of_repeating_claims():
    stream = ClaimStream("deep", 5)
    seen = []
    with pytest.raises(StreamExhausted):
        for _ in range(200):
            seen.extend(stream.next_batch())
    assert len(set(seen)) == len(seen)


def test_deep_rotates_every_sound_mutant_class_over_every_kind():
    deep = WORKLOADS["deep"]
    assert sorted(deep.mutant_classes) == sorted(name for name, _, _ in MUTANTS
                                                 if name not in KNOWN_HOLES)
    for position in range(len(deep.kinds)):
        seen = {mutant_class(deep, batch, position)
                for batch in range(len(deep.mutant_classes))}
        assert seen == set(deep.mutant_classes)
    assert mutant_class(WORKLOADS["shallow"], 5, 3) == "witness_plus_1"


@pytest.mark.parametrize("name,batches", [("shallow", 2), ("deep", 1)])
def test_certificate_indices_stay_in_the_stated_band(name, batches):
    irrcert = pytest.importorskip("irrcert")
    from run import program_claim

    for claim in _claims(name, 8, batches):
        cert = irrcert.refute(program_claim(irrcert, claim))
        lo, hi = WORKLOADS[name].kinds[claim.kind].index_band
        assert lo <= cert.n <= hi, (claim, cert.n)


def test_each_mutant_changes_one_field_of_the_document():
    irrcert = pytest.importorskip("irrcert")
    from fractions import Fraction

    claim = irrcert.Claim(irrcert.ClaimKind.TAN, Fraction(1), Fraction(1557, 1000))
    text = irrcert.to_canonical_json(irrcert.refute(claim))
    docs = dict(mutants(text, [name for name, _, _ in MUTANTS]))
    assert set(docs) == {name for name, _, _ in MUTANTS}
    original = json.loads(text)
    for name, doc in docs.items():
        changed = {key for key, value in json.loads(doc).items() if value != original[key]}
        assert len(changed) == 1, (name, changed)
    assert KNOWN_HOLES == {"value_doubled_terms", "witness_underscore", "value_json_number"}
