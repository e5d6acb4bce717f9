"""Byte-identity fence: the benchmark's recorded certificate digests.

The benchmark (``perfbench/``) checks the SHA-256 of the canonical
certificates of the first two batches of each run against
``perfbench/digests.json``.  This test recomputes seed 0 of both workloads
from the package alone, so that a change to the search that alters one byte
of a certificate fails here before it reaches the benchmark.  It reads the
benchmark's files and changes none of them.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import ClaimStream  # noqa: E402

from irrcert import Claim, ClaimKind, refute, to_canonical_json  # noqa: E402

CORE_BATCHES = 2
SEED = 0


def _program_claim(claim) -> Claim:
    kind = getattr(ClaimKind, claim.kind.upper().replace("-", "_"))
    return Claim(kind, claim.arg, claim.value)


@pytest.mark.parametrize("workload", ["shallow", "deep"])
def test_first_batches_match_recorded_digest(workload):
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload][str(SEED)]
    stream = ClaimStream(workload, SEED)
    texts = []
    for _ in range(CORE_BATCHES):
        for claim in stream.next_batch():
            texts.append(to_canonical_json(refute(_program_claim(claim))))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == recorded
