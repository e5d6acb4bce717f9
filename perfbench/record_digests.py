"""Record the certificate digests that run.py checks, per workload and seed.

    python3 perfbench/record_digests.py 0-99

Run from the root of a source checkout whose certificates are known good:
the digests fence every later change, so record them only when a change is
meant to alter certificate bytes, and say so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

from run import CORE_BATCHES, DIGESTS, certificate_digest, load_package, program_claim
from workloads import WORKLOADS, ClaimStream


def main(argv) -> int:
    first, _, last = argv[1].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    irrcert = load_package(Path.cwd())

    recorded = json.loads(DIGESTS.read_text())
    for name in WORKLOADS:
        table = recorded.setdefault(name, {})
        for seed in seeds:
            stream = ClaimStream(name, seed)
            texts = []
            for _ in range(CORE_BATCHES):
                for claim in stream.next_batch():
                    cert = irrcert.refute(program_claim(irrcert, claim))
                    texts.append(irrcert.to_canonical_json(cert))
            table[str(seed)] = certificate_digest(texts)
            print(name, seed, table[str(seed)], flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
