"""The benchmark's tracer still sees the layers it wraps.

``perfbench/run.py`` times the program's layers by wrapping names where the
search and the checker look them up.  A refactor that stops going through
one of those names makes its layer read zero in a traced benchmark run
without any error; this test fails instead.  It imports the benchmark's
tracer and changes none of its files.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import irrcert
from irrcert import Claim, ClaimKind

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

SPANS = (
    "certificates.refute",
    "certificates.check",
    "enclosure.enclose",
    "exactnum.sqrt_bounds",
)


def _install_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.install_tracer(irrcert)


def test_traced_layers_fire():
    tracer = _install_tracer()
    tracer.active = True
    try:
        for claim in (Claim(ClaimKind.TAN, Fraction(1), Fraction(1557, 1000)),
                      Claim(ClaimKind.COS, Fraction(1), Fraction(1, 2))):
            assert irrcert.check_certificate(irrcert.refute(claim)).ok
    finally:
        tracer.active = False
        tracer.unpatch()
    totals = tracer.totals()
    for span in SPANS:
        assert totals[span][0] >= 1, span
