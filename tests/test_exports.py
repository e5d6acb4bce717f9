"""The package's public names: the root exports exactly the certificate API,
``__all__`` lists only what the package binds, a star import binds exactly
``__all__``, and the building blocks are imported from their own modules."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import irrcert
from irrcert import certificates

CERTIFICATE_API = {
    "Certificate", "CheckResult", "Claim", "ClaimKind", "EnclosureRecord",
    "RefutationMode", "SequenceId", "TransformRecord",
    "DegenerateClaimError", "InconclusiveError", "NegativeSquareUnsupportedError",
    "RefutationError", "SinZeroUnresolvedError",
    "refute", "check_certificate",
    "certificate_from_json", "certificate_to_jsonable", "to_canonical_json",
}

# the building blocks the root no longer re-exports, by their own module
BUILDING_BLOCKS = {
    "enclosure": ("EnclosureRequest", "Func", "TailBoundSpec", "TailKernel", "enclose",
                  "tail_bound"),
    "exactnum": ("DegreeBoundError", "IntPoly", "RatInterval", "format_rational",
                 "parse_rational", "sqrt_bounds"),
    "oracle": ("IntegrandFamily", "IntegrandSpec", "integrate"),
    "recurrences": ("CosSystemState", "SequencePair", "cos_system", "exp_sequence",
                    "pi_sequence", "tan_sequence"),
}


def test_the_root_exports_exactly_the_certificate_api():
    assert set(irrcert.__all__) == CERTIFICATE_API
    assert all(getattr(irrcert, name) is getattr(certificates, name) for name in CERTIFICATE_API)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in BUILDING_BLOCKS.items() for name in names]
)
def test_a_building_block_comes_from_its_own_module_only(module, name):
    assert hasattr(importlib.import_module(f"irrcert.{module}"), name)
    assert not hasattr(irrcert, name)


def test_importing_the_root_leaves_the_oracle_unloaded():
    src = Path(irrcert.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import irrcert; print(sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert "'irrcert.certificates'" in loaded
    assert "'irrcert.oracle'" not in loaded


def test_every_exported_name_is_an_attribute():
    missing = [name for name in irrcert.__all__ if not hasattr(irrcert, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from irrcert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(irrcert.__all__)
    assert len(set(irrcert.__all__)) == len(irrcert.__all__)
