"""The package's public names: the root exports exactly the certificate API,
``__all__`` lists only what the package binds, a star import binds exactly
``__all__``, the building blocks are imported from their own modules and
take their arguments directly, and the package holds no test-only reference
code and imports only the standard library."""

import ast
import importlib
import inspect
import subprocess
import sys
from dataclasses import is_dataclass
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
    "enclosure": ("Func", "enclose"),
    "exactnum": ("RatInterval", "format_rational", "parse_rational", "sqrt_bounds"),
    "oracle": ("IntegrandFamily", "coefficients", "integrate"),
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


@pytest.mark.parametrize("module, function, parameters", [
    ("enclosure", "enclose", ["fn", "x", "width"]),
    ("oracle", "integrate", ["family", "n", "r"]),
    ("oracle", "coefficients", ["family", "n"]),
])
def test_a_building_block_takes_its_arguments_directly(module, function, parameters):
    # no request object is built to be handed straight to the function, so its
    # module defines no dataclass at all
    mod = importlib.import_module(f"irrcert.{module}")
    assert list(inspect.signature(getattr(mod, function)).parameters) == parameters
    assert [name for name, value in vars(mod).items()
            if is_dataclass(value) and value.__module__ == mod.__name__] == []


# the test-only reference code that lives in tests/reference.py instead
MOVED_TO_THE_TESTS = {
    "enclosure": ("TailKernel", "tail_bound"),
    "exactnum": ("DegreeBoundError", "IntPoly"),
    "oracle": ("clear_cache",),
    "recurrences": ("cos_system", "descent_identity_check", "exp_sequence", "pi_sequence",
                    "tan_sequence"),
}


@pytest.mark.parametrize(
    "owner, name", [(owner, name) for owner, names in MOVED_TO_THE_TESTS.items() for name in names]
)
def test_the_test_only_reference_code_is_gone_from_the_package(owner, name):
    module, _, cls = owner.partition(".")
    found = importlib.import_module(f"irrcert.{module}")
    assert not hasattr(getattr(found, cls) if cls else found, name)


# what only the quadrature oracle used
GONE = {
    "oracle": ("_node_cache", "_power_cache", "_cache_lock"),
    "enclosure.Func": ("COS",),
    "exactnum.RatInterval": ("midpoint",),
}


@pytest.mark.parametrize(
    "owner, name", [(owner, name) for owner, names in GONE.items() for name in names]
)
def test_the_quadrature_and_its_helpers_are_gone(owner, name):
    module, _, cls = owner.partition(".")
    found = importlib.import_module(f"irrcert.{module}")
    assert not hasattr(getattr(found, cls) if cls else found, name)


@pytest.mark.parametrize("function", ["refute", "check_certificate"])
def test_no_target_width_parameter(function):
    assert "target_width" not in inspect.signature(getattr(certificates, function)).parameters


@pytest.mark.parametrize("name", ["SequencePair", "CosSystemState"])
def test_the_polynomial_views_have_no_wrapper_type(name):
    # the tracks yield plain integers and tuples, and the polynomial views
    # live in tests/reference.py, so recurrences defines no type at all
    recurrences = importlib.import_module("irrcert.recurrences")
    assert not hasattr(recurrences, name)
    assert [key for key, value in vars(recurrences).items()
            if isinstance(value, type) and value.__module__ == recurrences.__name__] == []


def test_the_package_imports_only_the_standard_library_and_itself():
    # pins pyproject's empty dependency list, and keeps src/ from importing
    # the test-side reference code
    foreign = []
    for path in sorted(Path(irrcert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["irrcert" if node.level else node.module]
            else:
                continue
            foreign += [(path.name, m) for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names | {"irrcert"}]
    assert foreign == []


def test_importing_the_root_leaves_the_oracle_unloaded():
    src = Path(irrcert.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import irrcert; print(sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert "'irrcert.certificates'" in loaded
    assert "'irrcert.oracle'" not in loaded


@pytest.mark.parametrize("module", ["irrcert", "irrcert.cli"])
def test_importing_leaves_dataclasses_and_inspect_unloaded(module):
    # -S: no .pth file under site-packages runs, so what is loaded is the
    # package's own doing
    src = Path(irrcert.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; "
            "print(sorted(sys.modules))")
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert f"'{module}'" in loaded
    assert "'dataclasses'" not in loaded
    assert "'inspect'" not in loaded


def test_every_exported_name_is_an_attribute():
    missing = [name for name in irrcert.__all__ if not hasattr(irrcert, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from irrcert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(irrcert.__all__)
    assert len(set(irrcert.__all__)) == len(irrcert.__all__)
