"""End-to-end tests of the command-line interface via main(argv)."""

import argparse
import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest

import irrcert.cli as cli
from irrcert.certificates import _KINDS, ClaimKind
from irrcert.cli import format_decimal, main

from hostile_documents import (
    HOSTILE, LARGE_NUMBERS, OUT_OF_BRACKET, canonical_text, on_fresh_stack,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatDecimal:
    def test_examples(self):
        assert format_decimal(Fraction(1, 8), 3) == "0.125"
        assert format_decimal(Fraction(-1, 8), 3) == "-0.125"
        assert format_decimal(Fraction(22, 7), 2) == "3.14"
        assert format_decimal(Fraction(2), 3) == "2.000"
        assert format_decimal(Fraction(999, 1000), 2) == "0.99"
        assert format_decimal(Fraction(-1, 3), 5) == "-0.33333"


class TestRefute:
    def test_pi_json_on_stdout(self, capsys):
        code, out, err = run(capsys, "refute", "--kind", "pi", "--value", "22/7")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["claim"] == {"kind": "pi", "arg": None, "value": "22/7"}
        assert doc["n"] == 46

    def test_hyperbolic_cos(self, capsys):
        code, out, _ = run(
            capsys, "refute", "--kind", "cos", "--arg-squared", "-1", "--value", "3/2"
        )
        assert code == 0
        assert json.loads(out)["sequence"] == "I"

    def test_degenerate_exits_2(self, capsys):
        code, out, err = run(capsys, "refute", "--kind", "tan", "--arg", "0", "--value", "0")
        assert code == 2 and out == ""
        assert "degenerate" in err

    def test_zero_exclusion_failure_exits_1(self, capsys):
        # t = c/2 for a pi convergent c with |c - pi| < 2**-200
        code, out, err = run(
            capsys, "refute", "--kind", "tan",
            "--arg", "3295067114621516485591085556500/2097704876446252886867843209438",
            "--value", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_square_exits_2(self, capsys):
        code, _, err = run(
            capsys, "refute", "--kind", "tan-ratio", "--arg-squared", "-1", "--value", "1/2"
        )
        assert code == 2
        assert "unsupported" in err

    def test_inconclusive_exits_3_with_diagnostic(self, capsys):
        code, out, err = run(
            capsys,
            "refute", "--kind", "cos", "--arg-squared", "9", "--value", "2", "--n-cap", "4",
        )
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "inconclusive",
            "last_n": 4,
            "last_bound": "1162261467/2048",
            "largest_bound": "1162261467/2048",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("refute", "--kind", "tan", "--arg-squared", "1", "--value", "2"),
            ("refute", "--kind", "cos", "--arg", "1", "--value", "1/2"),
            ("refute", "--kind", "pi", "--arg", "1", "--value", "22/7"),
            ("refute", "--kind", "tan", "--value", "2"),
            ("refute", "--kind", "nope", "--value", "2"),
            ("refute", "--kind", "tan", "--arg", "abc", "--value", "2"),
            ("refute", "--kind", "tan", "--arg", "1/0", "--value", "2"),
            ("refute", "--kind", "tan", "--arg", "1", "--value", "2", "--n-cap", "-1"),
            ("nonsense",),
            (),
        ],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err != ""

    def test_output_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            "refute", "--kind", "exp", "--arg", "1", "--value", "19/7",
            "--output", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["witness"] == "0"

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "refute", "--kind", "pi", "--value", "22/7",
            "--output", str(tmp_path / "absent" / "cert.json"),
        )
        assert code == 1 and out == ""
        assert err.startswith("cannot write") and err.count("\n") == 1

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            "refute", "--kind", "cos", "--arg-squared", "1", "--value", "1/2",
            "--format", "text",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "claim: cos(1/1) = 1/2"
        assert "sequence: I" in lines
        assert "witness: -2" in lines
        assert any(line.startswith("enclosure: cos_from_s(1/1)") for line in lines)

    def test_byte_identical_reruns(self, capsys):
        argv = ("refute", "--kind", "tan", "--arg", "1", "--value", "1557/1000")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestKindTable:
    def test_cli_kinds_follow_the_table(self):
        refute_parser = next(
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices["refute"]
        kind_flag = next(a for a in refute_parser._actions if a.dest == "kind")
        assert sorted(kind_flag.choices) == sorted(
            kind.value.replace("_", "-") for kind in ClaimKind
        )
        assert len(_KINDS) == len(ClaimKind) and set(_KINDS) == set(ClaimKind)


class TestVerify:
    def refute_to_file(self, capsys, tmp_path, *argv):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "refute", *argv, "--output", str(path))
        assert code == 0
        return path

    def test_round_trip_valid(self, capsys, tmp_path):
        path = self.refute_to_file(
            capsys, tmp_path, "--kind", "cos", "--arg-squared", "1", "--value", "1/2"
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert (code, out) == (0, "VALID\n")

    def test_mutated_witness_invalid(self, capsys, tmp_path):
        path = self.refute_to_file(
            capsys, tmp_path, "--kind", "tan", "--arg", "1", "--value", "1557/1000"
        )
        doc = json.loads(path.read_text())
        doc["witness"] = str(int(doc["witness"]) + 1)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 4
        assert out == "INVALID: witness mismatch\n"

    def test_truncated_file_exits_1(self, capsys, tmp_path):
        path = self.refute_to_file(
            capsys, tmp_path, "--kind", "pi", "--value", "22/7"
        )
        path.write_text(path.read_text()[:40])
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert "malformed" in err

    @pytest.mark.parametrize(
        "field,hostile",
        [
            # witness_underscore: int() reads "-3_960448" as -3960448
            ("witness", lambda doc: doc["witness"][:2] + "_" + doc["witness"][2:]),
            # value_doubled_terms: the same value, not in lowest terms
            ("value", lambda doc: "3114/2000"),
            # value_json_number: a JSON number where a string belongs
            ("value", lambda doc: 1.557),
        ],
        ids=["witness_underscore", "value_doubled_terms", "value_json_number"],
    )
    def test_non_canonical_documents_exit_1(self, capsys, tmp_path, field, hostile):
        path = self.refute_to_file(
            capsys, tmp_path, "--kind", "tan", "--arg", "1", "--value", "1557/1000"
        )
        doc = json.loads(path.read_text())
        target = doc if field == "witness" else doc["claim"]
        target[field] = hostile(doc)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert "malformed certificate" in err

    @pytest.mark.parametrize("mangle", HOSTILE.values(), ids=HOSTILE.keys())
    def test_hostile_documents_exit_1(self, capsys, tmp_path, mangle):
        path = tmp_path / "cert.json"
        path.write_bytes(mangle(canonical_text()).encode("utf-8"))
        code, out, err = on_fresh_stack(run, capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("malformed certificate") and err.count("\n") == 1

    @pytest.mark.parametrize("make", OUT_OF_BRACKET.values(), ids=OUT_OF_BRACKET.keys())
    def test_out_of_bracket_documents_exit_4(self, capsys, tmp_path, make):
        path = tmp_path / "cert.json"
        path.write_text(make())
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 1
        assert (code, err) == (4, "") and out.startswith("INVALID: index ")

    @pytest.mark.parametrize("make", LARGE_NUMBERS.values(), ids=LARGE_NUMBERS.keys())
    def test_large_numbers_exit_1_or_4(self, capsys, tmp_path, make):
        path = tmp_path / "cert.json"
        path.write_text(make(10**5))
        code, out, err = run(capsys, "verify", str(path))
        if code == 1:
            assert out == "" and err.startswith("malformed certificate") and err.count("\n") == 1
        else:
            assert (code, err) == (4, "") and out.startswith("INVALID: ")

    def test_deeply_nested_document_exits_1(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert "malformed certificate" in err
        assert "Traceback" not in err

    def test_lenient_argument_parsing_stays(self, capsys):
        # the strict grammar is for certificate documents only
        code, out, _ = run(capsys, "refute", "--kind", "pi", "--value", " 44/14")
        assert code == 0
        assert json.loads(out)["claim"]["value"] == "22/7"

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 1
        assert "cannot read" in err

    def test_non_utf8_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("cannot read") and err.count("\n") == 1

    def test_target_width_is_gone(self, capsys, tmp_path):
        # a certificate verifies from the document alone, at the one width
        path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "refute", "--kind", "tan", "--arg", "1", "--value", "2", "--output", str(path)
        )
        assert code == 0
        code, out, err = run(
            capsys,
            "refute", "--kind", "tan", "--arg", "1", "--value", "2", "--target-width", "1/4096",
        )
        assert code == 1 and out == "" and "unrecognized arguments" in err
        code, out, err = run(capsys, "verify", str(path), "--target-width", "1/4096")
        assert code == 1 and out == "" and "unrecognized arguments" in err
        assert run(capsys, "verify", str(path))[:2] == (0, "VALID\n")


class TestTable:
    def test_pi_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--engine", "pi", "--n", "3")
        assert code == 0
        assert json.loads(out) == {
            "engine": "pi",
            "variable": "r",
            "rows": [
                {"n": 0, "p": [2]},
                {"n": 1, "p": [4]},
                {"n": 2, "p": [24, 0, -2]},
                {"n": 3, "p": [240, 0, -24]},
            ],
        }

    def test_tan_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--engine", "tan", "--n", "1")
        assert json.loads(out)["rows"] == [
            {"n": 0, "u": [1], "v": []},
            {"n": 1, "u": [2], "v": [0, -1]},
        ]

    def test_cos_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--engine", "cos", "--n", "0")
        doc = json.loads(out)
        assert doc["variable"] == "s"
        assert doc["rows"][0]["K"] == {"u": [-2, 1], "v": [2]}
        assert doc["rows"][0]["L"] == {"u": [-6, 3], "v": [6]}

    @pytest.mark.parametrize("engine,digest", [
        ("tan", "30952fc33f5fe2a9b396d4a2f10a62fb98071c68106cc300a99c8d23df0c0698"),
        ("pi", "faa4d1d0c57618ff7c5835aaa047889a3d8df90e309c5dae4197512a7e82ba85"),
        ("exp", "a1114f93ab5dd394037edebea9ec0e242fcfbf4b658efbb79be031ddb80b9229"),
        ("cos", "e1967dee2894eacf46a114e2e54920a43625d4dbe1eb7975513e26c94f9a4b9c"),
    ])
    def test_table_bytes_are_pinned(self, capsys, engine, digest):
        # SHA-256 of the whole stdout, recorded from the polynomial engines
        # that stepped IntPoly coordinates directly
        code, out, _ = run(capsys, "table", "--engine", engine, "--n", "30")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_negative_n_exits_1(self, capsys):
        code, _, _ = run(capsys, "table", "--engine", "pi", "--n", "-1")
        assert code == 1

    def test_unknown_engine_exits_1(self, capsys):
        code, _, _ = run(capsys, "table", "--engine", "sinh", "--n", "2")
        assert code == 1


class TestOracleCheck:
    def test_agreement_exits_0(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--family", "cos-K", "--n", "0", "--r", "1")
        # cos-K at n=0 integrates z**2 * sin(1 - z): value -1 + 2 cos 1
        assert (code, out) == (
            0, "basis: 1 cos(r) sin(r)\nrecurrence: -1/1 2/1 0/1\nintegral: -1/1 2/1 0/1\n"
        )

    def test_exp_kernel_basis(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--family", "exp-kernel", "--n", "1", "--r", "1")
        # (r - 2) e**r + r + 2 at r = 1
        assert (code, out) == (0, "basis: 1 exp(r)\nrecurrence: 3/1 -1/1\nintegral: 3/1 -1/1\n")

    def test_nonpositive_r_exits_1(self, capsys):
        code, _, _ = run(capsys, "oracle-check", "--family", "cos-K", "--n", "0", "--r", "-1")
        assert code == 1

    @pytest.mark.parametrize("option", [("--subdivisions", "64"), ("--precision-bits", "128")])
    def test_dropped_options_exit_1(self, capsys, option):
        code, out, err = run(
            capsys, "oracle-check", "--family", "sin-kernel", "--n", "0", "--r", "1", *option
        )
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    def test_disagreement_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "integrate", lambda *args: (Fraction(1), Fraction(-1), Fraction(1, 10**30))
        )
        code, out, _ = run(capsys, "oracle-check", "--family", "sin-kernel", "--n", "0", "--r", "1")
        assert code == 5
        assert out.splitlines()[1:] == [
            "recurrence: 1/1 -1/1 0/1", "integral: 1/1 -1/1 1/1000000000000000000000000000000",
        ]

    def test_output_bytes_are_pinned(self):
        # every family at three indices and two limits, recorded from the
        # exact oracle; every run exits 0
        digest = hashlib.sha256()
        for family in ("sin-kernel", "exp-kernel", "cos-I", "cos-J", "cos-K", "cos-L"):
            for n in (0, 3, 12):
                for r in ("1", "7/5"):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(["oracle-check", "--family", family, "--n", str(n), "--r", r])
                    assert code == 0
                    digest.update(f"{code}\n{out.getvalue()}".encode())
        assert digest.hexdigest() == (
            "32671120ecdad6e2e83b2e7fd7840daad1f215175aa81c94b6ae80d983bc4abd"
        )
