"""The README's examples, run as written.

Each ``$ irrcert ...`` line of a shell block runs through ``cli.main`` in a
temporary directory, and its stdout must be the lines that follow it in the
block, up to the next ``$`` line.  A shell line without ``$`` that writes a
file (``--output``) runs first, in README order, so that a later transcript
can read the file.  The Python blocks run in order, one line at a time: a
``print`` must print its trailing comment, and an expression whose trailing
comment starts with a Python literal (up to a colon) must equal it.
"""

import ast
import re
import shlex
from pathlib import Path

from irrcert.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _shell_steps():
    """(argv, expected stdout or None) for every command the README runs."""
    steps = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ irrcert "):
                end = next((j for j in range(i + 1, len(lines)) if lines[j].startswith("$ ")),
                           len(lines))
                expected = "".join(f"{out}\n" for out in lines[i + 1:end])
                steps.append((shlex.split(line[2:], comments=True)[1:], expected))
            elif line.startswith("irrcert ") and "--output" in line:
                steps.append((shlex.split(line, comments=True)[1:], None))
    return steps


SHELL_STEPS = _shell_steps()


def test_the_readme_shows_each_command():
    shown = [argv[:3] for argv, expected in SHELL_STEPS if expected is not None]
    assert shown == [["refute", "--kind", "cos"], ["verify", "pi355.json"],
                     ["table", "--engine", "pi"], ["oracle-check", "--family", "cos-K"]]
    assert ["refute", "--kind", "pi", "--value", "355/113", "--output", "pi355.json"] in [
        argv for argv, expected in SHELL_STEPS if expected is None]


def test_every_shell_transcript_matches(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, expected in SHELL_STEPS:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if expected is not None:
            assert out == expected, argv


def _commented_lines(block):
    """(code, comment) for every line of a Python block; comment may be None."""
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        yield code.rstrip(), comment.strip() or None


def _literal(comment):
    """The Python literal a comment starts with, up to a colon, or None."""
    try:
        return True, ast.literal_eval(comment.partition(":")[0])
    except (ValueError, SyntaxError):
        return False, None


def test_the_python_blocks_give_their_commented_results(capsys):
    # the second block goes on from the first, which imports Fraction
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace, checked = {}, []
    for code, comment in _commented_lines("".join(blocks)):
        try:
            compiled = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(compiled, namespace)
        printed = capsys.readouterr().out
        if comment is None:
            continue
        if code.startswith("print("):
            assert printed == comment + "\n", code
            checked.append(code)
            continue
        is_literal, literal = _literal(comment)
        if is_literal:
            assert value == literal, code
            checked.append(code)
    assert checked == ["print(cert.n, check_certificate(cert).ok)",
                       "coefficients(IntegrandFamily.COS_K, 0)"]
