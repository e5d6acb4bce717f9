"""The certificate parser against the write-back parser it replaced.

``tests/reference.py`` keeps the parser that converted every number, wrote
the certificate back with the writer and compared bytes, so that the writer
alone stated the format.  ``certificate_from_json`` checks the document's own
strings instead, and never calls the writer.  On every document here the two
agree: both raise ValueError, or both return equal certificates.
"""

import re
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hostile_documents import HOSTILE, canonical_text, on_fresh_stack
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import certificate_from_json as write_back_parse
from test_acceptance import corpus_certificates

from irrcert import certificates
from irrcert.certificates import Claim, ClaimKind, certificate_from_json, refute, to_canonical_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import MUTANTS, ClaimStream, mutants  # noqa: E402

# the benchmark's digested batches of seed 0
STREAM_BATCHES = 2


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _assert_agree(text):
    assert _outcome(certificate_from_json, text) == _outcome(write_back_parse, text)


def _corpus_texts():
    return [to_canonical_json(entry[2]) for entry in corpus_certificates()]


@lru_cache(maxsize=None)
def _stream_texts(workload: str):
    stream = ClaimStream(workload, 0)
    texts = []
    for _ in range(STREAM_BATCHES):
        for claim in stream.next_batch():
            kind = getattr(ClaimKind, claim.kind.upper().replace("-", "_"))
            texts.append(to_canonical_json(refute(Claim(kind, claim.arg, claim.value))))
    return texts


def test_corpus_documents_agree():
    texts = _corpus_texts()
    assert len(texts) == 24
    for text in texts:
        assert certificate_from_json(text) == write_back_parse(text)


@pytest.mark.parametrize("workload", ["shallow", "deep"])
def test_stream_documents_and_every_mutant_class_agree(workload):
    classes = [name for name, _, _ in MUTANTS]
    rejected = set()
    for text in _stream_texts(workload):
        _assert_agree(text)
        for name, mutant in mutants(text, classes):
            _assert_agree(mutant)
            if _outcome(write_back_parse, mutant) is ValueError:
                rejected.add(name)
    # perfbench's three known holes are each rejected at parse
    assert {"value_doubled_terms", "witness_underscore", "value_json_number"} <= rejected


@pytest.mark.parametrize("mangle", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_documents_agree(mangle):
    text = mangle(canonical_text())
    assert on_fresh_stack(_outcome, certificate_from_json, text) is ValueError
    assert on_fresh_stack(_outcome, write_back_parse, text) is ValueError


def _small_documents():
    texts = [canonical_text()] + _stream_texts("shallow") + _corpus_texts()
    return [text for text in texts if len(text) <= 2000]


# digits, the signs and separators of a rational, space, a non-ASCII digit
# raw and as the JSON escape that gets it past the layout check, and a few
# JSON and int() delimiters
EDIT_ALPHABET = (*"0123456789-/ ٣_+.e\",:{}[]", "\\u0663")


@settings(max_examples=600, derandomize=True, deadline=None)
@given(data=st.data(), edit=st.sampled_from(["insert", "delete", "replace"]),
       char=st.sampled_from(EDIT_ALPHABET))
def test_one_character_edits_agree(data, edit, char):
    text = data.draw(st.sampled_from(_small_documents()))
    at = data.draw(st.integers(0, len(text) - (edit != "insert")))
    if edit == "insert":
        text = text[:at] + char + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    else:
        text = text[:at] + char + text[at + 1:]
    _assert_agree(text)


def _edits(text: str, at: int):
    """Every document one edit away from text at position at."""
    yield text[:at] + text[at + 1:]
    for char in EDIT_ALPHABET:
        yield text[:at] + char + text[at:]
        yield text[:at] + char + text[at + 1:]


@pytest.mark.parametrize("text", [canonical_text(), _corpus_texts()[0]], ids=["sin_sq", "corpus0"])
def test_edits_at_the_ends_of_every_number_agree(text):
    # where a sign, a leading zero or a separator matters: each number's
    # first and last characters and those around its sign and its slash
    spans = [match.span(2) for match in
             re.finditer(r'"(witness|bound|arg|value|lo|hi)":"([^"]*)"', text)]
    assert len(spans) >= 3
    for start, end in spans:
        slash = text.find("/", start, end)
        places = {start, start + 1, end - 1, end} | ({slash, slash + 1} if slash >= 0 else set())
        for at in places:
            for edited in _edits(text, at):
                _assert_agree(edited)


def test_non_str_documents_raise_value_error():
    text = canonical_text()
    for document in (text.encode(), bytearray(text.encode())):
        with pytest.raises(ValueError):
            certificate_from_json(document)


def test_the_parser_never_calls_the_writer(monkeypatch):
    texts = _corpus_texts() + [mangle(canonical_text()) for mangle in HOSTILE.values()]
    expected = [on_fresh_stack(_outcome, write_back_parse, text) for text in texts]

    def writer(*args):
        raise AssertionError("the parser called the writer")

    for name in ("to_canonical_json", "certificate_to_jsonable", "format_rational"):
        monkeypatch.setattr(certificates, name, writer)
    assert [on_fresh_stack(_outcome, certificate_from_json, text) for text in texts] == expected
