"""Hostile and non-canonical variants of one canonical certificate document,
and canonical documents whose index lies outside their claim's bracket.

Each ``HOSTILE`` case maps the canonical text of a certificate with an
enclosure, a transform and the claim argument "1/1" (sin_sq(1) = 7/10 has
all three) to a document that ``certificate_from_json`` must reject with
ValueError and ``irrcert verify`` with exit 1.  Each ``OUT_OF_BRACKET`` case
is a document that parses but names an index the search cannot end at;
``check_certificate`` must reject it and ``irrcert verify`` exit 4, each in
under a second.  The checker, parser and CLI tests share them.
"""

import json
import threading
from fractions import Fraction
from functools import lru_cache, partial

from irrcert.certificates import Claim, ClaimKind, refute, to_canonical_json


@lru_cache(maxsize=1)
def canonical_text() -> str:
    return to_canonical_json(refute(Claim(ClaimKind.SIN_SQ, Fraction(1), Fraction(7, 10))))


def _with_raw(text: str, path: tuple, raw: str) -> str:
    """``text`` with the field at ``path`` replaced by the raw JSON ``raw``."""
    doc = json.loads(text)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "\0"
    out = json.dumps(doc, sort_keys=True, separators=(",", ":")).replace('"\\u0000"', raw)
    assert out != text
    return out


def _escape_digit(text: str) -> str:
    out = text.replace('"arg":"1/1"', '"arg":"\\u0031/1"', 1)
    assert out != text and json.loads(out) == json.loads(text)
    return out


# name -> function of the canonical text
HOSTILE = {
    "pretty": lambda t: json.dumps(json.loads(t), indent=2, sort_keys=True),
    "reordered_keys":
        lambda t: json.dumps(dict(reversed(json.loads(t).items())), separators=(",", ":")),
    "duplicate_key": lambda t: t[:-1] + f',"n":{json.loads(t)["n"]}}}',
    "trailing_space": lambda t: t + " ",
    "crlf": lambda t: t + "\r\n",
    "two_newlines": lambda t: t + "\n\n",
    "escaped_digit": _escape_digit,
}
HOSTILE.update(
    (f"{field}_{raw}", partial(_with_raw, path=(field,), raw=raw))
    for field in ("witness", "bound", "n")
    for raw in ("Infinity", "-Infinity", "NaN", "1e400")
)
HOSTILE.update(
    (f"{name}_nested_{depth}", partial(_with_raw, path=path, raw="[" * depth + "]" * depth))
    for name, path in (("fn", ("enclosures", 0, "fn")), ("identity", ("transform", "identity")))
    for depth in range(980, 1001)
)


PI_22_7 = Claim(ClaimKind.PI, None, Fraction(22, 7))
COS_49_9 = Claim(ClaimKind.COS, Fraction(49, 9), Fraction(1, 3))


@lru_cache(maxsize=None)
def canonical(claim: Claim):
    return refute(claim)


def forged_index_text(claim: Claim, forge) -> str:
    """The canonical certificate of ``claim`` with its index n set to forge(n)."""
    cert = canonical(claim)
    return to_canonical_json(cert._replace(n=forge(cert.n)))


def forged_claim_text(claim: Claim, field: str, old: str, new: str, size: int, n=None) -> str:
    """The canonical certificate of ``claim`` with the first ``"field":"old"``
    (the claim's own, as "claim" sorts before the enclosures) set to ``new``
    and, if given, its index set to n: ``size`` bytes that parse, for a claim
    whose bound rises far past that index."""
    cert = canonical(claim)
    text = to_canonical_json(cert if n is None else cert._replace(n=n))
    out = text.replace(f'"{field}":"{old}"', f'"{field}":"{new}"', 1)
    assert out != text and len(out) == size
    return out


# name -> function giving the document
OUT_OF_BRACKET = {
    # tan(1) = 1/2 at t = 10**7: the bound rises until n = 10**14
    "huge_argument": partial(forged_claim_text, Claim(ClaimKind.TAN, Fraction(1), Fraction(1, 2)),
                             "arg", "1/1", "10000000/1", 344),
    "cos_49_9_n_tripled": partial(forged_index_text, COS_49_9, lambda n: 3 * n),
    # each below at n = 2 * 10**4, far below its bound's peak; without the
    # lower check the checker steps the tracks all the way there, in time
    # quadratic in n
    "pi_huge_value": partial(forged_claim_text, PI_22_7, "value", "22/7", "10000000/1", 485, 20000),
    "pi_squared_huge_value": partial(
        forged_claim_text, Claim(ClaimKind.PI_SQUARED, None, Fraction(10)),
        "value", "10/1", "100000000/1", 361, 20000),
    "exp_huge_argument": partial(forged_claim_text, Claim(ClaimKind.EXP, Fraction(1), Fraction(3)),
                                 "arg", "1/1", "1000/1", 178, 20000),
}
OUT_OF_BRACKET.update(
    (f"cos_s_{name}", partial(forged_claim_text, Claim(ClaimKind.COS, Fraction(1), Fraction(1, 2)),
                              "arg", "1/1", arg, size, 20000))
    for name, arg, size in (("999_1000", "999/1000", 365), ("minus_999_1000", "-999/1000", 366))
)
OUT_OF_BRACKET.update(
    (f"pi_22_7_n_1e{e}", partial(forged_index_text, PI_22_7, lambda n, e=e: 10**e))
    for e in (4, 5, 6)
)


def on_fresh_stack(fn, *args):
    """``fn(*args)`` in a new thread, whose stack starts almost empty as in a
    fresh ``irrcert`` process; under the test runner's own frames json.loads
    would refuse the deeply nested cases before the parser saw them."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:  # handed to the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
