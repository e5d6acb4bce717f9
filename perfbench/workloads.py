"""Seeded claim streams and certificate mutants for the irrcert benchmark.

Nothing here imports irrcert: claims are plain tuples ``(kind, arg, value)``
of CLI kind names and ``Fraction`` values, true values come from mpmath, and
each kind's certificate index is predicted by the closed-form crossing
estimate ``n ~ e * base`` (the index at which ``base**n / n!`` falls below a
constant).  A change to the program therefore cannot change its own workload.

A stream is a sequence of batches with one claim of every kind of the
workload.  Batch ``i`` aims each kind at a target index drawn from a
golden-ratio sequence over the kind's band; batches ``2j`` and ``2j+1`` share
their targets, so a traced batch and the untraced batch after it do the same
amount of work on different claims.  The seed picks the concrete argument
near each target; the targets and the value's digit count are the same
for every seed, so runs with different seeds do comparable work.
No claim is drawn twice in one stream.
"""

from __future__ import annotations

import bisect
import collections
import functools
import json
import math
import random
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import mpmath

mpmath.mp.dps = 60

_E = math.e
_PHI = (math.sqrt(5) - 1) / 2
# the target sequence is the same for every seed, and a seed picks among
# candidates whose estimate is within a few per cent of the one nearest the
# target, so that seeds differ in the claims but hardly in their cost.  The
# margin widens only when every claim near the target has been drawn.
_PHASE = 0.5
_MARGINS = (0.03, 0.1, 0.3, 1.0, math.inf)


class Claim(NamedTuple):
    kind: str               # CLI kind name, e.g. "tan-ratio"
    arg: Optional[Fraction]  # t for tan/exp, s = t**2 for the squared-argument kinds
    value: Fraction

    def cli_args(self) -> List[str]:
        # "--flag=value" keeps argparse from reading "-3/4" as an option
        args = [f"--kind={self.kind}"]
        if self.kind in ("tan", "exp"):
            args.append(f"--arg={_text(self.arg)}")
        elif self.arg is not None:
            args.append(f"--arg-squared={_text(self.arg)}")
        return args + [f"--value={_text(self.value)}"]

    def label(self) -> str:
        arg = "" if self.arg is None else f"({_text(self.arg)})"
        return f"{self.kind}{arg}={_text(self.value)}"


def _text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# closed-form index estimates: e * base, with base**n / n! the decaying factor
# of the kind's bound after its scale power is multiplied in
# ---------------------------------------------------------------------------

def _cos_base(s: Fraction) -> Fraction:
    # gate b**(2n+1) (s**2/4)**n / n!  (cosh: (2 s**2)**n) => a**2/4 or 2 a**2
    a = abs(s.numerator)
    return Fraction(a * a, 4) if s > 0 else Fraction(2 * a * a)


def estimated_index(kind: str, arg: Optional[Fraction], value: Fraction) -> float:
    if kind == "pi":
        base = Fraction(value.numerator ** 2, 4 * value.denominator)
    elif kind == "pi-squared":
        base = Fraction(value.numerator, 4)
    elif kind in ("tan", "exp"):
        r = 2 * abs(arg) if kind == "tan" else abs(arg)
        base = Fraction(r.numerator ** 2, 4 * r.denominator)
    elif kind == "tan-ratio":
        base = Fraction(arg.numerator)
    elif kind == "cos":
        base = _cos_base(arg)
    else:  # squared-trig kinds delegate to cos at 4s
        base = _cos_base(4 * arg)
    return _E * float(base)


# ---------------------------------------------------------------------------
# true values (mpmath, 60 digits) and decimal rounding of claimed values
# ---------------------------------------------------------------------------

def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def true_value(kind: str, arg: Optional[Fraction]):
    if kind == "pi":
        return +mpmath.pi
    if kind == "pi-squared":
        return mpmath.pi ** 2
    if kind == "tan":
        return mpmath.tan(_mp(arg))
    if kind == "exp":
        return mpmath.exp(_mp(arg))
    s = _mp(arg)
    if kind == "cos":
        return mpmath.cos(mpmath.sqrt(s)) if s > 0 else mpmath.cosh(mpmath.sqrt(-s))
    t = mpmath.sqrt(s)
    if kind == "tan-ratio":
        return mpmath.tan(t) / t
    if kind == "sin-sq":
        return mpmath.sin(t) ** 2
    if kind == "cos-sq":
        return mpmath.cos(t) ** 2
    if kind == "tan-sq":
        return mpmath.tan(t) ** 2
    raise ValueError(f"unknown kind {kind!r}")


def _rounded(x, digits: int) -> Fraction:
    scale = 10 ** digits
    return Fraction(int(mpmath.nint(x * scale)), scale)


def _degenerate(kind: str, value: Fraction) -> bool:
    # zero values, and the claims the program refuses up front, stay out
    if value == 0:
        return True
    if kind in ("pi", "pi-squared", "exp"):
        return value <= 0
    return kind == "tan-sq" and value == -1


# ---------------------------------------------------------------------------
# candidate pools: every small-height argument whose estimate is in the band
# ---------------------------------------------------------------------------

def _rationals(max_num: int, max_den: int, signed: bool) -> Iterator[Fraction]:
    for b in range(1, max_den + 1):
        for a in range(1, max_num + 1):
            if math.gcd(a, b) == 1:
                yield Fraction(a, b)
                if signed:
                    yield Fraction(-a, b)


class _Spec(NamedTuple):
    band: Tuple[int, int]        # estimated-index band the targets cover
    index_band: Tuple[int, int]  # stated band of the actual certificate index
    max_num: int
    max_den: int
    signed: bool = False
    value_range: Tuple[float, float] = (0.0, 0.0)  # pi kinds: claimed values
    digits: Tuple[int, ...] = (1, 2, 3, 4)  # decimal digits of claimed values


class Workload(NamedTuple):
    name: str
    kinds: Dict[str, _Spec]
    mutant_classes: Tuple[str, ...]


# ---------------------------------------------------------------------------
# certificate mutants: each changes one thing in a canonical document
# ---------------------------------------------------------------------------

def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _bump_numerator(text: str, delta: int) -> str:
    num, den = text.split("/")
    return f"{int(num) + delta}/{den}"


def _witness(delta):
    def mutate(doc):
        doc["witness"] = str(int(doc["witness"]) + delta)
    return mutate


def _bound_minus_1(doc):
    doc["bound"] = _bump_numerator(doc["bound"], -1)


def _n_plus_1(doc):
    doc["n"] += 1


def _n_times_2(doc):
    doc["n"] *= 2


def _value_plus_1(doc):
    doc["claim"]["value"] = _bump_numerator(doc["claim"]["value"], 1)


def _enclosure_lo(doc):
    if doc["enclosures"]:
        doc["enclosures"][0]["lo"] = _bump_numerator(doc["enclosures"][0]["lo"], -1)


def _value_doubled_terms(doc):
    num, den = doc["claim"]["value"].split("/")
    doc["claim"]["value"] = f"{2 * int(num)}/{2 * int(den)}"


def _witness_underscore(doc):
    w = doc["witness"]
    digits = w.lstrip("-")
    if len(digits) > 1:
        doc["witness"] = w[: len(w) - len(digits) + 1] + "_" + digits[1:]


def _value_json_number(doc):
    num, den = doc["claim"]["value"].split("/")
    doc["claim"]["value"] = int(num) / int(den)


# (class name, mutation, is a known hole: the checker accepts or crashes today)
MUTANTS = (
    ("witness_plus_1", _witness(1), False),
    ("witness_minus_1", _witness(-1), False),
    ("bound_num_minus_1", _bound_minus_1, False),
    ("n_plus_1", _n_plus_1, False),
    ("n_times_2", _n_times_2, False),
    ("value_num_plus_1", _value_plus_1, False),
    ("enclosure_lo", _enclosure_lo, False),
    ("value_doubled_terms", _value_doubled_terms, True),
    ("witness_underscore", _witness_underscore, True),
    ("value_json_number", _value_json_number, True),
)
KNOWN_HOLES = frozenset(name for name, _, hole in MUTANTS if hole)


def mutant_class(workload: "Workload", batch: int, position: int) -> str:
    """The one mutant class applied to the certificate at ``position`` in
    batch ``batch``: the classes rotate, so that over as many consecutive
    batches as there are classes, every class meets every kind once."""
    classes = workload.mutant_classes
    return classes[(batch + position) % len(classes)]


def mutants(canonical: str, classes) -> List[Tuple[str, str]]:
    """(class, document) for each class in ``classes`` that changes the bytes."""
    out = []
    for name, mutate, _ in MUTANTS:
        if name not in classes:
            continue
        doc = json.loads(canonical)
        mutate(doc)
        text = _canonical(doc)
        if text != canonical:
            out.append((name, text))
    return out


_SHALLOW_BAND = (2, 50), (0, 80)
_DEEP_BAND = (150, 400), (100, 600)
_DEEP_COS_BAND = (50, 140), (30, 200)
# deep arguments keep small denominators: the witness carries a factor b**n
# (b**(2n+1) for cos), so a larger b would make one claim cost several
# times its neighbour at the same index; six value digits keep the cos
# family's pools large enough
_DEEP_DIGITS = (1, 2, 3, 4, 5, 6)

WORKLOADS: Dict[str, Workload] = {
    "shallow": Workload(
        "shallow",
        {
            "tan": _Spec(*_SHALLOW_BAND, 12, 30, signed=True),
            "tan-ratio": _Spec(*_SHALLOW_BAND, 18, 30),
            "exp": _Spec(*_SHALLOW_BAND, 12, 30, signed=True),
            "pi": _Spec(*_SHALLOW_BAND, 46, 30, value_range=(1.0, 6.0)),
            "pi-squared": _Spec(*_SHALLOW_BAND, 73, 30, value_range=(5.0, 15.0)),
            "cos": _Spec(*_SHALLOW_BAND, 8, 30, signed=True),
            # 4s must have a numerator of at most 8 here, so only a wider
            # range of denominators gives these kinds enough distinct claims
            "sin-sq": _Spec(*_SHALLOW_BAND, 8, 60),
            "cos-sq": _Spec(*_SHALLOW_BAND, 8, 60),
            "tan-sq": _Spec(*_SHALLOW_BAND, 8, 60),
        },
        ("witness_plus_1",),
    ),
    "deep": Workload(
        "deep",
        {
            "tan": _Spec(*_DEEP_BAND, 60, 2, signed=True, digits=_DEEP_DIGITS),
            "tan-ratio": _Spec(*_DEEP_BAND, 150, 1, digits=_DEEP_DIGITS),
            "exp": _Spec(*_DEEP_BAND, 60, 2, signed=True, digits=_DEEP_DIGITS),
            "pi": _Spec(*_DEEP_BAND, 200, 60, value_range=(3.0, 3.3)),
            "pi-squared": _Spec(*_DEEP_BAND, 600, 60, value_range=(9.5, 10.2)),
            "cos": _Spec(*_DEEP_COS_BAND, 14, 2, signed=True, digits=_DEEP_DIGITS),
            "sin-sq": _Spec(*_DEEP_COS_BAND, 14, 4, digits=_DEEP_DIGITS),
        },
        tuple(name for name, _, hole in MUTANTS if not hole),
    ),
}


def _candidates(kind: str, spec: _Spec) -> List[Tuple[float, Fraction]]:
    """(estimated index, argument or pi value) pairs inside the band, sorted."""
    lo, hi = spec.band
    out = []
    if kind in ("pi", "pi-squared"):
        vlo, vhi = spec.value_range
        for b in range(1, spec.max_den + 1):
            for a in range(max(1, math.ceil(vlo * b)), math.floor(vhi * b) + 1):
                if a <= spec.max_num and math.gcd(a, b) == 1:
                    value = Fraction(a, b)
                    est = estimated_index(kind, None, value)
                    if lo <= est <= hi:
                        out.append((est, value))
    else:
        for arg in _rationals(spec.max_num, spec.max_den, spec.signed):
            est = estimated_index(kind, arg, Fraction(1))
            if lo <= est <= hi:
                out.append((est, arg))
    out.sort()
    return out


@functools.lru_cache(maxsize=None)
def _pool(workload: str, kind: str) -> List[Tuple[float, Fraction]]:
    return _candidates(kind, WORKLOADS[workload].kinds[kind])


def _claim_for(kind: str, point: Fraction, digits: int) -> Optional[Claim]:
    if kind in ("pi", "pi-squared"):
        return Claim(kind, None, point)
    value = _rounded(true_value(kind, point), digits)
    if _degenerate(kind, value):
        return None
    return Claim(kind, point, value)


class StreamExhausted(Exception):
    """A kind has no undrawn claim left: a run this fast ends early."""


class ClaimStream:
    """Deterministic, duplicate-free batches of claims for one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.rng = random.Random(f"irrcert-perfbench/{self.workload.name}/{seed}")
        self.used = set()
        self.uses = collections.Counter()  # draws per (kind, argument)
        self.batch_index = 0

    def _target(self, band: Tuple[int, int]) -> float:
        frac = (_PHASE + (self.batch_index // 2) * _PHI) % 1.0
        return band[0] + (band[1] - band[0]) * frac

    def _draw(self, kind: str) -> Claim:
        spec = self.workload.kinds[kind]
        pool = _pool(self.workload.name, kind)
        target = self._target(spec.band)
        i = bisect.bisect_left(pool, (target,))
        nearest, sign = min(((est, point > 0) for est, point in pool[max(0, i - 1): i + 1]),
                            key=lambda e: abs(e[0] - target))
        # the digit count is tied to the target, not to the seed: at one
        # index a cos claim with six digits costs several times one with two
        k = (self.batch_index // 2) % len(spec.digits)
        order = spec.digits[k:] + spec.digits[:k]
        for margin in _MARGINS:
            window = [point for est, point in pool if abs(est - nearest) <= margin * nearest]
            # least-drawn arguments first, so claims share an argument only
            # when the window offers no other; then the nearest one's sign,
            # since cosh costs far less than cos at the same estimate
            self.rng.shuffle(window)
            window.sort(key=lambda point: (self.uses[kind, point], (point > 0) != sign))
            for point in window:
                for digits in order:
                    claim = _claim_for(kind, point, digits)
                    if claim is not None and claim not in self.used:
                        self.used.add(claim)
                        self.uses[kind, point] += 1
                        return claim
        raise StreamExhausted(f"{self.workload.name}: every {kind} claim has been drawn")

    def next_batch(self) -> List[Claim]:
        batch = [self._draw(kind) for kind in self.workload.kinds]
        self.batch_index += 1
        return batch


def claim_list_bytes(claims: List[Claim]) -> bytes:
    """Canonical bytes of a claim list, for determinism checks."""
    rows = [[c.kind, None if c.arg is None else _text(c.arg), _text(c.value)] for c in claims]
    return json.dumps(rows, separators=(",", ":")).encode()


