"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to watch the lines print as the
criteria execute.  Every expected (n, witness) constant below was recorded
from the first verified run and is kept as a regression anchor; witnesses
with 40 or more digits are pinned by hash and digit count instead of value.
"""

import functools
import hashlib
import math
import random
import time
from fractions import Fraction

from irrcert.certificates import (
    Claim,
    ClaimKind,
    EnclosureRecord,
    SequenceId,
    check_certificate,
    refute,
    to_canonical_json,
)
from irrcert.enclosure import Func, enclose
from irrcert.exactnum import sqrt_bounds
from irrcert.oracle import IntegrandFamily, integrate

from reference import (
    IntPoly, TailKernel, cos_system, descent_identity_check, eval_rational, exp_sequence,
    interval, pi_sequence, scale, tail_bound, tan_sequence,
)


def F(*args):
    return Fraction(*args)


def ok_line(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag:4}  {label.ljust(56)}  {detail}".rstrip())
    assert ok, f"{label}: {detail}"


def witness_key(witness: int):
    if abs(witness) < 10 ** 40:
        return witness
    digest = hashlib.sha256(str(witness).encode("ascii")).hexdigest()
    return ("sha256", digest, len(str(abs(witness))))


NAMED_CORPUS = (
    ("pi-22/7", Claim(ClaimKind.PI, None, F(22, 7)), 46, None,
     ("sha256", "5b99c8de9ecb5d24a4dd62246442c7b5f43ba92da9b2495f10a819281d23c18f", 121)),
    ("pi-355/113", Claim(ClaimKind.PI, None, F(355, 113)), 755, None,
     ("sha256", "b1e3c594b4e13cb5f32df5bf3afbf8388acc3660bb6bf7f18f501cf4c1e316f1", 3844)),
    ("pi2-227/23", Claim(ClaimKind.PI_SQUARED, None, F(227, 23)), 152, None,
     ("sha256", "f6b580d315227d7026c45e58d196fba7eda1fdc26cd1194cdb2b3ffe1a4b7662", 560)),
    ("e-19/7", Claim(ClaimKind.EXP, F(1), F(19, 7)), 2, None, 0),
    ("e2-7", Claim(ClaimKind.EXP, F(2), F(7)), 4, None, -224),
    ("cos1-1/2", Claim(ClaimKind.COS, F(1), F(1, 2)), 1, "I", -2),
    ("cosh1-3/2", Claim(ClaimKind.COS, F(-1), F(3, 2)), 5, "I", -1724014125907680),
    ("tan1-1557/1000", Claim(ClaimKind.TAN, F(1), F(1557, 1000)), 7, None, -3960448),
    ("ratio-14/9", Claim(ClaimKind.TAN_RATIO, F(1), F(14, 9)), 4, None, -16),
    ("sin2-7/10", Claim(ClaimKind.SIN_SQ, F(1), F(7, 10)), 10, "I",
     ("sha256", "46872cdfde1fd4c65d32871c8a8cbe5e372eef95e81e3b4e46df0c89a973b7a0", 41)),
    ("cos2-1/4", Claim(ClaimKind.COS_SQ, F(1), F(1, 4)), 10, "I",
     ("sha256", "44306a3cb5aa485c9323d8aa99101d2e5b18694bb4b866db5b9a95995c664f3e", 41)),
)

# continued-fraction convergents of tan 1 with denominator <= 10**6
CONVERGENT_CORPUS = (
    ("1/1", 3, -40),
    ("2/1", 3, 32),
    ("3/2", 3, -8),
    ("11/7", 4, 96),
    ("14/9", 4, -16),
    ("81/52", 5, 256),
    ("95/61", 6, -704),
    ("746/479", 7, 16512),
    ("841/540", 7, -1664),
    ("8315/5339", 8, 45824),
    ("9156/5879", 8, -3840),
    ("109031/70008", 9, 121344),
    ("118187/75887", 9, -8704),
)


def full_corpus():
    entries = list(NAMED_CORPUS)
    for text, n, witness in CONVERGENT_CORPUS:
        entries.append(
            (f"conv-{text}", Claim(ClaimKind.TAN, F(1), F(text)), n, None, witness)
        )
    return entries


@functools.lru_cache(maxsize=1)
def corpus_certificates():
    return tuple(
        (label, claim, refute(claim), n, seq, key)
        for label, claim, n, seq, key in full_corpus()
    )


def tan_one() -> Fraction:
    """tan 1 from raw Taylor series, independent of the library paths."""
    sin_1 = sum(F((-1) ** k, math.factorial(2 * k + 1)) for k in range(30))
    cos_1 = sum(F((-1) ** k, math.factorial(2 * k)) for k in range(30))
    return sin_1 / cos_1


def convergents(x: Fraction, q_max: int):
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > q_max:
            return out
        out.append(F(p1, q1))
        frac = x - a
        if frac == 0:
            return out
        x = 1 / frac


ORACLE_RS = (F(1, 2), F(1), F(2, 3))
ORACLE_N_MAX = 60
COS_WEIGHT = {"I": 0, "J": 1, "K": 2, "L": 3}


@functools.lru_cache(maxsize=1)
def oracle_grid():
    """Each integral's exact coefficients, keyed by (family, r, n)."""
    return {
        (family, r, n): integrate(family, n, r)
        for family in IntegrandFamily
        for r in ORACLE_RS
        for n in range(ORACLE_N_MAX + 1)
    }


@functools.lru_cache(maxsize=1)
def oracle_sequences():
    return tan_sequence(ORACLE_N_MAX), exp_sequence(ORACLE_N_MAX), cos_system(ORACLE_N_MAX)


def track_coefficients(family: IntegrandFamily, n: int, r: Fraction) -> tuple:
    """The recurrences' (u_n, v_n) at r on the oracle's basis: the tan
    engine's (1 - cos r, sin r) gives (u, -u, v), exp's (1, e**r) gives
    (u, v), and the cos system's (1, cos r) at s = r**2 gives (u, v, 0)."""
    tan, exp, cos = oracle_sequences()
    if family is IntegrandFamily.SIN_KERNEL:
        u, v = (eval_rational(w, r) for w in tan[n])
        return u, -u, v
    if family is IntegrandFamily.EXP_KERNEL:
        return tuple(eval_rational(w, r) for w in exp[n])
    u, v = (eval_rational(w, r * r) for w in cos[n][COS_WEIGHT[family.value[-1]]])
    return u, v, F(0)


def integral_upper(family: IntegrandFamily, r: Fraction, coeffs: tuple, bound: Fraction):
    """A rigorous upper end of the integral's absolute value, and the radius
    of the interval it comes from: the enclosures of cos r and sin r (or
    e**r) are fine enough that the radius is at most bound / 1000."""
    width = bound / (500 * max(1, sum(abs(c) for c in coeffs[1:])))
    if family is IntegrandFamily.EXP_KERNEL:
        terms = ((Func.EXP, r),)
    else:
        terms = ((Func.COS_FROM_S, r * r), (Func.SIN, r))
    lo = hi = coeffs[0]
    for c, (fn, arg) in zip(coeffs[1:], terms):
        if c:
            iv = scale(interval(enclose(fn, arg, width)), c)
            lo, hi = lo + iv.lo, hi + iv.hi
    return max(abs(lo), abs(hi)), (hi - lo) / 2


def family_tail(family: IntegrandFamily, n: int, r: Fraction) -> Fraction:
    if family is IntegrandFamily.SIN_KERNEL:
        return tail_bound(TailKernel.SIN_KERNEL, r, n)
    if family is IntegrandFamily.EXP_KERNEL:
        return tail_bound(TailKernel.EXP_KERNEL, r, n)
    k = COS_WEIGHT[family.value.split("-")[1]]
    return tail_bound(TailKernel.COS_SYSTEM, r * r, n, k)


def test_criterion_1_exact_identities():
    start = time.perf_counter()
    tan = tan_sequence(50)
    pi = pi_sequence(50)
    states = cos_system(50)
    checks = 0
    for n, (u, v) in enumerate(tan):
        assert u.degree <= n and v.degree <= n
        assert all(c == 0 for c in u.coeffs[1::2]), "u must be even"
        assert all(c == 0 for c in v.coeffs[0::2]), "v must be odd"
        assert pi[n] == 2 * u
        checks += 4
    for n, pairs in enumerate(states):
        for u, v in pairs:
            assert u.degree <= 2 * n + 1 and v.degree <= 2 * n + 1
            checks += 1
        if n >= 1:
            assert descent_identity_check(n, pairs)
            checks += 1
    (iu, iv), _, (ku, kv), _ = states[0]
    assert 2 * iu + ku == IntPoly([0, 1])
    assert 2 * iv + kv == IntPoly([])
    checks += 2
    elapsed = time.perf_counter() - start
    ok_line(
        elapsed < 5.0,
        "criterion 1: exact identity suite, n <= 50",
        f"{checks} identities in {elapsed:.2f}s (cap 5s)",
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    grid = oracle_grid()
    for (family, r, n), coeffs in grid.items():
        assert coeffs == track_coefficients(family, n, r), (family, r, n)
    elapsed = time.perf_counter() - start
    ok_line(
        elapsed < 5.0,
        f"criterion 2: oracle equivalence, 6 families x 3 r x n <= {ORACLE_N_MAX}",
        f"{len(grid)} exact equalities in {elapsed:.2f}s (cap 5s)",
    )


def test_criterion_3_tail_soundness():
    grid = oracle_grid()
    worst_margin = None
    for (family, r, n), coeffs in grid.items():
        bound = family_tail(family, n, r)
        upper, radius = integral_upper(family, r, coeffs, bound)
        assert radius <= bound / 1000, (family, r, n)
        assert upper <= bound, (family, r, n)
        margin = (bound - upper) / bound
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    ok_line(
        True,
        "criterion 3: tail bound dominates every oracle integral",
        f"{len(grid)} cases, smallest relative margin {float(worst_margin):.2e}",
    )


def test_criterion_4_refutation_corpus():
    start = time.perf_counter()
    computed = convergents(tan_one(), 10 ** 6)
    expected = [F(text) for text, _n, _w in CONVERGENT_CORPUS]
    assert computed == expected, "independent convergent routine disagrees"
    certs = corpus_certificates()
    for label, _claim, cert, n, seq, key in certs:
        seq_letter = None if cert.sequence is None else cert.sequence.value
        assert (cert.n, seq_letter) == (n, seq), label
        assert witness_key(cert.witness) == key, label
        result = check_certificate(cert)
        assert result.ok, (label, result.reason)
    elapsed = time.perf_counter() - start
    ok_line(
        elapsed < 30.0,
        "criterion 4: refutation corpus produced and checker-VALID",
        f"{len(certs)} claims (incl. {len(CONVERGENT_CORPUS)} convergents) in {elapsed:.2f}s (cap 30s)",
    )


def mutations(cert):
    yield "witness+1", cert._replace(witness=cert.witness + 1)
    yield "witness-1", cert._replace(witness=cert.witness - 1)
    yield "n+1", cert._replace(n=cert.n + 1)
    if cert.n >= 1:
        yield "n-1", cert._replace(n=cert.n - 1)
    if cert.sequence is None:
        yield "sequence-added", cert._replace(sequence=SequenceId.I)
    else:
        swap = SequenceId.J if cert.sequence is SequenceId.I else SequenceId.I
        yield "sequence-swap", cert._replace(sequence=swap)
    bound = cert.bound
    yield "bound-num+1", cert._replace(bound=F(bound.numerator + 1, bound.denominator))
    if cert.enclosures:
        rec = cert.enclosures[0]
        widened = rec._replace(lo=rec.lo - 2, hi=rec.hi + 2)
        yield "enclosure-widened", cert._replace(enclosures=(widened,) + cert.enclosures[1:])
    else:
        bogus = EnclosureRecord("sin", F(1), F(-2), F(2))
        yield "enclosure-added", cert._replace(enclosures=(bogus,))


def test_criterion_5_mutation_suite():
    start = time.perf_counter()
    total = 0
    for label, _claim, cert, *_rest in corpus_certificates():
        for name, mutant in mutations(cert):
            result = check_certificate(mutant)
            assert not result.ok, (label, name)
            total += 1
    elapsed = time.perf_counter() - start
    ok_line(
        True,
        "criterion 5: every single-field mutation rejected",
        f"{total} mutants all INVALID in {elapsed:.2f}s",
    )


def test_criterion_6_no_consecutive_zeros():
    start = time.perf_counter()
    rng = random.Random(20260823)
    cases = [(0, 0, 1, 1), (5, 0, 3, 2), (0, 5, 3, 2)]
    while len(cases) < 10 ** 4:
        cases.append(
            (
                rng.randint(-50, 50),
                rng.randint(-50, 50),
                rng.randint(1, 24),
                rng.randint(1, 24),
            )
        )
    for p, q, c, d in cases:
        # integerized scalar sequence W_n = d**n w_n for the claim
        # tan(c/2d) = p/q, so zero patterns match the rational sequence
        w_prev, w_cur = p, 2 * p * d - c * q
        for n in range(2, 41):
            if p == 0 and q == 0:
                assert w_prev == 0 and w_cur == 0
            else:
                assert not (w_prev == 0 and w_cur == 0), (p, q, c, d, n)
            w_prev, w_cur = w_cur, (4 * n - 2) * d * w_cur - c * c * w_prev
    elapsed = time.perf_counter() - start
    ok_line(
        True,
        "criterion 6: no consecutive zero scalars unless p = q = 0",
        f"{len(cases)} instances x n <= 40 in {elapsed:.2f}s",
    )


def decay_bound(claim: Claim, cert, n: int) -> Fraction:
    kind = claim.kind
    if kind in (ClaimKind.SIN_SQ, ClaimKind.COS_SQ, ClaimKind.TAN_SQ):
        claim = cert.transform.delegated
        kind = claim.kind
    if kind is ClaimKind.PI:
        r = claim.value
        return r.denominator ** n * tail_bound(TailKernel.SIN_KERNEL, r, n)
    if kind is ClaimKind.PI_SQUARED:
        root_hi = interval(sqrt_bounds(claim.value)).hi
        return claim.value.denominator ** n * tail_bound(TailKernel.SIN_KERNEL, root_hi, n)
    if kind is ClaimKind.TAN:
        r = 2 * abs(claim.arg)
        return r.denominator ** n * tail_bound(TailKernel.SIN_KERNEL, r, n)
    if kind is ClaimKind.TAN_RATIO:
        root_hi = interval(sqrt_bounds(4 * claim.arg)).hi
        return claim.arg.denominator ** n * tail_bound(TailKernel.SIN_KERNEL, root_hi, n)
    if kind is ClaimKind.EXP:
        r = abs(claim.arg)
        return r.denominator ** n * tail_bound(TailKernel.EXP_KERNEL, r, n)
    s = claim.arg
    k = COS_WEIGHT[cert.sequence.value]
    return s.denominator ** (2 * n + 1) * tail_bound(TailKernel.COS_SYSTEM, s, n, k)


def test_criterion_7_decay_reproduction():
    threshold = F(1, 10 ** 6)
    for label, claim, cert, *_rest in corpus_certificates():
        at_cert = decay_bound(claim, cert, cert.n)
        assert at_cert < 1, (label, float(at_cert))
        later = min(decay_bound(claim, cert, cert.n + d) for d in range(1, 21))
        assert later < threshold, (label, float(later))
    ok_line(
        True,
        "criterion 7: scaled tail falls below 1 at cert n, 1e-6 soon after",
        f"{len(corpus_certificates())} claims",
    )


def test_criterion_8_determinism():
    start = time.perf_counter()
    first = {
        label: hashlib.sha256(to_canonical_json(cert).encode("ascii")).hexdigest()
        for label, _claim, cert, *_rest in corpus_certificates()
    }
    second = {
        label: hashlib.sha256(to_canonical_json(refute(claim)).encode("ascii")).hexdigest()
        for label, claim, *_rest in corpus_certificates()
    }
    assert first == second
    combined = hashlib.sha256(
        "".join(first[k] for k in sorted(first)).encode("ascii")
    ).hexdigest()
    elapsed = time.perf_counter() - start
    ok_line(
        True,
        "criterion 8: corpus rerun is byte-identical",
        f"{len(first)} certificates, digest {combined[:16]}.. in {elapsed:.2f}s",
    )
