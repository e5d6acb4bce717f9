"""Command-line frontend: refute claims, verify certificates, dump
recurrence tables, and check the recurrences against the exact integrals.

Exit codes are a stable contract:
  0  success
  1  usage or parse error, or zero-exclusion failure (message on stderr)
  2  degenerate or unsupported claim
  3  inconclusive search (diagnostic JSON on stderr)
  4  invalid certificate
  5  oracle cross-check mismatch

Data goes to stdout, diagnostics to stderr.  Two runs with identical flags
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Tuple

from .certificates import (
    _KINDS,
    Claim,
    ClaimKind,
    DegenerateClaimError,
    InconclusiveError,
    NegativeSquareUnsupportedError,
    SinZeroUnresolvedError,
    check_certificate,
    certificate_from_json,
    refute,
    to_canonical_json,
)
from .exactnum import format_rational, parse_rational
from .oracle import IntegrandFamily, coefficients, integrate
from .recurrences import cos_track, exp_track, tan_track

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INVALID = 4
EXIT_MISMATCH = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_KIND_BY_NAME = {kind.value.replace("_", "-"): kind for kind in ClaimKind}


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def format_decimal(value: Fraction, digits: int) -> str:
    """Exact truncated decimal rendering, deterministic across platforms."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10 ** digits
    text = str(scaled.numerator // scaled.denominator).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _build_claim(args, parser: _Parser) -> Claim:
    kind_name = args.kind
    kind = _KIND_BY_NAME[kind_name]
    # --arg carries t, --arg-squared carries s = t**2
    takes = _KINDS[kind].arg
    if takes == "t":
        if args.arg is None or args.arg_squared is not None:
            parser.error(f"kind {kind_name} takes --arg (not --arg-squared)")
        arg = args.arg
    elif takes == "s":
        if args.arg_squared is None or args.arg is not None:
            parser.error(f"kind {kind_name} takes --arg-squared (not --arg)")
        arg = args.arg_squared
    else:
        if args.arg is not None or args.arg_squared is not None:
            parser.error(f"kind {kind_name} takes no argument flag")
        arg = None
    try:
        return Claim(kind, arg, args.value)
    except ValueError as exc:
        parser.error(str(exc))


def _render_text_certificate(cert) -> str:
    claim = cert.claim
    arg = "" if claim.arg is None else f"({format_rational(claim.arg)})"
    lines = [
        f"claim: {claim.kind.value}{arg} = {format_rational(claim.value)}",
        f"n: {cert.n}",
        f"sequence: {'-' if cert.sequence is None else cert.sequence.value}",
        f"mode: {cert.mode.value}",
        f"witness: {cert.witness}",
        f"bound: {format_rational(cert.bound)} (~{format_decimal(cert.bound, 12)})",
    ]
    for rec in cert.enclosures:
        lines.append(
            f"enclosure: {rec.fn}({format_rational(rec.arg)}) in "
            f"[{format_decimal(rec.lo, 24)}, {format_decimal(rec.hi, 24)}]"
        )
    if cert.transform is not None:
        inner = cert.transform.delegated
        lines.append(
            f"transform: {cert.transform.identity} -> "
            f"{inner.kind.value}({format_rational(inner.arg)}) = {format_rational(inner.value)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_refute(args, parser: _Parser) -> int:
    claim = _build_claim(args, parser)
    if args.n_cap is not None and args.n_cap < 0:
        parser.error("--n-cap must be nonnegative")
    try:
        cert = refute(claim, n_cap=args.n_cap)
    except (DegenerateClaimError, NegativeSquareUnsupportedError) as exc:
        sys.stderr.write(f"degenerate claim: {exc}\n")
        return EXIT_DEGENERATE
    except InconclusiveError as exc:
        diagnostic = {
            "error": "inconclusive",
            "last_n": exc.last_n,
            "last_bound": None if exc.last_bound is None else format_rational(exc.last_bound),
            "largest_bound": None
            if exc.largest_bound is None
            else format_rational(exc.largest_bound),
        }
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True, separators=(",", ":")) + "\n")
        return EXIT_INCONCLUSIVE
    except SinZeroUnresolvedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if args.format == "json":
        text = to_canonical_json(cert) + "\n"
    else:
        text = _render_text_certificate(cert)
    try:
        _emit(text, args.output)
    except OSError as exc:
        sys.stderr.write(f"cannot write certificate: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK


def _cmd_verify(args, parser: _Parser) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"cannot read certificate: {exc}\n")
        return EXIT_USAGE
    try:
        # strip the one "\n" refute writes; newline="" above keeps a "\r\n"
        cert = certificate_from_json(text.removesuffix("\n"))
    except ValueError as exc:
        sys.stderr.write(f"malformed certificate: {exc}\n")
        return EXIT_USAGE
    result = check_certificate(cert)
    if result.ok:
        sys.stdout.write("VALID\n")
        return EXIT_OK
    sys.stdout.write(f"INVALID: {result.reason}\n")
    return EXIT_INVALID


def _table_row(engine: str, n: int) -> dict:
    """Row n of the table, read off the integral's coefficients: the tan
    engine's (u, v) are the sin kernel's (u, -u, v) on (1, cos r, sin r), pi
    has p = 2u, exp is (u, v) on (1, e**r), and each cos letter is the (u, v)
    of its family's (u, v, 0)."""
    if engine == "cos":
        return {letter: dict(zip("uv", coefficients(IntegrandFamily(f"cos-{letter}"), n)))
                for letter in "IJKL"}
    if engine == "exp":
        return dict(zip("uv", coefficients(IntegrandFamily.EXP_KERNEL, n)))
    u, _, v = coefficients(IntegrandFamily.SIN_KERNEL, n)
    return {"p": [2 * c for c in u]} if engine == "pi" else {"u": u, "v": v}


def _cmd_table(args, parser: _Parser) -> int:
    if args.n < 0:
        parser.error("--n must be nonnegative")
    rows = [{"n": n, **_table_row(args.engine, n)} for n in range(args.n + 1)]
    doc = {"engine": args.engine, "variable": "s" if args.engine == "cos" else "r", "rows": rows}
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK


def _recurrence_value(family: IntegrandFamily, n: int, r: Fraction) -> Tuple[Fraction, ...]:
    """The tracks' (u_n, v_n) at r, as coefficients on integrate's basis."""
    a, b = r.numerator, r.denominator
    if family in (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL):
        track = tan_track if family is IntegrandFamily.SIN_KERNEL else exp_track
        u, v = (
            Fraction(next(islice(track(a, b, x, y), n, None)), b ** n) for x, y in ((1, 0), (0, 1))
        )
        # the tan engine's basis is (1 - cos r, sin r)
        return (u, -u, v) if family is IntegrandFamily.SIN_KERNEL else (u, v)
    pairs = next(islice(cos_track(a * a, b * b), n, None))
    u, v = (Fraction(w, b ** (4 * n + 2)) for w in pairs["IJKL".index(family.value[-1])])
    return u, v, Fraction(0)


def _cmd_oracle_check(args, parser: _Parser) -> int:
    if args.r <= 0:
        parser.error("--r must be positive")
    if args.n < 0:
        parser.error("--n must be nonnegative")
    family = IntegrandFamily(args.family)
    recurrence = _recurrence_value(family, args.n, args.r)
    integral = integrate(family, args.n, args.r)
    basis = "1 exp(r)" if family is IntegrandFamily.EXP_KERNEL else "1 cos(r) sin(r)"
    sys.stdout.write(f"basis: {basis}\n")
    for label, values in (("recurrence", recurrence), ("integral", integral)):
        sys.stdout.write(f"{label}: {' '.join(map(format_rational, values))}\n")
    return EXIT_OK if recurrence == integral else EXIT_MISMATCH


def _build_parser() -> _Parser:
    parser = _Parser(prog="irrcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_refute = sub.add_parser("refute", help="search for a refutation certificate")
    p_refute.add_argument("--kind", required=True, choices=sorted(_KIND_BY_NAME))
    p_refute.add_argument("--arg", type=_rational, help="argument a/b (tan, exp)")
    p_refute.add_argument(
        "--arg-squared", type=_rational, help="squared argument s = r**2 (cos and ratio/squared kinds)"
    )
    p_refute.add_argument("--value", required=True, type=_rational, help="claimed value p/q")
    p_refute.add_argument("--n-cap", type=int, help="search cap (default: none; every search ends)")
    p_refute.add_argument("--output", help="write certificate to this path instead of stdout")
    p_refute.add_argument("--format", choices=("json", "text"), default="json")
    p_refute.set_defaults(handler=_cmd_refute)

    p_verify = sub.add_parser("verify", help="independently check a certificate file")
    p_verify.add_argument("certificate", help="path to a certificate JSON file")
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table", help="dump recurrence polynomials as JSON")
    p_table.add_argument("--engine", required=True, choices=("tan", "pi", "exp", "cos"))
    p_table.add_argument("--n", required=True, type=int, help="largest index to include")
    p_table.set_defaults(handler=_cmd_table)

    p_oracle = sub.add_parser("oracle-check", help="compare recurrence values with the exact integral")
    families = sorted(family.value for family in IntegrandFamily)
    p_oracle.add_argument("--family", required=True, choices=families)
    p_oracle.add_argument("--n", required=True, type=int)
    p_oracle.add_argument("--r", required=True, type=_rational, help="upper integration limit a/b > 0")
    p_oracle.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, parser)
    except SystemExit as exc:
        # parser.error() raises SystemExit; fold it into the return-code contract
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
