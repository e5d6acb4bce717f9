"""Command-line frontend: refute claims, verify certificates, dump
recurrence tables, and cross-check the recurrences against the quadrature
oracle.

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
from typing import List, Optional

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
from .enclosure import EnclosureRequest, Func, enclose
from .exactnum import format_rational, parse_rational
from .oracle import IntegrandFamily, IntegrandSpec, integrate
from .recurrences import (
    cos_system, cos_track, exp_sequence, exp_track, pi_sequence, tan_sequence, tan_track,
)

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
    if args.target_width is not None and args.target_width <= 0:
        parser.error("--target-width must be positive")
    try:
        cert = refute(claim, n_cap=args.n_cap, target_width=args.target_width)
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
    if args.target_width is not None and args.target_width <= 0:
        parser.error("--target-width must be positive")
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
    result = check_certificate(cert, target_width=args.target_width)
    if result.ok:
        sys.stdout.write("VALID\n")
        return EXIT_OK
    sys.stdout.write(f"INVALID: {result.reason}\n")
    return EXIT_INVALID


def _pair_row(pair) -> dict:
    return {"u": list(pair.u.coeffs), "v": list(pair.v.coeffs)}


def _cmd_table(args, parser: _Parser) -> int:
    if args.n < 0:
        parser.error("--n must be nonnegative")
    if args.engine == "pi":
        rows = [{"n": n, "p": list(p.coeffs)} for n, p in enumerate(pi_sequence(args.n))]
    elif args.engine in ("tan", "exp"):
        pairs = (tan_sequence if args.engine == "tan" else exp_sequence)(args.n)
        rows = [{"n": pair.n, **_pair_row(pair)} for pair in pairs]
    else:
        rows = [{"n": state.n, **{letter: _pair_row(state.by_id(letter)) for letter in "IJKL"}}
                for state in cos_system(args.n)]
    doc = {"engine": args.engine, "variable": "s" if args.engine == "cos" else "r", "rows": rows}
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK


def _scaled_midpoint(fn: Func, arg: Fraction, width: Fraction, scale: Fraction) -> Fraction:
    # the coefficient multiplying the transcendental grows with n while the
    # integral shrinks, so shrink the enclosure width by the coefficient to
    # keep the product error at the requested width
    effective = width / max(1, 2 * abs(scale))
    return enclose(EnclosureRequest(fn, arg, effective)).midpoint()


def _symbolic_value(family: IntegrandFamily, n: int, r: Fraction, width: Fraction) -> Fraction:
    """Recurrence-side value of the integral via enclosure midpoints."""
    a, b = r.numerator, r.denominator
    if family in (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL):
        track = tan_track if family is IntegrandFamily.SIN_KERNEL else exp_track
        u_val, v_val = (
            Fraction(next(islice(track(a, b, x, y), n, None)), b ** n) for x, y in ((1, 0), (0, 1))
        )
    else:
        pairs = next(islice(cos_track(a * a, b * b), n, None))
        pair = pairs["IJKL".index(family.value.split("-")[1])]
        u_val, v_val = (Fraction(w, (b * b) ** (2 * n + 1)) for w in pair)
    if family is IntegrandFamily.SIN_KERNEL:
        cos_mid = _scaled_midpoint(Func.COS, r, width, u_val)
        sin_mid = _scaled_midpoint(Func.SIN, r, width, v_val)
        return u_val * (1 - cos_mid) + v_val * sin_mid
    fn = Func.EXP if family is IntegrandFamily.EXP_KERNEL else Func.COS
    return u_val + v_val * _scaled_midpoint(fn, r, width, v_val)


def _cmd_oracle_check(args, parser: _Parser) -> int:
    if args.r <= 0:
        parser.error("--r must be positive")
    if args.n < 0:
        parser.error("--n must be nonnegative")
    try:
        spec = IntegrandSpec(
            family=IntegrandFamily(args.family),
            n=args.n,
            r=args.r,
            subdivisions=args.subdivisions,
            precision_bits=args.precision_bits,
        )
    except ValueError as exc:
        parser.error(str(exc))
    estimate, error_estimate = integrate(spec)
    width = Fraction(1, 2 ** args.precision_bits)
    symbolic = _symbolic_value(spec.family, args.n, args.r, width)
    difference = abs(symbolic - estimate)
    sys.stdout.write(f"symbolic: {format_decimal(symbolic, 40)}\n")
    sys.stdout.write(f"oracle: {format_decimal(estimate, 40)}\n")
    sys.stdout.write(f"difference: {format_decimal(difference, 40)}\n")
    sys.stdout.write(f"error_estimate: {format_decimal(error_estimate, 40)}\n")
    return EXIT_OK if difference < 10 * error_estimate else EXIT_MISMATCH


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
    p_refute.add_argument(
        "--target-width", type=_rational, help="starting enclosure width (default 1/2**64)"
    )
    p_refute.add_argument("--output", help="write certificate to this path instead of stdout")
    p_refute.add_argument("--format", choices=("json", "text"), default="json")
    p_refute.set_defaults(handler=_cmd_refute)

    p_verify = sub.add_parser("verify", help="independently check a certificate file")
    p_verify.add_argument("certificate", help="path to a certificate JSON file")
    p_verify.add_argument(
        "--target-width", type=_rational, help="starting enclosure width used at refutation time"
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table", help="dump recurrence polynomials as JSON")
    p_table.add_argument("--engine", required=True, choices=("tan", "pi", "exp", "cos"))
    p_table.add_argument("--n", required=True, type=int, help="largest index to include")
    p_table.set_defaults(handler=_cmd_table)

    p_oracle = sub.add_parser("oracle-check", help="compare recurrence value against quadrature")
    families = sorted(family.value for family in IntegrandFamily)
    p_oracle.add_argument("--family", required=True, choices=families)
    p_oracle.add_argument("--n", required=True, type=int)
    p_oracle.add_argument("--r", required=True, type=_rational, help="upper integration limit a/b > 0")
    p_oracle.add_argument("--subdivisions", type=int, default=1 << 14)
    p_oracle.add_argument("--precision-bits", type=int, default=256)
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
