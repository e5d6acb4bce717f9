"""Exact-arithmetic refutation certificates for rational claims about
tan, cos, exp and pi, with an independent checker.  The root holds the
certificate API; the building blocks are imported from their own modules."""

from .certificates import (
    Certificate,
    CheckResult,
    Claim,
    ClaimKind,
    DegenerateClaimError,
    EnclosureRecord,
    InconclusiveError,
    NegativeSquareUnsupportedError,
    RefutationError,
    RefutationMode,
    SequenceId,
    SinZeroUnresolvedError,
    TransformRecord,
    certificate_from_json,
    certificate_to_jsonable,
    check_certificate,
    refute,
    to_canonical_json,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CheckResult",
    "Claim",
    "ClaimKind",
    "DegenerateClaimError",
    "EnclosureRecord",
    "InconclusiveError",
    "NegativeSquareUnsupportedError",
    "RefutationError",
    "RefutationMode",
    "SequenceId",
    "SinZeroUnresolvedError",
    "TransformRecord",
    "certificate_from_json",
    "certificate_to_jsonable",
    "check_certificate",
    "refute",
    "to_canonical_json",
]
