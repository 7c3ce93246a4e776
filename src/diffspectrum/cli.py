"""Command-line front end: classify, solve, spectrum, verify.

All commands are deterministic: identical invocations produce
byte-identical output regardless of ``--workers``, and no timing
information reaches stdout.

Exit codes:

* 0 -- success (and, for ``verify``, the report passed)
* 1 -- verification failure (``verify`` report did not pass)
* 2 -- malformed input (bad flags, bad/out-of-range ``--b``, bad n)
* 3 -- modulus errors (not hex, wrong degree, reducible)
* 4 -- internal re-verification failure (a bug signal, not bad input)
* 5 -- field too large for an exhaustive pass
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import (
    DegreeMismatch,
    FieldTooLarge,
    GF2Error,
    InternalDegenerate,
    MalformedHex,
    OutOfRange,
    ReducibleModulus,
)
from .field import MAX_N, Field
from .solver import (
    CASE_B_EQUALS_ONE,
    CASE_GENERIC_TWO,
    classify,
    solve,
    verify_solution,
)
from .spectrum import (
    METHOD_BRUTEFORCE,
    METHOD_FORMULA,
    bruteforce_histogram,
    formula_histogram,
    verify_conjecture,
)

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_MODULUS = 3
EXIT_INTERNAL = 4
EXIT_FIELD_TOO_LARGE = 5

FORMAT_TEXT = "text"
FORMAT_JSON = "json"
FORMAT_CSV = "csv"


class _CliError(Exception):
    """Carries a message and the exit code it maps to."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffspectrum",
        description=(
            "Solve and count the roots of x^d + (x+1)^d = b over GF(2^(4n)), "
            "d = 2^(3n) + 2^(2n) + 2^n - 1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="field parameter; the field is GF(2^(4n))")
        p.add_argument("--modulus", help="irreducible modulus of degree 4n as hex (default: smallest)")
        p.add_argument("--format", choices=[FORMAT_TEXT, FORMAT_JSON, FORMAT_CSV], default=FORMAT_TEXT, help="output format")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--workers", type=int, default=1, help="accepted, no effect: each sweep is one vectorised pass")

    p_classify = sub.add_parser("classify", help="classify b and predict its solution count")
    add_common(p_classify)
    p_classify.add_argument("--b", required=True, help="right-hand side, hex encoded")

    p_solve = sub.add_parser("solve", help="list every solution x for the given b")
    add_common(p_solve)
    p_solve.add_argument("--b", required=True, help="right-hand side, hex encoded")
    p_solve.add_argument(
        "--enumerate-subfield",
        action="store_true",
        help="for b = 1, list all q^2 subfield solutions instead of summarising",
    )

    p_spectrum = sub.add_parser("spectrum", help="solution-count histogram over all b")
    add_common(p_spectrum)
    p_spectrum.add_argument(
        "--method",
        choices=[METHOD_FORMULA, METHOD_BRUTEFORCE],
        default=METHOD_FORMULA,
        help="closed-form counts or the exhaustive sweep",
    )

    p_verify = sub.add_parser("verify", help="cross-check the solver against brute force for every b")
    add_common(p_verify)

    return parser


def _build_field(args: argparse.Namespace) -> Field:
    if args.n < 1 or args.n > MAX_N:
        raise _CliError(f"--n must be in 1..{MAX_N}, got {args.n}", EXIT_BAD_INPUT)
    modulus: Optional[int] = None
    if args.modulus is not None:
        try:
            modulus = int(args.modulus, 16)
        except ValueError:
            raise _CliError(
                f"--modulus is not valid hex: {args.modulus!r}", EXIT_BAD_MODULUS
            ) from None
        if modulus <= 0:
            raise _CliError(
                f"--modulus must be a positive polynomial encoding, got {args.modulus!r}",
                EXIT_BAD_MODULUS,
            )
    try:
        return Field(args.n, modulus)
    except (DegreeMismatch, ReducibleModulus) as exc:
        raise _CliError(str(exc), EXIT_BAD_MODULUS) from None


def _decode_b(field: Field, raw: str) -> int:
    try:
        return field.decode_hex(raw)
    except (MalformedHex, OutOfRange) as exc:
        raise _CliError(str(exc), EXIT_BAD_INPUT) from None


def _emit(text: str, out_path: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    field = _build_field(args)
    b = _decode_b(field, args.b)
    classification = classify(field, b)
    outside_q2 = not field.in_subfield(b, 2 * field.n)
    # outside GF(q^2), membership in the two-solution family is the case
    s2 = int(classification.case == CASE_GENERIC_TWO)
    if args.format == FORMAT_JSON:
        payload = {
            "case": classification.case,
            "count": classification.predicted_count,
        }
        if outside_q2:
            payload["s2"] = s2
        _emit(json.dumps(payload), args.out)
        return EXIT_OK
    if args.format == FORMAT_CSV:
        raise _CliError("classify does not support --format csv", EXIT_BAD_INPUT)
    line = f"case={classification.case} count={classification.predicted_count}"
    if outside_q2:
        line += f" s2={s2}"
    _emit(line, args.out)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    field = _build_field(args)
    b = _decode_b(field, args.b)
    try:
        classification, solutions = solve(field, b)
    except InternalDegenerate as exc:
        raise _CliError(f"internal verification failed: {exc}", EXIT_INTERNAL) from None
    summarise_subfield = (
        classification.case == CASE_B_EQUALS_ONE and not args.enumerate_subfield
    )
    listed: List[int] = [] if summarise_subfield else sorted(solutions)
    for x in listed:
        if not verify_solution(field, x, b):
            raise _CliError(
                f"solution {field.encode_hex(x)} failed re-verification",
                EXIT_INTERNAL,
            )
    if args.format == FORMAT_JSON:
        payload: dict = {"count": len(solutions)}
        if summarise_subfield:
            payload["solutions"] = f"all of GF({field.q ** 2})"
        else:
            payload["solutions"] = [field.encode_hex(x) for x in listed]
        _emit(json.dumps(payload), args.out)
        return EXIT_OK
    if args.format == FORMAT_CSV:
        raise _CliError("solve does not support --format csv", EXIT_BAD_INPUT)
    if summarise_subfield:
        _emit(f"count={len(solutions)} (all of GF({field.q ** 2}))", args.out)
        return EXIT_OK
    lines = [f"count={len(solutions)}"]
    lines += [field.encode_hex(x) for x in listed]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    field = _build_field(args)
    if args.method == METHOD_BRUTEFORCE:
        histogram = bruteforce_histogram(field, workers=args.workers)
    else:
        histogram = formula_histogram(field.n)
    if args.format == FORMAT_JSON:
        _emit(histogram.to_json(), args.out)
    elif args.format == FORMAT_CSV:
        _emit(histogram.to_csv(), args.out)
    else:
        _emit(histogram.to_text(), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    field = _build_field(args)
    report = verify_conjecture(field, workers=args.workers)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the exit code instead of calling sys.exit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FieldTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIELD_TOO_LARGE
    except InternalDegenerate as exc:
        print(f"error: internal verification failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GF2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entrypoint() -> None:
    """Console-script shim."""
    sys.exit(main())
