"""Command-line front end: classify, solve, spectrum, verify.

Installed, it is the ``diffspectrum`` console script; from a checkout,
run ``python -m diffspectrum.cli`` with ``src`` on ``PYTHONPATH``.

All commands are deterministic: identical invocations produce
byte-identical output, and no timing information reaches stdout.
``classify`` and ``solve`` take ``--format text|json``, ``spectrum`` also
``csv``; ``verify`` always prints its JSON report and takes no
``--format``.

``main`` builds the field once per run, from ``--n`` and ``--modulus``,
and passes it to the command, which returns its output and exit code.
``main`` alone writes the output, to stdout or ``--out``, and turns every
error into one ``error:`` line on stderr and an exit code:

* 0 -- success (and, for ``verify``, the report passed)
* 1 -- verification failure (``verify`` report did not pass)
* 2 -- malformed input (bad flags, bad/out-of-range ``--b``, bad n) or an
  ``--out`` file that cannot be written
* 3 -- modulus errors (not hex, not positive, wrong degree, reducible)
* 4 -- internal re-verification failure (a bug signal, not bad input)
* 5 -- field too large for an exhaustive pass, or a ``solve`` listing of
  more than ``MAX_LISTED_ROOTS`` roots

``spectrum`` and ``verify`` import the ``spectrum`` module inside their
commands, and ``json`` is imported only for ``--format json``, so a text
``classify`` or ``solve`` loads neither.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional, Tuple

from .errors import (
    DegreeMismatch,
    FieldTooLarge,
    GF2Error,
    InternalDegenerate,
    ReducibleModulus,
)
from .field import Field
from .solver import (
    CASE_B_EQUALS_ONE,
    CASE_GENERIC_TWO,
    _classify_with_chain,
    solve,
    verify_solution,
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

# spectrum.METHOD_FORMULA and spectrum.METHOD_BRUTEFORCE, spelled out so
# that building the parser does not import spectrum
METHOD_FORMULA = "formula"
METHOD_BRUTEFORCE = "bruteforce"


# The most roots ``solve`` lists.  The largest listings it allows, the
# q^2 - q = 65,280 roots of a mu_(q+1) b and the q^2 = 65,536 of b = 1 at
# n = 8, take ~9 and ~6.5 s on a 2-CPU x86 VM; n = 9 lists four times as
# many, and n = 15 about 10^9 (about a day).
MAX_LISTED_ROOTS = 1 << 16

# --modulus: hex digits with an optional 0x prefix, and nothing else (no
# sign, underscore or whitespace, which int(s, 16) would let through)
_MODULUS_RE = re.compile(r"(0[xX])?[0-9a-fA-F]+")


class _CliError(Exception):
    """A --modulus that is not hex."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffspectrum",
        description=(
            "Solve and count the roots of x^d + (x+1)^d = b over GF(2^(4n)), "
            "d = 2^(3n) + 2^(2n) + 2^n - 1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: Tuple[str, ...]) -> None:
        p.add_argument("--n", type=int, required=True, help="field parameter; the field is GF(2^(4n))")
        p.add_argument("--modulus", help="irreducible modulus of degree 4n as hex (default: smallest)")
        if formats:
            p.add_argument("--format", choices=formats, default=FORMAT_TEXT, help="output format")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_classify = sub.add_parser("classify", help="classify b and predict its solution count")
    add_common(p_classify, (FORMAT_TEXT, FORMAT_JSON))
    p_classify.add_argument("--b", required=True, help="right-hand side, hex encoded")

    p_solve = sub.add_parser("solve", help="list every solution x for the given b")
    add_common(p_solve, (FORMAT_TEXT, FORMAT_JSON))
    p_solve.add_argument("--b", required=True, help="right-hand side, hex encoded")
    p_solve.add_argument(
        "--enumerate-subfield",
        action="store_true",
        help="for b = 1, list all q^2 subfield solutions instead of summarising",
    )

    p_spectrum = sub.add_parser("spectrum", help="solution-count histogram over all b")
    add_common(p_spectrum, (FORMAT_TEXT, FORMAT_JSON, FORMAT_CSV))
    p_spectrum.add_argument(
        "--method",
        choices=[METHOD_FORMULA, METHOD_BRUTEFORCE],
        default=METHOD_FORMULA,
        help="closed-form counts or the exhaustive sweep",
    )

    p_verify = sub.add_parser("verify", help="cross-check the solver against brute force for every b")
    add_common(p_verify, ())

    return parser


def _build_field(args: argparse.Namespace) -> Field:
    modulus: Optional[int] = None
    if args.modulus is not None:
        if not _MODULUS_RE.fullmatch(args.modulus):
            raise _CliError(f"--modulus is not valid hex: {args.modulus!r}")
        modulus = int(args.modulus, 16)
    return Field(args.n, modulus)


def _cmd_classify(args: argparse.Namespace, field: Field) -> Tuple[str, int]:
    b = field.decode_hex(args.b)
    classification, chain = _classify_with_chain(field, b)
    payload = {"case": classification.case, "count": classification.predicted_count}
    if chain is not None:
        # the chain runs exactly for b outside GF(q^2), where membership in
        # the two-solution family is the case
        payload["s2"] = int(classification.case == CASE_GENERIC_TWO)
    if args.format == FORMAT_JSON:
        import json

        return json.dumps(payload), EXIT_OK
    return " ".join(f"{key}={value}" for key, value in payload.items()), EXIT_OK


def _cmd_solve(args: argparse.Namespace, field: Field) -> Tuple[str, int]:
    b = field.decode_hex(args.b)
    classification, solutions = solve(field, b)
    summarise_subfield = (
        classification.case == CASE_B_EQUALS_ONE and not args.enumerate_subfield
    )
    if not summarise_subfield and len(solutions) > MAX_LISTED_ROOTS:
        raise FieldTooLarge(
            f"b = {field.encode_hex(b)} has {len(solutions)} solutions; "
            f"solve lists at most {MAX_LISTED_ROOTS}"
        )
    listed: List[int] = [] if summarise_subfield else list(solutions)  # ascending
    checked = None
    for x in listed:
        # D(x) = D(x + 1): one check covers the pair {x, x+1}, whose roots
        # sit next to each other in the ascending listing
        low = x & ~1
        if low != checked:
            if not verify_solution(field, low, b):
                raise InternalDegenerate(
                    f"solution {field.encode_hex(x)} failed re-verification"
                )
            checked = low
    roots = [field.encode_hex(x) for x in listed]
    subfield = f"all of GF({field.q ** 2})"
    if args.format == FORMAT_JSON:
        import json

        listing = subfield if summarise_subfield else roots
        return json.dumps({"count": len(solutions), "solutions": listing}), EXIT_OK
    if summarise_subfield:
        return f"count={len(solutions)} ({subfield})", EXIT_OK
    return "\n".join([f"count={len(solutions)}", *roots]), EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, field: Field) -> Tuple[str, int]:
    from .spectrum import bruteforce_histogram, formula_histogram

    if args.method == METHOD_BRUTEFORCE:
        histogram = bruteforce_histogram(field)
    else:
        histogram = formula_histogram(field.n)
    render = {
        FORMAT_TEXT: histogram.to_text,
        FORMAT_JSON: histogram.to_json,
        FORMAT_CSV: histogram.to_csv,
    }[args.format]
    return render(), EXIT_OK


def _cmd_verify(args: argparse.Namespace, field: Field) -> Tuple[str, int]:
    from .spectrum import verify_conjecture

    report = verify_conjecture(field)
    return report.to_json(), EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}

# (error types, exit code, message prefix) for every error a command or
# the write of its output lets through; the first matching row wins.
_ERROR_EXITS = (
    (FieldTooLarge, EXIT_FIELD_TOO_LARGE, ""),
    (InternalDegenerate, EXIT_INTERNAL, "internal verification failed: "),
    ((_CliError, DegreeMismatch, ReducibleModulus), EXIT_BAD_MODULUS, ""),
    ((GF2Error, OSError), EXIT_BAD_INPUT, ""),
)


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the exit code instead of calling sys.exit.

    The only place that writes a command's output or turns an error into
    an exit code.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        text, code = _COMMANDS[args.command](args, _build_field(args))
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (_CliError, GF2Error, OSError) as exc:
        code, prefix = next(
            (code, prefix) for types, code, prefix in _ERROR_EXITS
            if isinstance(exc, types)
        )
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    """Console-script shim."""
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
