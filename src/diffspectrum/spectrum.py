"""Whole-field analysis of the derivative equation x^d + (x+1)^d = b.

This module provides the exhaustive oracle, the closed-form
solution-count histogram, enumeration of the two-solution family,
differential-table rows for arbitrary nonzero a, and a verifier that
cross-checks the constructive solver against the oracle element by element.

Every exhaustive sweep reads one generator of half-pair operands: x and
x + a give the same b, so it yields x^d and (x+a)^d for the x whose bit at
a's highest set bit is clear, in chunks of the field's cached x^d table:
slices and ``take``s, or for a = 1 two strided views.  Each caller XORs
them into its own uint32 buffer.  The per-b tally (``bruteforce_counts``,
the bruteforce ``ddt_row`` and the verifier's oracle) fills one reused
block, sorts it and adds it into one int64 array, so the scatter walks that
array in order; ``bruteforce_histogram`` sorts all the values and counts
runs of equal ones, so it builds no per-b array.

The enumeration, the formula path of ``ddt_row`` and the verifier share
one per-b pass, which runs the generic chain once per b after
``Field.ensure_tables`` on the caller's field.  On every field within the
cap that switches the chain to the exponent form of
``solver.generic_intermediates`` and changes no ``Field`` result; the
tables take 8 bytes an element (128 MB at n = 6).  The formula path runs
the pass once per field: the a = 1 row it relabels is kept on the field.
The verifier builds no per-b solution set for the two-solution family: it
takes the pair {x, x+1} from the chain's record, and re-verifies each
listed root in the per-b pass, where it lists it, on the field's x^d table.

numpy is imported on first use, inside the functions that build or tally
arrays (the tally, the histogram, ``ddt_row`` and the verifier), so
importing this module does not load it.  The CLI imports this module only
for ``spectrum`` and ``verify``, and the package resolves its names on
first use, so ``classify`` and ``solve`` do not load it either.

Exhaustive passes are capped at fields of ``BRUTEFORCE_CAP_BITS`` = 24
bits, checked before any table is built; the closed-form histogram has no
cap.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from . import solver
from .errors import (
    FieldTooLarge,
    InternalDegenerate,
    OutOfRange,
    PreconditionViolated,
    ZeroElement,
)
from .field import BRUTEFORCE_CAP_BITS, _EXP_CHUNK, Element, Field, _vec_mul_const
from .solver import (
    CASE_GENERIC_TWO,
    CASE_NO_SOLUTION,
    Classification,
    GenericIntermediates,
    _GENERIC_TWO,
    _NO_SOLUTION,
    _as_integer,
    _classify_with_chain,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BRUTEFORCE_CAP_BITS",
    "METHOD_BRUTEFORCE",
    "METHOD_FORMULA",
    "SpectrumHistogram",
    "VerificationReport",
    "bruteforce_counts",
    "bruteforce_histogram",
    "ddt_row",
    "formula_histogram",
    "s2_enumerate",
    "verify_conjecture",
]

METHOD_FORMULA = "formula"
METHOD_BRUTEFORCE = "bruteforce"

# Pair values sorted per scatter into the per-b tally: 2^21 uint32 (8 MB).
# Twice that breaks the warm n = 6 row's bound of 9 bytes per element.
_TALLY_BLOCK = 1 << 21


def _require_within_cap(field: Field, what: str) -> None:
    if field.degree > BRUTEFORCE_CAP_BITS:
        raise FieldTooLarge(
            f"{what} over GF(2^{field.degree}) exceeds the "
            f"{BRUTEFORCE_CAP_BITS}-bit cap"
        )


# ---------------------------------------------------------------------
# Exhaustive field sweep.
# ---------------------------------------------------------------------

def _pair_values(field: Field, a: Element) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (x^d, (x+a)^d) for one x of every pair {x, x+a}, as two
    equal-length arrays of at most _EXP_CHUNK values; their XOR is b.

    x and x + a give the same b, so only the x whose bit h (a's highest set
    bit) is clear are taken, read from ``Field.power_table()`` P one chunk
    of C = _EXP_CHUNK entries at a time.  If 2^h >= C, a kept chunk of x
    is a slice of P, and its partners are the slice at offset
    x0 ^ (a & ~(C-1)), permuted by one ``take`` of arange(C) ^ (a & (C-1))
    when those low bits are nonzero.  If 2^h < C, every pair lies within
    one chunk, and the kept x and their partners are two ``take``s by one
    index array, built once per call.  For a = 1 they are the even and the
    odd entries of P, two strided views.
    """
    import numpy as np

    power = field.power_table()
    size = len(power)
    if a == 1:
        pairs = power.reshape(-1, 2)
        for r in range(0, len(pairs), _EXP_CHUNK):
            yield pairs[r:r + _EXP_CHUNK, 0], pairs[r:r + _EXP_CHUNK, 1]
        return
    top = 1 << (a.bit_length() - 1)
    chunk = min(_EXP_CHUNK, size)
    if top >= chunk:
        spread = a & (chunk - 1)
        within = np.arange(chunk) ^ spread
        for x0 in range(0, size, chunk):
            if x0 & top:
                continue
            start = x0 ^ (a & -chunk)
            partners = power[start:start + chunk]
            yield power[x0:x0 + chunk], (partners.take(within) if spread else partners)
        return
    kept = np.flatnonzero(np.arange(chunk) & top == 0)
    moved = kept ^ a
    for x0 in range(0, size, chunk):
        block = power[x0:x0 + chunk]
        yield block.take(kept), block.take(moved)


def _derivative_tally(field: Field, a: Element) -> np.ndarray:
    """Per-b solution tally of x^d + (x+a)^d = b over the whole field.

    The operands of ``_pair_values`` are XORed into one uint32 block of at
    most _TALLY_BLOCK entries, which is sorted in place and then scattered
    into the int64 tally, 2 at each value (the two x of a pair).  A sorted
    scatter walks the tally in order instead of missing the cache on every
    add.  The tally stays int64: a narrower one is cast to a field-sized
    intp array by any ``np.bincount`` of it.
    """
    import numpy as np

    counts = np.zeros(field.size, dtype=np.int64)
    block = np.empty(min(_TALLY_BLOCK, field.size >> 1), dtype=np.uint32)
    end = 0
    for lower, upper in _pair_values(field, a):
        if end + lower.size > len(block):
            block[:end].sort()
            np.add.at(counts, block[:end], 2)
            end = 0
        np.bitwise_xor(lower, upper, out=block[end:end + lower.size])
        end += lower.size
    block[:end].sort()
    np.add.at(counts, block[:end], 2)
    return counts


def bruteforce_counts(field: Field) -> np.ndarray:
    """Per-b solution tally of x^d + (x+1)^d = b over the whole field.

    Returns an int64 array of length 2^(4n) indexed by b, from the
    half-pair tally (the pairs {x, x+1} are adjacent entries of the x^d
    table).
    """
    _require_within_cap(field, "exhaustive tally")
    return _derivative_tally(field, 1)


# ---------------------------------------------------------------------
# Histograms.
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumHistogram:
    """Map from solution count to the number of b values attaining it.

    Both mass invariants are enforced on construction: multiplicities sum
    to q^4 (every b appears once) and count-weighted multiplicities sum to
    q^4 (every x solves the equation for exactly one b).
    """

    n: int
    method: str
    entries: Dict[int, int]

    def __post_init__(self) -> None:
        size = 1 << (4 * self.n)
        total_b = sum(self.entries.values())
        total_x = sum(count * mult for count, mult in self.entries.items())
        if total_b != size or total_x != size:
            raise PreconditionViolated(
                f"histogram mass invariants violated: sum of multiplicities "
                f"{total_b} and weighted sum {total_x} must both equal {size}"
            )
        object.__setattr__(
            self,
            "entries",
            {count: self.entries[count] for count in sorted(self.entries, reverse=True)},
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "method": self.method,
            "entries": {str(count): mult for count, mult in self.entries.items()},
        }

    def to_json(self) -> str:
        """JSON object with entries keyed by count, descending."""
        return json.dumps(self.as_dict())

    def to_csv(self) -> str:
        """CSV rows `count,multiplicity`, descending by count."""
        lines = ["count,multiplicity"]
        lines += [f"{count},{mult}" for count, mult in self.entries.items()]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Compact one-line rendering like {4:1,2:6,0:9}."""
        body = ",".join(f"{count}:{mult}" for count, mult in self.entries.items())
        return "{" + body + "}"


def _histogram_from_counts(
    field: Field, counts: np.ndarray, method: str
) -> SpectrumHistogram:
    import numpy as np

    tallies = np.bincount(counts)
    entries = {
        int(count): int(mult) for count, mult in enumerate(tallies) if mult > 0
    }
    return SpectrumHistogram(n=field.n, method=method, entries=entries)


def bruteforce_histogram(field: Field) -> SpectrumHistogram:
    """Histogram of per-b solution counts from the exhaustive sweep.

    Builds no per-b array: the operands of ``_pair_values`` (a = 1) are
    XORed into one uint32 array of the 2^(4n-1) pair values, which is
    sorted in place.  A run of r equal values is one b with 2r solutions;
    every b not in the array has none.  Runs are found _EXP_CHUNK values
    at a time, each chunk compared with the same chunk shifted back by one,
    so a run that crosses a seam stays open until a later chunk starts the
    next one.
    """
    import numpy as np

    _require_within_cap(field, "exhaustive tally")
    values = np.empty(field.size >> 1, dtype=np.uint32)
    end = 0
    for lower, upper in _pair_values(field, 1):
        np.bitwise_xor(lower, upper, out=values[end:end + lower.size])
        end += lower.size
    values.sort()

    entries: Dict[int, int] = {}  # 2r -> number of runs of length r
    run_start = 0
    for lo in range(1, end, _EXP_CHUNK):
        hi = min(lo + _EXP_CHUNK, end)
        starts = np.flatnonzero(values[lo:hi] != values[lo - 1:hi - 1]) + lo
        if hi == end:
            starts = np.append(starts, end)  # the last run ends with the array
        if not len(starts):
            continue  # the open run covers this whole chunk
        found = np.bincount(np.diff(starts, prepend=run_start))
        for length in np.flatnonzero(found).tolist():
            entries[2 * length] = entries.get(2 * length, 0) + int(found[length])
        run_start = int(starts[-1])
    zeros = field.size - sum(entries.values())  # one run per b that has solutions
    if zeros:
        entries[0] = zeros
    return SpectrumHistogram(n=field.n, method=METHOD_BRUTEFORCE, entries=entries)


def _s2_family_size(q: int) -> int:
    """q^3(q-1)/2, the size of the two-solution family (Conjecture 27)."""
    return q**3 * (q - 1) // 2


def formula_histogram(n: int) -> SpectrumHistogram:
    """The predicted histogram, directly from the classification counts.

    One b (namely 1) attains q^2; the q elements of mu_{q+1} minus 1
    attain q^2 - q; q^3(q-1)/2 elements attain 2; everything else attains
    0.  Colliding count keys merge additively (at n=1 the q^2 - q = 2
    family collides with the two-solution family).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise OutOfRange(f"n must be a positive integer, got {n!r}")
    q = 1 << n
    s2_count = _s2_family_size(q)
    zero_count = q**4 - 1 - q - s2_count
    entries: Dict[int, int] = {}
    for count, mult in ((q**2, 1), (q**2 - q, q), (2, s2_count), (0, zero_count)):
        entries[count] = entries.get(count, 0) + mult
    return SpectrumHistogram(n=n, method=METHOD_FORMULA, entries=entries)


# ---------------------------------------------------------------------
# The per-b classification pass and the two-solution family.
# ---------------------------------------------------------------------


def _classified(
    field: Field,
) -> Iterator[Tuple[Element, Classification, Optional[GenericIntermediates]]]:
    """(b, classification, chain) for every b in ascending order: the one
    per-b pass, one chain per b after ``field.ensure_tables()``, which
    puts the chain in its exponent form on every field the callers' cap
    admits.

    Membership in GF(q^2) is read from a set of its q^2 elements, so a b
    outside it is checked once, by ``solver.generic_intermediates``, which
    is called through its module and whose failure tag gives the case.
    """
    field.ensure_tables()
    inside = frozenset(field.iter_subfield(2 * field.n))
    for b in range(field.size):
        if b in inside:
            yield (b, *_classify_with_chain(field, b))
        else:
            chain = solver.generic_intermediates(field, b)
            yield b, _GENERIC_TWO if chain.failure is None else _NO_SOLUTION, chain


def s2_enumerate(field: Field) -> Tuple[int, Tuple[Element, ...]]:
    """(count, members) of the two-solution family, members in ascending
    order, from the per-b pass (one chain per b; switches ``field`` to
    tables)."""
    _require_within_cap(field, "two-solution family enumeration")
    members = tuple(
        b for b, classification, _ in _classified(field)
        if classification.case == CASE_GENERIC_TWO
    )
    return len(members), members


# ---------------------------------------------------------------------
# Differential-table rows.
# ---------------------------------------------------------------------


def ddt_row(field: Field, a: Element, method: str = METHOD_FORMULA) -> np.ndarray:
    """Per-b solution counts of x^d + (x+a)^d = b, as an array indexed by b.

    The substitution y = x/a turns the equation into y^d + (y+1)^d =
    b/a^d, so the a-row is the a=1 row relabelled by b -> a^d * b.  The
    formula path applies the relabelling to the a=1 row, which the first
    call on a field builds by the per-b classification pass (one chain per
    b, after ``field.ensure_tables()``) and keeps on the field;
    the bruteforce path tallies the derivative directly.  Both paths
    agree.  ``a`` may be any integer type but ``bool``.
    """
    import numpy as np

    direction = _as_integer(a)
    if direction is None:
        raise OutOfRange(f"direction must be an integer, got {a!r}")
    a = direction
    if a == 0:
        raise ZeroElement("differential rows are defined for nonzero a only")
    if not 0 < a < (1 << field.degree):
        raise OutOfRange(f"a = {a:#x} is outside the field")
    if method not in (METHOD_FORMULA, METHOD_BRUTEFORCE):
        raise OutOfRange(f"unknown ddt_row method {method!r}")
    _require_within_cap(field, "differential-table row")
    if method == METHOD_BRUTEFORCE:
        return _derivative_tally(field, a)

    row_one = field._formula_row_one
    if row_one is None:
        row_one = np.zeros(field.size, dtype=np.int64)
        for b, classification, _ in _classified(field):
            row_one[b] = classification.predicted_count
        row_one.flags.writeable = False
        field._formula_row_one = row_one
    scale = field.pow(a, field.d)
    positions = _vec_mul_const(np.arange(field.size, dtype=np.uint32), scale, field)
    row = np.zeros(field.size, dtype=np.int64)
    row[positions] = row_one
    return row


# ---------------------------------------------------------------------
# The verifier.
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the exhaustive solver-vs-oracle cross-check.

    ``mismatches`` groups failures by case tag (plus the synthetic tag
    ``root_verification`` for solutions that do not satisfy the equation
    when re-checked); a clean run has every list empty, equal histograms,
    and matching two-solution-family counts, summarised in ``passed``.
    """

    n: int
    modulus: int
    formula_histogram: SpectrumHistogram
    bruteforce_histogram: SpectrumHistogram
    mismatches: Dict[str, List[dict]]
    s2_formula_count: int
    s2_enumerated_count: int
    elapsed: Dict[str, float] = dataclass_field(repr=False, default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            not any(self.mismatches.values())
            and self.s2_formula_count == self.s2_enumerated_count
            and self.formula_histogram.entries == self.bruteforce_histogram.entries
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "pass": self.passed,
            "n": self.n,
            "modulus": format(self.modulus, "#x"),
            "formula_histogram": self.formula_histogram.as_dict(),
            "bruteforce_histogram": self.bruteforce_histogram.as_dict(),
            "mismatches": {
                tag: rows for tag, rows in sorted(self.mismatches.items())
            },
            "s2_formula_count": self.s2_formula_count,
            "s2_enumerated_count": self.s2_enumerated_count,
        }

    def to_json(self) -> str:
        """JSON with a top-level "pass" and no timings, so output is
        byte-identical across runs."""
        return json.dumps(self.as_dict(), indent=2)


def _check_all(
    field: Field, counts: np.ndarray
) -> Tuple[Dict[str, List[dict]], int]:
    """Classify every b, check its predicted count against the tally, and
    re-verify every root the solver lists, where it lists it.

    One chain run per b serves the prediction, and a completed chain's
    root x gives the generic pair {x, x+1} directly.  Each root is checked
    as P[x] + P[x+1] = b on ``Field.power_table()`` P, which the tally has
    already built; D(x) = D(x+1), so one comparison covers both roots of a
    pair.  b = 1 and the mu case list their ``SolutionSet``; a mu-case
    listing raises InternalDegenerate unless it holds q^2 - q distinct
    roots, and that b gets an error row.  The tally and P are read through
    memoryviews, which yield Python ints.  Rows come out in ascending b
    within each tag, and the roots of one b in the order the solution set
    lists them.
    """
    mismatches: Dict[str, List[dict]] = {}
    s2_seen = 0
    actual_counts = memoryview(counts)  # indexes to Python ints, without a copy
    power = memoryview(field.power_table())

    def record(tag: str, row: dict) -> None:
        mismatches.setdefault(tag, []).append(row)

    def record_root(b: Element, x: Element) -> None:
        record("root_verification", {"b": field.encode_hex(b), "x": field.encode_hex(x)})

    for b, classification, chain in _classified(field):
        case, predicted = classification
        generic = case == CASE_GENERIC_TWO
        s2_seen += generic
        actual = actual_counts[b]
        if predicted != actual:
            record(
                case,
                {"b": field.encode_hex(b), "predicted": predicted, "actual": actual},
            )
            continue
        if generic:
            low = chain.branch.x & ~1  # the pair {x, x+1}, sorted
            if power[low] ^ power[low | 1] != b:
                record_root(b, low)
                record_root(b, low | 1)
        elif case != CASE_NO_SOLUTION:  # b = 1 or the mu case
            try:
                for x in solver.SolutionSet(field, b, classification):
                    if power[x] ^ power[x ^ 1] != b:
                        record_root(b, x)
            except InternalDegenerate as exc:
                record(case, {"b": field.encode_hex(b), "error": str(exc)})
    return mismatches, s2_seen


def verify_conjecture(field: Field) -> VerificationReport:
    """Exhaustively cross-check the solver against the brute-force oracle.

    Four phases: the exhaustive tally, the closed-form histogram, a per-b
    classify/solve pass that re-verifies every root where it lists it,
    and the two-solution-family count comparison.  The tally is the
    chunked half-pair pass of ``bruteforce_counts``; the per-b pass runs
    one chain per b, serially, after ``field.ensure_tables()``.
    """
    _require_within_cap(field, "exhaustive verification")
    elapsed: Dict[str, float] = {}

    start = time.perf_counter()
    counts = bruteforce_counts(field)
    brute = _histogram_from_counts(field, counts, METHOD_BRUTEFORCE)
    elapsed["bruteforce"] = time.perf_counter() - start

    start = time.perf_counter()
    formula = formula_histogram(field.n)
    elapsed["formula"] = time.perf_counter() - start

    start = time.perf_counter()
    mismatches, s2_enumerated = _check_all(field, counts)
    elapsed["per_b_check"] = time.perf_counter() - start

    return VerificationReport(
        n=field.n,
        modulus=field.modulus,
        formula_histogram=formula,
        bruteforce_histogram=brute,
        mismatches=mismatches,
        s2_formula_count=_s2_family_size(field.q),
        s2_enumerated_count=s2_enumerated,
        elapsed=elapsed,
    )
