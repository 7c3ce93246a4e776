"""Tests for histogram computation, vectorised sweeps, and verification."""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from diffspectrum import solver
from diffspectrum.errors import (
    FieldTooLarge,
    InternalDegenerate,
    OutOfRange,
    PreconditionViolated,
    ZeroElement,
)
from diffspectrum.field import _EXP_CHUNK, Field
from diffspectrum.solver import (
    CASE_GENERIC_TWO,
    CASE_MU,
    CASE_NO_SOLUTION,
    FAIL_UNVERIFIED,
    classify,
    eval_derivative,
    solve,
)
from diffspectrum.spectrum import (
    BRUTEFORCE_CAP_BITS,
    METHOD_BRUTEFORCE,
    METHOD_FORMULA,
    SpectrumHistogram,
    _check_all,
    bruteforce_counts,
    bruteforce_histogram,
    ddt_row,
    formula_histogram,
    s2_enumerate,
    verify_conjecture,
)

from oracle_naive import field_pow, solution_counts

# Frozen histograms, independently confirmed by the naive oracle at n = 1, 2
# and by the vectorised sweep at n = 3, 4 (cross-checked against the additive
# count formulas they must satisfy: total mass 2^(4n) in both axes).
EXPECTED_HISTOGRAMS = {
    1: {4: 1, 2: 6, 0: 9},
    2: {16: 1, 12: 4, 2: 96, 0: 155},
    3: {64: 1, 56: 8, 2: 1792, 0: 2295},
    4: {256: 1, 240: 16, 2: 30720, 0: 34799},
}

# The first 16 hex digits of the SHA-256 of
# verify_conjecture(Field(n, modulus)).to_json(): the report's bytes, pinned.
VERIFY_JSON_DIGESTS = [
    (1, None, "bce084d3b2edc2f6"),
    (2, None, "6f727695210b2508"),
    (3, None, "16ab23805b7459d7"),
    (4, None, "c7d4c39c21f8b42f"),
    (2, 0x11D, "70e75d7ecef3649a"),
]


class TestEvalDerivative:
    def test_zero_maps_to_one(self, fields):
        for field in fields.values():
            assert eval_derivative(field, 0) == field.pow(1, field.d)

    def test_symmetric_under_complement(self, fields):
        for field in fields.values():
            rng_points = [0, 1, 2, 3, field.group_order // 2]
            for x in rng_points:
                assert eval_derivative(field, x) == eval_derivative(field, x ^ 1)

    def test_subfield_points_map_to_one(self, fields):
        # For x in GF(q^2) both x and x+1 lie in the subfield where the
        # exponent acts as the identity, so the difference is x + (x+1) = 1.
        for n in (1, 2):
            field = fields[n]
            for x in field.iter_subfield(2 * n):
                assert eval_derivative(field, x) == 1

    def test_matches_definition(self, f2):
        d = f2.d
        for x in range(0, 256, 7):
            expected = f2.pow(x, d) ^ f2.pow(x ^ 1, d)
            assert eval_derivative(f2, x) == expected


class TestBruteforceCounts:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_naive_oracle(self, fields, n):
        field = fields[n]
        counts = bruteforce_counts(field)
        expected = solution_counts(field.modulus, field.degree, field.d)
        assert counts.tolist() == expected

    def test_counts_shape_and_mass(self, f3):
        counts = bruteforce_counts(f3)
        assert counts.shape == (4096,)
        assert int(counts.sum()) == 4096


class TestBruteforceHistogram:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frozen_values(self, fields, n):
        hist = bruteforce_histogram(fields[n])
        assert hist.entries == EXPECTED_HISTOGRAMS[n]
        assert hist.method == METHOD_BRUTEFORCE
        assert hist.n == n

    @pytest.mark.parametrize(
        "n, modulus",
        [(1, None), (2, None), (3, None), (4, None), (5, None), (2, 0x11D), (3, 0x1017)],
    )
    def test_matches_per_b_tally(self, n, modulus):
        # The histogram counts runs in the sorted pair values, _EXP_CHUNK at
        # a time; at n = 5 its 2^19 values take eight chunks, so a run that
        # is miscounted where two chunks meet shows here.
        field = Field(n, modulus)
        tallies = np.bincount(bruteforce_counts(field))
        expected = {count: int(mult) for count, mult in enumerate(tallies) if mult}
        assert bruteforce_histogram(field).entries == expected


class TestSweepCap:
    @pytest.mark.parametrize(
        "exhaustive_pass",
        [
            bruteforce_counts,
            bruteforce_histogram,
            lambda field: ddt_row(field, 1, method=METHOD_FORMULA),
            lambda field: ddt_row(field, 1, method=METHOD_BRUTEFORCE),
            s2_enumerate,
            verify_conjecture,
        ],
        ids=[
            "bruteforce_counts",
            "bruteforce_histogram",
            "ddt_row_formula",
            "ddt_row_bruteforce",
            "s2_enumerate",
            "verify_conjecture",
        ],
    )
    def test_rejected_past_cap_before_any_table(self, exhaustive_pass):
        field = Field(7)  # fresh, 28 bits
        assert field.degree > BRUTEFORCE_CAP_BITS == 24
        with pytest.raises(FieldTooLarge):
            exhaustive_pass(field)
        assert field._tables is None and field._power is None


def _traced_peak(call) -> int:
    """Bytes that call() allocates at its peak, past what is live before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.fixture(scope="module")
def swept_n6():
    """A fresh Field(6), its bruteforce histogram and the traced peak in
    bytes of building that histogram."""
    field = Field(6)
    tracemalloc.start()
    try:
        hist = bruteforce_histogram(field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return field, hist, peak


class TestSweepAtCap:
    def test_histogram_matches_formula(self, swept_n6):
        field, hist, _ = swept_n6
        assert field.degree == BRUTEFORCE_CAP_BITS
        assert hist.entries == formula_histogram(6).entries

    def test_peak_memory_per_element(self, swept_n6):
        # Building the x^d table (4 bytes an element, and as much again in
        # build temporaries) sets the peak; the pair values (2) come after
        # them.  An exp table built on the way, or a per-b int64 tally,
        # adds 4 or 8.
        field, _, peak = swept_n6
        assert peak <= 9 * field.size

    def test_warm_histogram_memory_per_element(self, swept_n6):
        # The sorted uint32 pair values (2 bytes an element) and
        # chunk-sized temporaries; no per-b array.
        field, _, _ = swept_n6
        assert _traced_peak(lambda: bruteforce_histogram(field)) <= 5 * field.size

    def test_warm_bruteforce_row_memory_per_element(self, swept_n6):
        # The int64 row (8 bytes an element), the 8 MB sort block of the
        # tally (0.5) and chunk-sized temporaries.
        field, _, _ = swept_n6
        a = random.Random(6).randrange(1, field.size)
        peak = _traced_peak(lambda: ddt_row(field, a, method=METHOD_BRUTEFORCE))
        assert peak <= 9 * field.size

    def test_builds_no_exp_table(self, swept_n6):
        field, _, _ = swept_n6
        assert field._tables is None

    def test_power_table_entries_are_d_th_powers(self, swept_n6):
        field, _, _ = swept_n6
        power = field.power_table()
        rng = random.Random(6)
        xs = [0, 1, field.size - 1, *(rng.randrange(field.size) for _ in range(64))]
        for x in xs:
            assert int(power[x]) == field_pow(field.modulus, x, field.d), x


class TestFormulaHistogram:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_frozen_values(self, n):
        hist = formula_histogram(n)
        assert hist.entries == EXPECTED_HISTOGRAMS[n]
        assert hist.method == METHOD_FORMULA

    def test_n1_merges_colliding_counts(self):
        # At n = 1 two cases collide on the same count: q^2 - q = 2 (with
        # multiplicity q = 2) and the paired case count 2 (with multiplicity
        # 4), so the merged histogram reports multiplicity 6 for count 2.
        hist = formula_histogram(1)
        assert hist.entries[2] == 6

    def test_rejects_nonpositive_n(self):
        with pytest.raises(OutOfRange):
            formula_histogram(0)
        with pytest.raises(OutOfRange):
            formula_histogram(-3)
        for n in (1.5, "2", True):
            with pytest.raises(OutOfRange):
                formula_histogram(n)

    def test_large_n_has_no_cap(self):
        hist = formula_histogram(8)  # degree 32, beyond any sweep cap
        q = 2**8
        assert hist.entries[q * q] == 1
        assert hist.entries[q * q - q] == q
        assert hist.entries[2] == q**3 * (q - 1) // 2
        assert sum(hist.entries.values()) == 2**32
        assert sum(c * m for c, m in hist.entries.items()) == 2**32


class TestSpectrumHistogram:
    def test_mass_violation_rejected(self):
        # Multiplicities sum to 10, not 16.
        with pytest.raises(PreconditionViolated):
            SpectrumHistogram(n=1, method=METHOD_FORMULA, entries={4: 1, 0: 9})

    def test_solution_mass_violation_rejected(self):
        # Right number of b values (16) but only 15 solutions in total.
        with pytest.raises(PreconditionViolated):
            SpectrumHistogram(n=1, method=METHOD_FORMULA, entries={3: 1, 2: 6, 0: 9})

    def test_entries_sorted_descending(self):
        hist = SpectrumHistogram(
            n=1, method=METHOD_FORMULA, entries={0: 9, 4: 1, 2: 6}
        )
        assert list(hist.entries.items()) == [(4, 1), (2, 6), (0, 9)]

    def test_to_text_exact(self, f1):
        assert bruteforce_histogram(f1).to_text() == "{4:1,2:6,0:9}"

    def test_to_csv_exact(self, f1):
        csv_text = bruteforce_histogram(f1).to_csv()
        assert csv_text == "count,multiplicity\n4,1\n2,6\n0,9\n"

    def test_to_json_exact(self, f1):
        text = bruteforce_histogram(f1).to_json()
        assert text == (
            '{"n": 1, "method": "bruteforce",'
            ' "entries": {"4": 1, "2": 6, "0": 9}}'
        )
        assert json.loads(text)["entries"] == {"4": 1, "2": 6, "0": 9}


class TestS2Enumeration:
    @pytest.mark.parametrize(
        "n, expected", [(1, 4), (2, 96), (3, 1792)]
    )
    def test_cardinality(self, fields, n, expected):
        count, members = s2_enumerate(fields[n])
        assert count == expected
        assert len(members) == expected

    def test_members_sorted_and_classified(self, f2):
        _, members = s2_enumerate(f2)
        assert list(members) == sorted(members)
        for b in members[:16]:
            assert classify(f2, b).case == CASE_GENERIC_TWO

    @pytest.mark.parametrize("n", [1, 2])
    def test_members_match_bruteforce(self, fields, n):
        field = fields[n]
        counts = bruteforce_counts(field)
        expected = {
            b
            for b in range(1 << field.degree)
            if counts[b] == 2 and not field.in_subfield(b, 2 * n)
        }
        assert set(s2_enumerate(field)[1]) == expected


class TestDdtRow:
    def test_zero_direction_rejected(self, f1):
        with pytest.raises(ZeroElement):
            ddt_row(f1, 0)

    def test_bad_method_rejected(self, f1):
        with pytest.raises(OutOfRange):
            ddt_row(f1, 1, method="guess")

    def test_out_of_range_direction(self, f1):
        with pytest.raises(OutOfRange):
            ddt_row(f1, 16)

    def test_row_one_matches_counts(self, f2):
        formula = ddt_row(f2, 1, method=METHOD_FORMULA)
        brute = ddt_row(f2, 1, method=METHOD_BRUTEFORCE)
        counts = bruteforce_counts(f2)
        assert np.array_equal(formula, brute)
        assert np.array_equal(formula, counts)

    @pytest.mark.parametrize("n", [1, 2])
    def test_methods_agree_for_general_direction(self, fields, n):
        field = fields[n]
        for a in (1, 2, 3, (1 << field.degree) - 1):
            formula = ddt_row(field, a, method=METHOD_FORMULA)
            brute = ddt_row(field, a, method=METHOD_BRUTEFORCE)
            assert np.array_equal(formula, brute)

    def test_rows_are_relabelings(self, f2):
        # Changing direction permutes the output labels; the multiset of
        # counts in every row is identical.
        base = np.sort(ddt_row(f2, 1))
        for a in (2, 5, 77, 200):
            assert np.array_equal(np.sort(ddt_row(f2, a)), base)

    def test_relabel_position(self, f2):
        # Row a at position a^d * b equals row 1 at position b.
        a = 7
        scale = f2.pow(a, f2.d)
        row_a = ddt_row(f2, a)
        row_1 = ddt_row(f2, 1)
        for b in (0, 1, 9, 100, 255):
            assert row_a[f2.mul(scale, b)] == row_1[b]

    def test_max_entry_is_q_squared(self, f2):
        assert int(ddt_row(f2, 1).max()) == f2.q * f2.q

    @pytest.mark.parametrize("direction", [np.int64(3), np.uint32(3)])
    def test_numpy_integer_direction(self, f2, direction):
        for method in (METHOD_FORMULA, METHOD_BRUTEFORCE):
            assert np.array_equal(ddt_row(f2, direction, method=method), ddt_row(f2, 3))

    @pytest.mark.parametrize("direction", [1.0, 2.5])
    def test_float_direction_rejected(self, f1, direction):
        for method in (METHOD_FORMULA, METHOD_BRUTEFORCE):
            with pytest.raises(OutOfRange):
                ddt_row(f1, direction, method=method)

    @pytest.mark.parametrize("direction", [True, False])
    def test_bool_direction_rejected(self, f1, direction):
        # True would otherwise give the a = 1 row, and False a ZeroElement.
        for method in (METHOD_FORMULA, METHOD_BRUTEFORCE):
            with pytest.raises(OutOfRange):
                ddt_row(f1, direction, method=method)

    def test_formula_row_one_is_built_once_per_field(self, chain_runs):
        field = Field(2)  # fresh: the session fixtures may hold the row
        ddt_row(field, 1, method=METHOD_FORMULA)
        assert chain_runs
        chain_runs.clear()
        row = ddt_row(field, 0x53, method=METHOD_FORMULA)
        assert chain_runs == Counter()
        assert np.array_equal(row, ddt_row(field, 0x53, method=METHOD_BRUTEFORCE))

    @pytest.mark.parametrize(
        "n, modulus",
        [
            pytest.param(2, None, id="2"),
            pytest.param(3, None, id="3"),
            pytest.param(4, None, id="4"),
            pytest.param(5, None, id="5"),
            pytest.param(2, 0x11D, id="2-0x11d"),
        ],
    )
    def test_bruteforce_row_matches_full_tally(self, n, modulus):
        # The half-pair tally against the plain tally over every x, with no
        # pairing: every nonzero a up to 12 bits.  At n = 4 and 5, for every
        # highest set bit h, a = 2^h and two seeded a = 2^h plus lower bits.
        # With 2^h below _EXP_CHUNK a chunk's pairs are two takes; from it
        # up, a kept chunk is a slice, its partners a slice plus a take of
        # the bits of a below _EXP_CHUNK, and a pure slice without them
        # (2^h, and at n = 5 seeded a with only high bits besides 2^h).
        field = Field(n, modulus)
        m, size = field.degree, field.size
        if m <= 12:
            directions = range(1, size)
        else:
            rng = random.Random(n)
            directions = [1 << h for h in range(m)] + [size - 1]
            directions += [
                (1 << h) | rng.randrange(1, 1 << h) for h in range(1, m) for _ in range(2)
            ]
            k = _EXP_CHUNK.bit_length() - 1
            directions += [
                (1 << h) | rng.randrange(1, 1 << (h - k)) << k for h in range(k + 1, m)
            ]
        power = field.power_table()
        x = np.arange(size)
        for a in directions:
            expected = np.bincount(power[x] ^ power[x ^ a], minlength=size)
            row = ddt_row(field, a, method=METHOD_BRUTEFORCE)
            assert row.dtype == np.int64
            assert np.array_equal(row, expected), hex(a)
            assert not (row % 2).any()

    def test_bruteforce_row_allocates_one_tally(self):
        # On a warm field a row allocates its int64 result, the tally's
        # uint32 sort block (2 bytes per element at n = 5) and chunk-sized
        # temporaries.  The slack of 4 bytes per element is less than one
        # field-sized int64 index or bincount cast, so either would fail.
        field = Field(5)
        ddt_row(field, 1, method=METHOD_BRUTEFORCE)  # builds the cached tables
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            counts = ddt_row(field, 0x2B5C7, method=METHOD_BRUTEFORCE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= counts.nbytes + 4 * field.size


class TestVerifyConjecture:
    @pytest.mark.parametrize("n", [1, 2])
    def test_passes(self, fields, n):
        report = verify_conjecture(fields[n])
        assert report.passed
        assert report.mismatches == {}
        assert report.formula_histogram.entries == EXPECTED_HISTOGRAMS[n]
        assert report.bruteforce_histogram.entries == EXPECTED_HISTOGRAMS[n]
        assert report.s2_formula_count == report.s2_enumerated_count

    def test_report_shape(self, f1):
        report = verify_conjecture(f1)
        payload = report.as_dict()
        assert list(payload)[0] == "pass"
        assert payload["pass"] is True
        assert payload["n"] == 1
        assert payload["modulus"] == "0x13"
        assert "elapsed_seconds" not in payload

    def test_timings_optional(self, f1):
        report = verify_conjecture(f1)
        timings = report.elapsed
        assert "elapsed_seconds" not in report.as_dict()
        assert set(timings) == {"bruteforce", "formula", "per_b_check"}
        assert all(value >= 0.0 for value in timings.values())

    def test_json_deterministic(self, f2):
        assert verify_conjecture(f2).to_json() == verify_conjecture(f2).to_json()

    def test_chain_runs_once_per_b_outside_gf_q2(self, f2, chain_runs):
        assert verify_conjecture(f2).passed
        outside = [b for b in range(1 << f2.degree) if not f2.in_subfield(b, 2 * f2.n)]
        assert len(outside) == 240
        assert chain_runs == Counter(outside)

    @pytest.mark.parametrize(
        "whole_field_pass",
        [
            s2_enumerate,
            lambda field: ddt_row(field, 1, method=METHOD_FORMULA),
            verify_conjecture,
        ],
        ids=["s2_enumerate", "ddt_row_formula", "verify_conjecture"],
    )
    def test_whole_field_pass_runs_chain_once_per_b_on_tables(
        self, whole_field_pass, chain_runs, monkeypatch
    ):
        field = Field(2)  # fresh: the session fixtures prebuild the tables
        counted = solver.generic_intermediates
        on_tables = []

        def checked(field, b):
            on_tables.append(field._tables is not None)
            return counted(field, b)

        monkeypatch.setattr(solver, "generic_intermediates", checked)
        whole_field_pass(field)
        outside = [b for b in range(field.size) if not field.in_subfield(b, 2 * field.n)]
        assert chain_runs == Counter(outside)
        assert len(on_tables) == len(outside) and all(on_tables)

    @pytest.mark.parametrize("n, modulus, digest", VERIFY_JSON_DIGESTS)
    def test_json_bytes_pinned(self, request, n, modulus, digest):
        field = Field(n, modulus) if modulus else request.getfixturevalue(f"f{n}")
        payload = verify_conjecture(field).to_json().encode()
        assert hashlib.sha256(payload).hexdigest()[:16] == digest

    def test_injected_faults_are_reported(self, f2, monkeypatch):
        counts = bruteforce_counts(f2)
        members = [b for b in range(f2.size) if counts[b] == 2]
        mu = [b for b in range(2, f2.size) if counts[b] == f2.q**2 - f2.q]
        wrong_root = {members[40]: 1, members[7]: 0}  # b: the x the chain lists
        mispredicted = {members[60], members[3]}  # the chain fails on a member
        broken_mu = mu[1]  # the mu-case construction raises
        zero_first_mu = mu[2]  # the mu-case listing has 0 for its first root
        chain_of = solver.generic_intermediates
        solve_mu = solver.solve_mu_case

        def faulty_chain(field, b):
            chain = chain_of(field, b)
            if b in wrong_root:
                return chain._replace(branch=chain.branch._replace(x=wrong_root[b]))
            if b in mispredicted:
                return chain._replace(branch=None, failure=FAIL_UNVERIFIED)
            return chain

        def faulty_mu(field, b):
            if b == broken_mu:
                raise InternalDegenerate("injected")
            roots = solve_mu(field, b)
            return (0, *roots[1:]) if b == zero_first_mu else roots

        monkeypatch.setattr(solver, "generic_intermediates", faulty_chain)
        monkeypatch.setattr(solver, "solve_mu_case", faulty_mu)
        report = verify_conjecture(f2)
        hexed = f2.encode_hex
        assert report.passed is False
        # D(0) = D(1) = 1, so neither root solves; rows ascend in b, then in
        # listing order
        bad_roots = {b: (0, 1) for b in wrong_root}
        bad_roots[zero_first_mu] = (0,)
        assert report.mismatches == {
            "root_verification": [
                {"b": hexed(b), "x": hexed(x)} for b in sorted(bad_roots) for x in bad_roots[b]
            ],
            CASE_NO_SOLUTION: [
                {"b": hexed(b), "predicted": 0, "actual": 2} for b in sorted(mispredicted)
            ],
            CASE_MU: [{"b": hexed(broken_mu), "error": "injected"}],
        }
        assert report.s2_enumerated_count == len(members) - len(mispredicted)

    def test_check_all_keeps_no_root_buffer(self):
        # On a warm field the per-b pass allocates its rows and per-b
        # temporaries only.  The slack of 4 bytes per element is less than
        # the two uint32 buffers that one entry per root would take.
        field = Field(3)
        counts = bruteforce_counts(field)
        _check_all(field, counts)  # builds the tables and the chain's memo
        assert _traced_peak(lambda: _check_all(field, counts)) <= 4 * field.size

    def test_alternate_modulus_passes(self):
        field = Field(2, modulus=0x11D)
        report = verify_conjecture(field)
        assert report.passed
        assert report.bruteforce_histogram.entries == EXPECTED_HISTOGRAMS[2]


def test_package_reads_spectrum_names_on_first_use():
    # diffspectrum resolves these names through its module __getattr__, so
    # importing the package does not import spectrum
    import diffspectrum
    from diffspectrum import spectrum

    for name in diffspectrum.__all__:
        assert hasattr(diffspectrum, name), name
    for name in spectrum.__all__:
        if name in diffspectrum.__all__:
            assert getattr(diffspectrum, name) is getattr(spectrum, name), name
    with pytest.raises(AttributeError):
        diffspectrum.no_such_name  # noqa: B018
