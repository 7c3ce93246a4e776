"""Acceptance suite: one test per release criterion, all exact (tolerance 0).

Every claim the library makes about x^d + (x+1)^d = b over GF(2^(4n)) is
checked here end to end: solver output against an exhaustive oracle, the
closed-form histogram against the swept one, family cardinalities, mass
conservation, the supporting subgroup lemmas, the structural identities of
the constructive chain, and independence from the choice of modulus.
"""

from __future__ import annotations

import time

import pytest

from diffspectrum.field import Field
from diffspectrum.solver import (
    generic_intermediates,
    is_in_s2,
    solve,
    verify_solution,
)
from diffspectrum.spectrum import (
    bruteforce_counts,
    bruteforce_histogram,
    formula_histogram,
    s2_enumerate,
    verify_conjecture,
)
from diffspectrum.subgroups import (
    LOCATION_SUBFIELD,
    LOCATION_UNITY_COSET,
    c_plus_inv_decompose,
)

EXPECTED_HISTOGRAMS = {
    1: {4: 1, 2: 6, 0: 9},
    2: {16: 1, 12: 4, 2: 96, 0: 155},
    3: {64: 1, 56: 8, 2: 1792, 0: 2295},
    4: {256: 1, 240: 16, 2: 30720, 0: 34799},
}

EXPECTED_S2_SIZES = {1: 4, 2: 96, 3: 1792}


def test_criterion_1_solver_matches_exhaustive_oracle(fields):
    """For every b at n in {1,2,3}: |solve(b)| equals the brute-force count
    and every returned x satisfies x^d + (x+1)^d = b."""
    started = time.perf_counter()
    for n in (1, 2, 3):
        field = fields[n]
        counts = bruteforce_counts(field)
        for b in range(1 << field.degree):
            _, solutions = solve(field, b)
            assert len(solutions) == int(counts[b]), (n, b)
            for x in solutions:
                assert verify_solution(field, x, b), (n, b, x)
    assert time.perf_counter() - started < 30.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_2_histograms_agree_and_match_frozen_values(n):
    started = time.perf_counter()
    swept = bruteforce_histogram(Field(n))
    predicted = formula_histogram(n)
    assert swept.entries == EXPECTED_HISTOGRAMS[n]
    assert predicted.entries == EXPECTED_HISTOGRAMS[n]
    assert swept.entries == predicted.entries
    if n == 4:
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_3_two_solution_family_cardinality(fields, n):
    field = fields[n]
    q = field.q
    count, members = s2_enumerate(field)
    assert count == EXPECTED_S2_SIZES[n] == q**3 * (q - 1) // 2
    assert len(set(members)) == count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_4_total_solution_mass_equals_field_size(fields, n):
    """Every x solves the equation for exactly one b, so the per-b solution
    counts must sum to q^4."""
    field = fields[n]
    total = sum(len(solve(field, b)[1]) for b in range(1 << field.degree))
    assert total == 1 << field.degree


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_5_shifted_unity_intersection_is_prime_part_of_gf_q(fields, n):
    """(1 + mu_m) intersected with mu_m is exactly GF(q) minus {0, 1},
    where m = (q-1)(q^2+1)."""
    field = fields[n]
    q = field.q
    m = (q - 1) * (q * q + 1)
    mu = {x for x in range(1, 1 << field.degree) if field.pow(x, m) == 1}
    assert mu & {1 ^ x for x in mu} == set(field.iter_subfield(n)) - {0, 1}


@pytest.mark.parametrize(
    "n, m", [(1, 1), (1, 2), (2, 2), (2, 4)]
)
def test_criterion_6_every_unit_splits_as_c_plus_inverse(fields, n, m):
    """Every z in GF(2^m)* equals c + 1/c for exactly two reciprocal c,
    located by the trace of 1/z: both in GF(2^m)* when it is 0, both in
    mu_(2^m + 1) minus {1} when it is 1."""
    field = fields[n]
    for z in field.iter_subfield(m):
        if z == 0:
            continue
        dec = c_plus_inv_decompose(field, z, m)
        c1, c2 = dec.roots
        assert field.mul(c1, c2) == 1
        for c in (c1, c2):
            assert field.add(c, field.inv(c)) == z
        expected_location = (
            LOCATION_SUBFIELD
            if field.trace_rel(field.inv(z), 1, m) == 0
            else LOCATION_UNITY_COSET
        )
        assert dec.location == expected_location
        if dec.location == LOCATION_SUBFIELD:
            assert all(field.in_subfield(c, m) and c != 0 for c in dec.roots)
        else:
            assert all(
                field.pow(c, (1 << m) + 1) == 1 and c != 1 for c in dec.roots
            )
        # "Exactly two": z != 0 makes the quadratic c^2 + z c + 1
        # separable, so the pair is genuinely distinct.
        assert c1 != c2


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_7_chain_intermediates_satisfy_structural_identities(fields, n):
    """For every b outside GF(q^2) that the constructive chain completes:
    gamma^(q^2) = 1 + gamma, delta^(q+1) = 1, T^q = delta * T,
    U + U^2 in GF(q), lambda^(q+1) = 1, z^(q-1) = 1, t^(q^2+1) = 1."""
    field = fields[n]
    q = field.q
    handled = 0
    for b in range(1 << field.degree):
        if b == 0 or field.in_subfield(b, 2 * n):
            continue
        chain = generic_intermediates(field, b)
        if chain.failure is not None:
            continue
        handled += 1
        assert field.frobenius_q(chain.gamma, 2) == 1 ^ chain.gamma
        assert field.pow(chain.delta, q + 1) == 1
        assert field.frobenius_q(chain.T, 1) == field.mul(chain.delta, chain.T)
        uu = field.add(chain.U, field.square(chain.U))
        assert field.in_subfield(uu, n)
        branch = chain.branch
        assert field.pow(branch.lam, q + 1) == 1
        assert field.pow(branch.z, q - 1) == 1
        assert field.pow(branch.t, q * q + 1) == 1
    assert handled == EXPECTED_S2_SIZES[n]


def test_criterion_8_verification_is_basis_independent():
    """verify at n=2 passes under two distinct irreducible moduli and
    produces identical histograms."""
    reports = [verify_conjecture(Field(2, modulus=mod)) for mod in (0x11B, 0x11D)]
    assert all(report.passed for report in reports)
    assert (
        reports[0].bruteforce_histogram.entries
        == reports[1].bruteforce_histogram.entries
        == EXPECTED_HISTOGRAMS[2]
    )


def test_full_verifier_passes_at_every_sweepable_size(fields):
    """The packaged verifier agrees with everything above in one call."""
    for n in (1, 2, 3):
        report = verify_conjecture(fields[n])
        assert report.passed, report.to_json()
