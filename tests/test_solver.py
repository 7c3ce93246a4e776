"""Classification and constructive solving, cross-checked against scans."""

import random
import time
from collections import Counter
from functools import cache, partial
from itertools import combinations, islice

import numpy as np
import pytest

import oracle_naive
from diffspectrum import solver as solver_module
from diffspectrum.errors import GF2Error, InternalDegenerate, PreconditionViolated
from diffspectrum.field import Field
from diffspectrum.solver import (
    CASE_B_EQUALS_ONE,
    CASE_GENERIC_TWO,
    CASE_MU,
    CASE_NO_SOLUTION,
    FAIL_ALPHA_ONE,
    FAIL_ANSATZ_POLE,
    FAIL_DELTA_ONE,
    FAIL_LAMBDA,
    FAIL_T_SUBFIELD,
    FAIL_U_DEGENERATE,
    FAIL_UNVERIFIED,
    FAIL_Z_DENOMINATOR,
    FAIL_Z_ZERO,
    Classification,
    GenericBranch,
    GenericIntermediates,
    MuCaseWitness,
    classify,
    eval_derivative,
    generic_intermediates,
    is_in_s2,
    iter_mu_witnesses,
    solve,
    solve_mu_case,
    verify_solution,
)
from diffspectrum.spectrum import bruteforce_counts
from diffspectrum.subgroups import solve_t_from_T

# Complete solution map for n=1 (modulus 0x13), frozen from the naive
# exhaustive scan in oracle_naive before the solver was written.
N1_SOLUTIONS = {
    0x0: [],
    0x1: [0, 1, 6, 7],
    0x2: [],
    0x3: [],
    0x4: [],
    0x5: [],
    0x6: [2, 3],
    0x7: [4, 5],
    0x8: [],
    0x9: [14, 15],
    0xA: [],
    0xB: [12, 13],
    0xC: [],
    0xD: [10, 11],
    0xE: [8, 9],
    0xF: [],
}

# Membership of the two-solution family at n=1, frozen from the same scan.
N1_S2_MEMBERS = [0x9, 0xB, 0xD, 0xE]

# Expected family sizes: exactly one b with q^2 solutions, q with q^2 - q,
# q^3(q-1)/2 with two, and the rest with none.
def expected_frequencies(q: int) -> dict[str, int]:
    s2 = q**3 * (q - 1) // 2
    return {
        CASE_B_EQUALS_ONE: 1,
        CASE_MU: q,
        CASE_GENERIC_TWO: s2,
        CASE_NO_SOLUTION: q**4 - 1 - q - s2,
    }


class TestVerifySolution:
    def test_zero_and_one_solve_b_equals_1(self, f1):
        assert verify_solution(f1, 0, 1)
        assert verify_solution(f1, 1, 1)

    def test_invariant_under_complement(self, f2):
        for x in range(1 << f2.degree):
            b = f2.pow(x, f2.d) ^ f2.pow(x ^ 1, f2.d)
            assert verify_solution(f2, x, b)
            assert verify_solution(f2, x ^ 1, b)


# Public entry points that take an x or a b, each called with the value under
# test in that slot and a field element in any other.
RANGE_CHECKED_ENTRIES = {
    "classify.b": lambda field, v: classify(field, v),
    "solve.b": lambda field, v: solve(field, v),
    "generic_intermediates.b": lambda field, v: generic_intermediates(field, v),
    "eval_derivative.x": lambda field, v: eval_derivative(field, v),
    "verify_solution.x": lambda field, v: verify_solution(field, v, 0),
    "verify_solution.b": lambda field, v: verify_solution(field, 0, v),
    "iter_mu_witnesses.b": lambda field, v: list(iter_mu_witnesses(field, v)),
    "solve_mu_case.b": lambda field, v: solve_mu_case(field, v),
}


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("entry", sorted(RANGE_CHECKED_ENTRIES))
def test_out_of_range_element_rejected(entry, n):
    field = Field(n)
    call = RANGE_CHECKED_ENTRIES[entry]
    # past either end of the field, or no integer at all, whatever its value
    for value in (field.size, field.size | 0x2, -1, True, 1.0, 2.0, "0x2", None,
                  np.True_, np.float64(2.0), np.int64(-1), np.uint32(field.size)):
        with pytest.raises(PreconditionViolated):
            call(field, value)


@pytest.mark.parametrize("integer", [np.int64, np.uint32], ids=["int64", "uint32"])
def test_numpy_integer_elements_act_as_their_int(f2, integer):
    # b read from the library's own arrays, as the sweeps return them
    counts = bruteforce_counts(f2)
    two = int(np.flatnonzero(counts == 2)[0])
    mu = next(b for b in range(2, f2.size) if f2.pow(b, f2.q + 1) == 1)
    none = next(b for b in np.flatnonzero(counts == 0).tolist()
                if not f2.in_subfield(b, 2 * f2.n))
    for b in (0, 1, mu, two, none):
        assert classify(f2, integer(b)) == classify(f2, b)
        classification, solutions = solve(f2, integer(b))
        assert classification == classify(f2, b)
        assert list(solutions) == list(solve(f2, b)[1])
        for x in list(solutions)[:4]:
            assert integer(x) in solutions
            assert verify_solution(f2, integer(x), integer(b))
        assert (integer(f2.size - 1) in solutions) == (f2.size - 1 in solutions)
    for x in range(0, f2.size, 17):
        assert eval_derivative(f2, integer(x)) == eval_derivative(f2, x)
    for b in (two, none):
        chain = generic_intermediates(f2, integer(b))
        assert chain == generic_intermediates(f2, b) and type(chain.b) is int
    witnesses = list(iter_mu_witnesses(f2, integer(mu)))
    assert witnesses == list(iter_mu_witnesses(f2, mu))


class TestClassify:
    def test_b_one(self, f2):
        result = classify(f2, 1)
        assert result.case == CASE_B_EQUALS_ONE
        assert result.predicted_count == f2.q**2

    def test_b_zero(self, f2):
        result = classify(f2, 0)
        assert result.case == CASE_NO_SOLUTION
        assert result.predicted_count == 0

    def test_mu_members(self, f2):
        q = f2.q
        mu = [b for b in range(1, 1 << f2.degree) if f2.pow(b, q + 1) == 1]
        assert len(mu) == q + 1
        for b in mu:
            if b == 1:
                continue
            result = classify(f2, b)
            assert result.case == CASE_MU
            assert result.predicted_count == q**2 - q

    def test_out_of_range_b_rejected(self, f1):
        with pytest.raises(PreconditionViolated):
            classify(f1, 16)
        with pytest.raises(PreconditionViolated):
            classify(f1, -1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_case_frequencies_exhaustive(self, fields, n):
        field = fields[n]
        tally: dict[str, int] = {}
        for b in range(1 << field.degree):
            tally[classify(field, b).case] = tally.get(classify(field, b).case, 0) + 1
        assert tally == expected_frequencies(field.q)


class TestIsInS2:
    def test_one_is_excluded(self, f2):
        assert not is_in_s2(f2, 1)

    def test_gf_q2_is_excluded(self, f2):
        for b in f2.iter_subfield(2 * f2.n):
            assert not is_in_s2(f2, b)

    def test_n1_members_frozen(self, f1):
        members = [b for b in range(16) if is_in_s2(f1, b)]
        assert members == N1_S2_MEMBERS

    @pytest.mark.parametrize("n,expected", [(1, 4), (2, 96), (3, 1792)])
    def test_cardinality_exhaustive(self, fields, n, expected):
        field = fields[n]
        count = sum(is_in_s2(field, b) for b in range(1 << field.degree))
        assert count == expected == field.q**3 * (field.q - 1) // 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_disjoint_from_subfield_and_mu(self, fields, n):
        field = fields[n]
        q = field.q
        for b in range(1 << field.degree):
            if is_in_s2(field, b):
                assert not field.in_subfield(b, 2 * n)
                assert field.pow(b, q + 1) != 1


def explicit_s2_member(field, b):
    """The paper's explicit two-solution set, for b outside GF(q^2).

    sigma1, sigma2 and sigma4 are the elementary symmetric functions of
    the conjugates b, b^q, b^(q^2), b^(q^3), so they lie in GF(q); b has
    two solutions exactly when sigma1 != 0 and
    Tr_1^n((1 + sigma2 + sigma4) / sigma1^2) = 0.  Built here from those
    definitions alone, not from the chain; trace_rel raises unless its
    argument lies in GF(q).
    """
    conjugates = [field.frobenius_q(b, i) for i in range(4)]
    sigma1 = conjugates[0] ^ conjugates[1] ^ conjugates[2] ^ conjugates[3]
    if sigma1 == 0:
        return False
    sigma2 = 0
    for u, v in combinations(conjugates, 2):
        sigma2 ^= field.mul(u, v)
    sigma4 = field.mul(field.mul(conjugates[0], conjugates[1]),
                       field.mul(conjugates[2], conjugates[3]))
    ratio = field.div(1 ^ sigma2 ^ sigma4, field.square(sigma1))
    return field.trace_rel(ratio, 1, field.n) == 0


# Seeded b for the predicate: against the tally at n = 4, where the whole
# field would take ~1.7 s, and against classify past the sweep cap.
S2_PREDICATE_N4_SAMPLES = 4096
S2_PREDICATE_SAMPLES = 60


class TestExplicitTwoSolutionSet:
    @pytest.mark.parametrize(
        "n, modulus", [(1, None), (2, None), (3, None), (2, 0x11D)]
    )
    def test_matches_bruteforce_exhaustive(self, fields, n, modulus):
        field = fields[n] if modulus is None else Field(n, modulus)
        counts = bruteforce_counts(field)
        mismatches = [b for b in outside_gf_q2(field)
                      if explicit_s2_member(field, b) != (counts[b] == 2)]
        assert mismatches == []

    def test_n4_sampled_against_bruteforce(self, f4):
        counts = bruteforce_counts(f4)
        rng = random.Random("explicit-s2:4")
        bs = rng.sample(outside_gf_q2(f4), S2_PREDICATE_N4_SAMPLES)
        assert [b for b in bs if explicit_s2_member(f4, b) != (counts[b] == 2)] == []

    @pytest.mark.parametrize("n", [7, 8, 15])
    def test_matches_classify_past_sweep_cap(self, n):
        field = Field(n)
        bs = seeded_outside_gf_q2(field, S2_PREDICATE_SAMPLES, f"explicit-s2:{n}")
        members = {b for b in bs if classify(field, b).case == CASE_GENERIC_TWO}
        assert {b for b in bs if explicit_s2_member(field, b)} == members
        assert 0 < len(members) < len(bs)


def assert_frobenius_equivariant(field, bs):
    """x solves the equation for b exactly when x^2 solves it for b^2, since
    squaring is a field automorphism: b^2 gets b's classification, and a
    completed chain's pair for b^2 is the square of the pair for b.  Each
    b is solved once, as itself or as a square."""
    solved = cache(partial(solve, field))
    for b in bs:
        classification, solutions = solved(b)
        classification_sq, solutions_sq = solved(field.square(b))
        assert classification_sq == classification, b
        if classification.case == CASE_GENERIC_TWO:
            assert sorted(field.square(x) for x in solutions) == list(solutions_sq), b


# Seeded b per field past the sweep cap.
EQUIVARIANCE_SAMPLES = 30


class TestFrobeniusEquivariance:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive(self, request, n):
        field = request.getfixturevalue(f"f{n}")
        assert_frobenius_equivariant(field, range(field.size))

    @pytest.mark.parametrize("n", [7, 8, 15])
    def test_seeded_past_sweep_cap(self, n):
        field = Field(n)
        rng = random.Random(f"equivariance:{n}")
        assert_frobenius_equivariant(
            field, [rng.randrange(field.size) for _ in range(EQUIVARIANCE_SAMPLES)])


class TestSolveBEquals1:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_iterates_exactly_the_frobenius_fixed_points(self, fields, n):
        field = fields[n]
        solutions = solve(field, 1)[1]
        expected = {x for x in range(1 << field.degree) if field.frobenius_q(x, 2) == x}
        assert set(solutions) == expected
        assert len(solutions) == field.q**2

    def test_zero_and_one_present(self, f2):
        solutions = solve(f2, 1)[1]
        assert 0 in solutions and 1 in solutions

    def test_every_member_solves(self, f2):
        for x in solve(f2, 1)[1]:
            assert verify_solution(f2, x, 1)


class TestMuCase:
    def test_rejects_non_mu_b(self, f2):
        with pytest.raises(PreconditionViolated):
            list(iter_mu_witnesses(f2, 1))
        with pytest.raises(PreconditionViolated):
            list(iter_mu_witnesses(f2, 0))
        outsider = f2.primitive_element()
        with pytest.raises(PreconditionViolated):
            list(iter_mu_witnesses(f2, outsider))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_for_every_mu_b(self, fields, n):
        field = fields[n]
        q = field.q
        for b in range(2, 1 << field.degree):
            if field.pow(b, q + 1) != 1:
                continue
            solutions = solve_mu_case(field, b)
            assert len(solutions) == q**2 - q

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_bruteforce_sets(self, fields, n):
        field = fields[n]
        q = field.q
        oracle = oracle_naive.solution_sets(field.modulus, field.degree, field.d)
        for b in range(2, 1 << field.degree):
            if field.pow(b, q + 1) != 1:
                continue
            assert set(solve_mu_case(field, b)) == oracle.get(b, set())

    @pytest.mark.parametrize(
        "n, modulus", [(1, None), (2, None), (3, None), (4, None), (2, 0x11D)],
        ids=["n1", "n2", "n3", "n4", "n2-0x11d"],
    )
    def test_witness_invariants(self, n, modulus):
        # every mu b: the roots built as 1 + (t + z)/(c w) are the
        # paper's 1/(1 + z t)
        field = Field(n, modulus)
        q = field.q
        # mu_(q+1) is the image of GF(q^2)* under y -> y^(q-1)
        mu = {field.pow(y, q - 1) for y in field.iter_subfield(2 * n) if y}
        assert len(mu) == q + 1
        for b in sorted(mu - {1}):
            c = field.sqrt(b)
            witnesses = list(iter_mu_witnesses(field, b))
            assert len(witnesses) == q**2 - q
            for w in witnesses:
                assert field.in_subfield(w.z, n) and w.z != 0
                assert field.in_subfield(w.w, n) and w.w != 0
                assert w.T == w.z ^ field.inv(w.z) ^ field.mul(c, w.w)
                assert field.trace_rel(field.inv(w.T), 1, 2 * n) == 1
                assert w.t ^ field.inv(w.t) == w.T
                assert field.pow(w.t, q * q + 1) == 1
                assert w.x == field.inv(1 ^ field.mul(w.z, w.t))
                assert verify_solution(field, w.x, b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_solution_lies_in_gf_q2(self, fields, n):
        field = fields[n]
        q = field.q
        for b in range(2, 1 << field.degree):
            if field.pow(b, q + 1) != 1:
                continue
            for x in solve_mu_case(field, b):
                assert not field.in_subfield(x, 2 * n)

    def test_first_witness_builds_few_inverses(self, monkeypatch):
        # (w, c*w, 1/(c*w)) is built as the first z reaches each w: the
        # first witness costs one inverse per w visited, plus the t-step's,
        # not the q - 1 = 127 of building them all up front (129 in all).
        field = Field(7)
        b = _mu_b(field)
        inverses = []
        inv = Field.inv
        monkeypatch.setattr(Field, "inv", lambda self, x: inverses.append(x) or inv(self, x))
        next(iter_mu_witnesses(field, b))
        assert len(inverses) < 16
        monkeypatch.undo()
        # the witnesses still come out z by z, and w by w within one z
        order = {v: i for i, v in enumerate(field.iter_subfield(field.n))}
        pairs = [(order[w.z], order[w.w]) for w in islice(iter_mu_witnesses(field, b), 600)]
        assert pairs == sorted(pairs) and len({z for z, _ in pairs}) > 1


class TestGenericCase:
    def test_rejects_subfield_b(self, f2):
        with pytest.raises(PreconditionViolated):
            generic_intermediates(f2, 1)

    def test_solve_returns_explicit_empty_set_without_roots(self, f2):
        # b = 0 lies in GF(q^2) but not in mu_(q+1): no roots
        classification, solutions = solve(f2, 0)
        assert classification.case == CASE_NO_SOLUTION
        assert len(solutions) == 0 and list(solutions) == []
        assert repr(solutions) == "SolutionSet([])"

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize(
        "entry",
        [is_in_s2, solve, generic_intermediates],
        ids=lambda entry: entry.__name__,
    )
    def test_out_of_range_b_rejected(self, entry, n):
        field = Field(n)
        for b in (field.size, field.size + 2, -1):
            with pytest.raises(PreconditionViolated):
                entry(field, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_verified_solutions_for_every_member(self, fields, n):
        field = fields[n]
        for b in range(1 << field.degree):
            if not is_in_s2(field, b):
                continue
            classification, solutions = solve(field, b)
            assert classification.case == CASE_GENERIC_TWO
            assert len(solutions) == 2
            xs = sorted(solutions)
            assert xs[1] == xs[0] ^ 1  # the complementary pair
            for x in xs:
                assert verify_solution(field, x, b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nonmembers_truly_have_no_solutions(self, fields, n):
        field = fields[n]
        oracle = oracle_naive.solution_sets(field.modulus, field.degree, field.d)
        for b in range(1 << field.degree):
            if field.in_subfield(b, 2 * n) or is_in_s2(field, b):
                continue
            assert oracle.get(b, set()) == set()
            assert len(solve(field, b)[1]) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_chain_invariants_for_every_member(self, fields, n):
        field = fields[n]
        q = field.q
        for b in range(1 << field.degree):
            if field.in_subfield(b, 2 * n):
                continue
            chain = generic_intermediates(field, b)
            # scalar definitions hold whether or not the chain completed
            assert chain.alpha == field.pow(chain.c, q * q + 1)
            assert chain.beta == chain.c ^ field.frobenius_q(chain.c, 2)
            assert chain.beta != 0
            assert field.pow(chain.delta, q + 1) == 1
            if chain.failure is not None:
                continue
            assert chain.alpha != 1
            assert field.frobenius_q(chain.gamma, 2) == 1 ^ chain.gamma
            uu = chain.U ^ field.square(chain.U)
            assert field.in_subfield(uu, n)
            assert field.frobenius_q(chain.T, 1) == field.mul(chain.delta, chain.T)
            assert len(chain.t_pair) == 2
            branch = chain.branch
            assert branch.t == chain.t_pair[0]
            assert field.pow(branch.t, q * q + 1) == 1
            assert field.pow(branch.lam, q + 1) == 1
            assert field.in_subfield(branch.z, n) and branch.z != 0
            for x in (branch.x, branch.x ^ 1):
                assert verify_solution(field, x, b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_failed_chain_has_no_branch(self, fields, n):
        field = fields[n]
        failed = [
            chain
            for chain in map(partial(generic_intermediates, field), outside_gf_q2(field))
            if chain.failure is not None
        ]
        assert failed
        assert all(chain.branch is None for chain in failed)

    def test_failure_tags_are_no_solution_evidence(self, f1):
        oracle = oracle_naive.solution_sets(f1.modulus, f1.degree, f1.d)
        for b in range(1 << f1.degree):
            if f1.in_subfield(b, 2):
                continue
            chain = generic_intermediates(f1, b)
            if chain.failure is None:
                assert len(oracle.get(b, set())) == 2
            else:
                assert oracle.get(b, set()) == set()

    def test_missing_t_roots_raise(self, f1, monkeypatch):
        # Tr_1^(2n)(1/T) = 1 on every chain, so t + 1/t = T always has
        # unit-subgroup roots; a solver that finds none is a library fault
        b = N1_S2_MEMBERS[0]
        monkeypatch.setattr(solver_module, "solve_t_from_T", lambda field, T: [])
        with pytest.raises(InternalDegenerate):
            generic_intermediates(f1, b)
        with pytest.raises(InternalDegenerate):
            classify(f1, b)


def chain_identity_violations(field, bs):
    """The identities the generic chain relies on, recomputed from b.

    Each quantity is built here from its definition in the paper's form
    (c, alpha, beta, delta, then gamma, U, T and the lam quotient), not
    read from ``generic_intermediates``.  Returns (b, identity) for every
    identity that fails.
    """
    n, q = field.n, field.q
    frob = field.frobenius_q
    violations = []
    for b in bs:
        c = field.inv(field.sqrt(b))
        c_q2 = frob(c, 2)
        alpha = field.mul(c, c_q2)
        beta = c ^ c_q2
        delta = field.pow(field.div(beta, alpha), q - 1)
        gamma = field.div(c, beta)
        u_den = field.mul(delta, field.mul(field.pow(alpha, q - 1), field.square(beta)))
        U = gamma ^ frob(gamma, 1) ^ field.div(field.pow(alpha, q + 1) ^ 1, u_den)
        uu = U ^ field.square(U)
        checks = {
            "delta alpha^(q-1) beta^2 = beta^(q+1)": u_den == field.pow(beta, q + 1),
            "gamma^(q^2) = 1 + gamma": frob(gamma, 2) == 1 ^ gamma,
            "Tr_1^n(U + U^2) = 1": field.trace_rel(uu, 1, n) == 1,
        }
        if delta != 1:
            T = field.div(1 ^ frob(delta, 1), field.sqrt(uu))
            t = solve_t_from_T(field, T)[0]
            t_inv = field.inv(t)
            B1 = field.mul(gamma, t) ^ field.mul(frob(gamma, 2), t_inv)
            B = field.mul(gamma, t_inv) ^ field.mul(frob(gamma, 2), t)
            lam_num = frob(B1, 1) ^ B
            lam_den = B1 ^ frob(B, 1)
            checks.update({
                "T^q = delta T": frob(T, 1) == field.mul(delta, T),
                "T outside GF(q)": not field.in_subfield(T, n),
                "Tr_1^(2n)(1/T) = 1": field.trace_rel(field.inv(T), 1, 2 * n) == 1,
                "lam denominator nonzero": lam_den != 0,
                "lam numerator = denominator^q": lam_num == frob(lam_den, 1),
            })
        violations += [(b, name) for name, holds in checks.items() if not holds]
    return violations


# Seeded b per field past the sweep cap, where no exhaustive check runs.
CHAIN_IDENTITY_SAMPLES = 20


class TestChainIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, fields, n):
        field = fields[n]
        assert chain_identity_violations(field, outside_gf_q2(field)) == []

    @pytest.mark.parametrize("tables", [False, True])
    def test_second_modulus(self, tables):
        field = Field(2, modulus=0x11D)
        if tables:
            field.ensure_tables()
        assert chain_identity_violations(field, outside_gf_q2(field)) == []

    def test_n4_sampled(self, f4):
        rng = random.Random("chain-identities:4")
        bs = rng.sample(outside_gf_q2(f4), N4_REFERENCE_SAMPLES)
        assert chain_identity_violations(f4, bs) == []

    @pytest.mark.parametrize("n", [7, 8, 15])
    def test_sampled_past_sweep_cap(self, n):
        field = Field(n)
        bs = seeded_outside_gf_q2(field, CHAIN_IDENTITY_SAMPLES, f"chain-identities:{n}")
        assert chain_identity_violations(field, bs) == []


def reference_generic_intermediates(field, b):
    """The generic chain with each branch built from its own t alone.

    Returns (chain, second).  ``chain`` is the record that
    ``generic_intermediates``, which computes the values the (t, 1/t)
    branches share once and builds only the branch of t, must equal
    record for record; ``second`` is the branch of 1/t (a GenericBranch,
    or the tag where it failed), which the library never builds, and is
    None when the chain stopped before its branches.  It runs on the
    library's arithmetic, like the chain it checks.
    """
    q = field.q
    c = field.inv(field.sqrt(b))
    c_q2 = field.frobenius_q(c, 2)
    alpha = field.mul(c, c_q2)
    beta = c ^ c_q2
    delta = field.pow(field.div(beta, alpha), q - 1)
    if delta == 1:
        return GenericIntermediates(
            b=b, c=c, alpha=alpha, beta=beta, delta=delta, failure=FAIL_DELTA_ONE
        ), None
    if alpha == 1:
        return GenericIntermediates(
            b=b, c=c, alpha=alpha, beta=beta, delta=delta, failure=FAIL_ALPHA_ONE
        ), None

    gamma = field.div(c, beta)
    gamma_q = field.frobenius_q(gamma, 1)
    gamma_q2 = field.frobenius_q(gamma, 2)
    U = (
        gamma
        ^ gamma_q
        ^ field.div(
            field.pow(alpha, q + 1) ^ 1,
            field.mul(delta, field.mul(field.pow(alpha, q - 1), field.square(beta))),
        )
    )
    uu = U ^ field.square(U)
    if uu == 0:
        return GenericIntermediates(
            b=b, c=c, alpha=alpha, beta=beta, delta=delta, gamma=gamma, U=U,
            failure=FAIL_U_DEGENERATE,
        ), None

    T = field.div(1 ^ field.frobenius_q(delta, 1), field.sqrt(uu))
    T_q = field.frobenius_q(T, 1)
    t_pair = tuple(solve_t_from_T(field, T))
    if not t_pair:
        return GenericIntermediates(
            b=b, c=c, alpha=alpha, beta=beta, delta=delta, gamma=gamma, U=U, T=T,
            t_pair=t_pair, failure=FAIL_T_SUBFIELD,
        ), None

    A = field.div(field.mul(alpha, T) ^ T_q, alpha ^ 1)

    def branch_of(t):
        t_inv = field.inv(t)
        B1 = field.mul(gamma, t) ^ field.mul(gamma_q2, t_inv)
        B = field.mul(gamma, t_inv) ^ field.mul(gamma_q2, t)
        lam_num = field.frobenius_q(B1, 1) ^ B
        lam_den = B1 ^ field.frobenius_q(B, 1)
        if lam_num == 0 or lam_den == 0:
            return FAIL_LAMBDA
        lam = field.sqrt(field.div(lam_num, lam_den))
        z_den = field.mul(lam, A ^ B1) ^ field.div(B, lam)
        if z_den == 0:
            return FAIL_Z_DENOMINATOR
        z = field.div(field.square(lam) ^ 1, z_den)
        if z == 0:
            return FAIL_Z_ZERO
        zlt = field.mul(field.mul(z, lam), t)
        if zlt == 1:
            return FAIL_ANSATZ_POLE
        x = field.inv(1 ^ zlt)
        if not verify_solution(field, x, b):
            return FAIL_UNVERIFIED
        return GenericBranch(t=t, A=A, B=B, B1=B1, lam=lam, z=z, x=x)

    first, second = (branch_of(t) for t in t_pair)
    completed = isinstance(first, GenericBranch)
    return GenericIntermediates(
        b=b, c=c, alpha=alpha, beta=beta, delta=delta, gamma=gamma, U=U, T=T,
        t_pair=t_pair,
        branch=first if completed else None,
        failure=None if completed else first,
    ), second


def outside_gf_q2(field):
    return [b for b in range(field.size) if not field.in_subfield(b, 2 * field.n)]


def seeded_outside_gf_q2(field, count, seed):
    """count b outside GF(q^2), drawn from random.Random(seed) at any n."""
    rng = random.Random(seed)
    bs = []
    while len(bs) < count:
        b = rng.randrange(field.size)
        if not field.in_subfield(b, 2 * field.n):
            bs.append(b)
    return bs


def assert_chain_matches_reference(field, bs):
    """The library's branch and tag equal the reference's first branch, and
    whenever that completes, the branch of 1/t completes with root x + 1."""
    for b in bs:
        chain = generic_intermediates(field, b)
        expected, second = reference_generic_intermediates(field, b)
        assert type(chain) is GenericIntermediates
        assert chain.branch is None or type(chain.branch) is GenericBranch
        assert chain._asdict() == expected._asdict(), b
        if chain.failure is None:
            assert type(second) is GenericBranch, (b, second)
            assert second.x == chain.branch.x ^ 1, b


# Seeded b checked against the reference at n = 4.  The sample reaches every
# exit the chain takes at n = 4 (success and four failure tags, each at least
# ten times); the whole field would add ~2.5 s to the suite.
N4_REFERENCE_SAMPLES = 4000


class TestChainMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_schoolbook_fields(self, n):
        field = Field(n)
        assert_chain_matches_reference(field, outside_gf_q2(field))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_fields(self, fields, n):
        field = fields[n]
        assert_chain_matches_reference(field, outside_gf_q2(field))

    @pytest.mark.parametrize("tables", [False, True])
    def test_second_modulus(self, tables):
        field = Field(2, modulus=0x11D)
        if tables:
            field.ensure_tables()
        assert_chain_matches_reference(field, outside_gf_q2(field))

    def test_n4_tables_sampled(self, f4):
        rng = random.Random("chain-reference:4")
        bs = rng.sample(outside_gf_q2(f4), N4_REFERENCE_SAMPLES)
        assert_chain_matches_reference(f4, bs)


def zero_operand_counts(field, bs):
    """For each operand that the chain's identities leave free to vanish,
    how many of bs make it zero.  The exponent chain must take each zero
    case the way the Field method it stands for does."""
    q = field.q
    zeros = Counter()
    for b in bs:
        chain = generic_intermediates(field, b)
        if chain.gamma is None:
            continue
        alpha, delta, T = chain.alpha, chain.delta, chain.T
        t, t_inv = chain.t_pair
        gamma_T = field.mul(chain.gamma, T)
        A = field.div(field.mul(T, alpha ^ delta), alpha ^ 1)
        zeros["B"] += gamma_T == t
        zeros["A + B1"] += A == gamma_T ^ t_inv
        zeros["alpha + delta"] += alpha == delta
        zeros["alpha^(q+1) + 1"] += field.pow(alpha, q + 1) == 1
    return zeros


def chain_or_raise(field, b):
    """The chain's record as a dict, or the type and message it raised."""
    try:
        return generic_intermediates(field, b)._asdict()
    except GF2Error as exc:
        return type(exc).__name__, str(exc)


# Seeded b outside GF(q^2) compared between the two chains at n = 5 and at
# the sweep cap n = 6, degrees that the exhaustive checks above do not
# reach; ~0.3 s per degree with the tables.
EXPONENT_CHAIN_SAMPLES = 300


class TestExponentChain:
    """A field with log tables runs the chain on exponents, every other
    field on Field operations; both give equal records and equal raises."""

    def test_n2_reference_reaches_every_zero_operand(self, f2):
        # the exhaustive n = 2 comparisons above cover each zero case
        zeros = zero_operand_counts(f2, outside_gf_q2(f2))
        assert zeros == {"B": 8, "A + B1": 16, "alpha + delta": 0, "alpha^(q+1) + 1": 48}

    @pytest.mark.parametrize("n", [5, 6])
    def test_tables_match_schoolbook_sampled(self, request, n):
        tables = request.getfixturevalue("f6") if n == 6 else Field(n)
        plain = Field(n)
        tables.ensure_tables()
        assert tables._tables is not None and plain._tables is None
        bs = seeded_outside_gf_q2(plain, EXPONENT_CHAIN_SAMPLES, f"exponent-chain:{n}")
        failures = Counter()
        for b in bs:
            record = chain_or_raise(tables, b)
            assert record == chain_or_raise(plain, b), b
            failures[record["failure"]] += 1
        assert failures[None] > 0 and failures[FAIL_UNVERIFIED] > 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejections_match_schoolbook(self, fields, n):
        tables, plain = fields[n], Field(n)
        inside = [b for b in range(tables.size) if plain.in_subfield(b, 2 * n)]
        for b in (-1, tables.size, tables.size + 2, *inside):
            rejection = chain_or_raise(tables, b)
            assert rejection[0] == "PreconditionViolated"
            assert rejection == chain_or_raise(plain, b), b


@pytest.mark.parametrize(
    "n, modulus", [(1, None), (2, None), (3, None), (4, None), (2, 0x11D)]
)
def test_delta_is_one_exactly_when_relative_trace_vanishes(request, n, modulus):
    """The chain's first exit fires exactly when e1 = Tr_{4n/n}(b) is 0."""
    field = Field(n, modulus) if modulus else request.getfixturevalue(f"f{n}")
    mismatched = [
        b
        for b in outside_gf_q2(field)
        if (generic_intermediates(field, b).failure == FAIL_DELTA_ONE)
        != (field.trace_rel(b, n, field.degree) == 0)
    ]
    assert mismatched == []


class TestRecords:
    @pytest.mark.parametrize(
        "record, name",
        [
            (Classification(CASE_NO_SOLUTION, 0), "case"),
            (GenericIntermediates(b=2, c=3, alpha=4, beta=5), "failure"),
            (GenericBranch(t=1, A=2, B=3, B1=4, lam=5, z=6, x=7), "x"),
            (MuCaseWitness(z=1, w=2, T=3, t=4, x=5), "T"),
        ],
        ids=["Classification", "GenericIntermediates", "GenericBranch", "MuCaseWitness"],
    )
    def test_fields_are_read_only(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)

    def test_classification_repr_matches_readme(self):
        assert (
            repr(classify(Field(2), 0x2))
            == "Classification(case='GENERIC_TWO', predicted_count=2)"
        )


class TestSolveDispatch:
    def test_frozen_n1_map(self, f1):
        for b, expected in N1_SOLUTIONS.items():
            classification, solutions = solve(f1, b)
            assert sorted(solutions) == expected
            assert classification.predicted_count == len(expected)

    def test_pair_shape(self, f1):
        classification, solutions = solve(f1, 1)
        assert classification.case == CASE_B_EQUALS_ONE
        assert len(solutions) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_soundness_and_completeness_exhaustive(self, fields, n):
        field = fields[n]
        oracle = oracle_naive.solution_sets(field.modulus, field.degree, field.d)
        for b in range(1 << field.degree):
            classification, solutions = solve(field, b)
            expected = oracle.get(b, set())
            assert len(solutions) == len(expected) == classification.predicted_count
            assert set(solutions) == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_explicit_sets_closed_under_complement(self, fields, n):
        # every listed set, b = 1 included: D(x + 1) = D(x)
        field = fields[n]
        for b in range(1 << field.degree):
            members = set(solve(field, b)[1])
            assert {x ^ 1 for x in members} == members

    @pytest.mark.parametrize("entry", [classify, solve])
    def test_chain_runs_once_per_call(self, f2, chain_runs, entry):
        outside = [b for b in range(1 << f2.degree) if not f2.in_subfield(b, 2 * f2.n)]
        for b in range(1 << f2.degree):
            entry(f2, b)
        assert chain_runs == Counter(outside)


# Sampled right-hand sides per field, and the wall-clock budget for all of
# them at one n.  The whole n = 15 pass, first-call tables included, takes
# about a second on a 2-core x86 VM; the budget catches a return to
# field-sized scans, which take minutes from n = 6 on.
BEYOND_CAP_SAMPLES = 12
BEYOND_CAP_BUDGET_S = 30.0
# The irreducible of degree 28 next after the default 0x10000003.
SECOND_MODULUS_N7 = 0x10000009


class TestBeyondSweepCap:
    """Fields the exhaustive verifier cannot sweep, checked by sampling.

    Every b = x^d + (x+1)^d has the root x, so its case cannot be
    NO_SOLUTION, and a two-solution b must list x among its roots.
    """

    @pytest.mark.parametrize(
        "n, modulus",
        [pytest.param(n, None, id=str(n)) for n in (5, 6, 7, 8, 15)]
        + [pytest.param(7, SECOND_MODULUS_N7, id=f"7-{SECOND_MODULUS_N7:#x}")],
    )
    def test_sampled_b_keep_their_root(self, n, modulus):
        field = Field(n, modulus)
        rng = random.Random(f"beyond-cap:{n}")
        start = time.perf_counter()
        for _ in range(BEYOND_CAP_SAMPLES):
            x = rng.randrange(field.size)
            b = field.pow(x, field.d) ^ field.pow(x ^ 1, field.d)
            classification, solutions = solve(field, b)
            assert classification == classify(field, b)
            assert classification.case != CASE_NO_SOLUTION
            assert x in solutions
            if classification.case == CASE_GENERIC_TWO:
                assert x in list(solutions)
        assert time.perf_counter() - start < BEYOND_CAP_BUDGET_S

    @pytest.mark.parametrize("n", [7, 8, 15])
    def test_seeded_mu_b_lists_distinct_members(self, n):
        # x^(q^2+1) lies in GF(q^2)*, and its (q-1)-th power in mu_(q+1).
        # Listing all q^2 - q roots is out of reach, so the first
        # witnesses stand for them.
        field = Field(n)
        q = field.q
        rng = random.Random(f"beyond-cap-mu:{n}")
        start = time.perf_counter()
        b = 1
        while b == 1:
            b = field.pow(rng.randrange(1, field.size), (q * q + 1) * (q - 1))
        assert classify(field, b) == Classification(CASE_MU, q**2 - q)
        classification, solutions = solve(field, b)
        assert classification.case == CASE_MU and len(solutions) == q**2 - q
        roots = [w.x for w in islice(iter_mu_witnesses(field, b), 8)]
        assert len(set(roots)) == len(roots) == 8
        assert all(x in solutions for x in roots)
        assert time.perf_counter() - start < BEYOND_CAP_BUDGET_S


def _mu_b(field: Field) -> int:
    return next(b for b in range(2, field.size) if field.pow(b, field.q + 1) == 1)


# A mu-case b at n = 15, and the budget for solve on it: the set holds
# q^2 - q = 1,073,709,056 roots, none of which solve lists.
MU_B_N15 = 0x7EF4157045FC9E
MU_SOLVE_BUDGET_S = 1.0


class TestSolutionSet:
    @pytest.mark.parametrize("n", [1, 2])
    def test_len_order_and_membership_agree_with_the_listing(self, fields, n):
        field = fields[n]
        cases = set()
        for b in range(field.size):
            classification, solutions = solve(field, b)
            cases.add(classification.case)
            listed = list(solutions)
            assert listed == sorted(set(listed))
            assert len(solutions) == len(listed) == classification.predicted_count
            members = set(listed)
            for x in range(field.size):
                assert (x in solutions) == (x in members)
        assert cases == {CASE_B_EQUALS_ONE, CASE_MU, CASE_GENERIC_TWO, CASE_NO_SOLUTION}

    @staticmethod
    def _listing_raises(field, monkeypatch, edit):
        # the witness sweep, edited, behind a mu-case set built beforehand
        witnesses = solver_module.iter_mu_witnesses
        monkeypatch.setattr(
            solver_module, "iter_mu_witnesses",
            lambda field, b: edit(list(witnesses(field, b))),
        )
        classification, solutions = solve(field, _mu_b(field))  # lists nothing
        assert len(solutions) == classification.predicted_count == field.q**2 - field.q
        with pytest.raises(InternalDegenerate):
            list(solutions)

    def test_duplicate_roots_rejected(self, f2, monkeypatch):
        # the first witness in place of the last: the right count, one root twice
        self._listing_raises(f2, monkeypatch, lambda ws: ws[:-1] + ws[:1])

    def test_missing_root_rejected(self, f2, monkeypatch):
        self._listing_raises(f2, monkeypatch, lambda ws: ws[1:])

    def test_mu_solve_lists_nothing_at_n15(self):
        field = Field(15)
        start = time.perf_counter()
        classification, solutions = solve(field, MU_B_N15)
        assert time.perf_counter() - start < MU_SOLVE_BUDGET_S
        assert classification.case == CASE_MU
        assert len(solutions) == field.q**2 - field.q == 1_073_709_056
        assert "size 1073709056" in repr(solutions)
        root = next(iter_mu_witnesses(field, MU_B_N15)).x
        assert root in solutions
        assert root ^ 2 not in solutions and 0 not in solutions

    def test_explicit_container_protocol(self, f1):
        # the two-solution pair {x, x+1}, listed from the chain's root
        classification, solutions = solve(f1, 0xB)
        assert classification.case == CASE_GENERIC_TWO
        assert len(solutions) == 2
        assert list(solutions) == [0xC, 0xD]
        assert 0xC in solutions and 0xD in solutions and 0xE not in solutions
        assert repr(solutions) == "SolutionSet([0xc, 0xd])"

    def test_subfield_container_protocol(self, f2):
        solutions = solve(f2, 1)[1]
        assert len(solutions) == f2.q**2
        listed = list(solutions)
        assert listed == sorted(listed)
        assert all(x in solutions for x in listed)
        assert f2.primitive_element() not in solutions
        assert "four" not in solutions  # non-int is simply absent
        assert "GF" in repr(solutions)

    @pytest.mark.parametrize("variant", ["subfield_q2", "explicit"])
    def test_membership_takes_ints_only(self, f2, variant):
        # the rule of every solver entry point: bool and float are not
        # elements, even where they compare equal to one
        if variant == "subfield_q2":
            solutions = solve(f2, 1)[1]
        else:
            solutions = solve(f2, next(b for b in range(f2.size) if is_in_s2(f2, b)))[1]
        for x in solutions:
            assert x in solutions and np.uint32(x) in solutions
            assert float(x) not in solutions and np.float64(x) not in solutions
        assert 1 in solutions or variant == "explicit"
        assert True not in solutions and False not in solutions
        assert 1.0 not in solutions
        assert -1 not in solutions and f2.size not in solutions

    def test_empty_container_protocol(self, f1):
        classification, solutions = solve(f1, 0)
        assert classification.case == CASE_NO_SOLUTION
        assert len(solutions) == 0
        assert list(solutions) == []
        assert 0 not in solutions
