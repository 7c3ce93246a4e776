"""Unity subgroups and the quadratic machinery."""

import random
from array import array

import pytest

from diffspectrum import solver
from diffspectrum.errors import (
    AmbientTooSmall,
    InternalDegenerate,
    NotInSubfield,
    ZeroElement,
)
from diffspectrum.field import Field, default_modulus, is_irreducible
from diffspectrum.subgroups import (
    ARTIN_SCHREIER,
    LOCATION_SUBFIELD,
    LOCATION_UNITY_COSET,
    c_plus_inv_decompose,
    mu_member,
    solve_artin_schreier,
    solve_quadratic,
    solve_t_from_T,
)


class TestMuMember:
    def test_one_belongs_to_every_subgroup(self, f2):
        for m in (1, 3, 5, 15, 17, 255):
            assert mu_member(f2, 1, m)

    def test_zero_never_belongs(self, f2):
        for m in (1, 3, 5, 17):
            assert not mu_member(f2, 0, m)

    def test_non_divisor_order_rejected(self, f2):
        with pytest.raises(ValueError):
            mu_member(f2, 1, 7)  # 7 does not divide 255

    @pytest.mark.parametrize("n", [1, 2])
    def test_subgroup_sizes_exhaustive(self, fields, n):
        field = fields[n]
        q = field.q
        for m in (q - 1, q + 1, q * q + 1, (q - 1) * (q * q + 1)):
            if m == 0:
                continue
            members = [a for a in range(1 << field.degree) if mu_member(field, a, m)]
            assert len(members) == m

    def test_mu_q_minus_1_is_gf_q_star(self, f2):
        q = f2.q
        expected = {a for a in f2.iter_subfield(f2.n) if a != 0}
        got = {a for a in range(1 << f2.degree) if mu_member(f2, a, q - 1)}
        assert got == expected


class TestArtinSchreier:
    def test_w_zero(self, f2):
        assert solve_artin_schreier(f2, 0, f2.degree).roots == (0, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_contract_exhaustive_full_field(self, fields, n):
        field = fields[n]
        k = field.degree
        solvable = 0
        for w in range(1 << k):
            result = solve_artin_schreier(field, w, k)
            expected_solvable = field.trace_rel(w, 1, k) == 0
            assert bool(result.roots) == expected_solvable
            if result.roots:
                solvable += 1
                y0, y1 = result.roots
                assert y1 == y0 ^ 1
                for y in result.roots:
                    assert field.square(y) ^ y == w
        assert solvable == 1 << (k - 1)

    def test_half_of_gf16_is_solvable(self, f1):
        solvable = [
            w for w in range(16) if solve_artin_schreier(f1, w, 4).roots
        ]
        assert len(solvable) == 8

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (3, 3), (2, 4), (3, 6)])
    def test_contract_exhaustive_odd_and_even_subfields(self, fields, n, k):
        # the one weighted-sum formula, on odd and even k alike
        field = fields[n]
        for w in field.iter_subfield(k):
            result = solve_artin_schreier(field, w, k)
            if field.trace_rel(w, 1, k) == 0:
                assert len(result.roots) == 2
                for y in result.roots:
                    assert field.square(y) ^ y == w
                    assert field.in_subfield(y, k)
            else:
                assert result.roots == ()

    def test_rejects_w_outside_subfield(self, f2):
        outsider = f2.primitive_element()
        with pytest.raises(NotInSubfield):
            solve_artin_schreier(f2, outsider, 2 * f2.n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_roots_match_inverse_image_exhaustive(self, fields, n):
        # y^2 + y = w has the root pair {y, y + 1} or none, so every formula
        # gives the same sorted pair; the reference inverts y -> y^2 + y over
        # all of GF(2^k), for every k | 4n
        field = fields[n]
        for k in (k for k in range(1, field.degree + 1) if field.degree % k == 0):
            preimages = {}
            for y in field.iter_subfield(k):
                preimages.setdefault(field.square(y) ^ y, []).append(y)
            for w in field.iter_subfield(k):
                expected = tuple(sorted(preimages.get(w, ())))
                assert solve_artin_schreier(field, w, k).roots == expected

    def test_corrupt_root_table_raises(self):
        # every root the table gives is checked, also under python -O
        field, k = Field(2), 4
        w = next(w for w in field.iter_subfield(k) if w and field.trace_rel(w, 1, k) == 0)
        solve_artin_schreier(field, w, k)
        tables = field._linear_maps[ARTIN_SCHREIER]
        field._linear_maps[ARTIN_SCHREIER] = tuple(array("Q", [0]) * len(t) for t in tables)
        with pytest.raises(InternalDegenerate):
            solve_artin_schreier(field, w, k)

    @pytest.mark.parametrize(
        "n, second_modulus, k",
        [(15, False, 2), (15, False, 30), (15, False, 60),
         *((3, True, k) for k in (1, 2, 3, 4, 6, 12))],
    )
    def test_seeded_roots_solve_and_lie_in_subfield(self, n, second_modulus, k):
        # one root table per field serves every k, also past the sweep cap
        # and under a modulus other than the default
        modulus = None
        if second_modulus:
            degree = 4 * n
            modulus = next(
                f for f in range((1 << degree) | 1, 1 << (degree + 1), 2)
                if is_irreducible(f) and f != default_modulus(degree)
            )
        field = Field(n, modulus)
        basis = field.subfield_basis(k)
        rng = random.Random(1000 * n + k)
        solvable = 0
        for _ in range(40):
            w = 0
            for v in basis:
                if rng.getrandbits(1):
                    w ^= v
            roots = solve_artin_schreier(field, w, k).roots
            if field.trace_rel(w, 1, k):
                assert roots == ()
                continue
            solvable += 1
            assert len(roots) == 2 and roots[0] ^ roots[1] == 1
            for y in roots:
                assert field.square(y) ^ y == w
                assert field.in_subfield(y, k)
        assert solvable
        assert ARTIN_SCHREIER in field._linear_maps


class TestSolveQuadratic:
    def test_degenerate_u_zero(self, f1):
        result = solve_quadratic(f1, 0, 1, f1.degree)
        assert result.roots == (1, 1)

    def test_u_one_v_zero(self, f1):
        assert solve_quadratic(f1, 1, 0, f1.degree).roots == (0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_roots_satisfy_equation(self, fields, n):
        field = fields[n]
        rng = random.Random(42)
        size = 1 << field.degree
        nonempty = 0
        for _ in range(10_000):
            u, v = rng.randrange(size), rng.randrange(size)
            result = solve_quadratic(field, u, v, field.degree)
            for x in result.roots:
                assert field.square(x) ^ field.mul(u, x) ^ v == 0
            nonempty += bool(result.roots)
        assert nonempty > 0

    def test_finds_all_roots_exhaustively(self, f1):
        # compare against a direct scan over the field
        size = 1 << f1.degree
        for u in range(size):
            for v in range(size):
                expected = sorted(
                    x for x in range(size) if f1.square(x) ^ f1.mul(u, x) ^ v == 0
                )
                got = sorted(set(solve_quadratic(f1, u, v, f1.degree).roots))
                assert got == sorted(set(expected))

    def test_rejects_coefficients_outside_subfield(self, f2):
        outsider = f2.primitive_element()
        with pytest.raises(NotInSubfield):
            solve_quadratic(f2, outsider, 1, 2 * f2.n)


class TestCPlusInvDecompose:
    def test_zero_rejected(self, f2):
        with pytest.raises(ZeroElement):
            c_plus_inv_decompose(f2, 0, f2.n)

    def test_ambient_too_small(self, f2):
        # roots over GF(2^(4n)) would need GF(2^(8n))
        with pytest.raises(AmbientTooSmall):
            c_plus_inv_decompose(f2, 1, f2.degree)

    def test_rejects_zval_outside_subfield(self, f2):
        outsider = f2.primitive_element()
        assert not f2.in_subfield(outsider, 2 * f2.n)
        with pytest.raises(NotInSubfield):
            c_plus_inv_decompose(f2, outsider, 2 * f2.n)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 4), (3, 3), (3, 6)])
    def test_dichotomy_exhaustive(self, fields, n, m):
        field = fields[n]
        two_m = 1 << m
        for zval in field.iter_subfield(m):
            if zval == 0:
                continue
            result = c_plus_inv_decompose(field, zval, m)
            assert len(result.roots) == 2
            c0, c1 = result.roots
            assert field.mul(c0, c1) == 1  # Vieta: product is the constant term
            for c in result.roots:
                assert c ^ field.inv(c) == zval
            trace = field.trace_rel(field.inv(zval), 1, m)
            if trace == 0:
                assert result.location == LOCATION_SUBFIELD
                for c in result.roots:
                    assert field.in_subfield(c, m) and c != 0 and c != 1
            else:
                assert result.location == LOCATION_UNITY_COSET
                for c in result.roots:
                    assert field.pow(c, two_m + 1) == 1 and c != 1

    def test_location_matches_membership_at_m2_n1(self, f1):
        # restates the dichotomy as a direct membership check
        for zval in f1.iter_subfield(2):
            if zval == 0:
                continue
            result = c_plus_inv_decompose(f1, zval, 2)
            for c in result.roots:
                in_subfield = f1.pow(c, (1 << 2) - 1) == 1
                in_coset = f1.pow(c, (1 << 2) + 1) == 1 and c != 1
                if result.location == LOCATION_SUBFIELD:
                    assert in_subfield
                else:
                    assert in_coset

    def test_missing_roots_raise(self):
        # c^2 + zval*c + 1 always has its roots in GF(2^(2m)); a trace table
        # that reads 1 everywhere makes the quadratic look unsolvable
        field, m = Field(2), 2
        field.trace_rel(1, 1, 2 * m)
        key = ("trace", 1, 2 * m)
        ones = [array("Q", [1]) * len(field._linear_maps[key][0])]
        ones += [array("Q", [0]) * len(t) for t in field._linear_maps[key][1:]]
        field._linear_maps[key] = tuple(ones)
        with pytest.raises(InternalDegenerate):
            c_plus_inv_decompose(field, 1, m)


class TestSolveTFromT:
    def test_zero_rejected(self, f2):
        with pytest.raises(ZeroElement):
            solve_t_from_T(f2, 0)

    def test_rejects_value_outside_gf_q2(self, f2):
        outsider = f2.primitive_element()
        with pytest.raises(NotInSubfield):
            solve_t_from_T(f2, outsider)

    @pytest.mark.parametrize("n", [1, 2])
    def test_contract_exhaustive(self, fields, n):
        field = fields[n]
        q = field.q
        for tval in field.iter_subfield(2 * n):
            if tval == 0:
                continue
            ts = solve_t_from_T(field, tval)
            trace = field.trace_rel(field.inv(tval), 1, 2 * n)
            if trace == 0:
                assert ts == []
            else:
                assert len(ts) == 2
                t0, t1 = ts
                assert field.mul(t0, t1) == 1  # mutual inverses
                for t in ts:
                    assert field.pow(t, q * q + 1) == 1
                    assert t != 1
                    assert t ^ field.inv(t) == tval

    @pytest.mark.parametrize("n", [1, 2])
    def test_solvable_count_matches_unit_subgroup_scan(self, fields, n):
        # every t in mu_(q^2+1) \ {1} lands on T = t + 1/t; the map is 2-to-1
        field = fields[n]
        q = field.q
        attained = set()
        for t in range(1, 1 << field.degree):
            if field.pow(t, q * q + 1) == 1 and t != 1:
                attained.add(t ^ field.inv(t))
        solvable = {
            tval
            for tval in field.iter_subfield(2 * n)
            if tval != 0 and solve_t_from_T(field, tval)
        }
        assert solvable == attained
        assert len(solvable) == q * q // 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_memoised_answer_matches_decomposition(self, n):
        field = Field(n)
        field.ensure_tables()
        for tval in field.iter_subfield(2 * n):
            if tval == 0:
                continue
            dec = c_plus_inv_decompose(field, tval, 2 * n)
            expected = [] if dec.location == LOCATION_SUBFIELD else list(dec.roots)
            assert solve_t_from_T(field, tval) == expected
            assert tval in field._t_roots
            assert solve_t_from_T(field, tval) == expected
        assert len(field._t_roots) <= field.q**2 - 1

    def test_returned_list_is_a_copy(self, f2):
        tval = next(t for t in f2.iter_subfield(4) if t and solve_t_from_T(f2, t))
        first = solve_t_from_T(f2, tval)
        expected = list(first)
        first.append(0)
        first[0] = 0
        assert solve_t_from_T(f2, tval) == expected

    def test_invalid_T_raises_on_every_call(self):
        field = Field(2)
        outsider = field.primitive_element()
        for tval in field.iter_subfield(4):
            if tval:
                solve_t_from_T(field, tval)
        for _ in range(2):
            with pytest.raises(ZeroElement):
                solve_t_from_T(field, 0)
            with pytest.raises(NotInSubfield):
                solve_t_from_T(field, outsider)
        assert 0 not in field._t_roots and outsider not in field._t_roots

    def test_no_memo_past_the_sweep_cap(self, monkeypatch):
        field = Field(7)
        calls = []

        def counted(f, tval):
            calls.append(tval)
            return solve_t_from_T(f, tval)

        monkeypatch.setattr(solver, "solve_t_from_T", counted)
        rng = random.Random("memo-cap")
        for _ in range(4):
            b = rng.randrange(field.size)
            solver.classify(field, b)
            solver.solve(field, b)
        assert calls and field._t_roots == {}


class TestIntersectionLemma:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unity_coset_intersection_is_gf_q_minus_01(self, fields, n):
        # (1 + mu_m) intersect mu_m = GF(q) \ {0, 1} for m = (q-1)(q^2+1)
        field = fields[n]
        q = field.q
        m = (q - 1) * (q * q + 1)
        mu = {x for x in range(1, 1 << field.degree) if field.pow(x, m) == 1}
        shifted = {1 ^ x for x in mu}
        expected = {x for x in field.iter_subfield(n) if x not in (0, 1)}
        assert (mu & shifted) == expected
