"""Field arithmetic: moduli, axioms, Frobenius/trace/norm, codec, subfields."""

import random
import tracemalloc
from array import array

import numpy as np
import pytest

import oracle_naive
from diffspectrum import field as field_module
from diffspectrum import subgroups
from diffspectrum.errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldTooLarge,
    MalformedHex,
    NotInSubfield,
    OutOfRange,
    ReducibleModulus,
)
from diffspectrum.field import (
    BRUTEFORCE_CAP_BITS,
    Field,
    default_modulus,
    is_irreducible,
)
from diffspectrum.spectrum import bruteforce_counts, ddt_row

# Smallest irreducible polynomial per degree, frozen from the
# trial-division scan in oracle_naive (re-derived below as a cross-check).
EXPECTED_MODULI = {
    4: 0x13,
    8: 0x11B,
    12: 0x1009,
    16: 0x1002B,
    20: 0x100009,
    24: 0x100001B,
}


def _pow_exponents(field: Field) -> list[int]:
    """Exponents pow is checked on, with and without log tables: the edges
    0, 1, -1 and the group order, every Frobenius power 2^j, q -+ 1, d and
    the CRT projections onto the three unity subgroups (e = 1 mod m and
    e = 0 mod the other two orders m of ``Field.unity_factors``)."""
    crt = [rest * pow(rest, -1, m) % field.group_order
           for m in field.unity_factors for rest in [field.group_order // m]]
    return [0, 1, -1, *(1 << j for j in range(field.degree + 1)),
            field.q - 1, field.q + 1, field.d, field.group_order, *crt]


class TestModuli:
    @pytest.mark.parametrize("degree,expected", sorted(EXPECTED_MODULI.items()))
    def test_default_modulus_frozen_values(self, degree, expected):
        assert default_modulus(degree) == expected

    @pytest.mark.parametrize("degree", sorted(EXPECTED_MODULI))
    def test_default_modulus_against_trial_division(self, degree):
        assert default_modulus(degree) == oracle_naive.smallest_irreducible(degree)

    def test_rabin_test_agrees_with_trial_division_for_degree_4(self):
        for f in range(1 << 4, 1 << 5):
            assert is_irreducible(f) == oracle_naive.is_irreducible_by_trial_division(f)

    def test_rabin_test_agrees_with_trial_division_for_degree_8(self):
        for f in range(1 << 8, 1 << 9):
            assert is_irreducible(f) == oracle_naive.is_irreducible_by_trial_division(f)

    @pytest.mark.parametrize("f", [-0x13, -1, 0])
    def test_nonpositive_is_not_irreducible(self, f):
        assert is_irreducible(f) is False


class TestConstruction:
    def test_n1_defaults(self):
        field = Field(1)
        assert field.modulus == 0x13
        assert field.q == 2
        assert field.d == 13
        assert field.degree == 4
        assert field.group_order == 15

    def test_n2_derived_integers(self):
        field = Field(2)
        assert field.q == 4
        assert field.d == 83
        assert field.group_order == 255

    def test_reducible_override_rejected(self):
        # X^4 + X^2 + 1 = (X^2 + X + 1)^2
        with pytest.raises(ReducibleModulus):
            Field(1, 0x15)

    def test_wrong_degree_override_rejected(self):
        with pytest.raises(DegreeMismatch):
            Field(1, 0x11B)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            Field(0)
        with pytest.raises(ValueError):
            Field(-3)
        with pytest.raises(ValueError):
            Field(99)

    @pytest.mark.parametrize("n", [0, -3, 16, 99, True, 1.0])
    def test_bad_n_is_out_of_range(self, n):
        with pytest.raises(OutOfRange, match=r"1\.\.15"):
            Field(n)

    @pytest.mark.parametrize("modulus", [-0x13, -1, 0])
    def test_nonpositive_modulus_rejected(self, modulus):
        with pytest.raises(DegreeMismatch, match="not a positive polynomial encoding"):
            Field(1, modulus)

    @pytest.mark.parametrize("modulus", [19.0, "0x13", True, False, [0x13]])
    def test_non_int_modulus_rejected(self, modulus):
        with pytest.raises(DegreeMismatch, match="must be an integer polynomial encoding"):
            Field(1, modulus)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_supported_n_construct(self, n):
        field = Field(n)
        assert field.degree == 4 * n

    def test_equality_and_hash(self):
        assert Field(1) == Field(1)
        assert hash(Field(1)) == hash(Field(1))
        assert Field(1) != Field(1, 0x19)
        assert Field(1) != Field(2)


class TestRingAxioms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_triples(self, fields, n):
        field = fields[n]
        rng = random.Random(42)
        size = 1 << field.degree
        for _ in range(10_000):
            a, b, c = (rng.randrange(size) for _ in range(3))
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
            assert field.mul(a, 1) == a
            assert field.add(a, a) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_inverses_exhaustive(self, fields, n):
        field = fields[n]
        for a in range(1, 1 << field.degree):
            assert field.mul(a, field.inv(a)) == 1

    def test_inv_zero_raises(self, f1):
        with pytest.raises(DivisionByZero):
            f1.inv(0)
        with pytest.raises(DivisionByZero):
            f1.div(3, 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_pow_group_order_is_one_exhaustive(self, fields, n):
        field = fields[n]
        for a in range(1, 1 << field.degree):
            assert field.pow(a, field.group_order) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_power_map_d_is_bijective(self, fields, n):
        field = fields[n]
        images = {field.pow(a, field.d) for a in range(1 << field.degree)}
        assert len(images) == 1 << field.degree

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pow_d_roundtrip(self, fields, n):
        field = fields[n]
        d_inverse = pow(field.d, -1, field.group_order)
        rng = random.Random(42)
        for _ in range(200):
            a = rng.randrange(1, 1 << field.degree)
            assert field.pow(field.pow(a, field.d), d_inverse) == a

    def test_pow_zero_base(self, f1):
        assert f1.pow(0, 0) == 1
        assert f1.pow(0, 5) == 0
        with pytest.raises(DivisionByZero):
            f1.pow(0, -1)

    def test_pow_negative_exponent(self, f2):
        rng = random.Random(42)
        for _ in range(50):
            a = rng.randrange(1, 1 << f2.degree)
            assert f2.pow(a, -1) == f2.inv(a)

    @pytest.mark.parametrize("n", [1, 2])
    def test_mul_agrees_with_naive_oracle_exhaustive(self, fields, n):
        field = fields[n]
        size = 1 << field.degree
        rng = random.Random(42)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(2000)]
        if n == 1:
            pairs = [(a, b) for a in range(size) for b in range(size)]
        for a, b in pairs:
            assert field.mul(a, b) == oracle_naive.field_mul(field.modulus, a, b)

    def test_table_fast_path_is_bit_identical_to_schoolbook(self):
        plain = Field(2)
        fast = Field(2)
        fast.ensure_tables()
        assert fast._tables is not None and plain._tables is None
        for a in range(1 << 8):
            for b in range(0, 1 << 8, 7):
                assert fast.mul(a, b) == plain.mul(a, b)
        exponents = _pow_exponents(plain)
        for a in range(1, 1 << 8):
            assert fast.inv(a) == plain.inv(a)
            for e in exponents:
                assert fast.pow(a, e) == plain.pow(a, e)
        for a in range(1 << 8):
            for b in range(1, 1 << 8, 7):
                assert fast.div(a, b) == plain.div(a, b)
            with pytest.raises(DivisionByZero):
                fast.div(a, 0)
            assert fast.square(a) == plain.square(a)
            assert fast.sqrt(a) == plain.sqrt(a)
            for j in range(plain.degree + 1):
                assert fast.frobenius2(a, j) == plain.frobenius2(a, j)
            for i in range(5):
                assert fast.frobenius_q(a, i) == plain.frobenius_q(a, i)
            for k in (1, 2, 4, 8):
                assert fast.in_subfield(a, k) == plain.in_subfield(a, k)

    @pytest.mark.parametrize("n,samples", [(1, None), (2, None), (3, 64), (6, 32), (15, 16)])
    def test_schoolbook_pow_agrees_with_naive_oracle(self, n, samples):
        field = Field(n)  # no log tables: pow multiplies Frobenius table lookups
        if samples is None:
            bases = range(1, field.size)
        else:
            rng = random.Random(42)
            bases = [rng.randrange(1, field.size) for _ in range(samples)]
        for e in _pow_exponents(field):
            for a in bases:
                expected = oracle_naive.field_pow(field.modulus, a, e % field.group_order)
                assert field.pow(a, e) == expected, (a, e)
        assert field._tables is None


class TestExpTable:
    # The exp table of ensure_tables() holds g^i for the primitive element
    # g, and log inverts it, on every field within the sweep cap.
    @pytest.mark.parametrize("n,samples", [(1, None), (2, None), (3, None), (5, 64), (6, 64)])
    def test_entries_are_powers_of_the_primitive_element(self, request, n, samples):
        field = request.getfixturevalue("f6") if n == 6 else Field(n)
        field.ensure_tables()
        g = field.primitive_element()
        exp, log = field._tables
        assert len(exp) == field.group_order and len(log) == field.size
        if samples is None:
            indices = range(field.group_order)
        else:
            rng = random.Random(42)
            indices = [0, 1, field.group_order - 1,
                       *(rng.randrange(field.group_order) for _ in range(samples))]
        for i in indices:
            assert exp[i] == oracle_naive.field_pow(field.modulus, g, i), i
            assert log[exp[i]] == i, i

    def test_tables_are_compact(self):
        # Two array('I') keep 8 bytes an element, where the Python lists
        # they replaced kept ~76; the build adds one block of powers and
        # the byte tables that make it, where the lists peaked at ~88.
        field = Field(5)
        tracemalloc.start()
        try:
            field.ensure_tables()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for table in field._tables:
            assert isinstance(table, array) and table.itemsize == 4
        assert kept <= 9 * field.size
        assert peak <= 16 * field.size

    def test_build_at_the_cap_fills_the_tables_in_place(self):
        # each block of powers goes straight into exp and log through
        # numpy views of their buffers; concatenating the blocks and
        # scattering one field-sized index peaked at ~12 bytes an element
        field = Field(6)
        tracemalloc.start()
        try:
            field.ensure_tables()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * field.size

    def test_ensure_tables_above_sweep_cap_builds_nothing(self):
        field = Field(7)
        assert field.degree > BRUTEFORCE_CAP_BITS
        field.ensure_tables()
        assert field._tables is None and field._power is None

    def test_power_table_above_sweep_cap_raises_before_allocating(self):
        # 2^28 entries at n = 7; n = 15 would ask for exabytes
        field = Field(7)
        with pytest.raises(FieldTooLarge):
            field.power_table()
        assert field._power is None and field._primitive is None

    def test_sweeps_on_one_field_build_the_table_once(self, monkeypatch):
        builds = []
        original = field_module._byte_product_tables

        def counted(row, field):
            builds.append(len(row))
            return original(row, field)

        monkeypatch.setattr(field_module, "_byte_product_tables", counted)
        # One set of product tables over the q^2 = 256 first powers of each
        # sequence behind x -> x^d: g and h = g^d.
        field = Field(4)
        first = bruteforce_counts(field)
        assert builds == [256, 256]
        assert np.array_equal(bruteforce_counts(field), first)
        assert builds == [256, 256]
        power = field.power_table()
        ddt_row(field, 0x1234, method="bruteforce")
        assert builds == [256, 256]
        assert field.power_table() is power

    @pytest.mark.parametrize("n,samples", [(1, None), (2, None), (3, None), (5, 256)])
    def test_power_table_entries_are_d_th_powers(self, n, samples):
        field = Field(n)  # fresh: pow stays on the schoolbook path
        power = field.power_table()
        assert power.dtype == np.uint32 and power.shape == (field.size,)
        if samples is None:
            xs = range(field.size)
        else:
            rng = random.Random(5)
            xs = [0, 1, field.size - 1, *(rng.randrange(field.size) for _ in range(samples))]
        for x in xs:
            assert int(power[x]) == field.pow(x, field.d), x
        assert field._tables is None

    @pytest.mark.parametrize("n,modulus", [(1, None), (2, None), (3, None), (4, None),
                                           (5, None), (2, 0x11D)])
    def test_power_table_matches_exp_table_definition(self, n, modulus):
        # g^i maps to g^(i d): P[exp[i]] = exp[i d mod (q^4 - 1)], P[0] = 0.
        field = Field(n, modulus)
        field.ensure_tables()
        exp = np.array(field._tables[0], dtype=np.uint32)
        exponents = np.arange(field.group_order, dtype=np.int64) * field.d % field.group_order
        expected = np.zeros(field.size, dtype=np.uint32)
        expected[exp] = exp[exponents]
        assert np.array_equal(field.power_table(), expected)

    def test_power_table_is_read_only_and_built_once(self):
        field = Field(2)
        power = field.power_table()
        assert not power.flags.writeable
        with pytest.raises(ValueError):
            power[0] = 1
        assert field.power_table() is power

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vec_mul_const_matches_schoolbook(self, n):
        field = Field(n)
        rng = random.Random(n)
        values = np.arange(field.size, dtype=np.uint32)
        for c in [0, 1, field.size - 1, *(rng.randrange(field.size) for _ in range(3))]:
            products = field_module._vec_mul_const(values, c, field)
            assert products.dtype == np.uint32
            for a in range(0, field.size, max(1, field.size >> 8)):
                assert int(products[a]) == oracle_naive.field_mul(field.modulus, a, c), (a, c)


class TestSqrtFrobenius:
    def test_sqrt_fixed_points(self, f2):
        assert f2.sqrt(0) == 0
        assert f2.sqrt(1) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_sqrt_inverts_square_exhaustive(self, fields, n):
        field = fields[n]
        for a in range(1 << field.degree):
            assert field.sqrt(field.square(a)) == a
            assert field.square(field.sqrt(a)) == a

    def test_frobenius_q_basics(self, f2):
        rng = random.Random(42)
        for _ in range(200):
            a = rng.randrange(1 << f2.degree)
            assert f2.frobenius_q(a, 0) == a
            assert f2.frobenius_q(f2.frobenius_q(a, 2), 2) == a
            assert f2.frobenius_q(a, 1) == f2.pow(a, f2.q)

    def test_frobenius_fixes_base_subfield(self, f2):
        for a in f2.iter_subfield(f2.n):
            for i in range(4):
                assert f2.frobenius_q(a, i) == a

    def test_frobenius_negative_power_rejected(self, f1):
        with pytest.raises(ValueError):
            f1.frobenius_q(3, -1)

    @pytest.mark.parametrize("n,samples", [(1, None), (2, None), (5, 64), (15, 8)])
    def test_frobenius2_agrees_with_naive_oracle(self, n, samples):
        field = Field(n)  # fresh: no log tables
        if samples is None:
            elements = range(field.size)
        else:
            rng = random.Random(n)
            elements = [0, 1, *(rng.randrange(field.size) for _ in range(samples))]
        for j in range(-1, field.degree + 1):
            for a in elements:
                expected = oracle_naive.field_pow(field.modulus, a, 2 ** (j % field.degree))
                assert field.frobenius2(a, j) == expected, (a, j)

    def test_first_sqrt_builds_one_frobenius_table(self):
        # the tables for j = 4n - 1 come from X^(2^j) alone, not from the
        # tables of every smaller j
        field = Field(15)
        a = random.Random(15).randrange(1, field.size)
        r = field.sqrt(a)
        assert field.square(r) == a
        built = [j for j, tables in enumerate(field._frobenius) if tables is not None]
        assert built == [field.degree - 1]

    def test_linear_maps_never_go_through_pow(self, monkeypatch):
        def refuse(self, a, e):
            pytest.fail(f"pow({a:#x}, {e}) called")

        monkeypatch.setattr(Field, "pow", refuse)
        field = Field(3)
        m = field.degree

        def oracle_frobenius(a, j):
            return oracle_naive.field_pow(field.modulus, a, 2 ** (j % m))

        rng = random.Random(3)
        for a in [0, 1, *(rng.randrange(field.size) for _ in range(32))]:
            for j in range(-1, m + 1):
                assert field.frobenius2(a, j) == oracle_frobenius(a, j), (a, j)
            assert oracle_frobenius(field.sqrt(a), 1) == a
            for i in range(4):
                assert field.frobenius_q(a, i) == oracle_frobenius(a, field.n * i), (a, i)
            for k in (1, 2, 3, 4, 6, 12):
                assert field.in_subfield(a, k) == (oracle_frobenius(a, k) == a), (a, k)
            for l in (1, 3, 6):
                expected = 0
                for i in range(0, m, l):
                    expected ^= oracle_frobenius(a, i)
                assert field.trace_rel(a, l, m) == expected, (a, l)
        assert field._tables is None


class TestTraceNorm:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_of_zero(self, fields, n):
        field = fields[n]
        assert field.trace_rel(0, 1, field.degree) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_absolute_trace_of_one_over_gf_q(self, fields, n):
        # Tr from GF(q) to GF(2) of 1 is a sum of n ones.
        assert fields[n].trace_rel(1, 1, n) == n % 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_tower_transitivity(self, fields, n):
        field = fields[n]
        rng = random.Random(42)
        subfield = list(field.iter_subfield(2 * n))
        for _ in range(200):
            a = rng.choice(subfield)
            assert field.trace_rel(a, 1, 2 * n) == field.trace_rel(
                field.trace_rel(a, n, 2 * n), 1, n
            )

    def test_norm_of_one(self, f2):
        assert f2.norm_rel(1, f2.n, f2.degree) == 1

    def test_norm_of_base_subfield_element_is_fourth_power(self, f2):
        for a in f2.iter_subfield(f2.n):
            assert f2.norm_rel(a, f2.n, f2.degree) == f2.pow(a, 4)

    def test_norm_multiplicativity(self, f2):
        rng = random.Random(42)
        size = 1 << f2.degree
        for _ in range(500):
            a, b = rng.randrange(size), rng.randrange(size)
            lhs = f2.norm_rel(f2.mul(a, b), f2.n, f2.degree)
            rhs = f2.mul(
                f2.norm_rel(a, f2.n, f2.degree), f2.norm_rel(b, f2.n, f2.degree)
            )
            assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2])
    def test_trace_and_norm_land_in_target_subfield_exhaustive(self, fields, n):
        field = fields[n]
        towers = [(1, n), (1, 2 * n), (1, 4 * n), (n, 2 * n), (n, 4 * n), (2 * n, 4 * n)]
        for l, k in towers:
            for a in field.iter_subfield(k):
                assert field.in_subfield(field.trace_rel(a, l, k), l)
                assert field.in_subfield(field.norm_rel(a, l, k), l)

    def test_trace_is_additive(self, f2):
        rng = random.Random(42)
        size = 1 << f2.degree
        for _ in range(500):
            a, b = rng.randrange(size), rng.randrange(size)
            assert f2.trace_rel(a ^ b, 1, f2.degree) == f2.trace_rel(
                a, 1, f2.degree
            ) ^ f2.trace_rel(b, 1, f2.degree)

    def test_trace_rejects_element_outside_claimed_subfield(self, f2):
        outsider = f2.primitive_element()
        assert not f2.in_subfield(outsider, 2 * f2.n)
        with pytest.raises(NotInSubfield):
            f2.trace_rel(outsider, 1, 2 * f2.n)
        with pytest.raises(NotInSubfield):
            f2.norm_rel(outsider, f2.n, 2 * f2.n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_trace_matches_defining_sum_exhaustive(self, fields, n):
        # trace_rel reads a table of basis images; the reference is the sum
        # of Frobenius powers it was built from, over every tower l | k | 4n
        field = fields[n]
        divisors = [k for k in range(1, field.degree + 1) if field.degree % k == 0]
        for k in divisors:
            for l in (l for l in divisors if k % l == 0):
                for a in field.iter_subfield(k):
                    expected = 0
                    for i in range(k // l):
                        expected ^= field.pow(a, 1 << (l * i))
                    assert field.trace_rel(a, l, k) == expected

    def test_trace_rejects_bad_tower(self, f2):
        with pytest.raises(ValueError):
            f2.trace_rel(1, 3, 8)  # 3 does not divide 8
        with pytest.raises(ValueError):
            f2.trace_rel(1, 1, 3)  # GF(2^3) is not a subfield of GF(2^8)


class TestSubfields:
    @pytest.mark.parametrize("n", [1, 2])
    def test_membership_counts(self, fields, n):
        field = fields[n]
        for k in (n, 2 * n, 4 * n):
            members = [a for a in range(1 << field.degree) if field.in_subfield(a, k)]
            assert len(members) == 1 << k

    def test_trivial_memberships(self, f2):
        for k in (1, 2, 4, 8):
            assert f2.in_subfield(0, k)
            assert f2.in_subfield(1, k)

    def test_primitive_element_is_outside_gf_q2(self, f2):
        assert not f2.in_subfield(f2.primitive_element(), 2 * f2.n)

    def test_primitive_element_has_full_order(self, f2):
        g = f2.primitive_element()
        assert f2.pow(g, f2.group_order) == 1
        for p in (3, 5, 17):  # prime factors of 255
            assert f2.pow(g, f2.group_order // p) != 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_iter_subfield_sorted_and_consistent(self, fields, n):
        field = fields[n]
        for k in (n, 2 * n, 4 * n):
            listed = list(field.iter_subfield(k))
            assert listed == sorted(listed)
            assert len(listed) == 1 << k
            assert all(field.in_subfield(a, k) for a in listed)

    def test_iter_subfield_is_closed_under_field_ops(self, f2):
        members = list(f2.iter_subfield(2 * f2.n))
        member_set = set(members)
        for a in members:
            for b in members:
                assert f2.mul(a, b) in member_set
                assert (a ^ b) in member_set

    def test_trace_one_element(self, f2):
        for k in (2, 4, 8):
            theta = f2.trace_one_element(k)
            assert f2.in_subfield(theta, k)
            assert f2.trace_rel(theta, 1, k) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_one_element_matches_full_scan(self, fields, n):
        # reference: the smallest u of absolute trace 1 by scanning every u
        field = fields[n]
        u = 0
        while field.trace_rel(u, 1, field.degree) != 1:
            u += 1
        for k in (k for k in range(1, field.degree + 1) if field.degree % k == 0):
            assert field.trace_one_element(k) == field.trace_rel(u, k, field.degree)

    def test_trace_one_element_pinned_at_n4(self):
        field = Field(4)
        pinned = {1: 1, 2: 1842, 4: 42885, 8: 22027, 16: 2048}
        assert {k: field.trace_one_element(k) for k in pinned} == pinned


class TestHexCodec:
    def test_one_and_x(self, f1):
        assert f1.encode_hex(1) == "0x1"
        assert f1.encode_hex(2) == "0x2"

    def test_roundtrip(self, f2):
        for a in range(1 << f2.degree):
            assert f2.decode_hex(f2.encode_hex(a)) == a

    def test_decode_out_of_range(self, f1):
        with pytest.raises(OutOfRange):
            f1.decode_hex("0x10")

    def test_encode_out_of_range(self, f1):
        with pytest.raises(OutOfRange):
            f1.encode_hex(16)
        with pytest.raises(OutOfRange):
            f1.encode_hex(-1)

    @pytest.mark.parametrize("bad", ["", "10", "0x", "0xZZ", " 0x1", "0x1 ", "1"])
    def test_decode_malformed(self, f1, bad):
        with pytest.raises(MalformedHex):
            f1.decode_hex(bad)

    def test_errors_are_value_errors_too(self, f1):
        with pytest.raises(ValueError):
            f1.decode_hex("bogus")
        with pytest.raises(ValueError):
            f1.decode_hex("0x10")


# Parameters a field of degree 4 (n = 1) does not have: a negative
# Frobenius power and a degree 3 that divides neither 4 nor the tower; and
# a modulus degree below 1.
BAD_PARAMETER_CALLS = {
    "default_modulus": lambda f: default_modulus(0),
    "frobenius_q": lambda f: f.frobenius_q(1, -1),
    "trace_rel": lambda f: f.trace_rel(1, 3, 4),
    "norm_rel": lambda f: f.norm_rel(1, 1, 3),
    "in_subfield": lambda f: f.in_subfield(1, 3),
    "subfield_basis": lambda f: f.subfield_basis(3),
    "trace_one_element": lambda f: f.trace_one_element(3),
    "solve_artin_schreier": lambda f: subgroups.solve_artin_schreier(f, 1, 3),
}


@pytest.mark.parametrize("call", BAD_PARAMETER_CALLS.values(), ids=BAD_PARAMETER_CALLS)
def test_bad_parameters_raise_library_errors(f1, call):
    # OutOfRange is both a GF2Error and a ValueError
    with pytest.raises(OutOfRange):
        call(f1)
