"""Polynomial-basis arithmetic for GF(2^(4n)).

Elements are plain Python ints: bit i of the int is the coefficient of X^i
in the canonical residue of degree < 4n, so 0 and 1 are the field's zero
and one.  A Field instance fixes n and the irreducible modulus and carries
every derived constant the rest of the library needs:

    q           = 2^n
    d           = q^3 + q^2 + q - 1   (the exponent under study)
    group_order = q^4 - 1             = (q-1)(q+1)(q^2+1)

power_table(), the map x -> x^d, is a numpy array built once per field
and kept on it, by scattering the blocks of consecutive powers of
h = g^d (_power_blocks) onto those of the primitive element g.

Every GF(2)-linear map is one lookup per byte of a in byte-sliced tables
(_byte_tables), on every field.  frobenius2(a, j) = a^(2^j) reads
ceil(4n/8) tables of up to 256 entries for j mod 4n.  Each j's tables are
built on first use and on their own, from r = X^(2^j): the image of X^i
is r^i, so a first sqrt at n = 15 builds one set of tables, not 60.
sqrt, frobenius_q, in_subfield and the trace tables go through
frobenius2; every other linear map, the relative traces among them, keeps
its tables by key in apply_linear.  pow(a, e) multiplies the images
a^(2^i) over the set bits i of e, mul and square are a schoolbook
shift-and-reduce, inv is extended Euclid and div is mul(a, inv(b)), one
path each on every field.  ensure_tables() builds the exp and log tables
of g, two array('I') of 4 bytes an entry, on every field within
BRUTEFORCE_CAP_BITS; only solver's generic chain reads them, and no Field
method changes its result.

numpy is imported only inside the functions that build arrays:
power_table(), ensure_tables() and the byte-product helpers behind them
and the sweeps.
The scalar path (mul, inv, pow, Frobenius, trace, norm) never loads it, so
a process that only classifies or solves single b skips the import.

Fields are immutable after construction apart from internal memo tables.
"""

from __future__ import annotations

import math
import re
from array import array
from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldTooLarge,
    InternalDegenerate,
    MalformedHex,
    NotInSubfield,
    OutOfRange,
    ReducibleModulus,
)

if TYPE_CHECKING:
    import numpy as np

Element = int

# Degree cap: keeps q^4 - 1 within 64 bits so encodings stay portable.
MAX_N = 15

# Exhaustive passes over every element run only on fields of at most this
# many bits; _require_within_cap is the one check, made by power_table()
# and by spectrum's passes before either builds a table.  Tables keyed by
# element (the log tables of ensure_tables, subgroups.solve_t_from_T's memo)
# use the same bound: within it a pass over every b exists to fill and
# reuse them.
BRUTEFORCE_CAP_BITS = 24

# ensure_tables() and power_table() build their tables _EXP_CHUNK entries
# at a time (_power_blocks), and the sweeps in spectrum work in the same
# chunks: each block of half-pair values and each step of the histogram's
# run count over its sorted values.  The temporaries of each step stay
# small enough for the caches.
_EXP_CHUNK = 1 << 16

_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+\Z")


# ---------------------------------------------------------------------------
# GF(2)[X] helpers on plain ints (no field modulus attached)
# ---------------------------------------------------------------------------

def _pmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def _pmod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[X]."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def is_irreducible(f: int) -> bool:
    """Whether f is irreducible over GF(2).

    A polynomial of degree m is irreducible iff it shares no factor with
    X^(2^i) - X for every i up to m/2, since that product collects all
    irreducible polynomials of degree dividing i.  f <= 0 encodes no
    polynomial of positive degree and gives False.
    """
    m = f.bit_length() - 1
    if f <= 0 or m < 1:
        return False
    r = 2  # X
    for _ in range(m // 2):
        r = _pmod(_pmul(r, r), f)
        if _pgcd(r ^ 2, f) != 1:
            return False
    return True


def default_modulus(degree: int) -> int:
    """Smallest irreducible polynomial of the given degree.

    Smallest in the integer encoding, which orders polynomials by their
    coefficient sequences from the leading term down.  Degree 4 gives
    X^4 + X + 1 = 0x13.
    """
    if degree < 1:
        raise OutOfRange(f"a modulus needs degree >= 1, not {degree}")
    for c in range(1, 1 << degree, 2):  # even c is divisible by X
        f = (1 << degree) | c
        if is_irreducible(f):
            return f
    raise InternalDegenerate(f"no irreducible polynomial of degree {degree}")  # pragma: no cover


def _byte_tables(images: list, pack: Callable = partial(array, "Q")) -> tuple:
    """Byte-sliced lookup tables of the GF(2)-linear map with images[j] = L(X^j).

    Table i maps every value v of input bits 8i..8i+7 to the XOR of the
    images of its set bits, so L(a) is the XOR of one lookup per byte of a.
    Int images are packed by default into arrays of 64-bit words, 8 bytes
    an entry, where a list would hold a pointer and an int object for each;
    numpy images of one shape are packed by np.array, one image per entry.
    """
    tables = []
    for lo in range(0, len(images), 8):
        chunk = images[lo:lo + 8]
        table = [chunk[0] & 0] * (1 << len(chunk))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] ^ chunk[low.bit_length() - 1]
        tables.append(pack(table))
    return tuple(tables)


def _lookup(tables: tuple[array, ...], a: int) -> int:
    """L(a) from tables = _byte_tables of L: one lookup per byte of a."""
    r = 0
    for table in tables:
        r ^= table[a & 0xFF]
        a >>= 8
    return r


def _echelon(pairs: Iterable[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[int]]:
    """Gaussian elimination over GF(2) of (vector, tag) pairs, in order.

    Each tag rides along with its vector: whenever a row is added to a
    vector, the row's tag is added to the vector's tag.  Returns the rows
    in reduced echelon form, no row's leading bit set in another, with
    their tags, and the tags of the vectors that reduced to 0.  The rows
    span the vectors and are unique for that span, whatever the order.
    """
    rows: list[tuple[int, int]] = []
    zeros: list[int] = []
    for vec, tag in pairs:
        for v, t in rows:
            if vec >> (v.bit_length() - 1) & 1:
                vec ^= v
                tag ^= t
        if vec:
            lead = vec.bit_length() - 1
            rows = [(v ^ vec, t ^ tag) if v >> lead & 1 else (v, t) for v, t in rows]
            rows.append((vec, tag))
        else:
            zeros.append(tag)
    return rows, zeros


def _byte_product_tables(row: np.ndarray, field: Field) -> tuple[np.ndarray, ...]:
    """_byte_tables of c -> c * row, which is GF(2)-linear in c: entry v of
    table k is the uint32 row (v << 8k) * row.  The images X^j * row come
    from repeated multiplication by X."""
    import numpy as np

    m = field.degree
    cur, images = row.astype(np.int64), []
    for _ in range(m):
        images.append(cur.astype(np.uint32))
        cur = (cur << 1) ^ (cur >> (m - 1)) * field.modulus
    return _byte_tables(images, np.array)


def _byte_products(tables: tuple[np.ndarray, ...], values: np.ndarray) -> np.ndarray:
    """c * row for every c in values, from tables = _byte_product_tables(row)."""
    out = tables[0][values & 0xFF]
    for k in range(1, len(tables)):
        out ^= tables[k][(values >> (8 * k)) & 0xFF]
    return out


def _vec_mul_const(arr: np.ndarray, c: int, field: Field) -> np.ndarray:
    """Multiply every entry of the uint32 array arr by the constant c."""
    import numpy as np

    return _byte_products(_byte_product_tables(np.asarray(c), field), arr)


def _require_within_cap(field: Field, what: str) -> None:
    """Raise FieldTooLarge if field is past BRUTEFORCE_CAP_BITS; what names
    the table or pass that would have been built."""
    if field.degree > BRUTEFORCE_CAP_BITS:
        raise FieldTooLarge(
            f"{what} over GF(2^{field.degree}) exceeds the "
            f"{BRUTEFORCE_CAP_BITS}-bit cap"
        )


def _prime_factors(x: int) -> list[int]:
    out = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Field:
    """GF(2^(4n)) with polynomial-basis arithmetic.

    Parameters
    ----------
    n : int
        Tower parameter, 1 <= n <= MAX_N.  The field has degree 4n.
    modulus : int, optional
        Irreducible polynomial of degree exactly 4n, including the leading
        term (0x13 means X^4 + X + 1).  Defaults to the smallest irreducible
        of that degree.
    """

    def __init__(self, n: int, modulus: int | None = None):
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_N:
            raise OutOfRange(f"n must be an integer in 1..{MAX_N}, got {n!r}")
        self.n = n
        self.degree = 4 * n
        self.q = 1 << n
        self.d = self.q ** 3 + self.q ** 2 + self.q - 1
        self.size = 1 << self.degree
        self.group_order = self.size - 1
        if modulus is None:
            modulus = default_modulus(self.degree)
        else:
            if not isinstance(modulus, int) or isinstance(modulus, bool):
                raise DegreeMismatch(
                    f"modulus must be an integer polynomial encoding, got {modulus!r}")
            if modulus <= 0:
                raise DegreeMismatch(
                    f"modulus {modulus:#x} is not a positive polynomial encoding")
            if modulus.bit_length() - 1 != self.degree:
                raise DegreeMismatch(
                    f"modulus {modulus:#x} has degree {modulus.bit_length() - 1}, "
                    f"need {self.degree}")
            if not is_irreducible(modulus):
                raise ReducibleModulus(f"modulus {modulus:#x} is reducible")
        self.modulus = modulus

        # x -> x^d permutes the field; everything downstream relies on it.
        if math.gcd(self.d, self.group_order) != 1:
            raise InternalDegenerate(f"x -> x^{self.d} does not permute GF(2^{self.degree})")

        # Orders of the three unity subgroups mu_(q-1), mu_(q+1), mu_(q^2+1)
        # whose (pairwise coprime) product is the full group order.
        self.unity_factors = (self.q - 1, self.q + 1, self.q ** 2 + 1)

        self._power: np.ndarray | None = None
        # The a = 1 differential row of the formula path, kept by
        # spectrum.ddt_row once its per-b pass has built it.
        self._formula_row_one: np.ndarray | None = None
        self._tables: tuple[array, array] | None = None
        # frobenius2's byte tables of a -> a^(2^j), by j in 0..degree-1
        self._frobenius: list[tuple[array, ...] | None] = [None] * self.degree
        self._primitive: int | None = None
        self._subfield_bases: dict[int, tuple[int, ...]] = {}
        self._linear_maps: dict[Hashable, tuple[array, ...]] = {}
        # subgroups.solve_t_from_T's roots by T, kept on fields within
        # BRUTEFORCE_CAP_BITS.
        self._t_roots: dict[int, tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return f"Field(n={self.n}, modulus={self.modulus:#x})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and self.n == other.n and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    # -- basic ring operations ------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Sum (= difference) of two elements."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Product of two elements: schoolbook shift-and-reduce."""
        m, mod, r = self.degree, self.modulus, 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> m:
                a ^= mod
        return r

    # The same function under a second name: pow, square and the table
    # builders call it, so a wrapper installed on Field.mul (perfbench
    # counts calls that way) sees only the products asked of mul.
    _mul_schoolbook = mul

    def square(self, a: int) -> int:
        return self._mul_schoolbook(a, a)

    def inv(self, a: int) -> int:
        """Multiplicative inverse by extended Euclid; raises DivisionByZero on 0."""
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        # extended Euclid in GF(2)[X]
        u, v = a, self.modulus
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v = v, u
                g1, g2 = g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return _pmod(g1, self.modulus)

    def div(self, a: int, b: int) -> int:
        """Quotient a / b; raises DivisionByZero when b is 0."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a raised to the integer exponent e.

        Negative exponents are accepted for nonzero bases; the exponent is
        reduced modulo q^4 - 1 first.  The power is the product of the
        Frobenius images a^(2^i) over the set bits i of e, each one
        frobenius2 lookup, so a power 2^i is a single lookup.
        """
        if a == 0:
            if e < 0:
                raise DivisionByZero("0 has no multiplicative inverse")
            return 1 if e == 0 else 0
        e %= self.group_order
        r, i = 1, 0
        while e:
            if e & 1:
                r = self._mul_schoolbook(self.frobenius2(a, i), r)
            e >>= 1
            i += 1
        return r

    def sqrt(self, a: int) -> int:
        """The unique square root: squaring is a bijection in characteristic 2."""
        return self.frobenius2(a, self.degree - 1)

    # -- Frobenius, trace, norm ------------------------------------------

    def frobenius2(self, a: int, j: int) -> int:
        """a^(2^j), the j-fold squaring map, for any integer j.

        One lookup per byte of a in the byte tables of a -> a^(2^(j mod 4n)),
        kept in a list by j, so a call builds no key and no closure.
        """
        j %= self.degree
        tables = self._frobenius[j]
        if tables is None:
            tables = self._frobenius_tables(j)
        r = 0
        for table in tables:
            r ^= table[a & 0xFF]
            a >>= 8
        return r

    def _frobenius_tables(self, j: int) -> tuple[array, ...]:
        """The byte tables of a -> a^(2^j), 0 <= j < degree, built for j
        alone and never through pow.

        Squaring is additive, so the map sends X^i to r^i with
        r = X^(2^j): r takes j schoolbook squarings of X and the images
        1, r, ..., r^(4n-1) take 4n - 1 products.  No table for another j
        is read or built.
        """
        r = 2  # X
        for _ in range(j):
            r = self._mul_schoolbook(r, r)
        images = [1]
        for _ in range(self.degree - 1):
            images.append(self._mul_schoolbook(images[-1], r))
        tables = self._frobenius[j] = _byte_tables(images)
        return tables

    def frobenius_q(self, a: int, i: int) -> int:
        """a^(q^i) for i >= 0; composing four times is the identity."""
        if i < 0:
            raise OutOfRange("Frobenius power must be nonnegative")
        return self.frobenius2(a, self.n * i % self.degree)

    def _check_tower(self, a: int, l: int, k: int) -> None:
        if l < 1 or k % l or self.degree % k:
            raise OutOfRange(f"need a subfield tower: {l} | {k} | {self.degree}")
        if not self.in_subfield(a, k):
            raise NotInSubfield(f"{a:#x} is not in GF(2^{k})")

    def apply_linear(self, key: Hashable, images: Callable[[], list[int]], a: int) -> int:
        """L(a) for the GF(2)-linear map L on this field named by key.

        images() must return the images L(X^j) of the polynomial basis,
        j = 0 .. 4n - 1.  It runs on the first call for a key only, and its
        result becomes byte-sliced tables; every call after that is one
        table lookup per byte of a.
        """
        tables = self._linear_maps.get(key)
        if tables is None:
            tables = self._linear_maps[key] = _byte_tables(images())
        return _lookup(tables, a)

    def trace_rel(self, a: int, l: int, k: int) -> int:
        """Relative trace from GF(2^k) down to GF(2^l): sum of a^(2^(l*i)).

        The sum is GF(2)-linear in a, so it is the linear map ("trace", l, k)
        of apply_linear, built once per (l, k) from the basis images of
        _trace_sum.
        """
        self._check_tower(a, l, k)
        return self.apply_linear(
            ("trace", l, k),
            lambda: [self._trace_sum(1 << j, l, k) for j in range(self.degree)],
            a,
        )

    def _trace_sum(self, a: int, l: int, k: int) -> int:
        """The defining sum a + a^(2^l) + ... + a^(2^(l*(k/l - 1))), any a."""
        acc = cur = a
        for _ in range(k // l - 1):
            cur = self.frobenius2(cur, l)
            acc ^= cur
        return acc

    def norm_rel(self, a: int, l: int, k: int) -> int:
        """Relative norm from GF(2^k) down to GF(2^l): product of a^(2^(l*i))."""
        self._check_tower(a, l, k)
        acc = cur = a
        for _ in range(k // l - 1):
            cur = self.frobenius2(cur, l)
            acc = self.mul(acc, cur)
        return acc

    def in_subfield(self, a: int, k: int) -> bool:
        """Whether a lies in the subfield GF(2^k); requires k | 4n."""
        if k < 1 or self.degree % k:
            raise OutOfRange(f"GF(2^{k}) is not a subfield of GF(2^{self.degree})")
        return self.frobenius2(a, k) == a

    # -- hex codec --------------------------------------------------------

    def encode_hex(self, a: int) -> str:
        """Lowercase 0x-prefixed hex of the element's bit sequence."""
        if not 0 <= a < self.size:
            raise OutOfRange(f"{a:#x} does not encode an element of GF(2^{self.degree})")
        return format(a, "#x")

    def decode_hex(self, s: str) -> int:
        """Parse an element from hex; strict inverse of encode_hex."""
        if not isinstance(s, str) or not _HEX_RE.fullmatch(s):
            raise MalformedHex(f"not a hex element encoding: {s!r}")
        v = int(s, 16)
        if v >= self.size:
            raise OutOfRange(f"{s} encodes degree >= {self.degree}")
        return v

    # -- subfield enumeration ---------------------------------------------

    def subfield_basis(self, k: int) -> tuple[int, ...]:
        """GF(2)-basis of GF(2^k) inside this field, reduced so that the
        enumeration index map of iter_subfield is strictly increasing."""
        if k < 1 or self.degree % k:
            raise OutOfRange(f"GF(2^{k}) is not a subfield of GF(2^{self.degree})")
        if k not in self._subfield_bases:
            self._subfield_bases[k] = self._compute_subfield_basis(k)
        return self._subfield_bases[k]

    def _compute_subfield_basis(self, k: int) -> tuple[int, ...]:
        # kernel of the GF(2)-linear map x -> x^(2^k) + x: the tag of an
        # image that reduces to 0 is the fixed element itself
        _, kernel = _echelon(
            (self.frobenius2(1 << j, k) ^ (1 << j), 1 << j) for j in range(self.degree))
        if len(kernel) != k:
            raise InternalDegenerate(
                f"x -> x^(2^{k}) + x has a kernel of dimension {len(kernel)}, not {k}")
        # reduced echelon form: distinct leading bits, none present in the
        # other vectors, sorted ascending -> index enumeration is monotone
        rows, _ = _echelon((v, 0) for v in kernel)
        if len(rows) != k:
            raise InternalDegenerate(f"reduced basis of GF(2^{k}) has {len(rows)} vectors")
        return tuple(sorted(v for v, _ in rows))

    def iter_subfield(self, k: int) -> Iterator[int]:
        """All 2^k elements of GF(2^k), in increasing integer order."""
        basis = self.subfield_basis(k)
        for idx in range(1 << k):
            x = 0
            while idx:
                low = idx & -idx
                x ^= basis[low.bit_length() - 1]
                idx ^= low
            yield x

    def trace_one_element(self, k: int) -> int:
        """A fixed element of GF(2^k) with absolute trace 1.

        The witness u is the smallest integer with absolute trace 1, pushed
        down with the relative trace, which keeps the choice deterministic
        for every k at once.  The trace is GF(2)-linear, so when X^j is the
        lowest basis element of trace 1 every u < 2^j has trace 0 and the
        smallest such u is 2^j itself: the scan takes at most 4n steps.

        Each call computes the witness afresh; the trace tables it reads
        are kept by trace_rel.  No library code calls it, since the
        Artin-Schreier roots come from one linear right inverse
        (subgroups.solve_artin_schreier).  It stays public because the
        benchmark times its first call on a fresh field as the
        field.trace_one_ms layer.
        """
        if k < 1 or self.degree % k:
            raise OutOfRange(f"GF(2^{k}) is not a subfield of GF(2^{self.degree})")
        j = 0
        while self.trace_rel(1 << j, 1, self.degree) != 1:
            j += 1
        theta = self.trace_rel(1 << j, k, self.degree)
        if self.trace_rel(theta, 1, k) != 1:
            raise InternalDegenerate(f"pushed-down witness {theta:#x} has trace 0")
        return theta

    # -- discrete-log tables ----------------------------------------------

    def primitive_element(self) -> int:
        """The smallest generator of the multiplicative group.

        Found by scanning upward from 2 and rejecting any candidate whose
        order divides a maximal proper divisor of q^4 - 1; cached.
        """
        if self._primitive is None:
            order = self.group_order
            g = 2
            fac = _prime_factors(order)
            while any(self.pow(g, order // p) == 1 for p in fac):
                g += 1
            self._primitive = g
        return self._primitive

    def power_table(self) -> np.ndarray:
        """Read-only uint32 array of length q^4 with P[x] = x^d for every
        element x; built once per field and shared by every caller.

        With h = g^d, the element g^i maps to g^(i d) = h^i, so each block
        of _power_blocks(h) is scattered onto the matching block of
        _power_blocks(g).  Both run to the power q^4 - 1, which is 1 and
        only rewrites P[1] = 1; P[0] = 0.  A field past BRUTEFORCE_CAP_BITS
        raises FieldTooLarge before it allocates anything.
        """
        import numpy as np

        if self._power is None:
            _require_within_cap(self, "x -> x^d table")
            g = self.primitive_element()
            table = np.zeros(self.size, dtype=np.uint32)
            for x, y in zip(self._power_blocks(g), self._power_blocks(self.pow(g, self.d))):
                table[x] = y
            table.flags.writeable = False
            self._power = table
        return self._power

    def _power_blocks(self, base: Element) -> Iterator[np.ndarray]:
        """Consecutive flat uint32 blocks of base^0 .. base^(q^4 - 1).

        Viewed as a q^2 x q^2 array, row j holds base^(q^2 j) times the
        first row base^0 .. base^(q^2 - 1).  Both vectors take q^2 scalar
        multiplies; the products are byte-table lookups
        (_byte_product_tables), about _EXP_CHUNK entries per block.
        """
        width = self.q * self.q
        row = self._powers(base, width)
        col = self._powers(self._mul_schoolbook(int(row[-1]), base), width)  # base^(q^2 j)
        tables = _byte_product_tables(row, self)
        step = max(1, _EXP_CHUNK // width)
        for lo in range(0, width, step):
            yield _byte_products(tables, col[lo:lo + step]).reshape(-1)

    def _powers(self, base: Element, count: int) -> np.ndarray:
        """uint32 array of base^0 .. base^(count - 1)."""
        import numpy as np

        out = np.empty(count, dtype=np.uint32)
        e = 1
        for i in range(count):
            out[i] = e
            e = self._mul_schoolbook(e, base)
        return out

    def ensure_tables(self) -> None:
        """Build the discrete-log tables that switch
        solver.generic_intermediates to its exponent form (idempotent);
        no Field method changes its result.

        Every field within BRUTEFORCE_CAP_BITS gets them, and above that
        degree the call does nothing.  exp holds g^i for i < q^4 - 1 and
        log the inverse map (log[0] is a dead slot).  Both are array('I'):
        an item indexes to a Python int, as a list's does, at 4 bytes an
        entry instead of a list's ~36, so the two take 128 MB at n = 6.
        They are filled in place, one block of _power_blocks(g) at a time,
        through numpy views of their own buffers: the block is copied into
        exp and its exponents are scattered into log.  So the build holds
        about 9 bytes an element at its peak.
        """
        if self._tables is not None or self.degree > BRUTEFORCE_CAP_BITS:
            return
        import numpy as np

        N = self.group_order
        exp, log = array("I", [0]) * N, array("I", [0]) * self.size
        exp_view, log_view = np.frombuffer(exp, np.uint32), np.frombuffer(log, np.uint32)
        lo = 0
        for block in self._power_blocks(self.primitive_element()):
            # the blocks run to g^(q^4 - 1) = 1 = g^0, which exp leaves out
            block = block[:N - lo]
            hi = lo + len(block)
            exp_view[lo:hi] = block
            log_view[block] = np.arange(lo, hi, dtype=np.uint32)
            lo = hi
        self._tables = exp, log
