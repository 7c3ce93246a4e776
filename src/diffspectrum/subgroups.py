"""Roots-of-unity subgroups of GF(2^(4n))* and the c + 1/c machinery.

The multiplicative group has order q^4 - 1 = (q-1)(q+1)(q^2+1) with the
three factors pairwise coprime, so every nonzero x splits uniquely as
z * lam * t with z in mu_(q-1), lam in mu_(q+1), t in mu_(q^2+1), where
mu_m denotes the group of m-th roots of unity.

The quadratic c^2 + z*c + 1 over a subfield GF(2^m) always has two roots
in GF(2^(2m)); they multiply to 1 and land either both in GF(2^m) or both
in mu_(2^m + 1), decided by the absolute trace of 1/z.  Solving the
derivative equation reduces to locating such roots, so the Artin-Schreier
and quadratic solvers live here too.  Every Artin-Schreier root on a field
comes from one table: a GF(2)-linear right inverse of y -> y^2 + y on the
whole field, found once by Gaussian elimination, serves every subfield
GF(2^k).

solve_t_from_T is memoised per field.  Its T always lies in GF(q^2)*, so
however many b the solver handles, at most q^2 - 1 distinct T occur: the
verifier's pass over all 65,536 b at n = 4 makes 64,784 calls with 240
distinct T.  The memo is kept only on fields within BRUTEFORCE_CAP_BITS,
where such a pass exists, so it holds at most q^2 - 1 <= 4,095 entries.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    AmbientTooSmall,
    InternalDegenerate,
    NotInSubfield,
    OutOfRange,
    ZeroElement,
)
from .field import BRUTEFORCE_CAP_BITS, Field

LOCATION_SUBFIELD = "subfield"
LOCATION_UNITY_COSET = "unity_coset"

# Field._linear_maps key of the Artin-Schreier root table
ARTIN_SCHREIER = "artin_schreier"


class QuadraticRoots(NamedTuple):
    """Roots of a quadratic, sorted ascending; a repeated root appears twice.

    location is set only by c_plus_inv_decompose: "subfield" when both roots
    lie in GF(2^m)*, "unity_coset" when both lie in mu_(2^m + 1) \\ {1}.
    """

    roots: tuple[int, ...]
    location: str | None = None


def mu_member(field: Field, a: int, m: int) -> bool:
    """Whether a is an m-th root of unity; m must divide q^4 - 1."""
    if m < 1 or field.group_order % m:
        raise OutOfRange(f"mu_{m} is not a subgroup: {m} does not divide q^4 - 1")
    return a != 0 and field.pow(a, m) == 1


def solve_artin_schreier(field: Field, w: int, k: int) -> QuadraticRoots:
    """Roots in GF(2^k) of y^2 + y = w, for w in GF(2^k) with k | 4n.

    Solvable iff the absolute trace of w over GF(2^k) vanishes.  Then
    both roots lie in GF(2^k) and differ by 1, and w also has absolute
    trace 0 over the whole field, so the field's one root table
    (_artin_schreier_images) gives a root y for every k; the sorted pair
    (y, y + 1) does not depend on which root the table picks.  Each y is
    checked against the equation before it is returned.
    """
    if k < 1 or field.degree % k:
        raise OutOfRange(f"GF(2^{k}) is not a subfield of GF(2^{field.degree})")
    if not field.in_subfield(w, k):
        raise NotInSubfield(f"{w:#x} is not in GF(2^{k})")
    if field.trace_rel(w, 1, k) != 0:
        return QuadraticRoots(())
    y = field.apply_linear(ARTIN_SCHREIER, lambda: _artin_schreier_images(field), w)
    if field.square(y) ^ y != w:
        raise InternalDegenerate(f"{y:#x} is not a root of y^2 + y = {w:#x}")
    return QuadraticRoots(tuple(sorted((y, y ^ 1))))


def _artin_schreier_images(field: Field) -> list[int]:
    """R(X^j), j = 0 .. 4n - 1, for a GF(2)-linear R on the whole field with
    R(w)^2 + R(w) = w for every w of absolute trace 0.

    S(y) = y^2 + y is GF(2)-linear with kernel {0, 1}, so its image is the
    hyperplane of trace-0 elements.  Gaussian elimination over the images
    S(X^j) = X^(2j) + X^j keeps 4n - 1 rows in reduced echelon form, each
    with the preimage it came from; a w in the image is the sum of the
    rows whose leading bits it has set, so R(X^i) is the preimage of the
    row led by bit i, and 0 for the one bit that leads no row.
    """
    rows: list[tuple[int, int]] = []  # (S(p), p), no row's lead set in another
    for j in range(field.degree):
        vec, pre = field.square(1 << j) ^ (1 << j), 1 << j
        for v, p in rows:
            if vec >> (v.bit_length() - 1) & 1:
                vec ^= v
                pre ^= p
        if vec:
            lead = vec.bit_length() - 1
            rows = [(v ^ vec, p ^ pre) if v >> lead & 1 else (v, p) for v, p in rows]
            rows.append((vec, pre))
    if len(rows) != field.degree - 1:
        raise InternalDegenerate(
            f"y^2 + y has an image of dimension {len(rows)}, not {field.degree - 1}")
    root_of = {v.bit_length() - 1: p for v, p in rows}
    return [root_of.get(i, 0) for i in range(field.degree)]


def solve_quadratic(field: Field, u: int, v: int, k: int) -> QuadraticRoots:
    """Roots in GF(2^k) of x^2 + u*x + v = 0.

    u = 0 degenerates to the bijective square map: one root, reported twice.
    Otherwise the substitution x = u*y reduces to y^2 + y = v/u^2.
    """
    if k < 1 or field.degree % k:
        raise OutOfRange(f"GF(2^{k}) is not a subfield of GF(2^{field.degree})")
    for name, val in (("u", u), ("v", v)):
        if not field.in_subfield(val, k):
            raise NotInSubfield(f"coefficient {name}={val:#x} is not in GF(2^{k})")
    if u == 0:
        r = field.sqrt(v)
        return QuadraticRoots((r, r))
    base = solve_artin_schreier(field, field.div(v, field.square(u)), k)
    if not base.roots:
        return base
    return QuadraticRoots(tuple(sorted(field.mul(u, y) for y in base.roots)))


def c_plus_inv_decompose(field: Field, zval: int, m: int) -> QuadraticRoots:
    """The two c with c + 1/c = zval, for nonzero zval in GF(2^m).

    The roots of c^2 + zval*c + 1 lie in GF(2^(2m)), multiply to 1, and sit
    either both in GF(2^m)* (absolute trace of 1/zval over GF(2^m) is 0) or
    both in mu_(2^m + 1) \\ {1} (trace is 1); the returned location tag
    records which.  Requires 2m | 4n so the ambient field contains both
    homes.
    """
    if zval == 0:
        raise ZeroElement("zval must be nonzero")
    if m < 1 or field.degree % (2 * m):
        raise AmbientTooSmall(
            f"roots of c + 1/c = z over GF(2^{m}) live in GF(2^{2 * m}), "
            f"which GF(2^{field.degree}) does not contain")
    if not field.in_subfield(zval, m):
        raise NotInSubfield(f"{zval:#x} is not in GF(2^{m})")
    qr = solve_quadratic(field, zval, 1, 2 * m)
    if len(qr.roots) != 2:  # trace of 1/zval^2 over GF(2^(2m)) is always 0
        raise InternalDegenerate(f"c^2 + {zval:#x}*c + 1 has no roots in GF(2^{2 * m})")
    tr = field.trace_rel(field.inv(zval), 1, m)
    location = LOCATION_SUBFIELD if tr == 0 else LOCATION_UNITY_COSET
    return QuadraticRoots(qr.roots, location)


def solve_t_from_T(field: Field, Tval: int) -> list[int]:
    """The t in mu_(q^2 + 1) \\ {1} with t + 1/t = Tval, for Tval in GF(q^2)*.

    Returns the two such t (each other's inverses, sorted) when the absolute
    trace of 1/Tval over GF(q^2) is 1, and the empty list when it is 0, in
    which case both candidates sit in GF(q^2) instead.

    The answer depends on the field and Tval alone, and T repeats across b:
    on fields of at most BRUTEFORCE_CAP_BITS bits it is stored by Tval on
    the field, at most q^2 - 1 entries.  Larger fields, which no pass over
    every b reaches, store nothing.  Only answers are stored, so a Tval
    that is 0 or outside GF(q^2) raises on every call, and every call
    returns a new list.
    """
    roots = field._t_roots.get(Tval)
    if roots is None:
        dec = c_plus_inv_decompose(field, Tval, 2 * field.n)
        roots = () if dec.location == LOCATION_SUBFIELD else dec.roots
        if field.degree <= BRUTEFORCE_CAP_BITS:
            field._t_roots[Tval] = roots
    return list(roots)
