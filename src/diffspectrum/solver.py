"""Exact solution sets for x^d + (x+1)^d = b over GF(2^(4n)).

Every b falls into one of four classification cases:

* ``B_EQUALS_ONE`` -- b = 1; the solution set is the entire subfield
  GF(q^2), of size q^2.  On GF(q^2) the exponent d reduces to 2q modulo
  q^2 - 1, so x^d + (x+1)^d = (x + (x+1))^(2q) = 1 there.
* ``MU_CASE`` -- b lies in the order-(q+1) roots-of-unity subgroup
  mu_{q+1} minus {1}; there are exactly q^2 - q solutions, each produced
  by a witness pair (z, w) in GF(q)* x GF(q)*.
* ``GENERIC_TWO`` -- b lies outside GF(q^2) and the explicit
  construction below completes; there are exactly 2 solutions, and they
  form a complementary pair {x, x+1}.
* ``NO_SOLUTION`` -- everything else; the equation has no roots.

The generic construction builds a candidate solution from a chain of
field scalars (c, alpha, beta, gamma, delta, U, T) and a unit-subgroup
element t, one of the pair (t, 1/t) that T determines.  For b outside
GF(q^2) the chain ends in one of five ways: it completes with a verified
root x, or it stops at the first of delta = 1, alpha = 1, a vanishing z
denominator, a pole of the ansatz x = 1/(1 + z lam t), or a candidate
that fails the original equation.  A completed chain yields the pair
{x, x+1}: the left-hand side D(x) = x^d + (x+1)^d is unchanged under
x -> x+1, so x+1 is the second root without a second branch or check.
Each stop is reported as evidence that b has no solutions rather than as
an error.  The four other ways the chain could stop (U + U^2 = 0, no
unit-subgroup t, a degenerate lam quotient, z = 0) are ruled out by the
identities in ``generic_intermediates`` and raise InternalDegenerate.
Membership in the two-solution family is decided by running the chain
and verifying its output, which keeps the classifier exactly consistent
with brute force by construction.

The chain has two forms with one result.  On a field with log tables
(``Field.ensure_tables``, which only the whole-field passes of
``spectrum`` call, and which changes no ``Field`` result) it runs on the
discrete logs of its scalars, where every step but a sum is index
arithmetic modulo q^4 - 1.  Every whole-field pass, at every n up to the
sweep cap n = 6, runs this form.  Every other field runs it on ``Field``
methods, which need no table of q^4 entries: every single-b query and
every CLI call but ``verify``, at any n, and every n >= 7.  Both forms
return equal records, take the same exits and raise the same errors.
"""

from __future__ import annotations

import operator
from typing import Iterator, NamedTuple, Optional, Tuple

from .errors import InternalDegenerate, PreconditionViolated
from .field import Element, Field
from .subgroups import solve_t_from_T

__all__ = [
    "CASE_B_EQUALS_ONE",
    "CASE_MU",
    "CASE_GENERIC_TWO",
    "CASE_NO_SOLUTION",
    "Classification",
    "SolutionSet",
    "MuCaseWitness",
    "GenericBranch",
    "GenericIntermediates",
    "classify",
    "generic_intermediates",
    "is_in_s2",
    "iter_mu_witnesses",
    "solve",
    "solve_mu_case",
    "verify_solution",
]

CASE_B_EQUALS_ONE = "B_EQUALS_ONE"
CASE_MU = "MU_CASE"
CASE_GENERIC_TWO = "GENERIC_TWO"
CASE_NO_SOLUTION = "NO_SOLUTION"

# Failure tags reported by the generic chain.  Each names the first
# quantity that degenerated; all of them certify "no solutions for b".
FAIL_DELTA_ONE = "delta_is_one"
FAIL_ALPHA_ONE = "alpha_plus_one_vanishes"
FAIL_Z_DENOMINATOR = "z_denominator_vanishes"
FAIL_ANSATZ_POLE = "ansatz_pole"
FAIL_UNVERIFIED = "candidate_fails_equation"
# The chain never returns these four: the identities in
# generic_intermediates rule each exit out, and reaching one raises
# InternalDegenerate.  They stay defined for tools that tally every tag.
FAIL_U_DEGENERATE = "u_plus_u_squared_vanishes"
FAIL_T_SUBFIELD = "t_trace_obstruction"
FAIL_LAMBDA = "lambda_ratio_degenerate"
FAIL_Z_ZERO = "z_vanishes"


def _as_integer(value: object) -> Optional[int]:
    """value as a Python int when it is an integer other than a bool (an int,
    or any type with __index__, numpy's among them), else None."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        return None
    return operator.index(value)


def _require_element(field: Field, value: Element, name: str = "b") -> int:
    """value as a Python int, if it is an integer that encodes an element.

    A float, str, None or bool raises PreconditionViolated, even where it
    compares equal to an element.
    """
    if type(value) is not int:  # one identity test per b on the int path
        element = _as_integer(value)
        if element is None:
            raise PreconditionViolated(f"{name} must be an integer, got {value!r}")
        value = element
    if not 0 <= value < field.size:
        raise PreconditionViolated(
            f"{name} = {value:#x} is outside the field of degree {field.degree}"
        )
    return value


def _inside_gf_q2(field: Field, b: Element) -> str:
    return (
        f"{field.encode_hex(b)} lies in GF(q^2); the generic construction "
        "requires b outside that subfield"
    )


def eval_derivative(field: Field, x: Element) -> Element:
    """x^d + (x+1)^d, the quantity whose level sets the histogram counts."""
    x = _require_element(field, x, "x")
    d = field.d
    return field.pow(x, d) ^ field.pow(x ^ 1, d)


def verify_solution(field: Field, x: Element, b: Element) -> bool:
    """Plug x into x^d + (x+1)^d and compare with b."""
    b = _require_element(field, b)
    return eval_derivative(field, x) == b


# The records built per b (Classification, GenericIntermediates and its
# GenericBranch, MuCaseWitness per mu-case root) are NamedTuples: immutable
# like a frozen dataclass, and under half its cost to build.
class Classification(NamedTuple):
    """Case tag plus the solution count that the case guarantees."""

    case: str
    predicted_count: int


class SolutionSet:
    """The roots of x^d + (x+1)^d = b, described by the case of b.

    One shape for every case: the field, b, its Classification and, for
    ``CASE_GENERIC_TWO``, the completed chain's root x.  No root is
    stored.  ``len`` is the count the case guarantees, and ``x in S`` is
    the equation itself: an integer x (not a bool) in the field with
    x^d + (x+1)^d = b.  Iteration lists the roots in ascending order:
    GF(q^2) for b = 1, the pair {x, x+1} of a completed chain, nothing
    without a solution, and ``solve_mu_case`` for the mu case, which
    checks the count and distinctness of the q^2 - q roots on every
    listing.  So building the set costs no more than ``classify`` at any
    n, while listing a mu-case set takes time exponential in n.
    """

    __slots__ = ("field", "b", "classification", "x")

    def __init__(
        self,
        field: Field,
        b: Element,
        classification: Classification,
        x: Optional[Element] = None,
    ) -> None:
        self.field = field
        self.b = b
        self.classification = classification
        self.x = x

    def __len__(self) -> int:
        return self.classification.predicted_count

    def __iter__(self) -> Iterator[Element]:
        case = self.classification.case
        if case == CASE_B_EQUALS_ONE:
            return self.field.iter_subfield(2 * self.field.n)
        if case == CASE_MU:
            return iter(solve_mu_case(self.field, self.b))
        if case == CASE_GENERIC_TWO:
            low = self.x & ~1
            return iter((low, low | 1))
        return iter(())

    def __contains__(self, x: object) -> bool:
        x = _as_integer(x)  # bool and float are not elements
        if x is None or not 0 <= x < self.field.size:
            return False
        return eval_derivative(self.field, x) == self.b

    def __repr__(self) -> str:
        case = self.classification.case
        if case == CASE_B_EQUALS_ONE:
            return f"SolutionSet(all of GF(2^{2 * self.field.n}), size {len(self)})"
        if case == CASE_MU:
            b = self.field.encode_hex(self.b)
            return f"SolutionSet({case} for b = {b}, size {len(self)})"
        shown = ", ".join(self.field.encode_hex(x) for x in self)
        return f"SolutionSet([{shown}])"


# ---------------------------------------------------------------------
# Mu case: b in mu_{q+1} \ {1}.
# ---------------------------------------------------------------------


class MuCaseWitness(NamedTuple):
    """One witness (z, w) together with the root x it produced.

    z and w range over GF(q)*; T = z + 1/z + c*w with c = sqrt(b); t is
    the unit-subgroup root of u^2 + T*u + 1 chosen for this witness.
    """

    z: Element
    w: Element
    T: Element
    t: Element
    x: Element


def iter_mu_witnesses(field: Field, b: Element) -> Iterator[MuCaseWitness]:
    """Yield every witness for b in mu_{q+1} \\ {1}, two roots per good pair.

    Walks all (z, w) in GF(q)* x GF(q)*.  For each pair the quantity
    T = z + 1/z + c*w (c = sqrt(b)) lies outside GF(q), hence is nonzero;
    when the trace obstruction vanishes the two roots t of
    u^2 + T*u + 1 lie in the unit subgroup mu_{q^2+1} and each yields
    the solution x = 1/(1 + z*t).

    That root needs no inverse of its own.  As t + 1/t = T,

        (1 + z t)(1 + z/t) = 1 + z T + z^2 = z c w,

    and 1/t = t + T, so 1/(1 + z t) = (1/z + 1/t)/(c w) = 1 + (t + z)/(c w).
    c*w is nonzero because b and w are, and it takes only q - 1 values
    per b, so its q - 1 inverses serve every root.  They are computed
    during the pass of the first z, each when its w is reached, so the
    first witness does not wait for all of them.
    """
    b = _require_element(field, b)
    n = field.n
    if b == 1 or field.pow(b, field.q + 1) != 1:
        raise PreconditionViolated(
            f"{field.encode_hex(b)} is not in the mu_(q+1) subgroup minus 1"
        )
    c = field.sqrt(b)
    scaled = []  # (w, c*w, 1/(c*w)) for every w in GF(q)*

    def scale_while_walking():  # the first z's pass fills scaled
        for w in field.iter_subfield(n):
            if w:
                cw = field.mul(c, w)
                scaled.append((w, cw, field.inv(cw)))
                yield scaled[-1]

    for z in field.iter_subfield(n):
        if z == 0:
            continue
        z_z_inv = z ^ field.inv(z)
        for w, cw, cw_inv in scaled or scale_while_walking():
            T = z_z_inv ^ cw
            if T == 0:
                raise InternalDegenerate(
                    "T = z + 1/z + c*w vanished; it must lie outside GF(q)"
                )
            for t in solve_t_from_T(field, T):
                # positional: the keyword form costs twice as much to build
                yield MuCaseWitness(z, w, T, t, 1 ^ field.mul(t ^ z, cw_inv))


def solve_mu_case(field: Field, b: Element) -> Tuple[Element, ...]:
    """All q^2 - q roots for b in mu_{q+1} \\ {1}, as a sorted tuple.

    This is the eager listing behind iteration of a mu-case
    ``SolutionSet``.  It raises InternalDegenerate unless the witness
    sweep yields exactly q^2 - q roots and no two of them are equal.
    """
    roots = sorted(witness.x for witness in iter_mu_witnesses(field, b))
    expected = field.q**2 - field.q
    if len(roots) != expected:
        raise InternalDegenerate(
            f"mu-case witness sweep produced {len(roots)} roots, "
            f"expected {expected}"
        )
    if any(x == y for x, y in zip(roots, roots[1:])):
        raise InternalDegenerate("mu-case witness sweep repeated a root")
    return tuple(roots)


# ---------------------------------------------------------------------
# Generic case: b outside GF(q^2).
# ---------------------------------------------------------------------


class GenericBranch(NamedTuple):
    """The completed branch of the generic construction.

    t is the first of the two unit-subgroup roots paired with T; the
    remaining fields are the scalars built from it, ending in the verified
    root x.
    """

    t: Element
    A: Element
    B: Element
    B1: Element
    lam: Element
    z: Element
    x: Element


class GenericIntermediates(NamedTuple):
    """Trace of the generic construction for one b outside GF(q^2).

    ``failure`` is None exactly when the branch completed and its root
    verified, i.e. when b has two solutions; ``branch`` is then the
    completed branch and None otherwise.  On failure the scalars computed
    before the chain stopped are retained.  Past the first two exits
    gamma^(q^2) = 1 + gamma, Tr_1^n(U + U^2) = 1 and T^q = delta T with
    T outside GF(q); ``generic_intermediates`` gives the proofs.
    """

    b: Element
    c: Element
    alpha: Element
    beta: Element
    delta: Optional[Element] = None
    gamma: Optional[Element] = None
    U: Optional[Element] = None
    T: Optional[Element] = None
    t_pair: Tuple[Element, ...] = ()
    branch: Optional[GenericBranch] = None
    failure: Optional[str] = None


def generic_intermediates(field: Field, b: Element) -> GenericIntermediates:
    """Run the explicit construction for b outside GF(q^2).

    Builds c = 1/sqrt(b), c' = c^(q^2) and the scalar chain

        alpha = c c',  beta = c + c',  gamma = c/beta,
        delta = (beta/alpha)^(q-1),
        U = gamma + gamma^q + (alpha^(q+1) + 1)/beta^(q+1),
        T = (1 + delta^q)/sqrt(U + U^2),

    then for the first unit-subgroup root t of u^2 + T*u + 1 assembles

        B1 = gamma T + 1/t,   B  = gamma T + t,
        A  = T (alpha + delta)/(alpha + 1),
        lam = sqrt((B1^q + B)/(B1 + B^q)),
        z  = (lam^2 + 1)/(lam (A + B1) + B/lam),
        x  = 1/(1 + z lam t),

    and keeps the branch only if x satisfies the original equation.  Then
    x+1 does too, since D(x+1) = D(x) for D(x) = x^d + (x+1)^d.

    alpha and beta lie in GF(q^2), and delta lies in mu_(q+1).  beta = 0
    exactly when c^(q^2) = c, i.e. when b = 1/c^2 lies in GF(q^2) (with
    c = 0 for b = 0), so beta = 0 is the chain's precondition test: it
    raises PreconditionViolated there, the one GF(q^2) test this form
    makes.  The chain obeys these identities, which give the formulas
    above their short form:

    1. gamma + gamma^(q^2) = (c + c')/beta = 1, so the paper's
       B1 = gamma t + gamma^(q^2)/t and B = gamma/t + gamma^(q^2) t are
       gamma T + 1/t and gamma T + t, and B1 + B = T.
    2. delta alpha^(q-1) beta^2 = beta^(q+1), the paper's denominator in
       U.  So U = G + K with G = gamma + gamma^q and
       K = (alpha^(q+1) + 1)/beta^(q+1) in GF(q).
    3. G^q = G + 1, so G is outside GF(q) and solves y^2 + y = G + G^2:
       Tr_1^n(G + G^2) = 1, while Tr_1^n(K + K^2) = 0.  Hence
       Tr_1^n(U + U^2) = 1 and U + U^2 != 0.
    4. With s = sqrt(U + U^2) in GF(q), T^q = delta T, which turns the
       paper's A = (alpha T + T^q)/(alpha + 1) into the form above.
       As delta != 1, T is outside GF(q); and 1/T + 1/T^q = s, so
       Tr_1^(2n)(1/T) = Tr_1^n(s) = 1 and the roots t always exist.
    5. The lam numerator B1^q + B is the q-th power of its denominator,
       so the quotient is (B1 + B^q)^(q-1), in mu_(q+1).  A zero
       denominator would put T = B + B^q in GF(q).
    6. lam^2 = 1, the only way z vanishes, means (B1 + B)^q = B1 + B,
       i.e. T in GF(q).

    The four exits these identities rule out (U + U^2 = 0, no root t, a
    zero lam denominator, lam^2 = 1) raise InternalDegenerate.  The root
    1/t is not built: its branch (B1 and B swapped, 1/lam = lam^q)
    completes exactly when this one does and then yields x+1, as a
    comparison that builds both branches confirms for every b at n <= 5.
    A failing branch sets ``failure`` to ``FAIL_Z_DENOMINATOR``,
    ``FAIL_ANSATZ_POLE`` or ``FAIL_UNVERIFIED``; before the branch the
    chain can end with ``FAIL_DELTA_ONE`` or ``FAIL_ALPHA_ONE``.  A
    successful run has ``failure is None`` and its branch in ``branch``.

    On a field with log tables the chain runs on exponents
    (``_generic_on_logs``).  With l_s = log_g s modulo N = q^4 - 1 for a
    nonzero scalar s, and h = 2^(4n-1), the inverse of 2 modulo N:

        l_c = -h l_b,   l_c' = q^2 l_c,   l_alpha = l_c + l_c',
        l_delta = (q-1)(l_beta - l_alpha),   l_gamma = l_c - l_beta,
        l_T = l_(1 + delta^q) - h l_(U + U^2),
        l_lam = h (q-1) l_(B1 + B^q),   l_z = l_(lam^2 + 1) - l_(z den),
        l_x = -l_(1 + z lam t),   D(x) = g^(d l_x) + g^(d l_(x+1)).

    The exits are l_delta = 0 and l_alpha = 0, b in GF(q^2) is
    l_b = 0 modulo q^2 + 1, and every sum of scalars costs one exp
    lookup per term and one log lookup.  This form serves the whole-field
    passes of ``spectrum``, which run it for every b; every other field
    keeps the ``Field``-method form below, which needs no tables.  Both
    return equal records.
    """
    b = _require_element(field, b)
    if field._tables is not None:
        return _generic_on_logs(field, b)
    q = field.q
    c = b and field.inv(field.sqrt(b))  # c = 0 stands in for b = 0
    c_q2 = field.frobenius_q(c, 2)
    beta = c ^ c_q2
    if beta == 0:  # c, and with it b = 1/c^2, lies in GF(q^2)
        raise PreconditionViolated(_inside_gf_q2(field, b))
    alpha = field.mul(c, c_q2)
    delta = field.pow(field.div(beta, alpha), q - 1)
    if delta == 1:
        return GenericIntermediates(b, c, alpha, beta, delta, failure=FAIL_DELTA_ONE)
    if alpha == 1:
        return GenericIntermediates(b, c, alpha, beta, delta, failure=FAIL_ALPHA_ONE)

    gamma = field.div(c, beta)
    U = (
        gamma
        ^ field.frobenius_q(gamma, 1)
        ^ field.div(field.pow(alpha, q + 1) ^ 1, field.pow(beta, q + 1))
    )
    uu = U ^ field.square(U)
    if uu == 0:
        raise InternalDegenerate("U + U^2 vanished, but Tr_1^n(U + U^2) = 1")
    T = field.div(1 ^ field.frobenius_q(delta, 1), field.sqrt(uu))
    t_pair = solve_t_from_T(field, T)
    if not t_pair:
        raise InternalDegenerate("t + 1/t = T has no root, but Tr_1^(2n)(1/T) = 1")

    t, t_inv = t_pair  # the two roots of u^2 + T*u + 1 multiply to 1
    gamma_T = field.mul(gamma, T)
    B1, B = gamma_T ^ t_inv, gamma_T ^ t
    lam_den = B1 ^ field.frobenius_q(B, 1)
    if lam_den == 0:
        raise InternalDegenerate("B1 + B^q vanished, which puts T = B + B^q in GF(q)")
    lam_sq = field.pow(lam_den, q - 1)
    if lam_sq == 1:
        raise InternalDegenerate("lam^2 = 1, which puts T = B1 + B in GF(q)")
    lam = field.sqrt(lam_sq)
    A = field.div(field.mul(T, alpha ^ delta), alpha ^ 1)
    branch = failure = None
    z_den = field.mul(lam, A ^ B1) ^ field.div(B, lam)
    if z_den == 0:
        failure = FAIL_Z_DENOMINATOR
    else:
        z = field.div(lam_sq ^ 1, z_den)
        zlt = field.mul(field.mul(z, lam), t)
        if zlt == 1:
            failure = FAIL_ANSATZ_POLE
        else:
            x = field.inv(1 ^ zlt)
            if eval_derivative(field, x) != b:
                failure = FAIL_UNVERIFIED
            else:
                branch = GenericBranch(t, A, B, B1, lam, z, x)

    # positional: the keyword form costs twice as much to build
    return GenericIntermediates(
        b, c, alpha, beta, delta, gamma, U, T, t_pair, branch, failure
    )


def _generic_on_logs(field: Field, b: Element) -> GenericIntermediates:
    """``generic_intermediates`` on the exponents of a field with log tables.

    Each scalar s != 0 is carried as l_s = log_g s in Z/(q^4 - 1): products
    and quotients add and subtract logs, s^e multiplies l_s by e, sqrt
    multiplies it by 2^(4n - 1), the inverse of 2, and s^(q^i) by q^i.
    Only a sum of two scalars goes through exp and back through log.  The
    identities of ``generic_intermediates`` keep every operand nonzero
    except B, A + B1, alpha + delta, alpha^(q+1) + 1 and x + 1, which have
    no log.  Each of those is written ``s and exp[...]``, so that a zero s
    gives the 0 that the Field method does for a product with s, a
    quotient of s, or a power or Frobenius image of s.
    """
    exp, log = field._tables
    N, q, d = field.group_order, field.q, field.d
    half = (N + 1) >> 1  # 1/2 mod N: the log of sqrt(s) is half * l_s
    lb = log[b]
    # GF(q^2)* is generated by g^(q^2 + 1), and log[0] = 0 puts b = 0 in too
    if lb % (q * q + 1) == 0:
        raise PreconditionViolated(_inside_gf_q2(field, b))
    lc = -lb * half % N
    lc_q2 = lc * q * q % N
    la = (lc + lc_q2) % N
    c, alpha = exp[lc], exp[la]
    beta = c ^ exp[lc_q2]
    l_beta = log[beta]
    ld = (l_beta - la) * (q - 1) % N
    delta = exp[ld]
    if ld == 0:
        return GenericIntermediates(b, c, alpha, beta, delta, failure=FAIL_DELTA_ONE)
    if la == 0:
        return GenericIntermediates(b, c, alpha, beta, delta, failure=FAIL_ALPHA_ONE)

    lg = (lc - l_beta) % N
    gamma = exp[lg]
    k_num = exp[la * (q + 1) % N] ^ 1
    U = gamma ^ exp[lg * q % N] ^ (k_num and exp[(log[k_num] - l_beta * (q + 1)) % N])
    uu = U and U ^ exp[2 * log[U] % N]
    if uu == 0:
        raise InternalDegenerate("U + U^2 vanished, but Tr_1^n(U + U^2) = 1")
    lT = (log[1 ^ exp[ld * q % N]] - log[uu] * half) % N
    T = exp[lT]
    t_pair = solve_t_from_T(field, T)
    if not t_pair:
        raise InternalDegenerate("t + 1/t = T has no root, but Tr_1^(2n)(1/T) = 1")

    t, t_inv = t_pair
    gamma_T = exp[(lg + lT) % N]
    B1, B = gamma_T ^ t_inv, gamma_T ^ t
    lB = log[B]
    lam_den = B1 ^ (B and exp[lB * q % N])
    if lam_den == 0:
        raise InternalDegenerate("B1 + B^q vanished, which puts T = B + B^q in GF(q)")
    l_lam_sq = log[lam_den] * (q - 1) % N
    if l_lam_sq == 0:
        raise InternalDegenerate("lam^2 = 1, which puts T = B1 + B in GF(q)")
    lam_sq = exp[l_lam_sq]
    l_lam = l_lam_sq * half % N
    lam = exp[l_lam]
    alpha_delta = alpha ^ delta
    A = alpha_delta and exp[(lT + log[alpha_delta] - log[alpha ^ 1]) % N]
    A_B1 = A ^ B1
    z_den = (A_B1 and exp[(l_lam + log[A_B1]) % N]) ^ (B and exp[(lB - l_lam) % N])
    branch = failure = None
    if z_den == 0:
        failure = FAIL_Z_DENOMINATOR
    else:
        lz = (log[lam_sq ^ 1] - log[z_den]) % N
        l_zlt = (lz + l_lam + log[t]) % N
        if l_zlt == 0:
            failure = FAIL_ANSATZ_POLE
        else:
            lx = -log[1 ^ exp[l_zlt]] % N
            x = exp[lx]
            x_1 = x ^ 1
            if exp[lx * d % N] ^ (x_1 and exp[log[x_1] * d % N]) != b:
                failure = FAIL_UNVERIFIED
            else:
                branch = GenericBranch(t, A, B, B1, lam, exp[lz], x)
    # positional: the keyword form costs twice as much to build
    return GenericIntermediates(
        b, c, alpha, beta, delta, gamma, U, T, t_pair, branch, failure
    )


def is_in_s2(field: Field, b: Element) -> bool:
    """Membership test for the two-solution family: True exactly when
    ``classify`` assigns b to ``CASE_GENERIC_TWO``."""
    return _classify_with_chain(field, b)[0].case == CASE_GENERIC_TWO


# ---------------------------------------------------------------------
# Classification and the top-level solver.
# ---------------------------------------------------------------------


def classify(field: Field, b: Element) -> Classification:
    """Assign b to its case and predict the exact solution count.

    Precedence: b = 1 first, then the mu_{q+1} subgroup, then the
    generic two-solution family, else no solutions.  The three families
    are pairwise disjoint (the first two live inside GF(q^2), the third
    outside), so the precedence is cosmetic.
    """
    return _classify_with_chain(field, b)[0]


_GENERIC_TWO = Classification(CASE_GENERIC_TWO, 2)
_NO_SOLUTION = Classification(CASE_NO_SOLUTION, 0)


def _classify_with_chain(
    field: Field, b: Element
) -> Tuple[Classification, Optional[GenericIntermediates]]:
    """``classify`` plus the generic chain it ran (None for b in GF(q^2)).

    ``solve`` and the verifier read the generic root from the chain, so
    the chain runs once per b.
    """
    q = field.q
    b = _require_element(field, b)
    if b == 1:
        return Classification(CASE_B_EQUALS_ONE, q**2), None
    if field.in_subfield(b, 2 * field.n):  # mu_{q+1} lies inside GF(q^2)
        if b != 0 and field.pow(b, q + 1) == 1:
            return Classification(CASE_MU, q**2 - q), None
        return _NO_SOLUTION, None
    chain = generic_intermediates(field, b)
    if chain.failure is None:
        return _GENERIC_TWO, chain
    return _NO_SOLUTION, chain


def solve(field: Field, b: Element) -> Tuple[Classification, SolutionSet]:
    """Classification and solution set of x^d + (x+1)^d = b.

    The generic chain runs once: the classification and the generic root
    both come from it.  No root is listed here, so ``solve`` costs what
    ``classify`` does at every n; iterating the set lists the roots.
    """
    b = _require_element(field, b)
    classification, chain = _classify_with_chain(field, b)
    x = chain.branch.x if classification.case == CASE_GENERIC_TWO else None
    return classification, SolutionSet(field, b, classification, x)
