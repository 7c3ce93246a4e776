"""Exact solution counts for x^d + (x+1)^d = b over GF(2^(4n)).

The exponent is d = 2^(3n) + 2^(2n) + 2^n - 1.  The library provides
polynomial-basis field arithmetic (`field`), the roots-of-unity and
Artin-Schreier machinery behind the constructions (`subgroups`), the
case-by-case solver and classifier (`solver`), whole-field histograms
plus an exhaustive verifier (`spectrum`), and a deterministic CLI
(`cli`, console script ``diffspectrum``).
"""

from .errors import (
    AmbientTooSmall,
    DegreeMismatch,
    DivisionByZero,
    FieldTooLarge,
    GF2Error,
    InternalDegenerate,
    MalformedHex,
    NotInSubfield,
    OutOfRange,
    PreconditionViolated,
    ReducibleModulus,
    ZeroElement,
)
from .field import Element, Field, default_modulus, is_irreducible
from .solver import (
    CASE_B_EQUALS_ONE,
    CASE_GENERIC_TWO,
    CASE_MU,
    CASE_NO_SOLUTION,
    Classification,
    GenericBranch,
    GenericIntermediates,
    MuCaseWitness,
    SolutionSet,
    classify,
    generic_intermediates,
    is_in_s2,
    iter_mu_witnesses,
    solve,
    solve_b_equals_1,
    solve_generic,
    solve_mu_case,
    verify_solution,
)
from .spectrum import (
    SpectrumHistogram,
    VerificationReport,
    bruteforce_counts,
    bruteforce_histogram,
    ddt_row,
    eval_derivative,
    formula_histogram,
    s2_enumerate,
    s2_members,
    verify_conjecture,
)
from .subgroups import (
    QuadraticRoots,
    c_plus_inv_decompose,
    mu_member,
    solve_artin_schreier,
    solve_quadratic,
    solve_t_from_T,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientTooSmall",
    "CASE_B_EQUALS_ONE",
    "CASE_GENERIC_TWO",
    "CASE_MU",
    "CASE_NO_SOLUTION",
    "Classification",
    "DegreeMismatch",
    "DivisionByZero",
    "Element",
    "Field",
    "FieldTooLarge",
    "GF2Error",
    "GenericBranch",
    "GenericIntermediates",
    "InternalDegenerate",
    "MalformedHex",
    "MuCaseWitness",
    "NotInSubfield",
    "OutOfRange",
    "PreconditionViolated",
    "QuadraticRoots",
    "ReducibleModulus",
    "SolutionSet",
    "SpectrumHistogram",
    "VerificationReport",
    "ZeroElement",
    "bruteforce_counts",
    "bruteforce_histogram",
    "c_plus_inv_decompose",
    "classify",
    "ddt_row",
    "default_modulus",
    "eval_derivative",
    "formula_histogram",
    "generic_intermediates",
    "is_in_s2",
    "is_irreducible",
    "iter_mu_witnesses",
    "mu_member",
    "s2_enumerate",
    "s2_members",
    "solve",
    "solve_artin_schreier",
    "solve_b_equals_1",
    "solve_generic",
    "solve_mu_case",
    "solve_quadratic",
    "solve_t_from_T",
    "verify_conjecture",
    "verify_solution",
]
