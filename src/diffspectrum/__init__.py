"""Exact solution counts for x^d + (x+1)^d = b over GF(2^(4n)).

The exponent is d = 2^(3n) + 2^(2n) + 2^n - 1.  The library provides
polynomial-basis field arithmetic (`field`), the roots-of-unity and
Artin-Schreier machinery behind the constructions (`subgroups`), the
case-by-case solver and classifier (`solver`), whole-field histograms
plus an exhaustive verifier (`spectrum`), and a deterministic CLI
(`cli`, console script ``diffspectrum``).

The `spectrum` names are looked up when used, through the module
``__getattr__`` (PEP 562), so ``import diffspectrum`` and a `classify`
or `solve` call load neither `spectrum` nor what it imports.
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
    eval_derivative,
    generic_intermediates,
    is_in_s2,
    iter_mu_witnesses,
    solve,
    solve_mu_case,
    verify_solution,
)
from .subgroups import (
    QuadraticRoots,
    c_plus_inv_decompose,
    solve_artin_schreier,
    solve_t_from_T,
)

__version__ = "0.1.0"

_SPECTRUM_NAMES = frozenset({
    "SpectrumHistogram",
    "VerificationReport",
    "bruteforce_counts",
    "bruteforce_histogram",
    "ddt_row",
    "formula_histogram",
    "s2_enumerate",
    "verify_conjecture",
})


def __getattr__(name: str):
    # read from the module on every access, so a patched spectrum
    # function is seen through the package too
    if name in _SPECTRUM_NAMES:
        from . import spectrum

        return getattr(spectrum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
    "s2_enumerate",
    "solve",
    "solve_artin_schreier",
    "solve_mu_case",
    "solve_t_from_T",
    "verify_conjecture",
    "verify_solution",
]
