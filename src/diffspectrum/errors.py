"""Exception types raised across the library.

Everything derives from GF2Error so callers can catch library errors with a
single except clause.  A few types double as the matching builtin so that
generic handlers (ZeroDivisionError, ValueError) keep working.
"""


class GF2Error(Exception):
    """Base class for all errors raised by this library."""


class ReducibleModulus(GF2Error):
    """The supplied modulus polynomial is not irreducible over GF(2)."""


class DegreeMismatch(GF2Error):
    """The supplied modulus polynomial does not have degree 4n."""


class DivisionByZero(GF2Error, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class NotInSubfield(GF2Error):
    """An element was passed to an operation whose precondition restricts it
    to a proper subfield it does not belong to."""


class OutOfRange(GF2Error, ValueError):
    """An integer is outside its allowed range: an element encoding of
    degree >= 4n, a tower parameter n outside 1..MAX_N, a modulus degree
    below 1, a negative Frobenius power, or a subfield degree or subgroup
    order the field does not have."""


class MalformedHex(GF2Error, ValueError):
    """A hex string could not be parsed as an element encoding."""


class ZeroElement(GF2Error):
    """Zero was passed where a nonzero element is required."""


class AmbientTooSmall(GF2Error):
    """The requested construction needs a subfield tower the ambient field
    GF(2^(4n)) does not contain."""


class PreconditionViolated(GF2Error):
    """A solver routine was called on an input outside its case."""


class InternalDegenerate(GF2Error):
    """A state that is provably unreachable for valid input was reached.

    Seeing this exception means a bug in the library, not bad input: every
    division performed by the constructive solver has a nonvanishing
    denominator whenever the dispatch preconditions hold.
    """


class FieldTooLarge(GF2Error):
    """An exhaustive sweep was requested over a field beyond the sweep cap."""
