"""Exception hierarchy for the multispace toolkit.

Everything derives from MultispaceError so callers can catch the whole
family; most classes also derive from the matching builtin so generic
code (e.g. ``except ValueError``) keeps working.
"""


class MultispaceError(Exception):
    """Base class for all toolkit errors."""


class NotPrime(MultispaceError, ValueError):
    """Field characteristic is not a prime number."""


class NotIrreducible(MultispaceError, ValueError):
    """Supplied modulus polynomial is reducible (or not monic of the right degree)."""


class FieldTooLarge(MultispaceError, ValueError):
    """Field order exceeds the documented construction limit (2**16)."""


class ContextMismatch(MultispaceError, ValueError):
    """Operands belong to different field contexts or ambient spaces."""


class DivisionByZero(MultispaceError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(MultispaceError, ValueError):
    """Vector/matrix dimensions are incompatible for the operation."""


class ShapeMismatch(DimensionMismatch):
    """Matrix shape incompatible with the multiset it should act on."""


class LimitExceeded(MultispaceError, RuntimeError):
    """An enumeration or expansion would exceed the configured state limit."""


class RankZero(MultispaceError, ValueError):
    """Cover count requested below the bottom element of the lattice."""


class NotCanonical(MultispaceError, ValueError):
    """Strict reader rejected a basis that is not in reduced row echelon form."""


class FormatError(MultispaceError, ValueError):
    """Malformed input: a JSON document, a field-spec string or out-of-range encodings."""


class ShapeViolation(MultispaceError, RuntimeError):
    """A result failed an internal rank, shape or consistency check (implementation bug)."""


class RootsNotInField(MultispaceError, ValueError):
    """Polynomial does not split over the given field."""


class NotAMultispace(MultispaceError, ValueError):
    """Root multiset is not a multispace (non-uniform multiplicities or support not a subspace)."""


class TooFewCodewords(MultispaceError, ValueError):
    """Minimum distance needs at least two codewords."""


class EmptyCode(MultispaceError, ValueError):
    """Decoding against an empty code."""


class ConfigInvalid(MultispaceError, ValueError):
    """Run configuration is inconsistent (unknown mode, bad error weight, negative size, ...)."""


class SamplingFailed(MultispaceError, RuntimeError):
    """Rejection sampling found no acceptable candidate within its try budget."""
