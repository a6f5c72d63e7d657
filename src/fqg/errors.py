"""Exception hierarchy separating malformed input from failed mathematics."""


class FqgError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FqgError):
    """Malformed input: wrong shapes, bad files, unknown names (CLI exit 2)."""


class VerificationError(FqgError):
    """Well-formed input that fails a mathematical requirement (CLI exit 1).

    ``check`` names the failed condition; ``residual`` carries the offending
    defect size when one is available.
    """

    def __init__(self, message, check="", residual=None):
        super().__init__(message)
        self.check = check
        self.residual = residual


class InvalidGroupTable(StructuralError):
    """Multiplication table is not a group (not a Latin square, no identity, ...)."""


class UnknownPreset(StructuralError):
    """Requested preset name does not exist."""


class ParseError(StructuralError):
    """File does not conform to the serialization schema."""


class SchemaVersionMismatch(StructuralError):
    """File declares a format_version this package does not read."""


class ModeUnavailable(StructuralError):
    """Requested verification mode exceeds its size bound."""


class NumericalFailure(StructuralError):
    """Numerics failed on the input: no SVD convergence, say, or a tolerance that overflows."""


class NoInvariantFunctional(VerificationError):
    """The bi-invariance system has no normalized solution."""


class NonUniqueHaar(VerificationError):
    """The bi-invariance system has more than one solution ray."""


class NotPositive(VerificationError):
    """Gram matrix of the Haar scalar product is not positive definite."""


class ExpansionFailed(VerificationError):
    """An operator does not lie in the span it is required to lie in."""


class NotInDualSubspace(VerificationError):
    """A matrix is not a member of the dual subspace within tolerance."""


class DimensionMismatch(VerificationError):
    """The dual subspace does not have the dimension of the algebra."""
