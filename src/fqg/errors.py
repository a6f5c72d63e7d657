"""Exceptions: a StructuralError subclass per kind of malformed input, one VerificationError."""


class FqgError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FqgError):
    """Malformed input: wrong shapes, bad files, unknown names (CLI exit 2)."""


class VerificationError(FqgError):
    """Well-formed input that fails a mathematical requirement (CLI exit 1).

    ``check`` names the guard that failed; the suite reports the abort under
    that name, and the message states the offending value.
    """

    def __init__(self, message, check):
        super().__init__(message)
        self.check = check


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
