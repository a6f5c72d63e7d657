"""Exceptions: StructuralError for malformed input, VerificationError for a failed guard."""


class StructuralError(Exception):
    """Malformed input: wrong shapes, bad files, unknown names, numerics that
    fail on the input (CLI exit 2); the message names the field or entry at fault."""


class VerificationError(Exception):
    """Well-formed input that fails a mathematical requirement (CLI exit 1).

    ``check`` names the guard that failed; the suite reports the abort under
    that name, and the message states the offending value.
    """

    def __init__(self, message, check):
        super().__init__(message)
        self.check = check
