"""Exception hierarchy.

Every domain failure carries a stable machine-readable ``code`` so the CLI
can report ``{"error": code, "message": ...}`` without string matching.
"""


class TeichkitError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class InvalidInputError(TeichkitError):
    code = "invalid_input"


class SingularMatrixError(TeichkitError):
    code = "singular_matrix"


class NotUnimodularError(TeichkitError):
    code = "not_unimodular"


class NotContractingError(TeichkitError):
    code = "not_contracting"


class MismatchedFiberError(TeichkitError):
    code = "mismatched_fiber"


class NotOnCircleError(TeichkitError):
    code = "not_on_circle"


class SamePointError(TeichkitError):
    code = "same_point"


class LimitExceededError(TeichkitError):
    """The input is valid but answering it needs more work than a documented
    limit allows (a continued-fraction period, an orbit size, a sample count)."""

    code = "limit_exceeded"


class InvalidPointError(InvalidInputError):
    code = "invalid_point"
