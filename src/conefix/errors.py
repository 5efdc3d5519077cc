"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ConefixError(Exception):
    """Base class for every error raised by this package."""


class ContractViolationError(ConefixError, ValueError):
    """An argument violates a documented precondition."""


class NumericError(ConefixError):
    """An iterative routine exhausted its budget or missed its tolerance."""


class HypothesisFailureError(ConefixError):
    """A certifying condition does not hold; carries the condition name (i1..i5, hb)."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class NonConvergenceError(ConefixError):
    """The solver ran out of iterations with the residual still above eps.

    Carries the iteration trace so callers can audit what happened.
    """

    def __init__(self, message: str, trace=None, residual_norm: float | None = None):
        super().__init__(message)
        self.trace = trace
        self.residual_norm = residual_norm


class GenerationError(ConefixError):
    """Randomized instance generation gave up after its retry budget."""


class ProblemFileError(ConefixError):
    """A problem file failed strict parsing; carries the offending section."""

    def __init__(self, message: str, section: str | None = None):
        if section:
            message = f"{section}: {message}"
        super().__init__(message)
        self.section = section
