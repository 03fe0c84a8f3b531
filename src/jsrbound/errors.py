"""Exception types shared across the package."""

from __future__ import annotations


class JsrError(Exception):
    """Base class for all computation and input errors raised by jsrbound."""


class InputFormatError(JsrError):
    """Malformed matrix-set input (bad JSON, ragged rows, non-finite entries)."""


class BudgetExceededError(JsrError):
    """An enumeration would exceed the configured product budget.

    Carries the required count and the budget so callers can report or
    re-plan.  ``partial`` holds any per-step results completed before the
    budget was hit (used by the sandwich driver).
    """

    def __init__(self, message: str, *, required: int | None = None,
                 budget: int | None = None, partial: list | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget
        self.partial = partial if partial is not None else []


class ConvergenceError(JsrError):
    """An eigenvalue computation failed to converge."""


class NoCertificateError(JsrError):
    """A certified bound was requested but irreducibility is not established."""


class UnsupportedDimensionError(JsrError):
    """The requested exact computation is not available in this dimension."""
