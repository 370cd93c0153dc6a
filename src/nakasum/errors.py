"""Exception and warning types shared across the package."""
from __future__ import annotations


class NakasumError(Exception):
    """Base class for all package errors."""


class DomainError(NakasumError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """A series or integral diverges for the requested arguments."""


class BoundaryError(DomainError):
    """A parameter sits on a boundary that must be handled analytically upstream."""


class ValidationError(NakasumError, ValueError):
    """Structured input (spec, matrix, samples) fails its invariants."""


class SingularMatrixError(ValidationError):
    """A matrix that must be inverted is numerically singular."""


class BinningError(ValidationError):
    """Too few samples for the requested histogram binning."""


class ConsistencyError(NakasumError):
    """An internal identity that should hold by construction was violated."""


class TruncationError(NakasumError):
    """A series failed to converge within its term budget.

    The partial sum accumulated so far is available as ``partial``.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


class AccuracyError(NakasumError):
    """A quadrature failed to reach the requested tolerance.

    ``partial`` holds the best estimate available.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


class FitClampWarning(UserWarning):
    """An optimized parameter was clamped back into its feasible range."""
