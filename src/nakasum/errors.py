"""Exception and warning types shared across the package, and the three
input rules every layer checks, each raising the error class its caller
names: a count (an int or numpy integer of at least ``low``), rho (a real
number in [0, 1]) and a positive scalar (a real number in (0, inf)).  A
bool is none of these."""
from __future__ import annotations

import math
import numbers


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


def _check_count(value, what: str, error: type[NakasumError], low: int = 1) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= low):
        raise error(f"{what} must be an integer >= {low}, got {value!r}")


def _check_rho(rho) -> None:
    if isinstance(rho, bool) or not (isinstance(rho, numbers.Real) and 0.0 <= rho <= 1.0):
        raise ValidationError(f"rho must lie in [0, 1], got {rho!r}")


def _check_positive(value, what: str, error: type[NakasumError]) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise error(f"{what} must be positive and finite, got {value!r}")
