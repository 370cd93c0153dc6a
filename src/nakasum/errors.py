"""Exception and warning types shared across the package, and the input
rules every layer checks, each raising the error class its caller names:
a count (an int or numpy integer of at least ``low``), rho (a real number
in [0, 1]), a positive scalar (a real number in (0, inf), or [0, inf) with
``zero_ok``) and a real array (a number or array of numbers whose numpy
dtype is an integer or float one, returned as a new float64 array, finite
and above ``low`` if given).  A bool, a string or None is none of these,
nor is a list or tuple that holds one."""
from __future__ import annotations

import math
import numbers

import numpy as np


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


# int and float first: the numbers ABCs' isinstance costs ~0.4 us even on them
_INTEGRAL = (int, numbers.Integral)
_REAL = (float, int, numbers.Real)


def _check_count(value, what: str, error: type[NakasumError], low: int = 1) -> None:
    if isinstance(value, bool) or not (isinstance(value, _INTEGRAL) and value >= low):
        raise error(f"{what} must be an integer >= {low}, got {value!r}")


def _check_rho(rho, error: type[NakasumError]) -> None:
    if isinstance(rho, bool) or not (isinstance(rho, _REAL) and 0.0 <= rho <= 1.0):
        raise error(f"rho must lie in [0, 1], got {rho!r}")


def _check_positive(value, what: str, error: type[NakasumError], zero_ok: bool = False) -> None:
    if isinstance(value, bool) or not (isinstance(value, _REAL) and value < math.inf
                                       and (value > 0 or zero_ok and value == 0)):
        raise error(f"{what} must be {'nonnegative' if zero_ok else 'positive'} and finite, "
                    f"got {value!r}")


def _holds_bool(values) -> bool:
    """True when a (nested) list or tuple holds a bool, which numpy would
    promote to a number."""
    return not {bool, np.bool_}.isdisjoint(map(type, np.array(values, dtype=object).flat))


def _real_array(values, what: str, error: type[NakasumError], low: float | None = None,
                ndim: int | None = None) -> np.ndarray:
    try:
        arr = np.array(values)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.array(None)
    # an array carries its dtype and a scalar is judged by it; only a Python
    # sequence is scanned
    if arr.dtype.kind not in "iuf" or isinstance(values, (list, tuple)) and _holds_bool(values):
        raise error(f"{what} must be real numbers, got {values!r:.80}")
    if ndim is not None and arr.ndim != ndim:
        raise error(f"{what} must form a {ndim}-d array, got shape {arr.shape}")
    arr = arr.astype(float, copy=False)
    if low is not None:
        ok = (arr > low) & (arr < math.inf)
        if np.count_nonzero(ok) < ok.size:  # cheaper than ok.all() on small arrays
            rule = "finite" if low == -math.inf else f"finite and > {low:g}"
            raise error(f"{what} must be {rule}, got {arr[~ok].flat[0]}")
    return arr
