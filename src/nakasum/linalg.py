"""Small dense symmetric-matrix kernel for branch correlation matrices.

A correlation matrix holds the square roots of the pairwise power
correlation coefficients (unit diagonal, entries in [0, 1], positive
semidefinite).  The module provides eigenvalues (LAPACK), a semidefinite
Cholesky factorization used by the sampler, and a Markov-product ("Green's
matrix") approximation of an arbitrary correlation matrix, under which
every principal submatrix is determined by the links between the subset's
neighbours.  The joint moments read those links through ``subset_links``;
``principal_submatrix_inverse`` inverts one principal submatrix, has no
library caller and is not public.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from operator import mul

import numpy as np
from numpy.typing import NDArray

from .errors import (FitClampWarning, SingularMatrixError, ValidationError, _check_count,
                     _check_rho, _real_array)

__all__ = [
    "CorrelationMatrix",
    "EigenSpectrum",
    "eigenvalues_sym",
    "subset_links",
    "greens_fit",
    "cholesky_psd",
]

_PSD_SLACK = -1e-10
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric PSD matrix of sqrt power-correlation coefficients."""

    entries: NDArray[np.float64]

    def __post_init__(self):
        m = _real_array(self.entries, "correlation matrix entries", ValidationError, -math.inf)
        if m.ndim != 2 or not 1 <= m.shape[0] == m.shape[1]:
            raise ValidationError(f"correlation matrix must be non-empty square, got {m.shape}")
        if not np.all(np.abs(m - m.T) <= _SYM_TOL):
            raise ValidationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, rtol=0, atol=_SYM_TOL):
            raise ValidationError("correlation matrix must have unit diagonal")
        if m.min() < -_SYM_TOL or m.max() > 1.0 + _SYM_TOL:
            raise ValidationError("correlation entries must lie in [0, 1]")
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 1.0)
        np.clip(m, 0.0, 1.0, out=m)
        if np.linalg.eigvalsh(m).min() < _PSD_SLACK * max(1.0, m.shape[0]):
            raise ValidationError("correlation matrix is not positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "CorrelationMatrix":
        return cls.exponential(0.0, dim)

    @classmethod
    def equal(cls, rho: float, dim: int) -> "CorrelationMatrix":
        """Every entry sqrt(rho), PSD by construction (eigenvalues
        1 + (dim - 1) sqrt(rho) and 1 - sqrt(rho))."""
        _check_rho(rho, ValidationError)
        _check_count(dim, "correlation matrix dimension", ValidationError)
        m = np.full((dim, dim), math.sqrt(rho))
        np.fill_diagonal(m, 1.0)
        return cls._trusted(m)

    @classmethod
    def exponential(cls, rho: float, dim: int) -> "CorrelationMatrix":
        """The Markov chain with every link sqrt(rho), PSD by construction;
        rho = 0 is the identity."""
        _check_rho(rho, ValidationError)
        _check_count(dim, "correlation matrix dimension", ValidationError)
        idx = np.arange(dim)
        return cls._trusted(math.sqrt(rho) ** np.abs(idx[:, None] - idx[None, :]))

    @classmethod
    def from_markov_links(cls, links: NDArray[np.float64]) -> "CorrelationMatrix":
        """Build the Markov-product matrix c_ij = prod(links[i:j]).

        Only the links are validated: with every link in [0, 1] the product
        is the correlation of a Gauss-Markov chain, so it is symmetric,
        PSD and within [0, 1] by construction.
        """
        t = _real_array(links, "Markov links", ValidationError, ndim=1)
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValidationError("Markov links must be finite and lie in [0, 1]")
        dim = t.size + 1
        m = np.eye(dim)
        for i in range(dim - 1):
            m[i, i + 1:] = m[i + 1:, i] = np.cumprod(t[i:])
        return cls._trusted(m)

    @classmethod
    def _trusted(cls, m: NDArray[np.float64]) -> "CorrelationMatrix":
        """Wrap entries that are a correlation matrix by construction."""
        m.flags.writeable = False
        built = object.__new__(cls)
        object.__setattr__(built, "entries", m)
        return built


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues of a correlation matrix, descending order."""

    values: tuple[float, ...] = field(default=())

    def __post_init__(self):
        vals = _real_array(self.values, "eigenvalues", ValidationError, -math.inf, 1).tolist()
        if any(v < _PSD_SLACK for v in vals):
            raise ValidationError("spectrum has a significantly negative eigenvalue")
        if vals != sorted(vals, reverse=True):
            raise ValidationError("spectrum must be sorted descending")
        object.__setattr__(self, "values", tuple(vals))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def sum_squares(self) -> float:
        return math.fsum(v * v for v in self.values)


def eigenvalues_sym(m: CorrelationMatrix) -> EigenSpectrum:
    """Eigenvalues of a correlation matrix, descending (LAPACK ``eigvalsh``).

    Tiny negative values inside the PSD slack are clamped to zero.
    """
    vals = np.linalg.eigvalsh(m.entries)
    vals[(vals < 0.0) & (vals >= _PSD_SLACK * max(1.0, m.dim))] = 0.0
    return EigenSpectrum(vals[::-1])


# perfbench/tracer.py wraps this by name until ROADMAP item 1
def principal_submatrix_inverse(m: CorrelationMatrix,
                                idx: tuple[int, ...]) -> NDArray[np.float64]:
    """Inverse of the principal submatrix selected by a strictly increasing
    3- or 4-element index set.

    When the source matrix carries the Markov product structure the result
    is tridiagonal to within roundoff.
    """
    for i in idx:
        _check_count(i, "submatrix index", ValidationError, 0)
    if len(idx) not in (3, 4):
        raise ValidationError(f"index set must have size 3 or 4, got {len(idx)}")
    if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
        raise ValidationError("index set must be strictly increasing")
    if idx[-1] >= m.dim:
        raise ValidationError(f"index set {idx} out of range for dim {m.dim}")
    sub = m.entries[np.ix_(idx, idx)]
    try:
        inv = np.linalg.inv(sub)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"principal submatrix {idx} is singular") from exc
    residual = np.abs(sub @ inv - np.eye(len(idx))).max()
    if not residual < 1e-8:
        raise SingularMatrixError(
            f"principal submatrix {idx} is numerically singular "
            f"(inverse residual {residual:.2e})")
    return 0.5 * (inv + inv.T)


def subset_links(m: CorrelationMatrix, subsets: NDArray[np.intp]) -> NDArray[np.float64]:
    """Entries between consecutive members of the (validated, increasing)
    index sets that are the rows of ``subsets``, shape (S, k) -> (S, k - 1).

    For a Markov-product matrix these links determine each principal
    submatrix and its tridiagonal inverse.  Raises
    :class:`SingularMatrixError` naming the first index set with a unit
    link, whose submatrix has two equal rows.
    """
    links = m.entries[subsets[:, :-1], subsets[:, 1:]]
    unit = links == 1.0
    if unit.any():
        first = int(np.argmax(unit.any(axis=1)))
        raise SingularMatrixError(
            f"principal submatrix {tuple(subsets[first].tolist())} is singular")
    return links


def greens_fit(m: CorrelationMatrix) -> CorrelationMatrix:
    """Approximate a correlation matrix by the nearest Markov-product matrix.

    The fitted matrix has c_ij = prod(t_k, k=i..j-1) with link weights
    t_k in [0, 1], chosen by coordinate descent on the Frobenius misfit,
    initialized at the first superdiagonal.  Exact Markov-product inputs
    are returned unchanged to within rounding, so the fit is idempotent to
    within rounding.
    """
    n = m.dim
    if n <= 2:
        return m
    # scalar Python: at the sizes fitted most often (L = 5-6) numpy's
    # per-call overhead outweighs the O(L^2) arithmetic of a link update
    target = m.entries.tolist()
    t = [target[k][k + 1] for k in range(n - 1)]
    clamped = False

    def objective() -> float:
        total = 0.0
        for i in range(n):
            acc = 1.0
            for j in range(i + 1, n):
                acc *= t[j - 1]
                total += (acc - target[i][j]) ** 2
        return total

    prev_obj = objective()
    for _ in range(100):
        for k in range(n - 1):
            # A pair i <= k < j spanning link k is fitted by left[k - i] * t_k *
            # right[j - k - 1], the running products left = prod t[i..k-1] and
            # right = prod t[k+1..j-1].  The misfit is quadratic in t_k, with
            # minimum at sum left*c*right / (sum left^2 * sum right^2); both
            # sums hold the empty product 1, so the denominator is at least 1.
            left = [1.0]
            for i in range(k - 1, -1, -1):
                left.append(left[-1] * t[i])
            right = [1.0]
            for j in range(k + 1, n - 1):
                right.append(right[-1] * t[j])
            num = 0.0
            for a, la in enumerate(left):
                num += la * sum(map(mul, right, target[k - a][k + 1:]))
            tk = num / (sum(map(mul, left, left)) * sum(map(mul, right, right)))
            if tk < 0.0 or tk > 1.0:
                clamped = True
                tk = min(1.0, max(0.0, tk))
            t[k] = tk
        obj = objective()
        if prev_obj - obj <= 1e-10 * max(prev_obj, 1e-300):
            break
        prev_obj = obj

    if clamped:
        warnings.warn(
            "Markov link weights were clamped into [0, 1] during the fit",
            FitClampWarning,
            stacklevel=2,
        )
    # an array skips the array rule's scan of a Python list for bools
    return CorrelationMatrix.from_markov_links(np.array(t))


def cholesky_psd(m: CorrelationMatrix) -> NDArray[np.float64]:
    """Lower-triangular factor L with L @ L.T equal to the matrix.

    Rank-deficient inputs (for example maximal correlation) are handled by
    zeroing the columns whose pivot vanishes, which is exact for positive
    semidefinite matrices.
    """
    a = m.entries
    n = m.dim
    low = np.zeros((n, n))
    tol = 1e-12
    for k in range(n):
        d = a[k, k] - float(low[k, :k] @ low[k, :k])
        if d <= tol:
            if d < _PSD_SLACK * max(1.0, n):
                raise ValidationError(
                    f"matrix is indefinite (pivot {d:.2e} at column {k})")
            continue
        low[k, k] = math.sqrt(d)
        if k + 1 < n:
            low[k + 1:, k] = (a[k + 1:, k] - low[k + 1:, :k] @ low[k, :k]) / low[k, k]
    return low
