"""Small dense symmetric-matrix kernel for branch correlation matrices.

A correlation matrix holds the square roots of the pairwise power
correlation coefficients (unit diagonal, entries in [0, 1], positive
semidefinite).  The module provides eigenvalues (LAPACK), stacked inverses
of principal submatrices, a semidefinite Cholesky factorization used by
the sampler, and a Markov-product ("Green's matrix") approximation of an
arbitrary correlation matrix, under which every principal-submatrix
inverse is tridiagonal.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import FitClampWarning, SingularMatrixError, ValidationError

__all__ = [
    "CorrelationMatrix",
    "EigenSpectrum",
    "eigenvalues_sym",
    "principal_submatrix_inverse",
    "principal_submatrix_inverses",
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
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"correlation matrix must be square, got {m.shape}")
        if m.shape[0] < 1:
            raise ValidationError("correlation matrix must be at least 1x1")
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
        return cls(np.eye(dim))

    @classmethod
    def equal(cls, rho: float, dim: int) -> "CorrelationMatrix":
        if not 0.0 <= rho <= 1.0:
            raise ValidationError(f"rho must lie in [0, 1], got {rho}")
        m = np.full((dim, dim), math.sqrt(rho))
        np.fill_diagonal(m, 1.0)
        return cls(m)

    @classmethod
    def exponential(cls, rho: float, dim: int) -> "CorrelationMatrix":
        if not 0.0 <= rho <= 1.0:
            raise ValidationError(f"rho must lie in [0, 1], got {rho}")
        idx = np.arange(dim)
        m = math.sqrt(rho) ** np.abs(idx[:, None] - idx[None, :])
        return cls(m)

    @classmethod
    def from_markov_links(cls, links: NDArray[np.float64]) -> "CorrelationMatrix":
        """Build the Markov-product matrix c_ij = prod(links[i:j])."""
        t = np.asarray(links, dtype=float)
        dim = t.size + 1
        m = np.eye(dim)
        for i in range(dim - 1):
            m[i, i + 1:] = m[i + 1:, i] = np.cumprod(t[i:])
        return cls(m)


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues of a correlation matrix, descending order."""

    values: tuple[float, ...] = field(default=())

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v < _PSD_SLACK for v in vals):
            raise ValidationError("spectrum has a significantly negative eigenvalue")
        if list(vals) != sorted(vals, reverse=True):
            raise ValidationError("spectrum must be sorted descending")
        object.__setattr__(self, "values", vals)

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
    return EigenSpectrum(tuple(vals[::-1]))


def principal_submatrix_inverse(m: CorrelationMatrix,
                                idx: tuple[int, ...]) -> NDArray[np.float64]:
    """Inverse of the principal submatrix selected by a strictly increasing
    3- or 4-element index set.

    When the source matrix carries the Markov product structure the result
    is tridiagonal to within roundoff.
    """
    idx = tuple(int(i) for i in idx)
    if len(idx) not in (3, 4):
        raise ValidationError(f"index set must have size 3 or 4, got {len(idx)}")
    if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
        raise ValidationError("index set must be strictly increasing")
    if idx[0] < 0 or idx[-1] >= m.dim:
        raise ValidationError(f"index set {idx} out of range for dim {m.dim}")
    return principal_submatrix_inverses(m, np.array([idx]))[0]


def principal_submatrix_inverses(m: CorrelationMatrix,
                                 subsets: NDArray[np.intp]) -> NDArray[np.float64]:
    """Stacked inverses of the principal submatrices whose (validated)
    index sets are the rows of ``subsets``, shape (S, k) -> (S, k, k).

    Raises :class:`SingularMatrixError` naming the first index set whose
    submatrix is singular or whose inverse residual reaches 1e-8.
    """
    subs = m.entries[subsets[:, :, None], subsets[:, None, :]]
    try:
        inv = np.linalg.inv(subs)
    except np.linalg.LinAlgError:
        for idx, sub in zip(subsets, subs):
            try:
                np.linalg.inv(sub)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"principal submatrix {tuple(idx.tolist())} is singular") from exc
        raise
    # in place: C(16,4) stacked 4x4 arrays take a quarter megabyte each
    residual = subs @ inv
    residual -= np.eye(subsets.shape[1])
    residual = np.abs(residual, out=residual).max(axis=(1, 2))
    bad = ~(residual < 1e-8)
    if bad.any():
        first = int(np.argmax(bad))
        raise SingularMatrixError(
            f"principal submatrix {tuple(subsets[first].tolist())} is numerically "
            f"singular (inverse residual {residual[first]:.2e})")
    inv += inv.transpose(0, 2, 1)
    inv *= 0.5
    return inv


def greens_fit(m: CorrelationMatrix) -> CorrelationMatrix:
    """Approximate a correlation matrix by the nearest Markov-product matrix.

    The fitted matrix has c_ij = prod(t_k, k=i..j-1) with link weights
    t_k in [0, 1], chosen by coordinate descent on the Frobenius misfit,
    initialized at the first superdiagonal.  Exact Markov-product inputs
    (exponential correlation in particular) are returned unchanged, which
    makes the fit idempotent.
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
                row = target[k - a]
                num += la * sum(rb * row[k + 1 + b] for b, rb in enumerate(right))
            tk = num / (sum(la * la for la in left) * sum(rb * rb for rb in right))
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
    return CorrelationMatrix.from_markov_links(t)


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
