"""Exact second and fourth moments of a sum of correlated Nakagami-m
envelopes.

The second moment is available in closed form for any pairwise power
correlation.  The fourth moment additionally needs joint moments of three
and four envelopes:

* equal correlation uses coefficients W(...): the Laplace integral of
  the Lauricella F_A function summed by the exp-sinh rule of ``specfun``,
  with the W(2, 1, 1) case reduced to four Gauss-hypergeometric terms;
  1 - sqrt(rho) is always formed as (1 - rho)/(1 + sqrt(rho)), which keeps
  its relative precision as rho -> 1;
* Markov-structured correlation (exponential, or an arbitrary matrix after
  its Markov-product fit) uses single-series expansions driven by the
  tridiagonal inverses of 3x3 and 4x4 principal submatrices.

A fit sums its Markov series in one call whose lanes are all C(L,3)
triples (once per exponent pattern) and all C(L,4) quadruples.  Term k of
a lane is exp(k log q + log-gamma terms) times two factors
2F1(a0 + k, b; c; x) with a0, b, c and x fixed per lane; a triple's second
factor has x = 0 and stays exactly 1.  Each factor starts from two values
of one ``scipy.special.hyp2f1`` array call and advances along k by the
Gauss contiguous relation in the first parameter (DLMF 15.5.11); for
0 <= x < 1 the function is the dominant solution and forward recursion is
stable.  k advances in blocks: the recursion steps through k, while the
terms, the running sums, the stop rule (the first k > 3 whose term is at
most the relative tolerance times the lane's partial sum) and the
overflow check are array operations over the block.  Every lane stops
at a relative 1e-12 and raises TruncationError past 10 000 terms.  The
public per-subset routines are the same evaluation with one lane.

Joint-moment routines take unit-power envelopes; the fourth-moment
assembly supplies the power prefactors explicitly.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from numpy.typing import NDArray
from scipy.special import hyp2f1

from .errors import BoundaryError, DomainError, TruncationError, ValidationError
from .linalg import CorrelationMatrix, greens_fit, principal_submatrix_inverses
from .specfun import _kummer_laplace, gauss_2f1, ln_gamma

__all__ = [
    "EqualCorrelation",
    "ExponentialCorrelation",
    "ArbitraryCorrelation",
    "CorrelationModel",
    "EnsembleSpec",
    "MomentPair",
    "second_moment_Z",
    "fourth_moment_Z",
    "moment_pair",
    "w_coefficient",
    "w211_reduced",
    "j_identity",
    "joint_moment_triple",
    "joint_moment_quad",
]

# Joint-moment series stop rule and term budget, read at call time; the
# geometric ratio approaches 1 only as the correlation approaches its
# maximum, which is bypassed analytically.
_JOINT_REL_TOL = 1e-12
_JOINT_MAX_TERMS = 10_000


@dataclass(frozen=True)
class EqualCorrelation:
    """All branch pairs share one power correlation coefficient."""

    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must lie in [0, 1], got {self.rho}")

    def rho_pair(self, i: int, j: int) -> float:
        return self.rho if i != j else 1.0

    def sqrt_matrix(self, dim: int) -> CorrelationMatrix:
        return CorrelationMatrix.equal(self.rho, dim)


@dataclass(frozen=True)
class ExponentialCorrelation:
    """Correlation decays geometrically with branch separation."""

    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must lie in [0, 1], got {self.rho}")

    def rho_pair(self, i: int, j: int) -> float:
        return self.rho ** abs(i - j)

    def sqrt_matrix(self, dim: int) -> CorrelationMatrix:
        return CorrelationMatrix.exponential(self.rho, dim)


@dataclass(frozen=True)
class ArbitraryCorrelation:
    """Explicit matrix of sqrt power-correlation coefficients."""

    matrix: CorrelationMatrix

    def rho_pair(self, i: int, j: int) -> float:
        return float(self.matrix.entries[i, j] ** 2)

    def sqrt_matrix(self, dim: int) -> CorrelationMatrix:
        if dim != self.matrix.dim:
            raise ValidationError(
                f"correlation matrix dim {self.matrix.dim} != branch count {dim}")
        return self.matrix


CorrelationModel = Union[EqualCorrelation, ExponentialCorrelation, ArbitraryCorrelation]


@dataclass(frozen=True)
class EnsembleSpec:
    """Physical model: branch powers, common integer fading parameter, and
    the pairwise power-correlation model."""

    fading_m: int
    powers: tuple[float, ...]
    correlation: CorrelationModel

    def __post_init__(self):
        if not (isinstance(self.fading_m, (int, np.integer)) and self.fading_m >= 1):
            raise ValidationError(
                f"fading parameter must be a positive integer, got {self.fading_m}")
        powers = tuple(float(p) for p in self.powers)
        if len(powers) < 1:
            raise ValidationError("at least one branch is required")
        if not all(0 < p < math.inf for p in powers):
            raise ValidationError("branch powers must be finite and positive")
        object.__setattr__(self, "fading_m", int(self.fading_m))
        object.__setattr__(self, "powers", powers)
        if isinstance(self.correlation, ArbitraryCorrelation):
            if self.correlation.matrix.dim != len(powers):
                raise ValidationError(
                    "correlation matrix dimension does not match branch count")
        elif not isinstance(self.correlation,
                            (EqualCorrelation, ExponentialCorrelation)):
            raise ValidationError(
                f"unknown correlation model {type(self.correlation).__name__}")

    @property
    def branch_count(self) -> int:
        return len(self.powers)

    def rho(self, i: int, j: int) -> float:
        return self.correlation.rho_pair(i, j)

    def sqrt_corr_matrix(self) -> CorrelationMatrix:
        return self.correlation.sqrt_matrix(self.branch_count)

    def is_maximal(self) -> bool:
        """True when every pair is fully power-correlated."""
        if self.branch_count == 1:
            return False
        if isinstance(self.correlation, (EqualCorrelation, ExponentialCorrelation)):
            return self.correlation.rho == 1.0
        off = self.correlation.matrix.entries[
            ~np.eye(self.branch_count, dtype=bool)]
        return bool(np.all(off == 1.0))


@dataclass(frozen=True)
class MomentPair:
    """Second and fourth moments of the envelope sum."""

    m2: float
    m4: float

    def __post_init__(self):
        if not (self.m2 > 0 and self.m4 > 0):
            raise ValidationError("moments must be positive")
        if not self.m4 > self.m2 ** 2:
            raise ValidationError(
                f"fourth moment {self.m4} must exceed squared second moment "
                f"{self.m2 ** 2}")


def _gamma_ratio(num: float, den: float) -> float:
    return math.exp(ln_gamma(num) - ln_gamma(den))


def second_moment_Z(spec: EnsembleSpec) -> float:
    """E[Z^2] of the envelope sum."""
    m = spec.fading_m
    powers = spec.powers
    if spec.is_maximal():
        return math.fsum(math.sqrt(p) for p in powers) ** 2
    coeff = 2.0 * _gamma_ratio(m + 0.5, m) ** 2 / m
    pairs = list(itertools.combinations(range(spec.branch_count), 2))
    rho = [spec.rho(i, j) for i, j in pairs]
    # one series per distinct rho; the pair terms keep their order
    f21 = {r: gauss_2f1(-0.5, -0.5, m, r) for r in set(rho)}
    cross = 0.0
    for (i, j), r in zip(pairs, rho):
        cross += math.sqrt(powers[i] * powers[j]) * f21[r]
    return math.fsum(powers) + coeff * cross


def j_identity(m: float, a: float, p: float, q: float) -> float:
    """Closed form of (1/Gamma(m)) int_0^inf u^(m-1) e^-u
    1F1(-p/2; m; -a u) 1F1(-q/2; m; -a u) du."""
    if m <= 0:
        raise DomainError(f"j_identity requires m > 0, got {m}")
    if a <= -0.5:
        raise DomainError(f"j_identity requires a > -1/2, got {a}")
    x = -a * a / (1.0 + 2.0 * a)
    f = float(hyp2f1(m + p / 2.0, -q / 2.0, m, x))
    return (1.0 + a) ** (p / 2.0) * ((1.0 + 2.0 * a) / (1.0 + a)) ** (q / 2.0) * f


def w211_reduced(m_z: int, rho: float) -> float:
    """W(2,1,1) reduced to four Gauss-hypergeometric terms.

    Contiguous relations on the Kummer factors of the Laplace integral
    collapse the three-variable F_A to a bracket of j_identity values at
    the rescaled argument sqrt(rho)/(1 - sqrt(rho)); the apparent
    dependence on the variable count cancels identically.
    """
    _validate_w_args(m_z, rho)
    m = float(m_z)
    sr = math.sqrt(rho)
    ap = sr * (1.0 + sr) / (1.0 - rho)
    g = _gamma_ratio(m + 0.5, m)
    bracket = (
        j_identity(m, ap, 1, 1)
        + ap * ((m + 0.5) ** 2 / m ** 2 * j_identity(m + 1.0, ap, 1, 1)
                - (m + 0.5) / m ** 2 * j_identity(m + 1.0, ap, 1, -1)
                + 1.0 / (4.0 * m ** 2) * j_identity(m + 1.0, ap, -1, -1))
    )
    return m * g * g * bracket


def _validate_w_args(m_z: int, rho: float) -> None:
    if not (isinstance(m_z, (int, np.integer)) and m_z >= 1):
        raise DomainError(f"fading parameter must be a positive integer, got {m_z}")
    if rho == 1.0:
        raise BoundaryError(
            "maximal correlation must be handled analytically upstream")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")


def _w_via_fa(orders: tuple[int, ...], m_z: int, rho: float) -> float:
    """W coefficient through the Laplace integral of the Lauricella F_A.

    (1/Gamma(m)) int_0^inf u^(m-1) e^-u prod_i 1F1(-k_i/2; m; -alpha u) du,
    alpha = sqrt(rho)/(1 - sqrt(rho)), is F_A's integral with F_A's
    prefactor and (1 - sum(x))^-m cancelled analytically, so no
    1 - sum(x) is formed.
    """
    m = float(m_z)
    sr = math.sqrt(rho)
    alpha = sr * (1.0 + sr) / (1.0 - rho)
    pref = math.exp(math.fsum(ln_gamma(m + k / 2.0) - ln_gamma(m) for k in orders)
                    - ln_gamma(m))
    factors = Counter((-k / 2.0, m, alpha) for k in orders)
    return pref * _kummer_laplace(m, factors)


def w_coefficient(orders: tuple[int, ...], m_z: int, rho: float) -> float:
    """Joint-moment coefficient W(k_1, ..., k_N) for equal correlation.

    The (2, 1, 1) case dispatches to its hypergeometric reduction; all
    other orders evaluate the Laplace integral of the Lauricella F_A
    function.
    """
    orders = tuple(int(k) for k in orders)
    if len(orders) < 2:
        raise DomainError(f"need at least two orders, got {len(orders)}")
    if any(k < 1 for k in orders):
        raise DomainError("orders must be positive integers")
    _validate_w_args(m_z, rho)
    if sorted(orders) == [1, 1, 2]:
        return w211_reduced(m_z, rho)
    return _w_via_fa(orders, m_z, rho)


def _require_tridiagonal(mats: NDArray[np.float64], name: str) -> None:
    rows, cols = np.triu_indices(mats.shape[-1], 2)
    band = mats[:, rows, cols]
    scale = np.maximum(mats.max(axis=(1, 2)), -mats.min(axis=(1, 2)))
    bad = np.abs(band) > 1e-8 * scale[:, None]
    if bad.any():
        s, e = np.argwhere(bad)[0]
        raise ValidationError(
            f"{name} must be tridiagonal (entry ({rows[e]},{cols[e]}) is "
            f"{band[s, e]:.3e}); only Markov-structured correlation "
            "admits this expansion")


def _require_ratio_below_one(ratio: NDArray[np.float64]) -> None:
    if np.any(ratio >= 1.0 - 1e-9):
        raise TruncationError(
            "joint-moment series ratio at or above 1; correlation is "
            "effectively maximal and must be handled analytically",
            partial=math.nan,
        )


class _Lanes(NamedTuple):
    """Lanes of the joint-moment series, one per subset and exponent
    pattern: prefactor, geometric ratio q, 2F1 parameters a0 and b, one row
    of arguments x per 2F1 factor, and the lane's log-gamma group (a column
    of ``_joint_lgam``)."""

    pref: NDArray[np.float64]
    q: NDArray[np.float64]
    a0: NDArray[np.float64]
    b: NDArray[np.float64]
    x: NDArray[np.float64]
    group: NDArray[np.intp]


_TRIPLE_PATTERNS = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
# log-gamma groups: (2,1,1) and (1,2,1) add the same two log-gammas
_TRIPLE_GROUP = {(2, 1, 1): 0, (1, 2, 1): 0, (1, 1, 2): 1}
_QUAD_GROUP = 2

# (k x lane) cells per block of the joint-moment series; bounds the block
# arrays of the large-L fits (3500 lanes at L = 16)
_BLOCK_CELLS = 2 ** 13


def _joint_lgam(m: float, k0: int, rows: int) -> NDArray[np.float64]:
    """Log-gamma part of terms k0 .. k0 + rows - 1, one column per group."""
    ks = range(k0, k0 + rows)
    g0 = np.array([math.lgamma(m + k) for k in ks])
    gh = np.array([math.lgamma(m + k + 0.5) for k in ks])
    g1 = np.array([math.lgamma(m + k + 1.0) for k in ks])
    gk = np.array([math.lgamma(k + 1.0) for k in ks])
    return np.stack([g1 + gh - g0 - gk, gh + gh - g0 - gk, 2.0 * gh - gk - g0], axis=1)


def _first_block_rows(ratio: NDArray[np.float64]) -> int:
    """Terms to the stop rule predicted from the lanes' largest asymptotic
    term ratio q / prod(1 - x_j).  The term falls like k ratio^k, so n
    solves n ratio^n = _JOINT_REL_TOL to first order; the margin covers the
    stop indices of the benchmark's fits, and a lane that needs more
    terms goes on in the next block."""
    r = float(ratio.max())
    if not 0.0 < r < 1.0:
        return 8
    n = max(math.log(_JOINT_REL_TOL) / math.log(r), 1.0)
    return max(int(1.1 * (math.log(_JOINT_REL_TOL) - math.log(n)) / math.log(r)) + 4, 8)


def _factor_block(cur: NDArray[np.float64], nxt: NDArray[np.float64], a0: NDArray[np.float64],
                  b: NDArray[np.float64], c: float, x: NDArray[np.float64], k0: int,
                  rows: int) -> NDArray[np.float64]:
    """2F1(a0 + k, b; c; x) for k = k0 .. k0 + rows + 1, one row per k,
    from the rows ``cur`` (k0) and ``nxt`` (k0 + 1)."""
    # DLMF 15.5.11: F(a+1) from F(a) and F(a-1), here a = a0 + k + 1;
    # F is the dominant solution for 0 <= x < 1
    a = a0 + np.arange(k0, k0 + rows, dtype=float)[:, None] + 1.0
    fwd = (b - a)[:, None] * x
    fwd += (2.0 * a - c)[:, None]
    back = (c - a)[:, None]
    den = a[:, None] * (1.0 - x)
    f = np.empty((rows + 2,) + x.shape)
    f[0], f[1] = cur, nxt
    tmp = np.empty(x.shape)
    for j in range(rows):
        np.multiply(fwd[j], f[j + 1], out=f[j + 2])
        f[j + 2] += np.multiply(back[j], f[j], out=tmp)
        f[j + 2] /= den[j]
    return f


def _joint_series(lanes: _Lanes, m: float) -> NDArray[np.float64]:
    """pref * sum_k exp(k log q + lgam_g(k)) prod_j 2F1(a0 + k, b; m; x_j)
    for every lane at once, g being the lane's log-gamma group.

    Each lane stops at its first k > 3 whose term is at most
    ``_JOINT_REL_TOL`` times its partial sum; a non-finite term at or before
    a lane's stop raises, and so does a lane still live after
    ``_JOINT_MAX_TERMS`` terms.  k advances in blocks of at most
    ``_BLOCK_CELLS`` (k x lane) cells.  Within a block only the contiguous recurrence of
    the 2F1 factors steps through k; the terms, the running sums (added in
    order of k), the stop rule and the overflow check are array operations
    over the block.
    """
    pref, q, a0, b, x, group = lanes
    c = m
    total = np.zeros(q.size)
    live = np.arange(q.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_q = np.log(q)
        cur, nxt = hyp2f1(a0, b, c, x), hyp2f1(a0 + 1.0, b, c, x)
        rows = _first_block_rows(q / np.prod(1.0 - x, axis=0))
        k0 = 0
        while k0 < _JOINT_MAX_TERMS:
            rows = min(rows, max(_BLOCK_CELLS // live.size, 1), _JOINT_MAX_TERMS - k0)
            f = _factor_block(cur, nxt, a0, b, c, x, k0, rows)
            k = np.arange(k0, k0 + rows, dtype=float)[:, None]
            term = k * log_q
            if k0 == 0:
                term[0] = 0.0
            term += _joint_lgam(m, k0, rows)[:, group]
            np.exp(term, out=term)
            for factor in f[:rows].transpose(1, 0, 2):
                term *= factor
            # row i: the partial sum before term k0 + i
            part = np.cumsum(np.concatenate([total[live][None], term]), axis=0)
            stop = (term <= _JOINT_REL_TOL * part[1:]) & (k > 3)
            stop_at = np.where(stop.any(axis=0), stop.argmax(axis=0), rows)
            bad = ~np.isfinite(term)
            bad_at = np.where(bad.any(axis=0), bad.argmax(axis=0), rows)
            fails = (bad_at < rows) & (bad_at <= stop_at)
            if fails.any():
                col = np.argmin(np.where(fails, bad_at, rows))
                raise TruncationError(
                    "joint-moment series term overflowed; the correlation is "
                    "too close to maximal for this expansion in double precision",
                    partial=float(pref[live[col]] * part[bad_at[col], col]),
                )
            total[live] = part[np.minimum(stop_at + 1, rows), np.arange(live.size)]
            keep = stop_at == rows
            if not keep.any():
                return pref * total
            live, log_q, a0, b, group = live[keep], log_q[keep], a0[keep], b[keep], group[keep]
            x, cur, nxt = x[:, keep], f[rows][:, keep], f[rows + 1][:, keep]
            # release this block's arrays before the next is allocated
            del f, term, part, stop, bad
            k0 += rows
            # a lane past the prediction gets blocks that grow with k, so a
            # slow lane costs few blocks and overshoots its stop by little
            rows = max(k0 // 4, 8)
    summing = log_q > -np.inf
    if not summing.any():
        # q = 0 leaves the k = 0 term alone, however short the budget
        return pref * total
    lane = live[np.argmax(summing)]
    raise TruncationError(
        f"joint-moment series did not converge in {_JOINT_MAX_TERMS} terms",
        partial=float(pref[lane] * total[lane]),
    )


def _triple_lanes(patterns: tuple[tuple[int, int, int], ...],
                  deltas: NDArray[np.float64], m_z: int) -> _Lanes:
    """Lanes of joint_moment_triple for a stack of 3x3 tridiagonal inverses,
    pattern by pattern.  The absent second factor has x = 0, where 2F1 is 1
    and its recurrence keeps it at exactly 1."""
    _require_tridiagonal(deltas, "delta")
    m = float(m_z)
    d11, d22, d33 = deltas[:, 0, 0], deltas[:, 1, 1], deltas[:, 2, 2]
    d12, d23 = deltas[:, 0, 1], deltas[:, 1, 2]
    det = np.linalg.det(deltas)
    q = d12 * d12 / (d11 * d22)
    x = d23 * d23 / (d22 * d33)
    _require_ratio_below_one(q / np.maximum(1.0 - x, 1e-300))
    size = len(deltas)
    lanes = []
    for n1, n2, n3 in patterns:
        pref = det ** m / (
            d11 ** (m + n1 / 2.0) * d22 ** (m + n2 / 2.0) * d33 ** (m + n3 / 2.0))
        pref *= math.exp(ln_gamma(m + n3 / 2.0) - 2.0 * ln_gamma(m))
        pref /= m ** ((n1 + n2 + n3) / 2.0)
        lanes.append(_Lanes(pref, q, np.full(size, m + n2 / 2.0), np.full(size, m + n3 / 2.0),
                            np.stack([x, np.zeros(size)]),
                            np.full(size, _TRIPLE_GROUP[n1, n2, n3])))
    return _concat_lanes(lanes)


def _quad_lanes(psis: NDArray[np.float64], m_z: int) -> _Lanes:
    """Lanes of joint_moment_quad for a stack of 4x4 tridiagonal inverses."""
    _require_tridiagonal(psis, "psi")
    m = float(m_z)
    p11, p22, p33, p44 = (psis[:, i, i] for i in range(4))
    p12, p23, p34 = psis[:, 0, 1], psis[:, 1, 2], psis[:, 2, 3]
    pref = np.linalg.det(psis) ** m / (p11 * p22 * p33 * p44) ** (m + 0.5)
    pref *= math.exp(2.0 * ln_gamma(m + 0.5) - 3.0 * ln_gamma(m)) / m ** 2
    q = p23 * p23 / (p22 * p33)
    x1 = p12 * p12 / (p11 * p22)
    x2 = p34 * p34 / (p33 * p44)
    _require_ratio_below_one(q / np.maximum((1.0 - x1) * (1.0 - x2), 1e-300))
    size = len(psis)
    return _Lanes(pref, q, np.full(size, m + 0.5), np.full(size, m + 0.5),
                  np.stack([x1, x2]), np.full(size, _QUAD_GROUP))


def _concat_lanes(lanes: list[_Lanes]) -> _Lanes:
    return _Lanes(*(np.concatenate(field, axis=-1) for field in zip(*lanes)))


def joint_moment_triple(n1: int, n2: int, n3: int, delta: NDArray[np.float64],
                        m_z: int) -> float:
    """Unit-power joint moment E[Z_a^n1 Z_b^n2 Z_c^n3] for three branches
    whose 3x3 sqrt-correlation submatrix has the tridiagonal inverse
    ``delta``.

    Single series over k with one Gauss-hypergeometric factor per term;
    the term ratio is geometric with ratio delta_12^2/(delta_11 delta_22).
    """
    if (n1, n2, n3) not in _TRIPLE_PATTERNS:
        raise DomainError(f"unsupported exponent triple ({n1}, {n2}, {n3})")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (3, 3):
        raise ValidationError(f"delta must be 3x3, got {delta.shape}")
    lanes = _triple_lanes(((n1, n2, n3),), delta[None], m_z)
    return float(_joint_series(lanes, float(m_z))[0])


def joint_moment_quad(psi: NDArray[np.float64], m_z: int) -> float:
    """Unit-power joint moment E[Z_a Z_b Z_c Z_d] for four branches whose
    4x4 sqrt-correlation submatrix has the tridiagonal inverse ``psi``."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (4, 4):
        raise ValidationError(f"psi must be 4x4, got {psi.shape}")
    return float(_joint_series(_quad_lanes(psi[None], m_z), float(m_z))[0])


def _fourth_moment_pair_terms(spec: EnsembleSpec) -> float:
    m = spec.fading_m
    powers = spec.powers
    c2 = 6.0 * _gamma_ratio(m + 1.0, m) ** 2 / m ** 2
    c3 = 4.0 * math.exp(
        ln_gamma(m + 1.5) + ln_gamma(m + 0.5) - 2.0 * ln_gamma(m)) / m ** 2
    pairs = list(itertools.combinations(range(spec.branch_count), 2))
    rho = [spec.rho(i, j) for i, j in pairs]
    f3 = hyp2f1(-1.5, -0.5, m, np.array(rho)).tolist()
    t2 = 0.0
    t3 = 0.0
    for (i, j), rij, f3ij in zip(pairs, rho, f3):
        # 2F1(-1, -1; m; rij) terminates after its linear term
        t2 += powers[i] * powers[j] * (1.0 + rij / m)
        t3 += (powers[i] ** 1.5 * powers[j] ** 0.5 +
               powers[i] ** 0.5 * powers[j] ** 1.5) * f3ij
    return c2 * t2 + c3 * t3


def _fourth_moment_joint_equal(spec: EnsembleSpec) -> float:
    m = spec.fading_m
    rho = spec.correlation.rho
    p_max = max(spec.powers)
    # With s_i = sqrt(p_i / p_max) and e_r the r-th elementary symmetric sum
    # of s, a triple's weight pa sqrt(pb pc) + sqrt(pa) pb sqrt(pc) +
    # sqrt(pa pb) pc is p_max^2 s_a s_b s_c (s_a + s_b + s_c); over all triples
    # these sum to e1 e3 - 4 e4, since e1 e3 also counts every quadruple once
    # per member.  The quadruple weights sqrt(pa pb pc pd) sum to p_max^2 e4.
    # Dividing by p_max keeps the weights exact when every power is scaled by
    # a power of two.
    e = [1.0, 0.0, 0.0, 0.0, 0.0]
    for p in spec.powers:
        s = math.sqrt(p / p_max)
        for r in (4, 3, 2, 1):
            e[r] += s * e[r - 1]
    scale = ((1.0 - rho) / (1.0 + math.sqrt(rho)) / m) ** 2
    total = 12.0 * scale * w_coefficient((2, 1, 1), m, rho) * (e[1] * e[3] - 4.0 * e[4])
    if spec.branch_count >= 4:
        total += 24.0 * scale * w_coefficient((1, 1, 1, 1), m, rho) * e[4]
    return p_max * p_max * total


def _fourth_moment_joint_markov(spec: EnsembleSpec,
                                fitted: CorrelationMatrix) -> float:
    m = spec.fading_m
    p = np.asarray(spec.powers)
    L = spec.branch_count
    triples = np.array(list(itertools.combinations(range(L), 3)))
    lanes = [_triple_lanes(_TRIPLE_PATTERNS, principal_submatrix_inverses(fitted, triples), m)]
    if L >= 4:
        quads = np.array(list(itertools.combinations(range(L), 4)))
        lanes.append(_quad_lanes(principal_submatrix_inverses(fitted, quads), m))
    # one series call: the three triple patterns over all subsets, then the quads
    series = _joint_series(_concat_lanes(lanes), float(m))
    t211, t121, t112, tquad = np.split(series, [len(triples), 2 * len(triples),
                                                3 * len(triples)])
    pa, pb, pc = p[triples].T
    total = 12.0 * np.sum(pa * np.sqrt(pb * pc) * t211
                          + np.sqrt(pa) * pb * np.sqrt(pc) * t121
                          + np.sqrt(pa * pb) * pc * t112)
    if L >= 4:
        total += 24.0 * np.sum(np.sqrt(np.prod(p[quads], axis=1)) * tquad)
    return float(total)


def fourth_moment_Z(spec: EnsembleSpec) -> float:
    """E[Z^4] of the envelope sum.

    Pairwise contributions use the exact correlation coefficients of the
    input model; the three- and four-branch joint moments use the equal
    correlation coefficients for the equal model and otherwise the
    Markov-product fit of the correlation matrix (an identity operation
    for exponential correlation).
    """
    return _fourth_moment_Z(spec, _markov_fit(spec))


def _markov_fit(spec: EnsembleSpec) -> CorrelationMatrix | None:
    """The Markov-product fit that drives the joint moments, or None when
    the equal-correlation coefficients or maximal correlation apply."""
    if spec.is_maximal() or isinstance(spec.correlation, EqualCorrelation):
        return None
    return greens_fit(spec.sqrt_corr_matrix())


def _fourth_moment_Z(spec: EnsembleSpec, fitted: CorrelationMatrix | None) -> float:
    """fourth_moment_Z given ``_markov_fit(spec)``."""
    m = spec.fading_m
    powers = spec.powers
    if spec.is_maximal():
        return (m + 1.0) / m * math.fsum(math.sqrt(p) for p in powers) ** 4
    total = (m + 1.0) / m * math.fsum(p * p for p in powers)
    total += _fourth_moment_pair_terms(spec)
    if spec.branch_count >= 3:
        if fitted is None:
            total += _fourth_moment_joint_equal(spec)
        else:
            total += _fourth_moment_joint_markov(spec, fitted)
    return total


def moment_pair(spec: EnsembleSpec) -> MomentPair:
    """Second and fourth moments bundled with their consistency check."""
    return MomentPair(m2=second_moment_Z(spec), m4=fourth_moment_Z(spec))
