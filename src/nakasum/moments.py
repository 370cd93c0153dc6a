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
  its Markov-product fit) keys each subset by the links c between its
  neighbours; exponential correlation is its own chain and takes no fit.
  The outer branches of a chain a - b - c are independent
  given the middle one, and E[Z_a^2 | Z_b] = (1 - c_ab^2) + c_ab^2 Z_b^2, so
  E[Z_a^2 Z_b Z_c] and E[Z_a Z_b Z_c^2] are sums of pair moments, one 2F1
  each.  E[Z_a Z_b^2 Z_c] and the quadruples are single series whose
  parameters, those of the subset's tridiagonal inverse, are explicit in
  u = c^2 and w = 1 - c^2; no submatrix is inverted.

A fit sums its Markov series in one call whose lanes are all C(L,3)
(1, 2, 1) triples and all C(L,4) quadruples.  On a Toeplitz chain, which
every exponential one is, a subset's links depend only on its gaps, so from
L = 5 on the call takes one lane per gap pattern, C(L-1,2) + C(L-1,3) in
all, on the pattern's translate that starts at branch 0; the values are
expanded back to the subsets by index, and the sums over subsets are the
per-subset ones bit for bit.  Term k of a lane is
exp(k log q + log-gamma terms) times two factors 2F1(a0 + k, b; c; x) with
a0, b, c and x fixed per lane.  Each factor starts from two
``scipy.special.hyp2f1`` array calls and advances along k by the Gauss
contiguous relation in the first parameter (DLMF 15.5.11),
F(a + 1) = alpha F(a) + beta F(a - 1); for 0 <= x < 1 the function is the
dominant solution and forward recursion is stable.  At x = 0, where 2F1 is
1, (alpha, beta) = (1, 0), so a triple's second factor, whose x is 0, stays
exactly 1.  k advances in blocks: alpha and beta are formed for the block,
then the recursion steps through k, while the terms, the running sums, the
stop rule (the first k > 3 whose term is at most the relative tolerance
times the lane's partial sum) and the overflow check are array operations
over the block.  Every lane stops at a relative 1e-12 and raises
TruncationError past 10 000 terms.  The public per-subset routines take
one subset's links.

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

from .errors import (BoundaryError, DomainError, TruncationError, ValidationError, _check_count,
                     _check_positive, _check_rho, _real_array)
from .linalg import CorrelationMatrix, greens_fit, subset_links
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
    "w_coefficient",
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
        _check_rho(self.rho, ValidationError)

    def rho_pair(self, i: int, j: int) -> float:
        return self.rho if i != j else 1.0

    def sqrt_matrix(self, dim: int) -> CorrelationMatrix:
        return CorrelationMatrix.equal(self.rho, dim)


@dataclass(frozen=True)
class ExponentialCorrelation:
    """Correlation decays geometrically with branch separation."""

    rho: float

    def __post_init__(self):
        _check_rho(self.rho, ValidationError)

    def rho_pair(self, i: int, j: int) -> float:
        return self.rho ** abs(i - j)

    def sqrt_matrix(self, dim: int) -> CorrelationMatrix:
        return CorrelationMatrix.exponential(self.rho, dim)


@dataclass(frozen=True)
class ArbitraryCorrelation:
    """Explicit matrix of sqrt power-correlation coefficients."""

    matrix: CorrelationMatrix

    def __post_init__(self):
        if not isinstance(self.matrix, CorrelationMatrix):
            raise ValidationError(
                f"arbitrary correlation needs a CorrelationMatrix, got {type(self.matrix).__name__}")

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
        _check_count(self.fading_m, "fading parameter", ValidationError)
        powers = _real_array(self.powers, "branch powers", ValidationError, 0.0, ndim=1)
        if not powers.size:
            raise ValidationError(f"need one or more branch powers, got {self.powers!r}")
        object.__setattr__(self, "fading_m", int(self.fading_m))
        object.__setattr__(self, "powers", tuple(powers.tolist()))
        if isinstance(self.correlation, ArbitraryCorrelation):
            self.correlation.sqrt_matrix(powers.size)
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
        # entries lie in [0, 1] and the diagonal is 1
        return bool(self.correlation.matrix.entries.min() == 1.0)


@dataclass(frozen=True)
class MomentPair:
    """Second and fourth moments of the envelope sum."""

    m2: float
    m4: float

    def __post_init__(self):
        _check_positive(self.m2, "second moment", ValidationError)
        _check_positive(self.m4, "fourth moment", ValidationError)
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


def _j_identity(m: float, a: float, p: float, q: float) -> float:
    """Closed form of (1/Gamma(m)) int_0^inf u^(m-1) e^-u
    1F1(-p/2; m; -a u) 1F1(-q/2; m; -a u) du, for m > 0, a > -1/2 and
    real p and q."""
    x = -a * a / (1.0 + 2.0 * a)
    f = float(hyp2f1(m + p / 2.0, -q / 2.0, m, x))
    return (1.0 + a) ** (p / 2.0) * ((1.0 + 2.0 * a) / (1.0 + a)) ** (q / 2.0) * f


def _w211(m_z: int, rho: float) -> float:
    """W(2,1,1) reduced to four Gauss-hypergeometric terms.

    Contiguous relations on the Kummer factors of the Laplace integral
    collapse the three-variable F_A to a bracket of ``_j_identity`` values
    at the rescaled argument sqrt(rho)/(1 - sqrt(rho)); the apparent
    dependence on the variable count cancels identically.
    """
    m = float(m_z)
    sr = math.sqrt(rho)
    ap = sr * (1.0 + sr) / (1.0 - rho)
    g = _gamma_ratio(m + 0.5, m)
    bracket = (
        _j_identity(m, ap, 1, 1)
        + ap * ((m + 0.5) ** 2 / m ** 2 * _j_identity(m + 1.0, ap, 1, 1)
                - (m + 0.5) / m ** 2 * _j_identity(m + 1.0, ap, 1, -1)
                + 1.0 / (4.0 * m ** 2) * _j_identity(m + 1.0, ap, -1, -1))
    )
    return m * g * g * bracket


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
    orders = tuple(orders)
    if len(orders) < 2:
        raise DomainError(f"need at least two orders, got {len(orders)}")
    for k in orders:
        _check_count(k, "order", DomainError)
    _check_count(m_z, "fading parameter", DomainError)
    _check_rho(rho, DomainError)
    if rho == 1.0:
        raise BoundaryError("maximal correlation must be handled analytically upstream")
    if sorted(orders) == [1, 1, 2]:
        return _w211(m_z, rho)
    return _w_via_fa(orders, m_z, rho)


def _require_ratio_below_one(ratio: NDArray[np.float64]) -> None:
    if (ratio >= 1.0 - 1e-9).any():
        raise TruncationError(
            "joint-moment series ratio at or above 1; correlation is "
            "effectively maximal and must be handled analytically",
            partial=math.nan,
        )


class _Lanes(NamedTuple):
    """Lanes of the joint-moment series, one per subset: prefactor,
    geometric ratio q, 2F1 parameters a0 and b, one row of arguments x per
    2F1 factor, and the lane's log-gamma group (a column of
    ``_joint_lgam``)."""

    pref: NDArray[np.float64]
    q: NDArray[np.float64]
    a0: NDArray[np.float64]
    b: NDArray[np.float64]
    x: NDArray[np.float64]
    group: NDArray[np.intp]


# log-gamma groups: Gamma(m + k + 1/2) times Gamma(m + k + 1) for the
# (1, 2, 1) triples and Gamma(m + k + 1/2) for the quadruples
_TRIPLE_GROUP = 0
_QUAD_GROUP = 1

# (k x lane) cells per block of the joint-moment series; bounds the block
# arrays of the large-L fits (3500 lanes at L = 16)
_BLOCK_CELLS = 2 ** 13


def _joint_lgam(m: float, k0: int, rows: int) -> NDArray[np.float64]:
    """Log-gamma part of terms k0 .. k0 + rows - 1, one column per group.

    m is an integer, so lgamma(k + 1), lgamma(m + k) and lgamma(m + k + 1)
    are read from one run over the integers k0 + 1 .. k0 + m + rows."""
    n = int(m)
    ints = np.fromiter(map(math.lgamma, range(k0 + 1, k0 + n + rows + 1)), float, n + rows)
    gk, g0, g1 = ints[:rows], ints[n - 1:n - 1 + rows], ints[n:n + rows]
    gh = np.fromiter(map(math.lgamma, np.arange(rows) + (m + k0 + 0.5)), float, rows)
    return np.array([g1 + gh - g0 - gk, 2.0 * gh - gk - g0]).T


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
    # DLMF 15.5.11 as F(a+1) = alpha F(a) + beta F(a-1), a = a0 + k + 1, F
    # the dominant solution for 0 <= x < 1; coef[j] holds the weights (beta,
    # alpha) of the rows f[j:j + 2], and (0, 1) at x = 0 keeps F exactly 1
    a = a0 + np.arange(k0, k0 + rows, dtype=float)[:, None] + 1.0
    den = a[:, None] * (1.0 - x)
    coef = np.empty((rows, 2) + x.shape)
    np.divide((c - a)[:, None], den, out=coef[:, 0])
    num = (b - a)[:, None] * x
    num += (2.0 * a - c)[:, None]
    np.divide(num, den, out=coef[:, 1])
    coef[:, :, x == 0.0] = [[0.0], [1.0]]
    f = np.empty((rows + 2,) + x.shape)
    f[0], f[1] = cur, nxt
    prod = np.empty((2,) + x.shape)
    back, fwd = prod
    for j, weights in enumerate(coef):
        np.multiply(weights, f[j:j + 2], out=prod)
        np.add(back, fwd, out=f[j + 2])
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
    total = np.zeros(q.size)
    live = np.arange(q.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_q = np.log(q)
        cur, nxt = hyp2f1(a0, b, m, x), hyp2f1(a0 + 1.0, b, m, x)
        rows = _first_block_rows(q / np.prod(1.0 - x, axis=0))
        k0 = 0
        while k0 < _JOINT_MAX_TERMS:
            rows = min(rows, max(_BLOCK_CELLS // live.size, 1), _JOINT_MAX_TERMS - k0)
            f = _factor_block(cur, nxt, a0, b, m, x, k0, rows)
            term = np.arange(k0, k0 + rows, dtype=float)[:, None] * log_q
            if k0 == 0:
                term[0] = 0.0
            term += _joint_lgam(m, k0, rows)[:, group]
            np.exp(term, out=term)
            term *= f[:rows, 0]
            term *= f[:rows, 1]
            # row i: the partial sum before term k0 + i
            part = np.cumsum(np.concatenate([total[live][None], term]), axis=0)
            stop = term <= _JOINT_REL_TOL * part[1:]
            stop[:max(4 - k0, 0)] = False
            stop_at = np.where(stop.any(axis=0), stop.argmax(axis=0), rows)
            finite = np.isfinite(term)
            if not finite.all():
                bad_at = np.where(finite.all(axis=0), rows, finite.argmin(axis=0))
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
            del f, term, part, stop, finite
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


def _link_powers(links: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """u = r^2 and w = 1 - r^2 of the neighbour links r, one row per link;
    w is formed as (1 - r)(1 + r), which keeps its relative precision as
    r -> 1."""
    r = links.T
    return r * r, (1.0 - r) * (1.0 + r)


def _triple_lanes(links: NDArray[np.float64], m_z: int) -> _Lanes:
    """Lanes of E[Z_a Z_b^2 Z_c] for subsets a < b < c whose rows of
    ``links`` are (r1, r2) = (c_ab, c_bc).

    The subset's Markov-product submatrix has the tridiagonal inverse
    d11 = 1/w1, d22 = s/(w1 w2), d33 = 1/w2, d12 = -r1/w1, d23 = -r2/w2 with
    s = 1 - u1 u2 = w1 + u1 w2 and determinant 1/(w1 w2), so the series
    ratio is q = d12^2/(d11 d22) = u1 w2/s, the factor argument is
    x = d23^2/(d22 d33) = u2 w1/s and the asymptotic term ratio q/(1 - x)
    is u1.  The absent second factor has x = 0, where 2F1 is 1 and its
    recurrence keeps it at exactly 1."""
    m = float(m_z)
    (u1, u2), (w1, w2) = _link_powers(links)
    s = w1 + u1 * w2
    _require_ratio_below_one(u1)
    # det^m / ((d11 d33)^(m + 1/2) d22^(m + 1))
    pref = w1 ** (m + 1.5) * w2 ** (m + 1.5) / s ** (m + 1.0)
    pref *= math.exp(ln_gamma(m + 0.5) - 2.0 * ln_gamma(m))
    pref /= m ** 2.0
    size = len(links)
    return _Lanes(pref, u1 * w2 / s, np.full(size, m + 1.0), np.full(size, m + 0.5),
                  np.array([u2 * w1 / s, np.zeros(size)]), np.full(size, _TRIPLE_GROUP))


def _pair_moment(p: float, q: float, m: int, r: NDArray[np.float64]) -> NDArray[np.float64]:
    """E[Z_a^p Z_b^q] of two unit-power envelopes with power correlation r,
    Gamma(m + p/2) Gamma(m + q/2) / (Gamma(m)^2 m^((p + q)/2)) times
    2F1(-p/2, -q/2; m; r), for an array r."""
    coeff = math.exp(ln_gamma(m + p / 2.0) + ln_gamma(m + q / 2.0) - 2.0 * ln_gamma(m))
    return coeff / m ** ((p + q) / 2.0) * hyp2f1(-p / 2.0, -q / 2.0, m, r)


def _outer_square_triples(links: NDArray[np.float64], m_z: int) -> NDArray[np.float64]:
    """Rows E[Z_a^2 Z_b Z_c] and E[Z_a Z_b Z_c^2] for subsets a < b < c whose
    rows of ``links`` are (c_ab, c_bc).

    Z_a and Z_c are independent given the Gaussians of branch b, and
    E[Z_a^2 | Z_b] = (1 - r_ab) + r_ab Z_b^2 with r_ab = c_ab^2, so
    E[Z_a^2 Z_b Z_c] = r_ab E[Z_b^3 Z_c] + (1 - r_ab) E[Z_b Z_c]; the
    second row mirrors it."""
    u, w = _link_powers(links)
    return u * _pair_moment(3, 1, m_z, u[::-1]) + w * _pair_moment(1, 1, m_z, u[::-1])


def _quad_lanes(links: NDArray[np.float64], m_z: int) -> _Lanes:
    """Lanes of joint_moment_quad for subsets a < b < c < d whose rows of
    ``links`` are (r1, r2, r3) = (c_ab, c_bc, c_cd).

    The tridiagonal inverse has diagonal 1/w1, s1/(w1 w2), s2/(w2 w3), 1/w3
    with s1 = 1 - u1 u2 and s2 = 1 - u2 u3, off-diagonal -r_j/w_j and
    determinant 1/(w1 w2 w3); hence q = u2 w1 w3/(s1 s2), x1 = u1 w2/s1,
    x2 = u3 w2/s2 and the asymptotic term ratio q/((1 - x1)(1 - x2)) is
    u2."""
    m = float(m_z)
    (u1, u2, u3), (w1, w2, w3) = _link_powers(links)
    s1 = w1 + u1 * w2
    s2 = w3 + u3 * w2
    _require_ratio_below_one(u2)
    # det^m / (psi11 psi22 psi33 psi44)^(m + 1/2)
    pref = (w1 * w2 * w3) ** (m + 1.0) / (s1 * s2) ** (m + 0.5)
    pref *= math.exp(2.0 * ln_gamma(m + 0.5) - 3.0 * ln_gamma(m)) / m ** 2
    q = u2 * w1 * w3 / (s1 * s2)
    size = len(links)
    return _Lanes(pref, q, np.full(size, m + 0.5), np.full(size, m + 0.5),
                  np.array([u1 * w2 / s1, u3 * w2 / s2]), np.full(size, _QUAD_GROUP))


def _concat_lanes(lanes: list[_Lanes]) -> _Lanes:
    return _Lanes(*(np.concatenate(field, axis=-1) for field in zip(*lanes)))


def _checked_links(links: NDArray[np.float64], count: int) -> NDArray[np.float64]:
    """The links of one subset as a one-row array, or ValidationError."""
    links = _real_array(links, "links", ValidationError)
    if links.shape != (count,) or not np.all((links >= 0.0) & (links < 1.0)):
        raise ValidationError(f"need {count} links in [0, 1), got {links.tolist()}")
    return links[None]


def joint_moment_triple(n1: int, n2: int, n3: int, links: NDArray[np.float64],
                        m_z: int) -> float:
    """Unit-power joint moment E[Z_a^n1 Z_b^n2 Z_c^n3] for three branches
    a < b < c of a Markov-product correlation matrix, whose links between
    neighbours are ``links`` = (c_ab, c_bc).

    (2, 1, 1) and (1, 1, 2) are sums of two pair moments; (1, 2, 1) is the
    single series that serves every subset of a fit, with one lane.
    """
    if (n1, n2, n3) not in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
        raise DomainError(f"unsupported exponent triple ({n1}, {n2}, {n3})")
    _check_count(m_z, "fading parameter", DomainError)
    links = _checked_links(links, 2)
    if n2 == 2:
        return float(_joint_series(_triple_lanes(links, m_z), float(m_z))[0])
    return float(_outer_square_triples(links, m_z)[0 if n1 == 2 else 1, 0])


def joint_moment_quad(links: NDArray[np.float64], m_z: int) -> float:
    """Unit-power joint moment E[Z_a Z_b Z_c Z_d] for four branches
    a < b < c < d of a Markov-product correlation matrix, whose links
    between neighbours are ``links`` = (c_ab, c_bc, c_cd)."""
    _check_count(m_z, "fading parameter", DomainError)
    lanes = _quad_lanes(_checked_links(links, 3), m_z)
    return float(_joint_series(lanes, float(m_z))[0])


def _fourth_moment_pair_terms(spec: EnsembleSpec) -> float:
    m = spec.fading_m
    p = np.asarray(spec.powers)
    i, j = _subsets(spec.branch_count, 2).T
    rho = np.array([spec.rho(a, b) for a, b in zip(i.tolist(), j.tolist())])
    pi, pj = p[i], p[j]
    e31 = (pi ** 1.5 * np.sqrt(pj) + np.sqrt(pi) * pj ** 1.5) * _pair_moment(3, 1, m, rho)
    return float(np.sum(6.0 * pi * pj * _pair_moment(2, 2, m, rho) + 4.0 * e31))


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


def _is_toeplitz(chain: CorrelationMatrix) -> bool:
    """True when every diagonal of the matrix holds one value, bit for bit;
    a chain whose first two links differ is refused at once."""
    e = chain.entries
    return bool(e[0, 1] == e[1, 2] and (e[1:, 1:] == e[:-1, :-1]).all())


def _gap_patterns(subsets: NDArray[np.intp], L: int) -> tuple[int, NDArray[np.intp]]:
    """Representatives of the gap patterns among ``subsets``, all k-subsets
    of range(L) in lexicographic order: their count R and, per subset, the
    row of its pattern's representative.

    The representative is the pattern's translate that starts at branch 0;
    these translates are the first R = C(L - 1, k - 1) rows.  A subset is
    keyed by its offsets from its first member, read as digits base L, and
    found by a dense lookup on that key."""
    k = subsets.shape[1]
    reps = math.comb(L - 1, k - 1)
    key = (subsets[:, 1:] - subsets[:, :1]) @ L ** np.arange(k - 2, -1, -1)
    lookup = np.empty(L ** (k - 1), dtype=np.intp)
    lookup[key[:reps]] = np.arange(reps)
    return reps, lookup[key]


def _subsets(L: int, k: int) -> NDArray[np.intp]:
    """All k-subsets of range(L), one row each, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(L), k))
    return np.fromiter(flat, dtype=np.intp, count=math.comb(L, k) * k).reshape(-1, k)


def _fourth_moment_joint_markov(spec: EnsembleSpec,
                                fitted: CorrelationMatrix) -> float:
    m = spec.fading_m
    p = np.asarray(spec.powers)
    L = spec.branch_count
    # the triples, then the quads
    subsets = [_subsets(L, k) for k in range(3, min(L, 4) + 1)]
    # On a Toeplitz chain a subset's links depend only on its gaps: each gap
    # pattern is evaluated on its representative and expanded back to every
    # subset by index, so the sums below are the per-subset sums bit for
    # bit.  At L = 4 the patterns save one lane of five, less than the
    # lookup costs.
    if L >= 5 and _is_toeplitz(fitted):
        groups = [_gap_patterns(s, L) for s in subsets]
    else:
        groups = [(len(s), slice(None)) for s in subsets]
    links = [subset_links(fitted, s[:reps]) for s, (reps, _) in zip(subsets, groups)]
    lanes = [_triple_lanes(links[0], m)] + [_quad_lanes(q, m) for q in links[1:]]
    # one series call: the (1, 2, 1) triples, then the quads
    series = _joint_series(_concat_lanes(lanes), float(m))
    n3, at3 = groups[0]
    t121 = series[:n3][at3]
    t211, t112 = _outer_square_triples(links[0], m)[:, at3]
    pa, pb, pc = p[subsets[0]].T
    total = 12.0 * np.sum(pa * np.sqrt(pb * pc) * t211
                          + np.sqrt(pa) * pb * np.sqrt(pc) * t121
                          + np.sqrt(pa * pb) * pc * t112)
    if L >= 4:
        tquad = series[n3:][groups[1][1]]
        total += 24.0 * np.sum(np.sqrt(np.prod(p[subsets[1]], axis=1)) * tquad)
    return float(total)


def fourth_moment_Z(spec: EnsembleSpec) -> float:
    """E[Z^4] of the envelope sum.

    Pairwise contributions use the exact correlation coefficients of the
    input model; the three- and four-branch joint moments use the equal
    correlation coefficients for the equal model, the exponential model's
    own Markov chain, and otherwise the Markov-product fit of the
    correlation matrix.
    """
    return _fourth_moment_Z(spec, _markov_fit(spec))


def _markov_fit(spec: EnsembleSpec) -> CorrelationMatrix | None:
    """The Markov-product matrix that drives the joint moments: exponential
    correlation's own chain, taken with no fit, or an arbitrary matrix's
    fit; None when the equal-correlation coefficients or maximal
    correlation apply.  A link that puts a triple's series ratio within 1e-9
    of 1 raises TruncationError here, before any moment is summed."""
    if spec.is_maximal() or isinstance(spec.correlation, EqualCorrelation):
        return None
    matrix = spec.sqrt_corr_matrix()
    chain = matrix if isinstance(spec.correlation, ExponentialCorrelation) else greens_fit(matrix)
    # a triple's ratio is its first link squared, at most its first neighbour
    # link's, never the last one's; a unit link is left to subset_links
    links = np.diagonal(chain.entries, 1)
    if not (links == 1.0).any():
        _require_ratio_below_one(links[:-1] * links[:-1])
    return chain


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
