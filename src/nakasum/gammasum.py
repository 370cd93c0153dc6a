"""Distribution of the fitted Gamma-sum proxy: MGF, envelope PDF, and the
CDF of the squared envelope.

The squared proxy envelope is a sum of independent Gamma(m_r * mult,
omega_r * lambda / m_r) variables, one per distinct positive eigenvalue
lambda of multiplicity mult.  Its CDF and PDF are evaluated by the
Moschopoulos series (Ann. Inst. Statist. Math. 37, 1985): with beta1 the
smallest scale, the sum is a mixture of Gamma(rho + k, beta1) laws whose
weights w_k are the probabilities of a sum of independent negative
binomials, so the CDF is the positive mixture sum_k w_k P(rho + k, t/beta1)
of regularised incomplete gammas.  The weights are read off the product
form of their generating function on M roots of unity by one inverse FFT.
Two errors enter, each held below ``_SERIES_SHARE * abs_tol`` of weight
(every incomplete-gamma factor is at most 1): the mass beyond M, which
aliases onto the kept weights and which a Chernoff bound computed from the
spectrum alone caps before any series work; and the trailing weights cut
once their sum falls below the share, which is added to the last kept
weight so that the CDF still reaches 1.  A threshold array is evaluated
in chunks whose (thresholds, terms) temporaries hold at most
``_CHUNK_CELLS`` cells, so an array call's memory does not grow with the
number of thresholds; each value is the one a scalar call gives.

The series converges like q_max^k with q_max = 1 - lambda_min/lambda_max,
so near-maximal correlation needs too many terms.  When the Chernoff bound
asks for more than ``_MAX_SERIES_TERMS`` the PDF and CDF invert the closed
form transform prod(1 + s*scale)^-shape (over s for the CDF) on the
Bromwich hyperbola of Trefethen, Weideman & Schmelzer (BIT 46, 2006) with
the 48-node trapezoid rule, 24 complex evaluations per threshold by
conjugate symmetry, in chunks of the threshold array as above.  Where the
error estimate, the difference from the 40-node sum plus a roundoff term,
exceeds ``abs_tol`` AccuracyError is raised at once.  Roundoff in the e^z
weights puts the floor near 1e-11: on 45 near-maximal spectra (L <= 16,
m_z <= 10) at 7 thresholds from 0.01 to 10 E[R^2] the error against mpmath
is at most 1.9e-12 and never above its estimate (at most 6.7e-12), so any
``abs_tol`` from about 1e-11 up returns a value.

``mgf``, ``pdf`` and ``cdf`` take a scalar (returning a float) or an array
(returning an array of the same shape).  ``pdf`` and ``cdf`` hold their
absolute error to the keyword ``abs_tol``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.special import gammainc, gammaln

from .errors import AccuracyError, DomainError, _check_positive, _real_array
from .matcher import GammaSumModel
from .specfun import ln_gamma, ln_kummer_1f1

__all__ = [
    "mgf",
    "pdf",
    "pdf_equal_corr",
    "cdf",
]


# Spectra whose Chernoff-predicted series length exceeds this are inverted
# on the Bromwich contour instead.
_MAX_SERIES_TERMS = 4096
# Share of abs_tol allowed to each of the two series errors (aliased tail
# mass, dropped trailing weights).
_SERIES_SHARE = 0.05
# Grid of log z / -log q_max over which the Chernoff bound is minimised.
_CHERNOFF_GRID = np.arange(1, 64) / 64.0
# Eigenvalues this close (relative to the largest) are merged.
_MERGE_RTOL = 1e-12
_TINY = np.finfo(float).smallest_subnormal
# Cells of the widest temporary of a series or contour evaluation; a larger
# threshold array is evaluated in chunks.
_CHUNK_CELLS = 1 << 15
_HALF_MAX = 0.5 * np.finfo(float).max


def _scalar_or_array(values: NDArray[np.float64], scalar: bool):
    return float(values) if scalar else values


def mgf(model: GammaSumModel, s: ArrayLike) -> float | NDArray[np.float64]:
    """Moment generating function of the squared proxy envelope.

    Defined for s below the pole m_r / (omega_r * max eigenvalue); all
    performance consumers evaluate on the negative real axis, and the
    small positive range supports derivative checks at the origin.  It is
    the product over the merged Gamma terms that ``pdf`` and ``cdf`` sum
    (zero eigenvalues contribute unit factors and are skipped).  ``s`` is a
    scalar or an array.
    """
    s_arr = _real_array(s, "mgf s", DomainError)
    shapes, scales = _distinct_gammas(model)
    bad = ~(s_arr * scales[-1] < 1.0)  # nan or at or beyond the pole
    if np.any(bad):
        raise DomainError(f"mgf needs s < {1.0 / scales[-1]} (its pole), got {s_arr[bad].flat[0]}")
    log_terms = np.sum(shapes * np.log1p(-s_arr[..., None] * scales), axis=-1)
    return _scalar_or_array(np.exp(-log_terms), s_arr.ndim == 0)


# -- Moschopoulos series -----------------------------------------------------

@dataclass(frozen=True)
class _Mixture:
    """Gamma mixture sum_k weights[k] * Gamma(shape + k, scale)."""

    shape: float
    scale: float
    weights: NDArray[np.float64]


def _distinct_gammas(model: GammaSumModel):
    """Shapes and scales of the independent Gamma terms, equal eigenvalues
    merged with their multiplicity folded into the shape."""
    lams = np.sort(model.spectrum.values)
    lams = lams[lams > 0.0]
    if lams.size == 0:
        raise DomainError("model has no positive eigenvalues")
    starts = np.flatnonzero(np.diff(lams, prepend=-np.inf) > _MERGE_RTOL * lams[-1])
    mult = np.diff(np.append(starts, lams.size))
    distinct = np.add.reduceat(lams, starts) / mult
    return model.m_r * mult, model.omega_r * distinct / model.m_r


def _log_pgf(shapes, log_p, q, z):
    """log G(z) of the mixing index N, a sum of independent negative
    binomials: G(z) = prod_i (p_i / (1 - q_i z))^shape_i."""
    return np.sum(shapes[:, None] * (log_p[:, None] - np.log1p(-np.outer(q, z))), axis=0)


def _series_length(shapes, log_p, q, tol: float) -> float:
    """Smallest M for which the Chernoff bound G(z) z^-M on P(N >= M), the
    mixing-index mass beyond M, is at most tol, minimised over a grid of
    1 < z < 1/q_max."""
    if float(q.max()) == 0.0:
        return 1.0
    log_z = -math.log1p(-math.exp(float(log_p.min()))) * _CHERNOFF_GRID
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = _log_pgf(shapes, log_p, q, np.exp(log_z))
        need = float(np.min((log_g - math.log(tol)) / log_z))
    return max(1.0, math.ceil(need)) if need == need else math.inf


def _mixture(shapes, scales, tol: float) -> _Mixture | None:
    """Series weights with total weight error at most 2 * tol, or None when
    the spectrum needs more than _MAX_SERIES_TERMS terms."""
    scale = float(scales.min())
    log_p = np.log(scale / scales)
    q = -np.expm1(log_p)
    terms = _series_length(shapes, log_p, q, tol)
    if terms > _MAX_SERIES_TERMS:
        return None
    terms = int(terms)
    # G on the unit circle; its inverse DFT is w_k plus the aliased mass
    # sum_j w_(k + jM), at most tol in total by the choice of M
    z = np.exp(-2j * np.pi * np.arange(terms // 2 + 1) / terms)
    weights = np.fft.irfft(np.exp(_log_pgf(shapes, log_p, q, z)), terms)
    tail = np.cumsum(weights[::-1])[::-1]
    keep = max(1, int(np.count_nonzero(tail > tol)))
    # the cut mass goes to the last kept weight, whose incomplete gamma
    # bounds theirs, so the error bound is unchanged
    kept = weights[:keep]
    if keep < terms:
        kept[-1] += tail[keep]
    return _Mixture(float(np.sum(shapes)), scale, kept)


def _in_chunks(kernel, x: NDArray[np.float64], width: int) -> NDArray[np.float64]:
    """kernel(x), whose temporaries hold ``width`` cells per value of x.

    An x that fits in _CHUNK_CELLS goes to the kernel whole; a larger one
    in consecutive pieces of its flattened values, whose results are joined
    along the kernel's last axis and shaped like x.  Each value's result is
    the same either way.
    """
    step = max(1, _CHUNK_CELLS // width)
    if x.size <= step:
        return kernel(x)
    flat = x.ravel()
    joined = np.concatenate([kernel(flat[lo:lo + step]) for lo in range(0, flat.size, step)],
                            axis=-1)
    return joined.reshape(joined.shape[:-1] + x.shape)


def _series_cdf(mix: _Mixture, t: NDArray[np.float64]) -> NDArray[np.float64]:
    a = mix.shape + np.arange(mix.weights.size)
    # t is capped where every term is 1, so t / scale stays finite
    t_cap = np.minimum(t, _HALF_MAX * min(1.0, mix.scale))
    return _in_chunks(
        lambda part: np.sum(gammainc(a, part[..., None] / mix.scale) * mix.weights, axis=-1),
        t_cap, a.size)


def _series_pdf(mix: _Mixture, r: NDArray[np.float64]) -> NDArray[np.float64]:
    a = mix.shape + np.arange(mix.weights.size)
    a_less_1, log_norm = a - 1.0, gammaln(a)

    def kernel(r):
        # x stays a positive float, so every term is finite: r is capped where
        # the density is 0 anyway, and an r*r that underflows to 0 is read as
        # the smallest subnormal; every other x is left as it is
        x = np.maximum(r * r / mix.scale, _TINY)[..., None]
        dens = np.exp(a_less_1 * np.log(x) - x - log_norm)
        return 2.0 * r / mix.scale * np.sum(dens * mix.weights, axis=-1)

    return _in_chunks(kernel, np.minimum(r, math.sqrt(_HALF_MAX * min(1.0, mix.scale))),
                      a.size)


# -- Bromwich contour ---------------------------------------------------------

def _hyperbola(nodes: int):
    """Logs of the upper-half nodes z_k of the N-point midpoint rule on the
    hyperbola z(theta) = 2.246 N (1 - sin(1.1721 - 0.3443 i theta)), theta in
    (-pi, pi), and of their weights e^z_k (2/N) z'(theta_k)/i."""
    w = 1.1721 - 0.3443j * np.pi * np.arange(1, nodes, 2) / nodes
    z = 2.246 * nodes * (1.0 - np.sin(w))
    return np.log(z), z + np.log(2.0 * 2.246 * 0.3443 * np.cos(w))


# The 48-node sum (24 conjugate pairs) is returned; the 40-node sum after it
# only estimates its error.
_FINE = 24
# Roundoff of the 48-node sum per unit sum of its terms' moduli: the least
# power-of-two multiple of eps whose estimate covers the mpmath panel above.
_ROUNDOFF = 16.0 * np.finfo(float).eps
_LOG_Z, _LOG_W = (np.concatenate(p) for p in zip(_hyperbola(48), _hyperbola(40)))


def _bromwich(shapes, scales, log_t: NDArray[np.float64], density: bool,
              abs_tol: float) -> NDArray[np.float64]:
    """Inverse Laplace transform at t = exp(log_t) of the Gamma-sum
    transform prod(1 + s*scales)^-shapes: divided by s it gives the CDF,
    and with ``density`` the envelope PDF 2r f(r^2) at r = sqrt(t).

    With s = z/t the Bromwich integral (1/(2 pi i)) int e^(st) F(s) ds is
    the midpoint sum (2/(N t)) Re sum_k e^z_k F(z_k/t) z'(theta_k)/i over
    the upper-half nodes (Trefethen, Weideman & Schmelzer, BIT 46, 2006).
    log(1 + s*scale) is taken as the softplus of log(s*scale), so no
    threshold overflows.  Raises AccuracyError, with the 48-node sum as
    ``partial``, where its error estimate exceeds abs_tol.
    """
    def kernel(log_t):
        # the 48-node sum and its error estimate, stacked
        log_ss = _LOG_Z[:, None] + np.log(scales) - log_t[..., None, None]
        big = log_ss.real > 0.0
        log_factors = np.where(big, log_ss, 0.0) + np.log1p(np.exp(np.where(big, -log_ss, log_ss)))
        log_terms = _LOG_W - np.sum(shapes * log_factors, axis=-1)
        if density:
            log_terms += math.log(2.0) - 0.5 * log_t[..., None]
        else:
            log_terms -= _LOG_Z
        terms = np.exp(log_terms)
        fine = np.sum(terms.real[..., :_FINE], axis=-1)
        err = (np.abs(fine - np.sum(terms.real[..., _FINE:], axis=-1))
               + _ROUNDOFF * np.sum(np.abs(terms[..., :_FINE]), axis=-1))
        return np.stack((fine, err))

    fine, err = _in_chunks(kernel, log_t, _LOG_Z.size * scales.size)
    if np.any(err > abs_tol):
        raise AccuracyError(
            f"{'pdf' if density else 'cdf'} contour error estimate "
            f"{float(err.max()):.1e} > abs_tol={abs_tol}",
            partial=_scalar_or_array(fine, fine.ndim == 0))
    return fine


# -- public distribution functions -------------------------------------------

def pdf(model: GammaSumModel, r: ArrayLike, *,
        abs_tol: float = 1e-8) -> float | NDArray[np.float64]:
    """Probability density of the proxy envelope at r > 0 (scalar or array),
    to absolute error ``abs_tol``."""
    _check_positive(abs_tol, "abs_tol", DomainError)
    r_arr = _real_array(r, "pdf r", DomainError, 0.0)
    # Each mixture term's envelope density is at most 2/sqrt(pi*beta1) once
    # its shape is at least 1/2, so weights are held to abs_tol scaled by the
    # reciprocal (never looser than for the CDF).
    shapes, scales = _distinct_gammas(model)
    mix = None
    if np.sum(shapes) >= 0.5:
        peak = 2.0 / math.sqrt(math.pi * float(scales.min()))
        mix = _mixture(shapes, scales, _SERIES_SHARE * abs_tol / max(1.0, peak))
    if mix is not None:
        values = _series_pdf(mix, r_arr)
    else:
        values = _bromwich(shapes, scales, 2.0 * np.log(r_arr), True, abs_tol)
    return _scalar_or_array(values, r_arr.ndim == 0)


def cdf(model: GammaSumModel, t: ArrayLike, *,
        abs_tol: float = 1e-8) -> float | NDArray[np.float64]:
    """Probability that the squared proxy envelope lies below t > 0, to
    absolute error ``abs_tol``.

    The threshold is in power (SNR) units and may be a scalar or an array;
    the envelope-domain CDF at r is ``cdf(model, r*r)``.
    """
    _check_positive(abs_tol, "abs_tol", DomainError)
    t_arr = _real_array(t, "cdf threshold", DomainError, 0.0)
    shapes, scales = _distinct_gammas(model)
    mix = _mixture(shapes, scales, _SERIES_SHARE * abs_tol)
    if mix is not None:
        values = _series_cdf(mix, t_arr)
    else:
        values = _bromwich(shapes, scales, np.log(t_arr), False, abs_tol)
    values = np.clip(values, 0.0, 1.0)
    return _scalar_or_array(values, t_arr.ndim == 0)


def pdf_equal_corr(model: GammaSumModel, r: float) -> float:
    """Closed-form envelope density for an equal-correlation proxy.

    The model spectrum must be the equal-correlation one: 1 + (L-1) sqrt(rho)
    and L-1 repeats of (1 - rho)/(1 + sqrt(rho)) > 0, to the relative 1e-12
    that merges eigenvalues; any other spectrum, the maximal one included,
    raises DomainError.  sqrt(rho) is read as 1 minus the repeated
    eigenvalue, which stays accurate as rho -> 1.  Assembled in log space so
    large confluent-hypergeometric arguments cannot overflow.
    """
    _check_positive(r, "pdf r", DomainError)
    lams = model.spectrum.values
    L, m, om = len(lams), model.m_r, model.omega_r
    lam_big, lam_small = lams[0], lams[-1]
    sr = 1.0 - lam_small
    tol = _MERGE_RTOL * lam_big
    if not (lam_small > 0.0 and max(lams[1:], default=lam_small) - lam_small <= tol
            and abs(1.0 + (L - 1) * sr - lam_big) <= tol):
        raise DomainError(f"equal-correlation closed form needs a spectrum "
                          f"1 + (L-1)sqrt(rho), 1 - sqrt(rho) with rho < 1, got {lams}")
    arg = m * L * sr * r * r / (lam_small * lam_big * om)
    if arg == math.inf:  # e^(-m r^2 / (lam_big om)) underflowed long before
        return 0.0
    log_val = (
        math.log(2.0) + (2.0 * m * L - 1.0) * math.log(r)
        + m * L * math.log(m / om)
        - ln_gamma(m * L)
        - m * (L - 1) * math.log(lam_small)
        - m * math.log(lam_big)
        - m * r * r / (lam_small * om)
    )
    if arg > 0.0:
        log_val += ln_kummer_1f1(m, m * L, arg)
    return math.exp(log_val)
