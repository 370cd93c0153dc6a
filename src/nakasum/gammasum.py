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
spectrum alone caps before any series work; and the trailing weights
dropped once their sum falls below the share.  The whole threshold array is
evaluated at once.

The series converges like q_max^k with q_max = 1 - lambda_min/lambda_max,
so near-maximal correlation needs too many terms.  When the Chernoff bound
asks for more than ``_MAX_SERIES_TERMS`` the PDF and CDF fall back to the
semi-infinite oscillatory integrals, integrated with panels of one
64-node Gauss-Legendre table built at import: a geometrically refined head
resolves the region where the phase derivative still varies, then
half-period panels of the asymptotic oscillation are summed with
iterated-mean acceleration of the alternating partial sums.  The raw
envelope tail bound decays only algebraically (as slowly as 1/t for a
single active eigenvalue), so the acceleration is what makes tight
absolute tolerances reachable.

``mgf``, ``pdf`` and ``cdf`` take a scalar (returning a float) or an array
(returning an array of the same shape).  ``pdf`` and ``cdf`` hold their
absolute error to the keyword ``abs_tol``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.typing import ArrayLike, NDArray
from scipy.special import gammainc, gammaln

from .errors import AccuracyError, DomainError
from .matcher import GammaSumModel
from .specfun import ln_gamma, ln_kummer_1f1

__all__ = [
    "mgf",
    "pdf",
    "pdf_equal_corr",
    "cdf",
]


_ACCEL_DEPTH = 12
_PANEL_BATCH = 32
_MAX_PANELS = 4096
# Gauss-Legendre nodes and weights on (0, 1), shared by every panel
_GL_X, _GL_W = leggauss(64)
_GL_X, _GL_W = (_GL_X + 1.0) * 0.5, _GL_W * 0.5

# Spectra whose Chernoff-predicted series length exceeds this use the
# oscillatory quadrature: past it one scalar call of the series would cost
# more than the quadrature.
_MAX_SERIES_TERMS = 4096
# Share of abs_tol allowed to each of the two series errors (aliased tail
# mass, dropped trailing weights).
_SERIES_SHARE = 0.05
# Grid of log z / -log q_max over which the Chernoff bound is minimised.
_CHERNOFF_GRID = np.arange(1, 64) / 64.0
# Eigenvalues this close (relative to the largest) are merged.
_MERGE_RTOL = 1e-12


def _active_rates(model: GammaSumModel) -> NDArray[np.float64]:
    """Per-eigenvalue rates omega_r*lambda/m_r, zero eigenvalues dropped."""
    lams = np.asarray([l for l in model.spectrum.values if l > 0.0])
    if lams.size == 0:
        raise DomainError("model has no positive eigenvalues")
    return model.omega_r * lams / model.m_r


def _scalar_or_array(values: NDArray[np.float64], scalar: bool):
    return float(values) if scalar else values


def mgf(model: GammaSumModel, s: ArrayLike) -> float | NDArray[np.float64]:
    """Moment generating function of the squared proxy envelope.

    Defined for s below the pole m_r / (omega_r * max eigenvalue); all
    performance consumers evaluate on the negative real axis, and the
    small positive range supports derivative checks at the origin.  Zero
    eigenvalues contribute unit factors and are skipped.  ``s`` is a
    scalar or an array.
    """
    if np.ndim(s) == 0 and s == 0.0:
        return 1.0
    s_arr = np.asarray(s, dtype=float)
    rates = _active_rates(model)
    beyond = s_arr * float(rates.max()) >= 1.0
    if np.any(beyond):
        raise DomainError(
            f"mgf pole at s={1.0 / float(rates.max())}; got s={s_arr[beyond].flat[0]}")
    log_terms = np.sum(np.log1p(-s_arr[..., None] * rates), axis=-1)
    return _scalar_or_array(np.exp(-model.m_r * log_terms), s_arr.ndim == 0)


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
    lams = np.sort(np.asarray(model.spectrum.values, dtype=float))
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
    return _Mixture(float(np.sum(shapes)), scale, weights[:keep])


def _series_cdf(mix: _Mixture, t: NDArray[np.float64]) -> NDArray[np.float64]:
    a = mix.shape + np.arange(mix.weights.size)
    return np.sum(gammainc(a, t[..., None] / mix.scale) * mix.weights, axis=-1)


def _series_pdf(mix: _Mixture, r: NDArray[np.float64]) -> NDArray[np.float64]:
    a = mix.shape + np.arange(mix.weights.size)
    x = (r * r / mix.scale)[..., None]
    dens = np.exp((a - 1.0) * np.log(x) - x - gammaln(a))
    return 2.0 * r / mix.scale * np.sum(dens * mix.weights, axis=-1)


# -- oscillatory quadrature --------------------------------------------------

def _osc_integral(kernel, env_log, rates: NDArray[np.float64], freq: float,
                  abs_tol: float) -> float:
    """Integrate kernel(t) over (0, inf) where kernel oscillates with
    asymptotic half-period pi/freq and decays like the envelope exp(env_log).

    Returns the integral estimate or raises AccuracyError with the partial
    value attached.
    """
    half_period = math.pi / freq

    def panels(edges_lo: NDArray[np.float64], edges_hi: NDArray[np.float64]) -> float:
        widths = edges_hi - edges_lo
        t = edges_lo[:, None] + widths[:, None] * _GL_X[None, :]
        return float(np.sum(widths[:, None] * _GL_W[None, :] * kernel(t)))

    def tail_panels(k0: int, count: int, t0: float) -> NDArray[np.float64]:
        ks = np.arange(k0, k0 + count)
        lo = t0 + ks * half_period
        t = lo[:, None] + half_period * _GL_X[None, :]
        return half_period * np.sum(_GL_W[None, :] * kernel(t), axis=1)

    # Head: geometric subdivision over the region where the envelope varies
    # on a scale finer than a half-period.  When the oscillation is already
    # the fine structure the half-period panels resolve everything.
    t_env = 1.0 / float(rates.max())
    if t_env >= half_period:
        t0 = 0.0
        total = 0.0
    else:
        t0 = half_period * max(1, math.ceil(16.0 * t_env / half_period))
        edges = [0.0]
        width = t_env / 8.0
        while edges[-1] < t0:
            edges.append(min(edges[-1] + min(width, half_period), t0))
            width *= 2.0
        edges = np.asarray(edges)
        total = panels(edges[:-1], edges[1:])

    partials: list[float] = []
    est_prev = None
    stable = 0
    k0 = 0
    while k0 < _MAX_PANELS:
        vals = tail_panels(k0, _PANEL_BATCH, t0)
        for v in vals:
            total += v
            partials.append(total)
        k0 += _PANEL_BATCH
        tail_bound = math.exp(env_log(t0 + k0 * half_period)) * half_period
        depth = min(_ACCEL_DEPTH, len(partials))
        acc = np.asarray(partials[-depth:])
        while acc.size > 1:
            acc = 0.5 * (acc[1:] + acc[:-1])
        est = float(acc[0])
        if est_prev is not None and abs(est - est_prev) < 0.25 * abs_tol:
            stable += 1
            if stable >= 2:
                return est
        elif est_prev is not None:
            stable = 0
        if tail_bound < abs_tol and abs(vals[-1]) < abs_tol:
            return total
        est_prev = est
    raise AccuracyError(
        f"oscillatory integral did not reach abs_tol={abs_tol} within "
        f"{_MAX_PANELS} panels",
        partial=est_prev if est_prev is not None else total,
    )


def _quadrature_pdf(rates: NDArray[np.float64], m_r: float, r: float,
                    abs_tol: float) -> float:
    r2 = r * r

    def kernel(t):
        tw = t[..., None] * rates
        theta = m_r * np.sum(np.arctan(tw), axis=-1)
        env = np.exp(-0.5 * m_r * np.sum(np.log1p(tw * tw), axis=-1))
        return np.cos(theta - t * r2) * env

    def env_log(t):
        return -0.5 * m_r * float(np.sum(np.log1p((t * rates) ** 2)))

    try:
        val = _osc_integral(kernel, env_log, rates, r2, abs_tol)
    except AccuracyError as exc:
        raise AccuracyError(
            f"pdf(r={r}) did not converge: {exc}",
            partial=2.0 * r / math.pi * exc.partial,
        ) from exc
    return 2.0 * r / math.pi * val


def _quadrature_cdf(rates: NDArray[np.float64], m_r: float, t: float,
                    abs_tol: float) -> float:
    def kernel(x):
        xw = x[..., None] * rates
        theta = m_r * np.sum(np.arctan(xw), axis=-1)
        env = np.exp(-0.5 * m_r * np.sum(np.log1p(xw * xw), axis=-1))
        return np.sin(theta - x * t) * env / x

    def env_log(x):
        return -0.5 * m_r * float(np.sum(np.log1p((x * rates) ** 2))) - math.log(x)

    try:
        val = _osc_integral(kernel, env_log, rates, t, abs_tol)
    except AccuracyError as exc:
        raise AccuracyError(
            f"cdf(t={t}) did not converge: {exc}",
            partial=min(1.0, max(0.0, 0.5 - exc.partial / math.pi)),
        ) from exc
    return min(1.0, max(0.0, 0.5 - val / math.pi))


def _positive(x: ArrayLike, what: str) -> NDArray[np.float64]:
    arr = np.asarray(x, dtype=float)
    bad = ~(arr > 0)
    if np.any(bad):
        raise DomainError(f"{what}, got {arr[bad].flat[0]}")
    return arr


# -- public distribution functions -------------------------------------------

def pdf(model: GammaSumModel, r: ArrayLike, *,
        abs_tol: float = 1e-8) -> float | NDArray[np.float64]:
    """Probability density of the proxy envelope at r > 0 (scalar or array),
    to absolute error ``abs_tol``."""
    if not abs_tol > 0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")
    r_arr = _positive(r, "pdf requires r > 0")
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
        rates = _active_rates(model)
        values = np.vectorize(
            lambda v: _quadrature_pdf(rates, model.m_r, v, abs_tol), otypes=[float])(r_arr)
    return _scalar_or_array(values, r_arr.ndim == 0)


def cdf(model: GammaSumModel, t: ArrayLike, *,
        abs_tol: float = 1e-8) -> float | NDArray[np.float64]:
    """Probability that the squared proxy envelope lies below t > 0, to
    absolute error ``abs_tol``.

    The threshold is in power (SNR) units and may be a scalar or an array;
    the envelope-domain CDF at r is ``cdf(model, r*r)``.
    """
    if not abs_tol > 0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")
    t_arr = _positive(t, "cdf requires a positive threshold")
    mix = _mixture(*_distinct_gammas(model), _SERIES_SHARE * abs_tol)
    if mix is not None:
        values = np.clip(_series_cdf(mix, t_arr), 0.0, 1.0)
    else:
        rates = _active_rates(model)
        values = np.vectorize(
            lambda v: _quadrature_cdf(rates, model.m_r, v, abs_tol), otypes=[float])(t_arr)
    return _scalar_or_array(values, t_arr.ndim == 0)


def pdf_equal_corr(model: GammaSumModel, rho: float, r: float) -> float:
    """Closed-form envelope density for an equal-correlation proxy.

    Only valid when the model spectrum is the equal-correlation one
    (one dominant eigenvalue, L-1 repeated).  Assembled in log space so
    large confluent-hypergeometric arguments cannot overflow.
    """
    if not r > 0:
        raise DomainError(f"pdf requires r > 0, got {r}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"equal-correlation closed form needs rho in [0,1), got {rho}")
    L = model.branch_count
    m = model.m_r
    om = model.omega_r
    sr = math.sqrt(rho)
    lam_small = (1.0 - rho) / (1.0 + sr)  # 1 - sqrt(rho) without cancellation
    lam_big = 1.0 + (L - 1) * sr
    arg = m * L * sr * r * r / (lam_small * lam_big * om)
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
