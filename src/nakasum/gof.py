"""Chi-square and Kolmogorov-Smirnov goodness-of-fit testing of sampled
envelope sums against the fitted analytical distribution.

The campaign protocol draws a number of independent trials, computes both
statistics per trial against the model CDF, averages the statistics across
trials, and evaluates the significance levels at the averaged statistics.
(Averaging the per-trial significance levels instead is available through
``alpha_mode="alpha-mean"``.)  The significance levels are upper-tail
p-values (the regularised upper incomplete gamma for chi-square, the
Kolmogorov Q function for K-S): a small level means misfit was detected,
and a level of about 0.4-0.5 means the averaged statistic sits at its
null mean.  The report carries raw numbers without reinterpreting them.

The model CDF used by both tests is a monotone interpolation of the exact
CDF, evaluated on its whole grid in one array call; chi-square bin edges
are model quantiles, found once per campaign by one bisection over all
of them.  ``scipy.interpolate`` is imported on first use, so that
importing the package does not load it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaincc, kolmogorov

from .errors import BinningError, ValidationError
from .gammasum import cdf
from .matcher import GammaSumModel, match_parameters
from .moments import EnsembleSpec
from .simkit import derive_seed, sample_sum

__all__ = [
    "GofReport",
    "kolmogorov_sf",
    "ks_test",
    "chi_square_test",
    "model_envelope_cdf",
    "gof_campaign",
]


@dataclass(frozen=True)
class GofReport:
    """Campaign-averaged test statistics and their significance levels."""

    chi2_stat: float
    ks_stat: float
    alpha_cs: float
    alpha_ks: float
    n_samples: int
    n_trials: int
    alpha_mode: str = "stat-mean"

    def to_json(self) -> str:
        return json.dumps({
            "schema": "gof-report/1",
            "chi2_stat": self.chi2_stat,
            "ks_stat": self.ks_stat,
            "alpha_cs": self.alpha_cs,
            "alpha_ks": self.alpha_ks,
            "n_samples": self.n_samples,
            "n_trials": self.n_trials,
            "alpha_mode": self.alpha_mode,
        }, indent=2)


def kolmogorov_sf(x: float) -> float:
    """Asymptotic Kolmogorov survival function Q(x) = 2 sum (-1)^(k-1) e^(-2k^2x^2)."""
    return float(kolmogorov(x))


def ks_test(samples: NDArray[np.float64],
            cdf_fn: Callable[[NDArray[np.float64]], NDArray[np.float64]],
            ) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and its asymptotic significance level.

    Both one-sided gaps are taken at every order statistic.  The input is
    sorted internally if needed.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 10:
        raise ValidationError("ks_test needs a vector of at least 10 samples")
    if np.isnan(x).any():
        raise ValidationError("samples contain NaN")
    x = np.sort(x)
    n = x.size
    f = np.asarray(cdf_fn(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    return d, kolmogorov_sf(math.sqrt(n) * d)


def _bin_edges(cdf_fn: Callable, n_bins: int, hi: float) -> NDArray[np.float64]:
    """Interior edges of n_bins equiprobable bins: model quantiles found by
    one bisection over all of them on [0, hi], with ``hi`` doubled until it
    covers the last, to 1e-12 absolute plus 1e-12 relative."""
    probs = np.arange(1, n_bins) / n_bins
    while np.asarray(cdf_fn(np.asarray([hi])))[0] < probs[-1]:
        if hi >= 1e12:
            raise ValidationError(f"CDF stays below {probs[-1]} up to {hi:.3e}")
        hi *= 2.0
    lo, up = np.zeros(probs.size), np.full(probs.size, hi)
    while np.any(up - lo > 1e-12 * (1.0 + up)):
        mid = 0.5 * (lo + up)
        below = np.asarray(cdf_fn(mid)) < probs
        lo = np.where(below, mid, lo)
        up = np.where(below, up, mid)
    return 0.5 * (lo + up)


def _chi_square(x_sorted: NDArray[np.float64],
                edges: NDArray[np.float64]) -> tuple[float, float]:
    """Chi-square statistic of sorted samples over equiprobable bins with
    the given interior edges, and its upper-tail significance level."""
    n = x_sorted.size
    n_bins = edges.size + 1
    counts = np.diff(np.searchsorted(x_sorted, edges, side="right"),
                     prepend=0, append=n)
    expected = n / n_bins
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    return chi2, float(gammaincc((n_bins - 1) / 2.0, chi2 / 2.0))


def chi_square_test(samples: NDArray[np.float64],
                    cdf_fn: Callable, n_bins: int = 100) -> tuple[float, float]:
    """Chi-square statistic over equiprobable model bins and its
    significance level.

    Bin edges are model quantiles, so every expected count is n/n_bins; no
    parameters are refitted from the data, leaving n_bins - 1 degrees of
    freedom.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValidationError("chi_square_test needs a vector of samples")
    if np.isnan(x).any():
        raise ValidationError("samples contain NaN")
    n = x.size
    if n < 5 * n_bins:
        raise BinningError(
            f"{n} samples give expected bin counts below 5 with {n_bins} bins")
    x_sorted = np.sort(x)
    edges = _bin_edges(cdf_fn, n_bins, max(float(x_sorted[-1]), 1.0))
    return _chi_square(x_sorted, edges)


# Power-of-two multiples of the mean square searched for the grid's upper
# end; the (1 - 1e-10) quantile of a Gamma law of shape >= 1/2 is below 42
# times its mean.
_BRACKET_DOUBLINGS = 16

# Absolute error of the exact CDF values on the interpolation grid, the
# tail mass past its upper end, and its number of points.
_GRID_ABS_TOL = 1e-10
_TAIL_PROB = 1e-10
_GRID_POINTS = 1201


def model_envelope_cdf(model: GammaSumModel) -> Callable:
    """Fast envelope-domain CDF: values to absolute error 1e-10 on a grid,
    monotone interpolation between them.

    The grid reaches the (1 - 1e-10) quantile; beyond it the CDF is
    clamped to 1.  Interpolation error is far below the K-S statistic
    resolution at the campaign sample sizes.
    """
    from scipy.interpolate import PchipInterpolator

    # first power-of-two multiple of the mean square past the
    # (1 - _TAIL_PROB) quantile
    t_try = model.mean_square * 2.0 ** np.arange(_BRACKET_DOUBLINGS)
    past = np.flatnonzero(cdf(model, t_try, abs_tol=_GRID_ABS_TOL) >= 1.0 - _TAIL_PROB)
    if past.size == 0:
        raise ValidationError(
            f"model CDF stays below 1 - {_TAIL_PROB} up to {t_try[-1]:.3e}")
    r_hi = math.sqrt(t_try[past[0]])
    r_grid = np.linspace(0.0, r_hi, _GRID_POINTS)
    f_grid = np.zeros(_GRID_POINTS)
    f_grid[1:] = cdf(model, r_grid[1:] ** 2, abs_tol=_GRID_ABS_TOL)
    f_grid = np.maximum.accumulate(np.clip(f_grid, 0.0, 1.0))
    interp = PchipInterpolator(r_grid, f_grid, extrapolate=False)

    def envelope_cdf(r):
        r = np.asarray(r, dtype=float)
        out = np.where(r >= r_hi, 1.0, np.where(r <= 0.0, 0.0, interp(np.clip(r, 0.0, r_hi))))
        return np.clip(out, 0.0, 1.0)

    return envelope_cdf


def gof_campaign(spec: EnsembleSpec, trials: int = 100, per_trial: int = 10_000,
                 seed: int = 0, n_bins: int = 100,
                 alpha_mode: str = "stat-mean") -> GofReport:
    """Run the averaged goodness-of-fit campaign for one ensemble.

    Each trial draws ``per_trial`` independent envelope sums, computes the
    chi-square and K-S statistics against the fitted model, and the
    statistics are averaged across trials.  Results are deterministic for
    a given seed.
    """
    if trials < 1 or per_trial < 10:
        raise ValidationError("need at least 1 trial of at least 10 samples")
    if alpha_mode not in ("stat-mean", "alpha-mean"):
        raise ValidationError(f"unknown alpha_mode {alpha_mode!r}")
    model = match_parameters(spec)
    env_cdf = model_envelope_cdf(model)
    edges = _bin_edges(env_cdf, n_bins, math.sqrt(model.mean_square))

    def one_trial(idx: int) -> tuple[float, float, float, float]:
        z = np.sort(sample_sum(spec, per_trial, derive_seed(seed, 0x60F, idx)))
        chi2, alpha_cs = _chi_square(z, edges)
        d, alpha_ks = ks_test(z, env_cdf)
        return chi2, d, alpha_cs, alpha_ks

    results = [one_trial(i) for i in range(trials)]

    chi2_mean = math.fsum(r[0] for r in results) / trials
    d_mean = math.fsum(r[1] for r in results) / trials
    if alpha_mode == "stat-mean":
        alpha_cs = float(gammaincc((n_bins - 1) / 2.0, chi2_mean / 2.0))
        alpha_ks = kolmogorov_sf(math.sqrt(per_trial) * d_mean)
    else:
        alpha_cs = math.fsum(r[2] for r in results) / trials
        alpha_ks = math.fsum(r[3] for r in results) / trials
    return GofReport(
        chi2_stat=chi2_mean,
        ks_stat=d_mean,
        alpha_cs=alpha_cs,
        alpha_ks=alpha_ks,
        n_samples=per_trial,
        n_trials=trials,
        alpha_mode=alpha_mode,
    )
