"""Chi-square and Kolmogorov-Smirnov goodness-of-fit testing of sampled
envelope sums against the fitted analytical distribution.

The campaign protocol draws independent trials, computes both statistics
per trial against the model CDF (100 equiprobable chi-square bins), with
the kernels the public tests use, and averages them across trials.  Its
one significance rule, owned by ``GofReport``, derives each level from the
report's averaged statistic: the upper-tail p-value there (the regularised
upper incomplete gamma for chi-square, the Kolmogorov Q function for K-S).
A small level means misfit was detected, and a level of about 0.4-0.5
means the averaged statistic sits at its null mean.  The report carries
raw numbers without reinterpreting them.

The trials run on the ``simkit`` worker pool, one contiguous range of
trials per worker.  Each trial draws from its own stream, derived from the
campaign seed and the trial index, and the statistics are averaged in
trial order, so a report does not depend on the number of workers.

Both statistics are functions of the model CDF values u = F(z) of a sorted
sample, which each trial evaluates once: K-S is their largest gap from the
empirical CDF, and equiprobable chi-square bin k holds the samples with u
in [k/n_bins, (k+1)/n_bins).  The campaign's model CDF interpolates the
exact one, evaluated on a grid in one array call, with a numpy port of
scipy's monotone PCHIP, equal to it bit for bit, so the package never
imports ``scipy.interpolate``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaincc, kolmogorov

from .errors import BinningError, ValidationError, _check_count, _real_array
from .gammasum import cdf
from .matcher import GammaSumModel, match_parameters
from .moments import EnsembleSpec
from . import simkit
from .simkit import derive_seed

__all__ = [
    "GofReport",
    "ks_test",
    "chi_square_test",
    "model_envelope_cdf",
    "gof_campaign",
]


@dataclass(frozen=True)
class GofReport:
    """Campaign-averaged test statistics, and the significance levels they
    fix: the single-trial upper tail at each averaged statistic."""

    chi2_stat: float
    ks_stat: float
    n_samples: int
    n_trials: int

    @property
    def alpha_cs(self) -> float:
        return float(gammaincc((_N_BINS - 1) / 2.0, self.chi2_stat / 2.0))

    @property
    def alpha_ks(self) -> float:
        return float(kolmogorov(math.sqrt(self.n_samples) * self.ks_stat))

    def to_json(self) -> str:
        return json.dumps({
            "schema": "gof-report/2",
            "chi2_stat": self.chi2_stat,
            "ks_stat": self.ks_stat,
            "alpha_cs": self.alpha_cs,
            "alpha_ks": self.alpha_ks,
            "n_samples": self.n_samples,
            "n_trials": self.n_trials,
        }, indent=2)


_N_BINS = 100  # equiprobable chi-square bins of the campaign; chi_square_test default


def _cdf_values(samples: NDArray[np.float64], cdf_fn: Callable,
                minimum: int) -> NDArray[np.float64]:
    """Model CDF values at the order statistics of a vector of at least
    ``minimum`` finite samples."""
    x = _real_array(samples, "samples", ValidationError, -math.inf)
    if x.ndim != 1 or x.size < minimum:
        raise ValidationError(f"samples must be a vector of length >= {minimum}")
    x.sort()  # in place: the rule returned a new array, not the caller's samples
    return _real_array(cdf_fn(x), "model CDF values", ValidationError)


def _check_binning(n: int, n_bins: int) -> None:
    """Reject n samples whose expected count per bin is below 5."""
    if n < 5 * n_bins:
        raise BinningError(
            f"{n} samples give expected bin counts below 5 with {n_bins} bins")


def _ks_distance(f: NDArray[np.float64]) -> float:
    """K-S distance of a sample from the model, given the model CDF values
    f of its order statistics: the larger of the two one-sided gaps."""
    n = f.size
    grid = np.arange(1, n + 1) / n
    return max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))))


def ks_test(samples: NDArray[np.float64],
            cdf_fn: Callable[[NDArray[np.float64]], NDArray[np.float64]],
            ) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and its asymptotic significance level.

    Both one-sided gaps are taken at every order statistic.  The input is
    sorted internally if needed.
    """
    f = _cdf_values(samples, cdf_fn, 10)
    d = _ks_distance(f)
    return d, float(kolmogorov(math.sqrt(f.size) * d))


def _chi_square_stat(f: NDArray[np.float64], n_bins: int) -> float:
    """Chi-square statistic over n_bins equiprobable model bins, given the
    sorted model CDF values f of a sample: bin k holds the values in
    [k/n_bins, (k+1)/n_bins)."""
    n = f.size
    counts = np.diff(np.searchsorted(f, np.arange(1, n_bins) / n_bins),
                     prepend=0, append=n)
    expected = n / n_bins
    return float(np.sum((counts - expected) ** 2) / expected)


def chi_square_test(samples: NDArray[np.float64],
                    cdf_fn: Callable, n_bins: int = _N_BINS) -> tuple[float, float]:
    """Chi-square statistic over equiprobable model bins and its
    significance level.

    A sample falls in the bin of its model CDF value, so every expected
    count is n/n_bins and ``cdf_fn`` is evaluated at the samples only; no
    parameters are refitted from the data, leaving n_bins - 1 degrees of
    freedom.
    """
    _check_count(n_bins, "n_bins", ValidationError, 2)
    f = _cdf_values(samples, cdf_fn, 1)
    _check_binning(f.size, n_bins)
    chi2 = _chi_square_stat(f, n_bins)
    return chi2, float(gammaincc((n_bins - 1) / 2.0, chi2 / 2.0))


# Power-of-two multiples of the mean square searched for the grid's upper
# end; the (1 - 1e-10) quantile of a Gamma law of shape >= 1/2 is below 42
# times its mean.
_BRACKET_DOUBLINGS = 16

# Absolute error of the exact CDF values on the interpolation grid, the
# tail mass past its upper end, and its number of points.
_GRID_ABS_TOL = 1e-10
_TAIL_PROB = 1e-10
_GRID_POINTS = 1201


def _pchip_end(h0: float, h1: float, m0: float, m1: float) -> float:
    """PCHIP end slope: the one-sided three-point estimate, set to 0 where
    its sign differs from the end piece's and capped at 3 times that
    piece's slope where the first two pieces' slopes differ in sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: NDArray[np.float64], y: NDArray[np.float64]) -> Callable:
    """Monotone piecewise-cubic Hermite interpolant (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17, 1980) through (x, y), x strictly increasing
    with at least 3 points, for queries in [x[0], x[-1]].

    A port of scipy's ``PchipInterpolator``: the same slope and end
    formulas, the same power-form coefficients, summed in the same order,
    so that its values are scipy's bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    # interior slopes: the weighted harmonic mean of the two neighbouring
    # pieces' slopes, 0 where either is flat or their signs differ
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][inner] = 1.0 / whmean[inner]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    # c3 + c2 s + c1 s^2 + c0 s^3 on each piece, s the offset from its start
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def interp(r):
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        s = r - x[i]
        return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    return interp


def model_envelope_cdf(model: GammaSumModel) -> Callable:
    """Fast envelope-domain CDF: values to absolute error 1e-10 on a grid,
    monotone interpolation between them.

    The grid reaches the (1 - 1e-10) quantile; beyond it the CDF is
    clamped to 1.  Interpolation error is far below the K-S statistic
    resolution at the campaign sample sizes.
    """
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
    interp = _pchip(r_grid, f_grid)

    def envelope_cdf(r):
        r = _real_array(r, "envelope radii", ValidationError)
        out = np.where(r >= r_hi, 1.0, np.where(r <= 0.0, 0.0, interp(np.clip(r, 0.0, r_hi))))
        return np.clip(out, 0.0, 1.0)

    return envelope_cdf


def gof_campaign(spec: EnsembleSpec, trials: int = 100, per_trial: int = 10_000,
                 seed: int = 0) -> GofReport:
    """Run the averaged goodness-of-fit campaign for one ensemble.

    Each trial draws ``per_trial`` independent envelope sums and computes
    the chi-square statistic over 100 equiprobable model bins and the K-S
    distance against the fitted model.  The statistics are averaged across
    trials, and each significance level is the single-trial upper tail at
    the averaged statistic.  The trials run on the ``simkit`` worker pool,
    each on its own stream derived from ``seed`` and its index, so results
    are deterministic for a given seed whatever the number of workers.

    The arguments are checked before the fit: ``trials``, ``per_trial``
    and ``seed`` must be integers, not bools, of at least 1, 1 and 0
    (ValidationError), and ``per_trial`` at least 500, five draws per bin
    (BinningError).
    """
    _check_count(trials, "trials", ValidationError)
    _check_count(per_trial, "per_trial", ValidationError)
    _check_count(seed, "seed", ValidationError, 0)
    _check_binning(per_trial, _N_BINS)
    model = match_parameters(spec)
    env_cdf = model_envelope_cdf(model)
    factors = simkit._layer_factors(spec)

    def task(indices):
        # the envelope sums of sample_sum(spec, per_trial, trial seed), drawn
        # through the private block helpers (see simkit._map_blocks)
        stats = []
        for idx in indices:
            trial_seed, z = derive_seed(seed, 0x60F, idx), np.empty(per_trial)
            for block, lo, hi in simkit._blocks(per_trial):
                simkit._row_sum_block(factors, trial_seed, block, hi - lo, out=z[lo:hi])
            z.sort()
            f = env_cdf(z)
            stats.append((_chi_square_stat(f, _N_BINS), _ks_distance(f)))
        return stats

    jobs = min(simkit._worker_count(), trials)
    parts = simkit._map_blocks(task, [range(trials * j // jobs, trials * (j + 1) // jobs)
                                      for j in range(jobs)])
    chi2, dist = zip(*(pair for part in parts for pair in part))

    return GofReport(chi2_stat=math.fsum(chi2) / trials, ks_stat=math.fsum(dist) / trials,
                     n_samples=per_trial, n_trials=trials)
