"""Equal-gain-combining receiver performance through the equivalent
maximal-ratio system.

The combiner output SNR is (sum_k Z_k)^2 / (L N0), so its distribution is
the fitted Gamma-sum proxy with the power rescaled to omega_r / (L N0).
Outage follows from the proxy CDF; average error probabilities follow from
the MGF: for coherent BPSK the integral (1/pi) int_0^(pi/2) M(-1/sin^2)
with u = cot(theta), summed by the exp-sinh rule of ``specfun`` with one
array MGF call per step halving, and for noncoherent BFSK the single value
mgf(-1/2)/2.  Only omega_r moves along an SNR curve, so a curve is one
array call on the fit.  Every number produced here is an equivalent-MRC
approximation of the true EGC metric, and curve metadata says so.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, DomainError, TruncationError, ValidationError, _check_count,
                     _check_positive, _real_array)
from .gammasum import cdf, mgf
from .matcher import GammaSumModel, match_parameters
from .moments import EnsembleSpec
from .specfun import _exp_sinh

__all__ = [
    "ReceiverSpec",
    "PerfPoint",
    "PerfCurve",
    "egc_model",
    "outage",
    "ber_bpsk",
    "ber_bfsk_noncoherent",
    "power_profile",
    "ber_curve",
    "outage_curve",
]

MODULATIONS = ("bpsk", "bfsk")

CURVE_CSV_HEADER = ("snr_db", "value", "kind", "meta")

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ReceiverSpec:
    """Diversity receiver: branch ensemble, noise density, modulation.  Only
    ``egc_model`` reads ``noise_psd``; ``ber_curve``, ``outage_curve`` and
    ``simulate_egc_ber`` take the per-branch SNR from their grid."""

    ensemble: EnsembleSpec
    noise_psd: float
    modulation: str = "bpsk"

    def __post_init__(self):
        _check_positive(self.noise_psd, "noise psd", ValidationError)
        if self.modulation not in MODULATIONS:
            raise ValidationError(
                f"modulation must be one of {MODULATIONS}, got {self.modulation!r}")


@dataclass(frozen=True)
class PerfPoint:
    snr_db: float
    value: float
    stderr: float | None = None


@dataclass(frozen=True)
class PerfCurve:
    """Outage or error probability versus per-branch average SNR."""

    points: tuple[PerfPoint, ...]
    kind: str
    meta: dict = field(default_factory=dict)

    def values(self) -> list[float]:
        return [p.value for p in self.points]

    def to_rows(self) -> list[dict]:
        rows = []
        for p in self.points:
            meta = dict(self.meta)
            if p.stderr is not None:
                meta["stderr"] = p.stderr
            rows.append({
                "snr_db": p.snr_db,
                "value": p.value,
                "kind": self.kind,
                "meta": json.dumps(meta, sort_keys=True),
            })
        return rows


def egc_model(rx: ReceiverSpec) -> GammaSumModel:
    """Fit the ensemble and rescale the proxy power to the combiner SNR.

    The shape parameter and spectrum are scale invariant; only the power
    moves to omega_r / (L N0).
    """
    model = match_parameters(rx.ensemble)
    return model.scaled(model.omega_r / (model.branch_count * rx.noise_psd))


def outage(model: GammaSumModel, threshold: float) -> float:
    """Probability that the combiner output SNR drops below the threshold."""
    return cdf(model, threshold)


def _bpsk(model: GammaSumModel, scale):
    """``ber_bpsk`` of ``model`` with its power times ``scale``, a float or
    an array whose entries are the lanes of one exp-sinh sum."""
    def integrand(ln_u):
        u = np.exp(ln_u)[(...,) + (None,) * np.ndim(scale)]
        w = 1.0 + u * u
        with np.errstate(over="ignore"):  # w * scale -> inf, where the MGF is 0
            return u * mgf(model, -w * scale) / w

    try:
        value = _exp_sinh(integrand, -745.0, 300.0, 1e-12) / math.pi
    except TruncationError as exc:
        raise AccuracyError(f"BPSK quadrature did not stabilize: {exc}",
                            partial=exc.partial / math.pi) from exc
    return np.where(value >= _TINY, value, 0.0)


def ber_bpsk(model: GammaSumModel) -> float:
    """Average BPSK error probability (1/pi) int_0^(pi/2) M(-1/sin^2 theta).

    With u = cot(theta) this is (1/pi) int_0^inf M(-(1+u^2))/(1+u^2) du.
    The integrand falls monotonically from M(-1), so the tail past u = e^300
    is below 2e-130 of the integral.  The exp-sinh rule sums ln u in
    [-745, 300] and halves its step until two sums agree to 1e-12 relative,
    well inside the 1e-10 relative contract (agreement to 1e-10 alone can
    leave the finer sum 2e-12 off); otherwise AccuracyError carries the
    finest sum.  The contract covers the normal float range: a result below
    the smallest normal float (about 2.2e-308) keeps only a few digits and
    is returned as 0.0.
    """
    return float(_bpsk(model, 1.0))


def ber_bfsk_noncoherent(model: GammaSumModel) -> float:
    """Average noncoherent BFSK error probability, mgf(-1/2)/2."""
    return 0.5 * mgf(model, -0.5)


def power_profile(omega1: float, mu: float, L: int) -> tuple[float, ...]:
    """Exponentially decaying branch powers omega1 * exp(-mu * (k-1))."""
    _check_positive(omega1, "omega1", DomainError)
    _check_positive(mu, "decay exponent", DomainError, zero_ok=True)
    _check_count(L, "branch count", DomainError)
    return tuple(omega1 * math.exp(-mu * k) for k in range(L))


def _out_of_range(grid, what: str, values) -> None:
    """DomainError naming the first point whose value is outside (0, inf)."""
    bad = np.flatnonzero(~((values > 0.0) & (values < math.inf)))
    if bad.size:
        raise DomainError(f"SNR grid point {grid[bad[0]]} dB puts the {what} "
                          f"out of range ({float(values[bad[0]])})")


def _snr_scale(rx: ReceiverSpec, snr_db_grid):
    """The grid as a list of floats and each point's combiner SNR per unit
    squared envelope sum, 10^(snr/10) / (L omega_1); DomainError unless the
    grid is a vector of finite numbers that keeps this scale in (0, inf)."""
    grid = _real_array(snr_db_grid, "SNR grid points", DomainError, -math.inf, 1)
    with np.errstate(all="ignore"):
        scale = 10.0 ** (grid / 10.0) / (rx.ensemble.branch_count * rx.ensemble.powers[0])
    _out_of_range(grid, "combiner SNR scale", scale)
    return grid.tolist(), scale


def _sweep(rx: ReceiverSpec, snr_db_grid, threshold: float | None = None):
    """``_snr_scale`` and the ensemble's fit.  The first point that puts the
    proxy power, or with ``threshold`` threshold / scale, outside (0, inf)
    raises DomainError."""
    grid, scale = _snr_scale(rx, snr_db_grid)
    base = match_parameters(rx.ensemble)
    with np.errstate(all="ignore"):
        _out_of_range(grid, "proxy power", base.omega_r * scale)
        if threshold is not None:
            _out_of_range(grid, "outage threshold", threshold / scale)
    return grid, base, scale


def _curve(grid, values, kind: str, **meta) -> PerfCurve:
    return PerfCurve(points=tuple(map(PerfPoint, grid, map(float, values))), kind=kind,
                     meta={"method": "equivalent-mrc-approximation", **meta})


def ber_curve(rx: ReceiverSpec, snr_db_grid) -> PerfCurve:
    """Analytic error probability versus per-branch average SNR (dB)."""
    grid, base, scale = _sweep(rx, snr_db_grid)
    if rx.modulation == "bpsk":
        values = _bpsk(base, scale)
    else:
        values = 0.5 * mgf(base, -0.5 * scale)
    return _curve(grid, values, f"ber-{rx.modulation}", branches=rx.ensemble.branch_count)


def outage_curve(rx: ReceiverSpec, snr_db_grid, threshold: float) -> PerfCurve:
    """Analytic outage probability versus per-branch average SNR (dB)."""
    _check_positive(threshold, "outage threshold", DomainError)
    grid, base, scale = _sweep(rx, snr_db_grid, threshold)
    return _curve(grid, cdf(base, threshold / scale), "outage",
                  threshold=threshold, branches=rx.ensemble.branch_count)
