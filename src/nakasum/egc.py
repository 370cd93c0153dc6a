"""Equal-gain-combining receiver performance through the equivalent
maximal-ratio system.

The combiner output SNR is (sum_k Z_k)^2 / (L N0), so its distribution is
the fitted Gamma-sum proxy with the power rescaled to omega_r / (L N0).
Outage follows from the proxy CDF; average error probabilities follow from
the MGF: panelled Gauss-Legendre quadrature over (0, pi/2) for coherent
BPSK, with the MGF evaluated over all nodes of a panel set in one array
call, and the single value mgf(-1/2)/2 for noncoherent BFSK.  Every number
produced here is an equivalent-MRC approximation of the true EGC metric,
and curve metadata says so.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError, ValidationError
from .gammasum import QuadratureControl, DEFAULT_QUADRATURE, cdf, mgf
from .matcher import GammaSumModel, match_parameters
from .moments import EnsembleSpec

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


@dataclass(frozen=True)
class ReceiverSpec:
    """Diversity receiver: branch ensemble, noise density, modulation."""

    ensemble: EnsembleSpec
    noise_psd: float
    modulation: str = "bpsk"

    def __post_init__(self):
        if not self.noise_psd > 0:
            raise ValidationError(f"noise psd must be positive, got {self.noise_psd}")
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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CURVE_CSV_HEADER)
        writer.writeheader()
        for row in self.to_rows():
            writer.writerow(row)
        return buf.getvalue()


def egc_model(rx: ReceiverSpec) -> GammaSumModel:
    """Fit the ensemble and rescale the proxy power to the combiner SNR.

    The shape parameter and spectrum are scale invariant; only the power
    moves to omega_r / (L N0).
    """
    model = match_parameters(rx.ensemble)
    return model.scaled(model.omega_r / (model.branch_count * rx.noise_psd))


def outage(model: GammaSumModel, threshold: float,
           ctrl: QuadratureControl = DEFAULT_QUADRATURE) -> float:
    """Probability that the combiner output SNR drops below the threshold."""
    if not threshold > 0:
        raise DomainError(f"outage threshold must be positive, got {threshold}")
    return cdf(model, threshold, ctrl)


_BER_PANEL_LEVELS = 40


def _panel_ber(model: GammaSumModel, nodes: int) -> float:
    # Geometric panels toward theta = 0, where the integrand vanishes like
    # an algebraic power of sin(theta); a single global rule cannot hold a
    # 1e-10 doubling gate there for small m_r * L or small average SNR.
    xg, wg = leggauss(nodes)
    xg = (xg + 1.0) * 0.5
    wg = wg * 0.5
    edges = np.concatenate((
        [0.0],
        math.pi / 2.0 * 2.0 ** -np.arange(_BER_PANEL_LEVELS, -1.0, -1.0),
    ))
    theta = edges[:-1, None] + np.diff(edges)[:, None] * xg[None, :]
    s = np.sin(theta)
    vals = mgf(model, -1.0 / (s * s))
    total = float(np.sum(np.diff(edges)[:, None] * wg[None, :] * vals))
    return total / math.pi


def ber_bpsk(model: GammaSumModel, nodes: int = 64) -> float:
    """Average BPSK error probability via the MGF integral over (0, pi/2).

    Panelled Gauss-Legendre with geometric refinement toward the endpoint;
    the node count is doubled once and both estimates must agree to 1e-10
    relative.
    """
    if nodes < 2:
        raise DomainError("need at least two quadrature nodes")
    first = _panel_ber(model, nodes)
    second = _panel_ber(model, 2 * nodes)
    if abs(first - second) > 1e-10 * max(abs(second), 1e-300):
        raise AccuracyError(
            f"BPSK quadrature did not stabilize ({first} vs {second})",
            partial=second,
            estimates=(first, second),
        )
    return second


def ber_bfsk_noncoherent(model: GammaSumModel) -> float:
    """Average noncoherent BFSK error probability, mgf(-1/2)/2."""
    return 0.5 * mgf(model, -0.5)


def power_profile(omega1: float, mu: float, L: int) -> tuple[float, ...]:
    """Exponentially decaying branch powers omega1 * exp(-mu * (k-1))."""
    if not omega1 > 0:
        raise DomainError(f"omega1 must be positive, got {omega1}")
    if mu < 0:
        raise DomainError(f"decay exponent must be nonnegative, got {mu}")
    if L < 1:
        raise DomainError(f"need at least one branch, got {L}")
    return tuple(omega1 * math.exp(-mu * k) for k in range(L))


def _swept_models(rx: ReceiverSpec, snr_db_grid) -> list[tuple[float, GammaSumModel]]:
    base = match_parameters(rx.ensemble)
    omega1 = rx.ensemble.powers[0]
    L = rx.ensemble.branch_count
    out = []
    for snr_db in snr_db_grid:
        gamma1 = 10.0 ** (snr_db / 10.0)
        out.append((float(snr_db), base.scaled(base.omega_r * gamma1 / (L * omega1))))
    return out


def ber_curve(rx: ReceiverSpec, snr_db_grid,
              nodes: int = 64) -> PerfCurve:
    """Analytic error probability versus per-branch average SNR (dB)."""
    points = []
    for snr_db, model in _swept_models(rx, snr_db_grid):
        if rx.modulation == "bpsk":
            value = ber_bpsk(model, nodes)
        else:
            value = ber_bfsk_noncoherent(model)
        points.append(PerfPoint(snr_db=snr_db, value=value))
    return PerfCurve(
        points=tuple(points),
        kind=f"ber-{rx.modulation}",
        meta={"method": "equivalent-mrc-approximation",
              "branches": rx.ensemble.branch_count},
    )


def outage_curve(rx: ReceiverSpec, snr_db_grid, threshold: float,
                 ctrl: QuadratureControl = DEFAULT_QUADRATURE) -> PerfCurve:
    """Analytic outage probability versus per-branch average SNR (dB)."""
    points = []
    for snr_db, model in _swept_models(rx, snr_db_grid):
        points.append(PerfPoint(snr_db=snr_db, value=outage(model, threshold, ctrl)))
    return PerfCurve(
        points=tuple(points),
        kind="outage",
        meta={"method": "equivalent-mrc-approximation",
              "threshold": threshold,
              "branches": rx.ensemble.branch_count},
    )
