"""Moment matching: fit the correlated-Gamma-sum proxy to an ensemble.

The proxy is an identically distributed, equally powered set of correlated
Nakagami envelopes whose root-sum-square R carries the distribution used
everywhere downstream.  Equating E[Z^2] = E[R^2] and E[Z^4] = E[R^4] fixes
the proxy power and its (generally non-integer) fading parameter:

    omega_r = E[Z^2] / L
    m_r     = (sum(lambda_k^2) / L^2) * E[Z^2]^2 / (E[Z^4] - E[Z^2]^2)

where lambda_k are the eigenvalues of the proxy's sqrt-correlation matrix.
Maximal correlation is exact: the sum is then a single Nakagami envelope
and the fit returns m_r equal to the branch fading parameter.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

from .errors import ConsistencyError
from .linalg import CorrelationMatrix, EigenSpectrum, eigenvalues_sym
from .moments import (
    EnsembleSpec,
    EqualCorrelation,
    MomentPair,
    _fourth_moment_Z,
    _markov_fit,
    second_moment_Z,
)

__all__ = ["GammaSumModel", "match_parameters"]


@dataclass(frozen=True)
class GammaSumModel:
    """Fitted proxy distribution for a sum of correlated envelopes."""

    branch_count: int
    omega_r: float
    m_r: float
    spectrum: EigenSpectrum
    source_moments: MomentPair
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not (0 < self.omega_r < math.inf and 0 < self.m_r < math.inf):
            raise ConsistencyError("fitted parameters must be finite and positive")
        if len(self.spectrum) != self.branch_count:
            raise ConsistencyError("spectrum length must equal branch count")

    @property
    def det_corr(self) -> float:
        """Determinant of the proxy correlation matrix (eigenvalue product)."""
        return math.prod(self.spectrum.values)

    @property
    def mean_square(self) -> float:
        return self.omega_r * self.branch_count

    def scaled(self, omega_r: float) -> "GammaSumModel":
        """Same shape and spectrum at a different power level."""
        return GammaSumModel(
            branch_count=self.branch_count,
            omega_r=omega_r,
            m_r=self.m_r,
            spectrum=self.spectrum,
            source_moments=self.source_moments,
            flags=self.flags,
        )

    def to_json(self) -> str:
        doc = {
            "schema": "gamma-sum-model/1",
            "branch_count": self.branch_count,
            "omega_r": self.omega_r,
            "m_r": self.m_r,
            "spectrum": list(self.spectrum.values),
            "source_moments": {"m2": self.source_moments.m2,
                               "m4": self.source_moments.m4},
            "flags": list(self.flags),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GammaSumModel":
        doc = json.loads(text)
        return cls(
            branch_count=int(doc["branch_count"]),
            omega_r=float(doc["omega_r"]),
            m_r=float(doc["m_r"]),
            spectrum=EigenSpectrum(tuple(doc["spectrum"])),
            source_moments=MomentPair(m2=float(doc["source_moments"]["m2"]),
                                      m4=float(doc["source_moments"]["m4"])),
            flags=tuple(doc.get("flags", ())),
        )


def _proxy_spectrum(spec: EnsembleSpec,
                    fitted: CorrelationMatrix | None) -> EigenSpectrum:
    L = spec.branch_count
    if spec.is_maximal():
        return EigenSpectrum((float(L),) + (0.0,) * (L - 1))
    if isinstance(spec.correlation, EqualCorrelation):
        rho = spec.correlation.rho
        sr = math.sqrt(rho)
        # 1 - sqrt(rho) without its cancellation as rho -> 1
        return EigenSpectrum((1.0 + (L - 1) * sr,) + ((1.0 - rho) / (1.0 + sr),) * (L - 1))
    # One matrix defines both the joint moments and the proxy spectrum;
    # the fit is an identity for exponential correlation.
    return eigenvalues_sym(fitted)


def match_parameters(spec: EnsembleSpec) -> GammaSumModel:
    """Fit the Gamma-sum proxy to an ensemble by two-moment matching."""
    L = spec.branch_count
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fitted = _markov_fit(spec)
        spectrum = _proxy_spectrum(spec, fitted)
        m2 = second_moment_Z(spec)
        m4 = _fourth_moment_Z(spec, fitted)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    flags = tuple(f"{w.category.__name__}: {w.message}" for w in caught)

    if spec.is_maximal():
        m_r = float(spec.fading_m)
    else:
        variance = m4 - m2 * m2
        if not variance > 0:
            raise ConsistencyError(
                f"moment matching needs E[Z^4] > E[Z^2]^2 (got m2={m2}, m4={m4})")
        m_r = spectrum.sum_squares / L ** 2 * m2 * m2 / variance
    return GammaSumModel(
        branch_count=L,
        omega_r=m2 / L,
        m_r=m_r,
        spectrum=spectrum,
        source_moments=MomentPair(m2=m2, m4=m4),
        flags=flags,
    )
