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
from dataclasses import dataclass, field, replace

from .errors import ConsistencyError, ValidationError, _check_positive
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
    """Fitted proxy distribution for a sum of correlated envelopes; its
    branch count is the length of its spectrum."""

    omega_r: float
    m_r: float
    spectrum: EigenSpectrum
    source_moments: MomentPair
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        _check_positive(self.omega_r, "fitted omega_r", ConsistencyError)
        _check_positive(self.m_r, "fitted m_r", ConsistencyError)

    @property
    def branch_count(self) -> int:
        return len(self.spectrum)

    @property
    def mean_square(self) -> float:
        return self.omega_r * self.branch_count

    def scaled(self, omega_r: float) -> "GammaSumModel":
        """Same shape and spectrum at a different power level."""
        return replace(self, omega_r=omega_r)

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
        """The model ``to_json`` wrote; a malformed document, one whose
        ``omega_r``, ``m_r`` or source moments are not finite positive
        numbers (a bool or a numeric string included), or one whose
        ``branch_count`` is not its spectrum's length, raises ValidationError."""
        try:
            doc = json.loads(text)
            count, moments = doc["branch_count"], doc["source_moments"]
            values = {"omega_r": doc["omega_r"], "m_r": doc["m_r"],
                      "m2": moments["m2"], "m4": moments["m4"]}
            for name, value in values.items():
                _check_positive(value, name, ValidationError)
            omega_r, m_r, m2, m4 = map(float, values.values())
            model = cls(
                omega_r=omega_r,
                m_r=m_r,
                spectrum=EigenSpectrum(tuple(doc["spectrum"])),
                source_moments=MomentPair(m2=m2, m4=m4),
                flags=tuple(doc.get("flags", ())),
            )
        except (KeyError, TypeError, ValueError, OverflowError, ConsistencyError) as exc:
            raise ValidationError(f"malformed gamma-sum-model document: {exc}") from exc
        if count != model.branch_count:
            raise ValidationError(
                f"branch_count {count} != spectrum length {model.branch_count}")
        return model


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
    # One matrix defines both the joint moments and the proxy spectrum:
    # exponential correlation's own chain or an arbitrary matrix's fit.
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
        omega_r=m2 / L,
        m_r=m_r,
        spectrum=spectrum,
        source_moments=MomentPair(m2=m2, m4=m4),
        flags=flags,
    )
