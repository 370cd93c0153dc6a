"""Correlated Nakagami-m envelope sums via a moment-matched Gamma-sum
model, with equal-gain diversity receiver performance and Monte-Carlo
validation."""

from .errors import (
    AccuracyError,
    BinningError,
    BoundaryError,
    ConsistencyError,
    DivergenceError,
    DomainError,
    FitClampWarning,
    NakasumError,
    SingularMatrixError,
    TruncationError,
    ValidationError,
)
from .linalg import CorrelationMatrix, EigenSpectrum
from .matcher import GammaSumModel, match_parameters
from .moments import (
    ArbitraryCorrelation,
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
    MomentPair,
    fourth_moment_Z,
    second_moment_Z,
)
from .gammasum import cdf, mgf, pdf, pdf_equal_corr
from .egc import (
    PerfCurve,
    PerfPoint,
    ReceiverSpec,
    ber_bfsk_noncoherent,
    ber_bpsk,
    ber_curve,
    egc_model,
    outage,
    outage_curve,
    power_profile,
)
from .gof import GofReport, chi_square_test, gof_campaign, ks_test
from .simkit import (
    SampleBatch,
    sample_correlated_nakagami,
    sample_sum,
    simulate_egc_ber,
)
from .specfun import gauss_2f1, kummer_1f1, lauricella_fa, ln_gamma

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ArbitraryCorrelation",
    "BinningError",
    "BoundaryError",
    "ConsistencyError",
    "CorrelationMatrix",
    "DivergenceError",
    "DomainError",
    "EigenSpectrum",
    "EnsembleSpec",
    "EqualCorrelation",
    "ExponentialCorrelation",
    "FitClampWarning",
    "GammaSumModel",
    "GofReport",
    "MomentPair",
    "NakasumError",
    "PerfCurve",
    "PerfPoint",
    "ReceiverSpec",
    "SampleBatch",
    "SingularMatrixError",
    "TruncationError",
    "ValidationError",
    "ber_bfsk_noncoherent",
    "ber_bpsk",
    "ber_curve",
    "cdf",
    "chi_square_test",
    "egc_model",
    "fourth_moment_Z",
    "gauss_2f1",
    "gof_campaign",
    "kummer_1f1",
    "ks_test",
    "lauricella_fa",
    "ln_gamma",
    "match_parameters",
    "mgf",
    "outage",
    "outage_curve",
    "pdf",
    "pdf_equal_corr",
    "power_profile",
    "sample_correlated_nakagami",
    "sample_sum",
    "second_moment_Z",
    "simulate_egc_ber",
]
