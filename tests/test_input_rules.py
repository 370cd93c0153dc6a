"""The three input rules (a count, a correlation coefficient rho and a
positive scalar) at every entry point that applies them: each malformed
value raises that entry point's error class, and numpy scalars give the
same result as Python ones."""
import math

import numpy as np
import pytest

from nakasum.egc import ReceiverSpec, egc_model, outage_curve, power_profile
from nakasum.errors import DomainError, ValidationError
from nakasum.gammasum import cdf, pdf
from nakasum.gof import chi_square_test, gof_campaign
from nakasum.linalg import CorrelationMatrix
from nakasum.matcher import match_parameters
from nakasum.moments import (
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
    joint_moment_quad,
    joint_moment_triple,
    second_moment_Z,
    w211_reduced,
    w_coefficient,
)
from nakasum.simkit import (
    estimate_sum_moments,
    sample_correlated_nakagami,
    sample_sum,
    simulate_egc_ber,
)

SPEC = EnsembleSpec(fading_m=2, powers=(1.0, 0.5), correlation=ExponentialCorrelation(0.5))
RX = ReceiverSpec(SPEC, noise_psd=1.0)
MODEL = match_parameters(SPEC)
UNIFORM = np.linspace(0.001, 0.999, 500)


def spec_with(m_z=2, power=0.5, corr=EqualCorrelation(0.3)):
    return EnsembleSpec(fading_m=m_z, powers=(1.0, power), correlation=corr)


def campaign(trials=1, per_trial=500, seed=0):
    report = gof_campaign(SPEC, trials=trials, per_trial=per_trial, seed=seed)
    return report.chi2_stat, report.ks_stat


# (id, rule, lowest count, a valid value, call, error class)
ENTRY_POINTS = [
    ("spec-fading-m", "count", 1, 2, lambda v: second_moment_Z(spec_with(m_z=v)),
     ValidationError),
    ("w-coefficient", "count", 1, 2, lambda v: w_coefficient((1, 1, 1, 1), v, 0.5),
     DomainError),
    ("w211-reduced", "count", 1, 2, lambda v: w211_reduced(v, 0.5), DomainError),
    ("joint-triple", "count", 1, 2, lambda v: joint_moment_triple(1, 2, 1, (0.5, 0.5), v),
     DomainError),
    ("joint-quad", "count", 1, 2, lambda v: joint_moment_quad((0.5,) * 3, v), DomainError),
    ("sample-n", "count", 1, 5, lambda v: sample_correlated_nakagami(SPEC, v, 0).data,
     ValidationError),
    ("sample-seed", "count", 0, 3, lambda v: sample_correlated_nakagami(SPEC, 5, v).data,
     ValidationError),
    ("sum-n", "count", 1, 5, lambda v: sample_sum(SPEC, v, 0), ValidationError),
    ("sum-seed", "count", 0, 3, lambda v: sample_sum(SPEC, 5, v), ValidationError),
    ("moments-n", "count", 1, 50, lambda v: estimate_sum_moments(SPEC, v, 0),
     ValidationError),
    ("moments-seed", "count", 0, 3, lambda v: estimate_sum_moments(SPEC, 50, v),
     ValidationError),
    ("egc-sim-n-bits", "count", 10_000, 10_000,
     lambda v: simulate_egc_ber(RX, [5.0], v, 0).values(), ValidationError),
    ("egc-sim-seed", "count", 0, 3,
     lambda v: simulate_egc_ber(RX, [5.0], 10_000, v).values(), ValidationError),
    ("chi-square-n-bins", "count", 2, 10,
     lambda v: chi_square_test(UNIFORM, lambda x: x, n_bins=v), ValidationError),
    ("campaign-trials", "count", 1, 1, lambda v: campaign(trials=v), ValidationError),
    ("campaign-per-trial", "count", 1, 500, lambda v: campaign(per_trial=v),
     ValidationError),
    ("campaign-seed", "count", 0, 3, lambda v: campaign(seed=v), ValidationError),
    ("power-profile-L", "count", 1, 3, lambda v: power_profile(1.0, 0.3, v), DomainError),
    ("matrix-equal-dim", "count", 1, 3, lambda v: CorrelationMatrix.equal(0.5, v).entries,
     ValidationError),
    # a float or bool dim must not round to a matrix size
    ("matrix-exponential-dim", "count", 1, 3,
     lambda v: CorrelationMatrix.exponential(0.5, v).entries, ValidationError),
    ("matrix-identity-dim", "count", 1, 3, lambda v: CorrelationMatrix.identity(v).entries,
     ValidationError),
    ("equal-correlation", "rho", None, 0.3,
     lambda v: second_moment_Z(spec_with(corr=EqualCorrelation(v))), ValidationError),
    ("exponential-correlation", "rho", None, 0.3,
     lambda v: second_moment_Z(spec_with(corr=ExponentialCorrelation(v))), ValidationError),
    ("matrix-equal-rho", "rho", None, 0.3,
     lambda v: CorrelationMatrix.equal(v, 3).entries, ValidationError),
    ("matrix-exponential-rho", "rho", None, 0.3,
     lambda v: CorrelationMatrix.exponential(v, 3).entries, ValidationError),
    ("branch-power", "positive", None, 0.5, lambda v: second_moment_Z(spec_with(power=v)),
     ValidationError),
    ("power-profile-omega1", "positive", None, 2.0, lambda v: power_profile(v, 0.3, 3),
     DomainError),
    ("noise-psd", "positive", None, 0.5,
     lambda v: egc_model(ReceiverSpec(SPEC, noise_psd=v)).omega_r, ValidationError),
    ("outage-threshold", "positive", None, 2.0,
     lambda v: outage_curve(RX, [0.0, 5.0], v).values(), DomainError),
    ("pdf-abs-tol", "positive", None, 1e-9,
     lambda v: pdf(MODEL, [0.5, 1.0], abs_tol=v), DomainError),
    ("cdf-abs-tol", "positive", None, 1e-9,
     lambda v: cdf(MODEL, [0.5, 1.0], abs_tol=v), DomainError),
]


def malformed(rule, low):
    if rule == "count":
        return [2.5, True, "3", low - 1, math.nan, math.inf, -1]
    if rule == "rho":
        return [2.5, True, "0.5", None, math.nan, math.inf, -0.5]
    return [True, "3", 0.0, math.nan, math.inf, -1.0]


@pytest.mark.parametrize("rule, low, good, call, error",
                         [case[1:] for case in ENTRY_POINTS],
                         ids=[case[0] for case in ENTRY_POINTS])
def test_input_rule(rule, low, good, call, error):
    for value in malformed(rule, low):
        with pytest.raises(error) as exc:
            call(value)
        assert type(exc.value) is error, (value, exc.value)
    numpy_good = np.int64(good) if rule == "count" else np.float64(good)
    np.testing.assert_equal(call(numpy_good), call(good))


@pytest.mark.parametrize("call", [
    lambda: CorrelationMatrix("abc"),
    lambda: CorrelationMatrix([[1, "a"], ["a", 1]]),
    lambda: CorrelationMatrix.from_markov_links(["a"]),
    lambda: EnsembleSpec(1, ("a",), EqualCorrelation(0.1)),
    lambda: EnsembleSpec(1, 5, EqualCorrelation(0.1)),
    lambda: EqualCorrelation("0.5"),
    lambda: ExponentialCorrelation(None),
    lambda: CorrelationMatrix.exponential(0.5, "3"),
    lambda: CorrelationMatrix.equal(0.5, 2.5),
    lambda: CorrelationMatrix.identity(True),
], ids=["matrix-string", "matrix-mixed", "links-string", "power-string", "powers-int",
        "equal-rho-string", "exponential-rho-none", "exponential-dim-string",
        "equal-dim-float", "identity-dim-bool"])
def test_non_numeric_input_is_validation_error(call):
    # not a bare TypeError or ValueError from the numeric conversion
    with pytest.raises(ValidationError):
        call()
