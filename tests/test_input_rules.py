"""The input rules (a count, a correlation coefficient rho, a positive
scalar and a real array) at every entry point that applies them: each
malformed value raises that entry point's error class, numpy scalars give
the same result as Python ones, and an int list or a float32 array the
same result as a float list."""
import dataclasses
import json
import math

import numpy as np
import pytest

from nakasum.egc import (ReceiverSpec, ber_curve, egc_model, outage_curve, power_profile)
from nakasum.errors import ConsistencyError, DomainError, ValidationError
from nakasum.gammasum import cdf, mgf, pdf, pdf_equal_corr
from nakasum.gof import chi_square_test, gof_campaign, ks_test
from nakasum.linalg import CorrelationMatrix, EigenSpectrum, principal_submatrix_inverse
from nakasum.matcher import GammaSumModel, match_parameters
from nakasum.moments import (
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
    MomentPair,
    joint_moment_quad,
    joint_moment_triple,
    second_moment_Z,
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
EQUAL_MODEL = match_parameters(EnsembleSpec(2, (1.0,) * 3, EqualCorrelation(0.3)))
ONE_BRANCH_MODEL = match_parameters(EnsembleSpec(2, (1.0,), EqualCorrelation(0.0)))
FOUR_BRANCH_MODEL = match_parameters(EnsembleSpec(2, (1.0,) * 4, ExponentialCorrelation(0.5)))
UNIFORM = np.linspace(0.001, 0.999, 500)
SAMPLES = [float(k) for k in range(1, 16)]
MATRIX = CorrelationMatrix.exponential(0.5, 4)


def model_with(key, value, model=MODEL):
    """``model`` read back from its JSON document with one field or source
    moment replaced."""
    doc = json.loads(model.to_json())
    (doc["source_moments"] if key in ("m2", "m4") else doc)[key] = value
    # a numpy integer is written as the int it holds
    return GammaSumModel.from_json(json.dumps(doc, default=int))


def spec_with(m_z=2, power=0.5, corr=EqualCorrelation(0.3)):
    return EnsembleSpec(fading_m=m_z, powers=(1.0, power), correlation=corr)


def campaign(trials=1, per_trial=500, seed=0):
    report = gof_campaign(SPEC, trials=trials, per_trial=per_trial, seed=seed)
    return report.chi2_stat, report.ks_stat


def sixteenths(x):
    return x / 16.0


# (id, rule, lowest count or the site's out-of-range arrays, a valid value,
# call, error class)
ENTRY_POINTS = [
    ("spec-fading-m", "count", 1, 2, lambda v: second_moment_Z(spec_with(m_z=v)),
     ValidationError),
    ("w-coefficient", "count", 1, 2, lambda v: w_coefficient((1, 1, 1, 1), v, 0.5),
     DomainError),
    # W(2,1,1), in any order, takes its four-term reduction after the same checks
    ("w211-reduced", "count", 1, 2, lambda v: w_coefficient((2, 1, 1), v, 0.5), DomainError),
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
    # a float or bool order or index must not be truncated to an integer
    ("w-coefficient-order", "count", 1, 2, lambda v: w_coefficient((v, 1, 1, 1), 1, 0.5),
     DomainError),
    ("submatrix-index", "count", 0, 1,
     lambda v: principal_submatrix_inverse(MATRIX, (v, 2, 3)), ValidationError),
    ("equal-correlation", "rho", None, 0.3,
     lambda v: second_moment_Z(spec_with(corr=EqualCorrelation(v))), ValidationError),
    ("exponential-correlation", "rho", None, 0.3,
     lambda v: second_moment_Z(spec_with(corr=ExponentialCorrelation(v))), ValidationError),
    ("matrix-equal-rho", "rho", None, 0.3,
     lambda v: CorrelationMatrix.equal(v, 3).entries, ValidationError),
    ("matrix-exponential-rho", "rho", None, 0.3,
     lambda v: CorrelationMatrix.exponential(v, 3).entries, ValidationError),
    ("w-coefficient-rho", "rho", None, 0.3, lambda v: w_coefficient((1, 1, 1, 1), 1, v),
     DomainError),
    ("w211-reduced-rho", "rho", None, 0.3, lambda v: w_coefficient((1, 2, 1), 2, v),
     DomainError),
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
    ("pdf-equal-corr-r", "positive", None, 1.0, lambda v: pdf_equal_corr(EQUAL_MODEL, v),
     DomainError),
    ("moment-pair-m2", "positive", None, 2.0, lambda v: MomentPair(v, 100.0).m2,
     ValidationError),
    ("moment-pair-m4", "positive", None, 3.0, lambda v: MomentPair(1.0, v).m4,
     ValidationError),
    ("model-omega-r", "positive", None, 2.0, lambda v: MODEL.scaled(v).omega_r,
     ConsistencyError),
    ("model-m-r", "positive", None, 2.0, lambda v: dataclasses.replace(MODEL, m_r=v).m_r,
     ConsistencyError),
    # a bool, a float or a string must not pass for the spectrum's length
    ("from-json-branch-count", "count", 1, 1,
     lambda v: model_with("branch_count", v, ONE_BRANCH_MODEL).m_r, ValidationError),
    ("from-json-branch-count-4", "count", 4, 4,
     lambda v: model_with("branch_count", v, FOUR_BRANCH_MODEL).m_r, ValidationError),
    # a numeric string or a bool in a document must not load as a number
    ("from-json-omega-r", "positive", None, MODEL.omega_r,
     lambda v: model_with("omega_r", v).omega_r, ValidationError),
    ("from-json-m-r", "positive", None, MODEL.m_r, lambda v: model_with("m_r", v).m_r,
     ValidationError),
    ("from-json-m2", "positive", None, MODEL.source_moments.m2,
     lambda v: model_with("m2", v).source_moments.m2, ValidationError),
    ("from-json-m4", "positive", None, MODEL.source_moments.m4,
     lambda v: model_with("m4", v).source_moments.m4, ValidationError),
    # 0 (equal powers) is a valid decay exponent
    ("power-profile-mu", "nonnegative", None, 0.0, lambda v: power_profile(1.0, v, 3),
     DomainError),
    ("matrix-entries", "array", [[[1.0, math.nan], [math.nan, 1.0]], [[1.0, math.inf]] * 2,
                                 [[1, True], [True, 1]]],
     [[1.0, 0.0], [0.0, 1.0]], lambda v: CorrelationMatrix(v).entries, ValidationError),
    ("markov-links", "array", [[math.nan], [math.inf], [1.5]], [1.0, 0.0],
     lambda v: CorrelationMatrix.from_markov_links(v).entries, ValidationError),
    ("pdf", "array", [[math.nan], [math.inf], [0.0], [-1.0]], [1.0, 2.0],
     lambda v: pdf(MODEL, v), DomainError),
    ("cdf", "array", [[math.nan], [math.inf], [0.0], [-1.0]], [1.0, 2.0],
     lambda v: cdf(MODEL, v), DomainError),
    ("mgf", "array", [[math.nan], [1e9]], [-1.0, -2.0], lambda v: mgf(MODEL, v),
     DomainError),
    ("ber-curve-grid", "array", [[math.nan], [math.inf], [4000.0]], [0.0, 5.0],
     lambda v: ber_curve(RX, v).values(), DomainError),
    ("outage-curve-grid", "array", [[math.nan], [-math.inf], [4000.0]], [0.0, 5.0],
     lambda v: outage_curve(RX, v, 2.0).values(), DomainError),
    ("egc-sim-grid", "array", [[math.nan], [math.inf], [-4000.0]], [5.0],
     lambda v: simulate_egc_ber(RX, v, 10_000, 0).values(), DomainError),
    ("ks-samples", "array", [SAMPLES + [math.nan], SAMPLES + [math.inf]], SAMPLES,
     lambda v: ks_test(v, sixteenths), ValidationError),
    ("chi-square-samples", "array", [SAMPLES + [math.nan], SAMPLES + [-math.inf]], SAMPLES,
     lambda v: chi_square_test(v, sixteenths, n_bins=2), ValidationError),
    ("joint-triple-links", "array", [[math.nan, 0.5], [1.5, 0.5]], [0.0, 0.0],
     lambda v: joint_moment_triple(1, 2, 1, v, 2), ValidationError),
    ("joint-quad-links", "array", [[math.nan, 0.5, 0.5], [0.5, -1.0, 0.5]], [0.0, 0.0, 0.0],
     lambda v: joint_moment_quad(v, 2), ValidationError),
    ("eigen-spectrum", "array", [[math.nan], [math.inf, 1.0], [1.0, 2.0]], [2.0, 1.0],
     lambda v: EigenSpectrum(v).values, ValidationError),
]


def malformed(rule, low):
    if rule == "count":
        return [2.5, True, "3", low - 1, float(low), str(low), math.nan, math.inf, -1]
    if rule == "rho":
        return [2.5, True, "0.5", None, math.nan, math.inf, -0.5]
    if rule == "nonnegative":
        return [True, False, "3", math.nan, math.inf, -1.0]
    if rule == "array":
        # numpy would promote the bool in [1.0, True] to 1.0
        return [["1"], [True], [1.0, True], ["a"], [None], "1"] + low
    return [True, "3", 0.0, math.nan, math.inf, -1.0]


def same_values(rule, good):
    """Inputs that must give the result ``good`` gives."""
    if rule == "count":
        return [np.int64(good)]
    if rule == "array":
        return [np.asarray(good).astype(int).tolist(), np.asarray(good, dtype=np.float32)]
    return [np.float64(good)]


@pytest.mark.parametrize("rule, low, good, call, error",
                         [case[1:] for case in ENTRY_POINTS],
                         ids=[case[0] for case in ENTRY_POINTS])
def test_input_rule(rule, low, good, call, error):
    for value in malformed(rule, low):
        with pytest.raises(error) as exc:
            call(value)
        assert type(exc.value) is error, (value, exc.value)
    for value in same_values(rule, good):
        np.testing.assert_equal(call(value), call(good))


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
    lambda: CorrelationMatrix([["1", "0.5"], ["0.5", "1"]]),
    lambda: CorrelationMatrix.from_markov_links(["0.5"]),
    lambda: EigenSpectrum(("2.0", "1.0")),
    lambda: ks_test(["0.01"] * 20, sixteenths),
    lambda: CorrelationMatrix([[1.0, 0.5], [0.5]]),
], ids=["matrix-string", "matrix-mixed", "links-string", "power-string", "powers-int",
        "equal-rho-string", "exponential-rho-none", "exponential-dim-string",
        "equal-dim-float", "identity-dim-bool", "matrix-numeric-strings",
        "links-numeric-string", "spectrum-numeric-strings", "samples-numeric-strings",
        "matrix-ragged"])
def test_non_numeric_input_is_validation_error(call):
    # not a bare TypeError or ValueError from the numeric conversion
    with pytest.raises(ValidationError) as exc:
        call()
    assert type(exc.value) is ValidationError


@pytest.mark.parametrize("call", [
    lambda: w_coefficient((1, 1, 1, 1), 1, "0.5"),
    lambda: w_coefficient((1, 1, 2), 1, "a"),
    lambda: power_profile(1.0, "1", 2),
    lambda: pdf_equal_corr(EQUAL_MODEL, "1"),
    lambda: pdf(MODEL, "1"),
    lambda: cdf(MODEL, ["1"]),
    lambda: mgf(MODEL, "-0.5"),
    lambda: ber_curve(RX, ["3"]),
    lambda: simulate_egc_ber(RX, [True], 10_000, 0),
    lambda: ber_curve(RX, 5.0),
], ids=["w-rho-string", "w211-rho-string", "mu-string", "pdf-equal-corr-string",
        "pdf-string", "cdf-string", "mgf-string", "grid-string",
        "grid-bool", "grid-scalar"])
def test_non_numeric_input_is_domain_error(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert type(exc.value) is DomainError
