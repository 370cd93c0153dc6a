"""Moment-matching tests: published shape-parameter cells, closure
identities, and scale invariance."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakasum.errors import FitClampWarning, ValidationError
from nakasum.linalg import CorrelationMatrix
from nakasum.matcher import GammaSumModel, match_parameters
from nakasum.moments import (
    ArbitraryCorrelation,
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
)


def balanced(corr, m_z, L):
    return EnsembleSpec(fading_m=m_z, powers=(1.0,) * L, correlation=corr)


class TestPublishedCells:
    @pytest.mark.parametrize("rho,m_z,L,want", [
        (0.2, 1, 2, 0.9195),
        (0.0, 1, 2, 0.9552),
        (0.4, 2, 3, 1.8722),
        (0.6, 3, 2, 2.9222),
        (0.8, 2, 4, 1.9333),
    ])
    def test_equal_correlation(self, rho, m_z, L, want):
        model = match_parameters(balanced(EqualCorrelation(rho), m_z, L))
        assert model.m_r == pytest.approx(want, abs=5e-4)

    @pytest.mark.parametrize("rho,m_z,L,want", [
        (0.6, 1, 4, 0.8817),
        (0.4, 2, 3, 1.877),
        (0.2, 3, 3, 2.8878),
        (0.8, 1, 3, 0.934),
    ])
    def test_exponential_correlation(self, rho, m_z, L, want):
        model = match_parameters(balanced(ExponentialCorrelation(rho), m_z, L))
        assert model.m_r == pytest.approx(want, abs=5e-4)

    def test_zero_rho_models_coincide(self):
        for m_z in (1, 2, 3):
            for L in (2, 3, 4):
                eq = match_parameters(balanced(EqualCorrelation(0.0), m_z, L))
                ex = match_parameters(balanced(ExponentialCorrelation(0.0), m_z, L))
                assert eq.m_r == pytest.approx(ex.m_r, rel=1e-12)
                assert eq.omega_r == pytest.approx(ex.omega_r, rel=1e-12)


class TestMaximalCorrelation:
    def test_exact_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            L = int(rng.integers(2, 7))
            m_z = int(rng.integers(1, 5))
            powers = tuple(rng.uniform(0.1, 4.0, L))
            model = match_parameters(
                EnsembleSpec(fading_m=m_z, powers=powers,
                             correlation=EqualCorrelation(1.0)))
            assert model.m_r == float(m_z)
            want_omega = sum(math.sqrt(a * b) for a in powers for b in powers) / L
            assert model.omega_r == pytest.approx(want_omega, rel=1e-12)
            assert model.spectrum.values[0] == float(L)
            assert all(v == 0.0 for v in model.spectrum.values[1:])


class TestClosureAndInvariance:
    def test_moment_closure(self):
        # the fitted model must reproduce both source moments through the
        # moment theorem applied to its own MGF parameters
        specs = [
            balanced(EqualCorrelation(0.3), 2, 4),
            balanced(ExponentialCorrelation(0.5), 1, 3),
            EnsembleSpec(fading_m=3, powers=(2.0, 1.0, 0.5),
                         correlation=ExponentialCorrelation(0.7)),
        ]
        for spec in specs:
            model = match_parameters(spec)
            L = model.branch_count
            lam = np.asarray(model.spectrum.values)
            e_r2 = model.omega_r * lam.sum()
            e_r4 = model.omega_r ** 2 / model.m_r * (
                np.sum(lam ** 2) + model.m_r * L ** 2)
            assert e_r2 == pytest.approx(model.source_moments.m2, rel=1e-10)
            assert e_r4 == pytest.approx(model.source_moments.m4, rel=1e-10)

    @settings(max_examples=17, deadline=None)
    @given(log2_c=st.integers(-8, 8))
    def test_m_r_scale_free_bitwise(self, log2_c):
        c = 2.0 ** log2_c
        base = balanced(EqualCorrelation(0.4), 2, 3)
        scaled = EnsembleSpec(fading_m=2, powers=(c, c, c),
                              correlation=EqualCorrelation(0.4))
        assert match_parameters(scaled).m_r == match_parameters(base).m_r

    def test_m_r_scale_free_general(self):
        base = EnsembleSpec(fading_m=1, powers=(1.0, 0.7, 0.4),
                            correlation=ExponentialCorrelation(0.6))
        scaled = EnsembleSpec(fading_m=1, powers=(3.3, 2.31, 1.32),
                              correlation=ExponentialCorrelation(0.6))
        assert match_parameters(scaled).m_r == pytest.approx(
            match_parameters(base).m_r, rel=1e-12)

    def test_single_branch(self):
        model = match_parameters(
            EnsembleSpec(fading_m=3, powers=(1.7,),
                         correlation=EqualCorrelation(0.0)))
        assert model.m_r == pytest.approx(3.0, rel=1e-12)
        assert model.omega_r == pytest.approx(1.7, rel=1e-14)

    def test_spectrum_matches_joint_moment_matrix(self):
        # arbitrary correlation: the spectrum comes from the fitted matrix
        m = CorrelationMatrix(np.array([
            [1.0, 0.6, 0.2],
            [0.6, 1.0, 0.5],
            [0.2, 0.5, 1.0],
        ]))
        model = match_parameters(
            EnsembleSpec(fading_m=1, powers=(1.0,) * 3,
                         correlation=ArbitraryCorrelation(m)))
        assert math.fsum(model.spectrum.values) == pytest.approx(3.0, abs=1e-10)
        assert model.m_r > 0


class TestNearMaximalCorrelation:
    def test_equal_path_approaches_branch_parameter(self):
        prev = None
        for rho in (0.95, 0.99, 0.999):
            m_r = match_parameters(balanced(EqualCorrelation(rho), 1, 4)).m_r
            assert m_r < 1.0
            if prev is not None:
                assert m_r > prev
            prev = m_r
        assert prev > 0.999

    @pytest.mark.parametrize("L", [3, 4, 8, 16])
    def test_equal_panel_fits_up_to_one_minus_1e6(self, L):
        import warnings
        for m_z in (1, 2, 5, 10):
            prev = 0.0
            for rho in (0.999, 0.9999, 0.99999, 1.0 - 1e-6):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    model = match_parameters(balanced(EqualCorrelation(rho), m_z, L))
                assert model.flags == ()
                assert prev < model.m_r < m_z
                prev = model.m_r

    def test_equal_shape_gap_at_one_minus_1e6(self):
        # the same moments assembled in 40-digit mpmath give
        # m_z - m_r = 4.68749857e-7
        model = match_parameters(balanced(EqualCorrelation(1.0 - 1e-6), 10, 16))
        assert 10 - model.m_r == pytest.approx(4.68749857e-7, abs=1e-9)

    def test_markov_path_raises_cleanly_when_series_overflows(self):
        from nakasum.errors import TruncationError
        with pytest.raises(TruncationError):
            match_parameters(balanced(ExponentialCorrelation(0.995), 1, 3))


class TestLargeFadingParameter:
    @pytest.mark.parametrize("L", [4, 8])
    def test_equal_fits_past_m_z_50(self, L):
        # E[Z^4] was inf at m_z >= 50, L >= 4, where scipy's hyp1f1 overflows
        # in its W integrals; m_z - m_r varies slowly and smoothly in m_z
        gap = {}
        for m_z in (48, 49, 50, 64):
            model = match_parameters(balanced(EqualCorrelation(0.3), m_z, L))
            assert model.flags == ()
            gap[m_z] = m_z - model.m_r
        assert abs((gap[50] - gap[49]) - (gap[49] - gap[48])) < 1e-6
        assert gap[49] < gap[50] < gap[64] < gap[49] + 2e-4


class TestBoundedTime:
    # Each fit runs in a child process, so that a crawl inside C is stopped
    # by the timeout.  An exponential chain sums one lane per gap pattern:
    # C(L - 1, 2) triple and C(L - 1, 3) quad lanes for the C(L, 3) triples
    # and C(L, 4) quadruples.
    @staticmethod
    def exponential_fit(run_child, m_z, rho, L):
        code = (
            "import json, time\n"
            "from nakasum.egc import power_profile\n"
            "from nakasum.matcher import match_parameters\n"
            "from nakasum.moments import EnsembleSpec, ExponentialCorrelation\n"
            f"spec = EnsembleSpec(fading_m={m_z}, powers=power_profile(1.0, 0.3, {L}),\n"
            f"                    correlation=ExponentialCorrelation({rho}))\n"
            "t = time.perf_counter()\n"
            "model = match_parameters(spec)\n"
            "print(json.dumps([model.m_r, time.perf_counter() - t]))\n")
        m_r, seconds = json.loads(run_child(code, timeout=60))
        assert 0.0 < m_r < math.inf
        return seconds

    def test_exponential_fit_at_l32(self, run_child):
        # 465 triple and 4495 quad lanes for 4960 triples and 35 960 quads
        assert self.exponential_fit(run_child, 2, 0.7, 32) < 2.0

    def test_exponential_fit_at_l64(self, run_child):
        # 1953 triple and 39 711 quad lanes for 41 664 triples and 635 376
        # quads
        assert self.exponential_fit(run_child, 2, 0.7, 64) < 3.0

    def test_slow_exponential_fit_at_l32(self, run_child):
        # the lanes of adjacent branches fall only like 0.95^k
        assert self.exponential_fit(run_child, 1, 0.95, 32) < 1.0


class TestModelChecks:
    # an infinite power made cdf(model, 1.0) run for minutes
    @pytest.mark.parametrize("omega_r", [math.nan, math.inf])
    def test_scaled_rejects_non_finite(self, omega_r):
        from nakasum.errors import ConsistencyError
        model = match_parameters(balanced(EqualCorrelation(0.2), 1, 2))
        with pytest.raises(ConsistencyError, match="finite"):
            model.scaled(omega_r)


class TestFitClamp:
    def test_clamped_fit_fills_flags(self):
        # a matrix whose Markov fit clamps a link: the fit re-emits the
        # captured warning once and copies it into the model's flags
        a = np.abs(np.random.default_rng(5).standard_normal((5, 3)))
        c = a @ a.T + 0.5 * np.eye(5)
        d = np.sqrt(np.diag(c))
        spec = balanced(ArbitraryCorrelation(CorrelationMatrix(c / np.outer(d, d))), 1, 5)
        with pytest.warns(FitClampWarning) as record:
            model = match_parameters(spec)
        assert len(record) == 1
        assert model.m_r == pytest.approx(0.84932, abs=1e-5)
        assert model.flags == (
            "FitClampWarning: Markov link weights were clamped into [0, 1] during the fit",)
        assert GammaSumModel.from_json(model.to_json()).flags == model.flags


class TestSerialization:
    def test_json_round_trip(self):
        model = match_parameters(balanced(ExponentialCorrelation(0.4), 2, 3))
        clone = GammaSumModel.from_json(model.to_json())
        assert clone == model

    def test_branch_count_is_spectrum_length(self):
        model = match_parameters(balanced(ExponentialCorrelation(0.4), 2, 3))
        assert model.branch_count == len(model.spectrum) == 3
        assert model.scaled(2.0).branch_count == 3

    @pytest.mark.parametrize("text", ["{}", "[]", "not json", '{"branch_count": 2}'])
    def test_from_json_rejects_malformed(self, text):
        with pytest.raises(ValidationError, match="malformed"):
            GammaSumModel.from_json(text)

    def test_from_json_rejects_wrong_branch_count(self):
        import json
        doc = json.loads(match_parameters(balanced(EqualCorrelation(0.2), 1, 2)).to_json())
        doc["branch_count"] = 3
        with pytest.raises(ValidationError, match="branch_count 3 != spectrum length 2"):
            GammaSumModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_from_json_rejects_non_finite_eigenvalue(self, value):
        import json
        doc = json.loads(match_parameters(balanced(EqualCorrelation(0.2), 1, 2)).to_json())
        doc["spectrum"][0] = value
        with pytest.raises(ValidationError, match="finite"):
            GammaSumModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        ("omega_r", -1.0), ("omega_r", 0.0), ("m_r", math.nan), ("m_r", math.inf)])
    def test_from_json_rejects_bad_fitted_parameter(self, key, value):
        import json
        doc = json.loads(match_parameters(balanced(EqualCorrelation(0.2), 1, 2)).to_json())
        doc[key] = value
        with pytest.raises(ValidationError, match=f"{key} must be positive and finite"):
            GammaSumModel.from_json(json.dumps(doc))

    def test_json_fields(self):
        import json
        model = match_parameters(balanced(EqualCorrelation(0.2), 1, 2))
        doc = json.loads(model.to_json())
        assert doc["schema"] == "gamma-sum-model/1"
        assert doc["branch_count"] == 2
        assert len(doc["spectrum"]) == 2
        assert doc["source_moments"]["m4"] > doc["source_moments"]["m2"] ** 2
