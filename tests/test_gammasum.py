"""Distribution tests: MGF identities, density and CDF against closed
forms, route equivalence, and normalization."""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from nakasum import gammasum
from nakasum.errors import DomainError
from nakasum.gammasum import cdf, mgf, pdf, pdf_equal_corr
from nakasum.matcher import match_parameters
from nakasum.moments import EnsembleSpec, EqualCorrelation, ExponentialCorrelation


def nakagami_pdf(m, omega, r):
    return ((m / omega) ** m * 2.0 * r ** (2.0 * m - 1.0)
            / math.gamma(m) * math.exp(-m / omega * r * r))


def balanced_model(corr, m_z, L):
    return match_parameters(
        EnsembleSpec(fading_m=m_z, powers=(1.0,) * L, correlation=corr))


def random_models(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        L = int(rng.integers(1, 6))
        m_z = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.0, 0.9))
        corr = [EqualCorrelation(rho), ExponentialCorrelation(rho)][int(rng.integers(2))]
        powers = tuple(rng.uniform(0.3, 2.5, L))
        out.append(match_parameters(
            EnsembleSpec(fading_m=m_z, powers=powers, correlation=corr)))
    return out


class TestMgf:
    def test_at_zero(self):
        model = balanced_model(EqualCorrelation(0.3), 2, 3)
        assert mgf(model, 0.0) == 1.0

    def test_pole_rejected(self):
        model = balanced_model(EqualCorrelation(0.3), 2, 3)
        pole = model.m_r / (model.omega_r * model.spectrum.values[0])
        with pytest.raises(DomainError):
            mgf(model, pole * 1.5)

    @pytest.mark.parametrize("s", [math.nan, [-1.0, math.nan]], ids=["scalar", "array"])
    def test_nan_rejected(self, s):
        model = balanced_model(EqualCorrelation(0.3), 2, 3)
        with pytest.raises(DomainError, match="nan"):
            mgf(model, s)

    def test_first_derivative_is_mean_square(self):
        model = balanced_model(ExponentialCorrelation(0.5), 1, 4)
        h = 1e-5
        deriv = (mgf(model, h) - mgf(model, -h)) / (2.0 * h)
        assert deriv == pytest.approx(model.omega_r * model.branch_count, rel=1e-6)

    def test_maximal_single_factor(self):
        model = balanced_model(EqualCorrelation(1.0), 2, 4)
        L, om, m = 4, model.omega_r, model.m_r
        assert mgf(model, -1.0) == pytest.approx((1.0 + L * om / m) ** (-m), rel=1e-13)


class TestPdf:
    def test_single_branch_is_nakagami(self):
        model = match_parameters(
            EnsembleSpec(fading_m=2, powers=(1.3,), correlation=EqualCorrelation(0.0)))
        for r in (0.2, 0.5, 1.0, 1.7, 2.4, 3.0):
            assert pdf(model, r) == pytest.approx(
                nakagami_pdf(2.0, 1.3, r), abs=1e-6)

    def test_maximal_correlation_exact(self):
        model = balanced_model(EqualCorrelation(1.0), 2, 3)
        omega_tot = model.branch_count * model.omega_r
        for r in np.linspace(0.3, 6.0, 12):
            assert pdf(model, float(r)) == pytest.approx(
                nakagami_pdf(model.m_r, omega_tot, float(r)), abs=1e-8)

    def test_matches_equal_correlation_closed_form(self):
        rho = 0.49
        model = balanced_model(EqualCorrelation(rho), 2, 3)
        for r in np.linspace(0.1, 5.0, 15):
            assert pdf(model, float(r)) == pytest.approx(
                pdf_equal_corr(model, rho, float(r)), abs=1e-6)

    def test_normalization(self):
        model = balanced_model(ExponentialCorrelation(0.4), 1, 3)
        total, err = quad(lambda r: pdf(model, r), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_positivity(self):
        model = balanced_model(EqualCorrelation(0.7), 1, 5)
        for r in np.linspace(0.05, 8.0, 40):
            assert pdf(model, float(r)) > -1e-9

    def test_domain(self):
        model = balanced_model(EqualCorrelation(0.2), 1, 2)
        with pytest.raises(DomainError):
            pdf(model, 0.0)


class TestPdfEqualCorr:
    def test_rho_zero_reduces_to_nakagami(self):
        model = balanced_model(EqualCorrelation(0.0), 2, 3)
        L, m, om = 3, model.m_r, model.omega_r
        for r in np.linspace(0.2, 4.0, 10):
            want = nakagami_pdf(L * m, L * om, float(r))
            assert pdf_equal_corr(model, 0.0, float(r)) == pytest.approx(
                want, rel=1e-11)

    def test_integrates_to_one(self):
        rho = 0.2
        model = balanced_model(EqualCorrelation(rho), 1, 5)
        total, err = quad(lambda r: pdf_equal_corr(model, rho, r),
                          0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m_z,L,rho,rs", [
        (8, 15, 0.8, (12.71, 14.96)),
        (7, 16, 0.8, (18.34,)),
        (10, 16, 0.7, (13.55,)),
    ])
    def test_bulk_matches_series_pdf(self, m_z, L, rho, rs):
        # 1F1 arguments of 690-1380, on both sides of hyp1f1's overflow
        model = balanced_model(EqualCorrelation(rho), m_z, L)
        for r in rs:
            assert pdf_equal_corr(model, rho, r) == pytest.approx(
                pdf(model, r), abs=1e-8)

    def test_large_argument_no_overflow(self):
        rho = 0.81
        model = balanced_model(EqualCorrelation(rho), 3, 5)
        val = pdf_equal_corr(model, rho, 40.0)
        assert math.isfinite(val)
        assert val >= 0.0


class TestCdf:
    def test_saturates_to_one(self):
        model = balanced_model(EqualCorrelation(0.3), 2, 3)
        t = 1e6 * model.omega_r * model.branch_count
        assert cdf(model, t) == pytest.approx(1.0, abs=1e-6)

    def test_single_branch_incomplete_gamma(self):
        model = match_parameters(
            EnsembleSpec(fading_m=1, powers=(1.7,), correlation=EqualCorrelation(0.0)))
        for t in (0.05, 0.2, 1.0, 3.0, 8.0):
            want = float(gammainc(model.m_r, model.m_r * t / model.omega_r))
            assert cdf(model, t) == pytest.approx(want, abs=1e-8)

    def test_derivative_matches_density(self):
        model = balanced_model(ExponentialCorrelation(0.4), 2, 3)
        for t0 in (1.5, 3.0, 6.0):
            h = 1e-4 * t0
            deriv = (cdf(model, t0 + h, abs_tol=1e-11)
                     - cdf(model, t0 - h, abs_tol=1e-11)) / (2 * h)
            density = pdf(model, math.sqrt(t0), abs_tol=1e-11) / (2.0 * math.sqrt(t0))
            assert deriv == pytest.approx(density, abs=1e-5, rel=1e-4)

    def test_monotone(self):
        model = balanced_model(EqualCorrelation(0.6), 1, 4)
        grid = np.linspace(0.2, 4.0 * model.mean_square, 25)
        vals = [cdf(model, float(t)) for t in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_integral_consistency_with_pdf(self):
        model = balanced_model(EqualCorrelation(0.3), 1, 2)
        rng = np.random.default_rng(3)
        for _ in range(4):
            t = float(rng.uniform(0.5, 3.0) * model.mean_square)
            integral, _ = quad(lambda r: pdf(model, r), 0.0, math.sqrt(t),
                               epsabs=1e-9, limit=200)
            assert cdf(model, t) == pytest.approx(integral, abs=2e-6)

    def test_near_mean_threshold(self):
        # stationary oscillation phase at the origin; regression guard
        model = balanced_model(ExponentialCorrelation(0.5), 2, 4)
        t = model.mean_square
        v = cdf(model, t)
        assert 0.3 < v < 0.8


def takes_series(model, abs_tol=1e-8):
    shapes, scales = gammasum._distinct_gammas(model)
    return gammasum._mixture(shapes, scales, gammasum._SERIES_SHARE * abs_tol) is not None


class TestSeriesRoute:
    """The Moschopoulos series against the oscillatory quadrature, closed
    forms and itself, and the route choice near maximal correlation."""

    def test_matches_quadrature(self):
        tol = 1e-12
        for model in random_models(6, seed=11):
            assert takes_series(model, tol)
            rates = gammasum._active_rates(model)
            ts = np.linspace(0.1, 3.0, 5) * model.mean_square
            quad_cdf = [gammasum._quadrature_cdf(rates, model.m_r, float(t), tol)
                        for t in ts]
            quad_pdf = [gammasum._quadrature_pdf(rates, model.m_r, float(r), tol)
                        for r in np.sqrt(ts)]
            assert np.max(np.abs(cdf(model, ts, abs_tol=tol) - quad_cdf)) <= 1e-11
            assert np.max(np.abs(pdf(model, np.sqrt(ts), abs_tol=tol) - quad_pdf)) <= 1e-11

    @pytest.mark.parametrize("powers, rho", [((1.7,), 0.0), ((1.0, 0.5, 2.0), 1.0)])
    def test_single_active_eigenvalue_is_incomplete_gamma(self, powers, rho):
        model = match_parameters(
            EnsembleSpec(fading_m=2, powers=powers, correlation=EqualCorrelation(rho)))
        scale = model.omega_r * max(model.spectrum.values) / model.m_r
        ts = np.array([0.05, 0.4, 1.0, 3.0, 9.0]) * model.mean_square
        assert np.array_equal(cdf(model, ts), gammainc(model.m_r, ts / scale))

    def test_equal_eigenvalues_merge(self):
        model = balanced_model(EqualCorrelation(0.0), 2, 3)
        shapes, _ = gammasum._distinct_gammas(model)
        assert shapes.size == 1 and shapes[0] == 3 * model.m_r
        t = model.mean_square
        want = float(gammainc(3 * model.m_r, 3 * model.m_r * t / model.mean_square))
        assert cdf(model, t) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("corr, L", [(ExponentialCorrelation(0.5), 4),
                                         (ExponentialCorrelation(0.97), 4)])
    def test_array_equals_scalar_loop(self, corr, L):
        model = balanced_model(corr, 1, L)
        t = np.array([[0.2, 1.0, 2.5], [0.7, 4.0, 1.3]]) * model.mean_square
        s = -np.array([[0.1, 1.0, 30.0], [0.0, 2.0, 0.5]])
        for fn, x in ((cdf, t), (pdf, np.sqrt(t)), (mgf, s)):
            arr = fn(model, x)
            assert arr.shape == x.shape
            assert np.array_equal(arr, [[fn(model, float(v)) for v in row] for row in x])
        assert isinstance(cdf(model, float(t[0, 0])), float)
        assert mgf(model, np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    def test_array_domain_and_pole(self):
        model = balanced_model(EqualCorrelation(0.3), 2, 3)
        with pytest.raises(DomainError):
            cdf(model, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            pdf(model, np.array([0.5, -1.0]))
        pole = model.m_r / (model.omega_r * model.spectrum.values[0])
        with pytest.raises(DomainError):
            mgf(model, np.array([-1.0, 1.5 * pole]))
        for fn in (cdf, pdf):
            with pytest.raises(DomainError):
                fn(model, 1.0, abs_tol=0.0)

    @pytest.mark.parametrize("corr", [ExponentialCorrelation(0.97), EqualCorrelation(0.999)])
    def test_near_maximal_takes_quadrature(self, corr):
        model = balanced_model(corr, 1, 4)
        assert not takes_series(model)
        rs = np.linspace(0.2, 1.8, 4) * math.sqrt(model.mean_square)
        start = time.perf_counter()
        values = pdf(model, rs)
        cdf(model, rs * rs)
        assert time.perf_counter() - start < 2.0
        if isinstance(corr, EqualCorrelation):
            want = [pdf_equal_corr(model, corr.rho, float(r)) for r in rs]
            assert np.max(np.abs(values - want)) <= 1e-8
