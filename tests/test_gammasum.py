"""Distribution tests: MGF identities, density and CDF against closed
forms, route equivalence, and normalization."""
import json
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from nakasum import gammasum
from nakasum.egc import outage
from nakasum.errors import AccuracyError, DomainError
from nakasum.gammasum import cdf, mgf, pdf, pdf_equal_corr
from nakasum.linalg import EigenSpectrum
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

    @pytest.mark.parametrize("s", [-1e308, [-1e308, -1.0]], ids=["scalar", "array"])
    def test_far_negative_s_is_zero_without_warning(self, s):
        # s * scale overflows to -inf, where the MGF is 0
        model = balanced_model(EqualCorrelation(0.3), 2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.atleast_1d(mgf(model, s))
        assert values[0] == 0.0
        assert values[1:].tolist() == [mgf(model, -1.0)] * (values.size - 1)

    @pytest.mark.parametrize("s", [1e308, [-1.0, 1e308]], ids=["scalar", "array"])
    def test_far_beyond_pole_rejected_without_warning(self, s):
        model = balanced_model(EqualCorrelation(0.3), 2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="pole"):
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
                pdf_equal_corr(model, float(r)), abs=1e-6)

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
            assert pdf_equal_corr(model, float(r)) == pytest.approx(
                want, rel=1e-11)

    def test_integrates_to_one(self):
        rho = 0.2
        model = balanced_model(EqualCorrelation(rho), 1, 5)
        total, err = quad(lambda r: pdf_equal_corr(model, r),
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
            assert pdf_equal_corr(model, r) == pytest.approx(
                pdf(model, r), abs=1e-8)

    def test_large_argument_no_overflow(self):
        rho = 0.81
        model = balanced_model(EqualCorrelation(rho), 3, 5)
        val = pdf_equal_corr(model, 40.0)
        assert math.isfinite(val)
        assert val >= 0.0

    def test_far_tail_is_zero_in_bounded_time(self, run_child):
        # 1F1's large-x expansion used to wait on hyp1f1, whose run time grows
        # with its argument: 38.6 s at r = 1e6 sqrt(E[R^2]), out of reach of a
        # signal, so the calls run in a child process; r^2 overflows at 1e200
        code = (
            "import json, math, time, warnings\n"
            "warnings.simplefilter('error')\n"
            "from nakasum.gammasum import pdf_equal_corr\n"
            "from nakasum.matcher import match_parameters\n"
            "from nakasum.moments import EnsembleSpec, EqualCorrelation\n"
            "model = match_parameters(EnsembleSpec(\n"
            "    fading_m=2, powers=(1.0,) * 3, correlation=EqualCorrelation(0.5)))\n"
            "out = []\n"
            "for k in (1e6, 1e50, 1e200):\n"
            "    times = []\n"
            "    for _ in range(3):\n"
            "        t = time.perf_counter()\n"
            "        value = pdf_equal_corr(model, k * math.sqrt(model.mean_square))\n"
            "        times.append(time.perf_counter() - t)\n"
            "    out.append((value, min(times)))\n"
            "print(json.dumps(out))\n")
        results = json.loads(run_child(code, timeout=60))
        assert [value for value, _ in results] == [0.0, 0.0, 0.0]
        assert max(seconds for _, seconds in results) < 10e-3

    def test_large_shape_against_mpmath(self):
        # m_r 47.76: the 1F1 arguments, 1e3 to 4e4, are where hyp1f1
        # overflows and the large-x expansion has not converged, which
        # raised ValueError at some r.  The closed form adds logs of size
        # 1e4, so doubles hold the density to about 1e-11.
        model = balanced_model(EqualCorrelation(0.3), 48, 44)
        lams = model.spectrum.values
        with mp.workdps(40):
            L, m, om = len(lams), mp.mpf(model.m_r), mp.mpf(model.omega_r)
            lam_big, lam_small = mp.mpf(lams[0]), mp.mpf(lams[-1])
            for r in (np.linspace(0.2, 3.0, 20) * math.sqrt(model.mean_square)).tolist():
                rr = mp.mpf(r)
                want = (2 * rr ** (2 * m * L - 1) * (m / om) ** (m * L) / mp.gamma(m * L)
                        / lam_small ** (m * (L - 1)) / lam_big ** m
                        * mp.exp(-m * rr * rr / (lam_small * om))
                        * mp.hyp1f1(m, m * L, m * L * (1 - lam_small) * rr * rr
                                    / (lam_small * lam_big * om)))
                assert pdf_equal_corr(model, r) == pytest.approx(float(want), rel=1e-10)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, r):
        # r = inf used to hang in scipy's hyp1f1
        model = balanced_model(EqualCorrelation(0.5), 2, 3)
        with pytest.raises(DomainError, match="r must be positive and finite"):
            pdf_equal_corr(model, r)

    def test_single_branch_reads_no_rho(self):
        # one branch has no repeated eigenvalue: rho drops out of the density
        model = balanced_model(EqualCorrelation(0.9999), 10, 1)
        for r in np.linspace(0.05, 2.5, 12):
            assert pdf_equal_corr(model, float(r)) == pytest.approx(
                nakagami_pdf(model.m_r, model.omega_r, float(r)), rel=1e-13)

    def test_two_branch_exponential_is_equal_correlation(self):
        # any two-branch spectrum is 1 + sqrt(rho), 1 - sqrt(rho)
        model = balanced_model(ExponentialCorrelation(0.5), 2, 2)
        for r in (0.3, 1.0, 2.2):
            assert pdf_equal_corr(model, r) == pytest.approx(
                pdf(model, r, abs_tol=1e-12), rel=1e-10)

    @pytest.mark.parametrize("model", [
        balanced_model(ExponentialCorrelation(0.5), 2, 3),
        balanced_model(EqualCorrelation(1.0), 2, 3),
        replace(balanced_model(EqualCorrelation(0.25), 2, 3),
                spectrum=EigenSpectrum((3.0, 0.5, 0.5))),
    ], ids=["exponential-L3", "maximal", "trace-4"])
    def test_rejects_other_spectra(self, model):
        # the exponential L=3 model gave 0.01207 at r = 1 with rho = 0.5
        # passed alongside; its density there is 0.00914
        with pytest.raises(DomainError, match="equal-correlation"):
            pdf_equal_corr(model, 1.0)


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


def mp_inverse(model, t, density):
    """mpmath's Talbot inversion at 40 digits of the Laplace transform of the
    squared envelope's density, prod over eigenvalues (1 + s*rate)^-m_r: the
    CDF at t, or with ``density`` the envelope density 2r f(r^2) at r^2 = t."""
    with mp.workdps(40):
        rates = [mp.mpf(model.omega_r * lam / model.m_r)
                 for lam in model.spectrum.values if lam > 0.0]
        m_r = mp.mpf(model.m_r)

        def transform(s):
            value = mp.fprod((1 + s * rate) ** -m_r for rate in rates)
            return value if density else value / s

        value = mp.invertlaplace(transform, mp.mpf(float(t)), method="talbot")
        if density:
            value *= 2 * mp.sqrt(mp.mpf(float(t)))
        return float(value)


class TestSeriesRoute:
    """The Moschopoulos series against mpmath, closed forms and itself, and
    the route choice near maximal correlation."""

    def test_matches_quadrature(self):
        tol = 1e-12
        for model in random_models(6, seed=11):
            assert takes_series(model, tol)
            ts = np.linspace(0.1, 3.0, 5) * model.mean_square
            want_cdf = [mp_inverse(model, t, False) for t in ts]
            want_pdf = [mp_inverse(model, t, True) for t in ts]
            assert np.max(np.abs(cdf(model, ts, abs_tol=tol) - want_cdf)) <= 1e-11
            assert np.max(np.abs(pdf(model, np.sqrt(ts), abs_tol=tol) - want_pdf)) <= 1e-11

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
            for abs_tol in (0.0, math.inf, math.nan):
                with pytest.raises(DomainError, match="abs_tol"):
                    fn(model, 1.0, abs_tol=abs_tol)
        near = balanced_model(ExponentialCorrelation(0.97), 1, 4)
        assert takes_series(model) and not takes_series(near)
        for m in (model, near):
            for x in (math.inf, math.nan, [1.0, math.inf]):
                for fn in (cdf, pdf):
                    with pytest.raises(DomainError, match="finite"):
                        fn(m, x)
            with pytest.raises(DomainError):
                outage(m, math.inf)

    @pytest.mark.parametrize("corr", [EqualCorrelation(0.3), ExponentialCorrelation(0.97)],
                             ids=["series", "contour"])
    def test_tiny_and_huge_arguments(self, corr):
        model = balanced_model(corr, 1, 4)
        assert takes_series(model) == isinstance(corr, EqualCorrelation)
        for r in (1e-300, 1e-150):
            assert pdf(model, r) == 0.0
            assert cdf(model, r) == 0.0
        x = np.geomspace(1e-300, 1e300, 121)
        assert np.all(np.isfinite(pdf(model, x)))
        assert np.all((cdf(model, x) >= 0.0) & (cdf(model, x) <= 1.0))

    def test_tiny_scale_huge_arguments(self):
        # t / scale and the prefactor 2r / scale overflowed: a RuntimeWarning
        # in place of the values the series gives past the support
        model = match_parameters(EnsembleSpec(fading_m=2, powers=(1e-30, 1e-30),
                                              correlation=EqualCorrelation(0.3)))
        assert takes_series(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cdf(model, 1e300) == pytest.approx(1.0, abs=1e-8)
            assert cdf(model, 1e300) == cdf(model, 1.0)
            assert pdf(model, 1e290) == 0.0

    @pytest.mark.parametrize("powers, t", [((1.0, 1.0), 1e6), ((1e-30, 1e-30), 1e300)],
                             ids=["unit", "tiny-scale"])
    def test_cdf_reaches_one(self, powers, t):
        # the trailing weights cut from the series go to the last kept one,
        # so past the support the CDF is 1, not the sum of the kept weights
        model = match_parameters(EnsembleSpec(fading_m=2, powers=powers,
                                              correlation=EqualCorrelation(0.3)))
        assert takes_series(model)
        assert cdf(model, t) == pytest.approx(1.0, abs=1e-15)

    def test_rayleigh_density_at_underflowing_r(self):
        # shape 1: x^(a-1) = 1 must survive r*r underflowing to 0
        model = match_parameters(
            EnsembleSpec(fading_m=1, powers=(2.0,), correlation=EqualCorrelation(0.0)))
        assert pdf(model, 1e-300) == pytest.approx(2e-300 / model.omega_r, rel=1e-12)

    @pytest.mark.parametrize("corr", [ExponentialCorrelation(0.97), EqualCorrelation(0.999)])
    def test_near_maximal_takes_contour(self, corr):
        model = balanced_model(corr, 1, 4)
        assert not takes_series(model)
        rs = np.linspace(0.2, 1.8, 4) * math.sqrt(model.mean_square)
        start = time.perf_counter()
        values = pdf(model, rs)
        cdf(model, rs * rs)
        assert time.perf_counter() - start < 2.0
        if isinstance(corr, EqualCorrelation):
            want = [pdf_equal_corr(model, float(r)) for r in rs]
            assert np.max(np.abs(values - want)) <= 1e-8


# Near-maximal spectra that take the contour at abs_tol = 1e-10: largest
# shape (m_z = 10, L = 16), rho = 1 - 1e-6, and both correlation kinds
CONTOUR_PANEL = [
    (EqualCorrelation(0.7), 10, 16),
    (EqualCorrelation(0.9), 3, 8),
    (EqualCorrelation(0.9999), 10, 2),
    (EqualCorrelation(1.0 - 1e-6), 1, 2),
    (EqualCorrelation(1.0 - 1e-6), 10, 16),
    (ExponentialCorrelation(0.7), 10, 16),
    (ExponentialCorrelation(0.8), 3, 16),
    (ExponentialCorrelation(0.95), 1, 4),
]


class TestContourRoute:
    """The Bromwich contour sum against mpmath on near-maximal spectra, and
    forced onto spectra the series handles."""

    @pytest.mark.parametrize("corr, m_z, L", CONTOUR_PANEL)
    def test_mpmath_panel(self, corr, m_z, L):
        model = balanced_model(corr, m_z, L)
        assert not takes_series(model, 1e-10)
        ts = np.geomspace(0.01, 10.0, 7) * model.mean_square
        want_cdf = [mp_inverse(model, t, False) for t in ts]
        want_pdf = [mp_inverse(model, t, True) for t in ts]
        for tol in (1e-8, 1e-10):
            assert np.max(np.abs(cdf(model, ts, abs_tol=tol) - want_cdf)) <= 0.1 * tol
            assert np.max(np.abs(pdf(model, np.sqrt(ts), abs_tol=tol) - want_pdf)) <= 0.1 * tol

    def test_forced_contour_matches_series(self, monkeypatch):
        models = random_models(20, seed=11)
        grids = [np.linspace(0.05, 4.0, 9) * model.mean_square for model in models]
        want = [(cdf(model, ts, abs_tol=1e-12), pdf(model, np.sqrt(ts), abs_tol=1e-12))
                for model, ts in zip(models, grids)]
        monkeypatch.setattr(gammasum, "_MAX_SERIES_TERMS", 0)
        for model, ts, (want_cdf, want_pdf) in zip(models, grids, want):
            assert not takes_series(model, 1e-10)
            assert np.max(np.abs(cdf(model, ts, abs_tol=1e-10) - want_cdf)) <= 1e-10
            assert np.max(np.abs(pdf(model, np.sqrt(ts), abs_tol=1e-10) - want_pdf)) <= 1e-10

    @pytest.mark.parametrize("corr, m_z, tol", [
        (EqualCorrelation(0.7), 10, 7e-13),
        (EqualCorrelation(0.9999), 1, 7e-13),
        (EqualCorrelation(0.9999), 10, 2e-13),
        (EqualCorrelation(0.9), 3, 5e-13),
    ])
    def test_estimate_covers_roundoff(self, corr, m_z, tol):
        # near the floor |S48 - S40| alone under-read the error: with it,
        # the last two cells returned CDFs 3.1e-13 (t = 3.2 E[R^2]) and
        # 6.4e-13 (t = 10 E[R^2]) off, against differences of 9.3e-14 and
        # 4.4e-13
        model = balanced_model(corr, m_z, 16)
        assert not takes_series(model, tol)
        raised = 0
        for t in np.geomspace(0.01, 10.0, 7) * model.mean_square:
            for fn, x, density in ((cdf, t, False), (pdf, math.sqrt(t), True)):
                try:
                    value = fn(model, x, abs_tol=tol)
                except AccuracyError:
                    raised += 1
                    continue
                assert abs(value - mp_inverse(model, t, density)) <= tol
        assert raised < 14

    def test_density_is_nonnegative(self):
        # the contour sum's error took 36 of these densities below 0, the
        # lowest to -1.2e-72
        model = balanced_model(ExponentialCorrelation(0.97), 1, 4)
        assert not takes_series(model)
        values = pdf(model, np.geomspace(1e-3, 1e154, 60))
        assert values.min() == 0.0
        assert values[0] > 0.0

    @pytest.mark.parametrize("fn", [cdf, pdf])
    def test_below_floor_raises_at_once(self, fn):
        model = balanced_model(ExponentialCorrelation(0.97), 1, 4)
        x = np.array([0.3, 1.0, 2.0]) * model.mean_square
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(AccuracyError) as info:
                fn(model, x, abs_tol=1e-14)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.01
        assert info.value.partial.shape == x.shape
        assert np.all(np.isfinite(info.value.partial))
        assert np.max(np.abs(info.value.partial - fn(model, x, abs_tol=1e-10))) == 0.0


class TestArrayMemoryBound:
    """An array call evaluates its thresholds in chunks of a fixed number
    of cells: its traced peak stays under a fixed bound, and each value is
    the one a whole-array evaluation gives."""

    @pytest.mark.parametrize("corr, L, series", [
        (ExponentialCorrelation(0.8), 8, True),
        (ExponentialCorrelation(0.97), 4, False),
    ], ids=["series", "contour"])
    @pytest.mark.parametrize("fn", [cdf, pdf])
    def test_peak_bounded(self, corr, L, series, fn):
        model = balanced_model(corr, 1, L)
        assert takes_series(model, 1e-10) == series
        if series:
            # about 2700 series terms: one (thresholds, terms) array of the
            # 4000 thresholds would take 86 MB
            shapes, scales = gammasum._distinct_gammas(model)
            mix = gammasum._mixture(shapes, scales, gammasum._SERIES_SHARE * 1e-10)
            assert mix.weights.size > 2500
        ts = np.linspace(0.01, 4.0, 4000) * model.mean_square
        x = ts if fn is cdf else np.sqrt(ts)
        tracemalloc.start()
        try:
            got = fn(model, x, abs_tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        pieces = np.split(x, [1, 1500, 2731])
        assert np.array_equal(got, np.concatenate([fn(model, p, abs_tol=1e-10) for p in pieces]))

    @pytest.mark.parametrize("fn", [cdf, pdf])
    def test_one_value_chunks_equal_whole_array(self, monkeypatch, fn):
        models = random_models(6, seed=5) + [balanced_model(ExponentialCorrelation(0.97), 1, 4)]
        grids = [(np.linspace(0.05, 4.0, 12) * model.mean_square).reshape(3, 4)
                 for model in models]
        if fn is pdf:
            grids = [np.sqrt(ts) for ts in grids]
        want = [fn(model, x, abs_tol=1e-10) for model, x in zip(models, grids)]
        monkeypatch.setattr(gammasum, "_CHUNK_CELLS", 1)
        for model, x, w in zip(models, grids, want):
            got = fn(model, x, abs_tol=1e-10)
            assert got.shape == x.shape and np.array_equal(got, w)
