"""Goodness-of-fit machinery: survival functions against scipy oracles,
null behavior, power, and the campaign protocol."""
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import nakasum
from nakasum import gof, simkit
from nakasum.errors import BinningError, ValidationError
from nakasum.gof import (
    GofReport,
    chi_square_test,
    gof_campaign,
    ks_test,
    model_envelope_cdf,
)
from nakasum.matcher import match_parameters
from nakasum.moments import EnsembleSpec, EqualCorrelation, ExponentialCorrelation
from nakasum.simkit import derive_seed, sample_sum


class TestKolmogorovSf:
    """The Kolmogorov survival function Q that gives every K-S
    significance level, ``scipy.special.kolmogorov``, over the range of
    sqrt(n) * D the tests and the campaign reach."""

    def test_against_scipy(self):
        # Q(x) = 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2), summed to convergence
        for x in (0.3, 0.5, 0.8, 1.0, 1.5, 2.2):
            series = 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
                                     for k in range(1, 200))
            assert float(scipy.special.kolmogorov(x)) == pytest.approx(series, rel=1e-12)

    def test_limits(self):
        assert scipy.special.kolmogorov(1e-6) == 1.0
        assert scipy.special.kolmogorov(5.0) < 1e-10

    @pytest.mark.parametrize("x", [0.0011, 0.005, 0.01])
    def test_small_argument_is_one(self, x):
        # sqrt(n) * D >= 1/(2 sqrt(n)) reaches these at n = 1e4; the
        # alternating series converges too slowly to sum here
        assert scipy.special.kolmogorov(x) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        vals = scipy.special.kolmogorov(np.linspace(0.2, 3.0, 30))
        assert np.all(np.diff(vals) <= 0.0)


def cubic(x):
    """A strictly increasing transform of the samples."""
    return x ** 3 + 2.0 * x


def cdf_after_cubic(cdf):
    """The CDF of ``cubic`` of a variable with CDF ``cdf``: the transform
    inverted by bisection, then ``cdf``."""
    def composed(y):
        y = np.asarray(y, dtype=float)
        lo = np.zeros_like(y)
        hi = np.full_like(y, max(1.0, float(np.max(y))))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            too_low = cubic(mid) < y
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        return cdf(0.5 * (lo + hi))

    return composed


class TestKsTest:
    def test_empirical_vs_itself(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 1, 500))

        def empirical(v):
            return np.searchsorted(x, v, side="right") / x.size

        d, _ = ks_test(x, empirical)
        assert d <= 1.0 / x.size + 1e-12

    def test_null_alpha_is_uniformish(self):
        rng = np.random.default_rng(1)
        gamma = scipy.stats.gamma(a=2.0)
        alphas = []
        for _ in range(100):
            u = rng.uniform(0, 1, 10_000)
            samples = gamma.ppf(u)
            _, alpha = ks_test(samples, gamma.cdf)
            alphas.append(alpha)
        assert 0.35 < np.mean(alphas) < 0.65

    def test_power_against_wrong_model(self):
        rng = np.random.default_rng(2)
        gamma = scipy.stats.gamma(a=2.0, scale=1.0)
        samples = gamma.rvs(10_000, random_state=rng)
        wrong = scipy.stats.gamma(a=2.0, scale=2.0)  # doubled mean power
        _, alpha = ks_test(samples, wrong.cdf)
        assert alpha < 1e-3

    def test_distribution_free_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        gamma = scipy.stats.gamma(a=1.5)
        samples = gamma.rvs(2000, random_state=rng)
        d0, a0 = ks_test(samples, gamma.cdf)
        d1, a1 = ks_test(cubic(samples), cdf_after_cubic(gamma.cdf))
        assert d1 == pytest.approx(d0, abs=1e-12)
        assert a1 == pytest.approx(a0, abs=1e-10)

    def test_validation(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="finite"):
                ks_test(np.array([1.0, bad, 2.0] * 10), lambda x: x)
        with pytest.raises(ValidationError):
            ks_test(np.arange(5.0), lambda x: x)


class TestChiSquare:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            chi_square_test(np.full(1000, bad), scipy.stats.uniform().cdf, n_bins=10)

    def test_alpha_against_scipy(self):
        rng = np.random.default_rng(4)
        gamma = scipy.stats.gamma(a=2.0)
        samples = gamma.rvs(2000, random_state=rng)
        chi2, alpha = chi_square_test(samples, gamma.cdf, n_bins=50)
        assert alpha == pytest.approx(float(scipy.stats.chi2.sf(chi2, 49)), rel=1e-10)

    def test_null_mean_alpha(self):
        rng = np.random.default_rng(5)
        gamma = scipy.stats.gamma(a=3.0)
        alphas = []
        for _ in range(100):
            samples = gamma.ppf(rng.uniform(0, 1, 2000))
            _, alpha = chi_square_test(samples, gamma.cdf, n_bins=20)
            alphas.append(alpha)
        assert 0.35 < np.mean(alphas) < 0.65

    def test_total_misfit(self):
        # all mass in one model bin
        samples = np.full(1000, 0.5)
        cdf = scipy.stats.uniform().cdf
        _, alpha = chi_square_test(samples, cdf, n_bins=10)
        assert alpha < 1e-12

    def test_binning_error(self):
        with pytest.raises(BinningError):
            chi_square_test(np.arange(100.0), scipy.stats.uniform(scale=100).cdf,
                            n_bins=50)

    @pytest.mark.parametrize("n_bins", [1, 0, True, 10.0])
    def test_bin_count_checked(self, n_bins):
        with pytest.raises(ValidationError, match="n_bins"):
            chi_square_test(np.arange(1000.0), scipy.stats.uniform(scale=1000).cdf,
                            n_bins=n_bins)

    @pytest.mark.parametrize("n_bins", [10, 50, 100])
    def test_counts_over_quantile_edges(self, n_bins):
        # the statistic of a direct count over scipy's quantiles as edges
        gamma = scipy.stats.gamma(a=2.0)
        samples = gamma.rvs(5000, random_state=np.random.default_rng(n_bins))
        edges = gamma.ppf(np.arange(1, n_bins) / n_bins)
        counts = np.bincount(np.searchsorted(edges, samples), minlength=n_bins)
        expected = samples.size / n_bins
        want = float(np.sum((counts - expected) ** 2) / expected)
        assert chi_square_test(samples, gamma.cdf, n_bins=n_bins)[0] == pytest.approx(
            want, rel=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        gamma = scipy.stats.gamma(a=1.5)
        samples = gamma.rvs(2000, random_state=rng)
        chi0 = chi_square_test(samples, gamma.cdf, n_bins=40)
        chi1 = chi_square_test(cubic(samples), cdf_after_cubic(gamma.cdf), n_bins=40)
        assert chi1 == chi0

    def test_cdf_below_last_edge(self):
        # a CDF that never reaches 0.99 leaves the top bin empty; every
        # sample lands in the bin its CDF value falls in
        samples = np.random.default_rng(8).uniform(0.0, 1.0, 1000)

        def low_cdf(x):
            return 0.985 * np.asarray(x)

        chi2, _ = chi_square_test(samples, low_cdf)
        counts = np.bincount(np.floor(100 * low_cdf(samples)).astype(int), minlength=100)
        assert counts[-1] == 0 and counts.size == 100
        assert chi2 == pytest.approx(float(np.sum((counts - 10.0) ** 2) / 10.0), rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(shift=st.floats(0.1, 3.0))
    def test_alpha_monotone_in_statistic(self, shift):
        base = float(scipy.special.gammaincc(49.5, 60.0 / 2.0))
        worse = float(scipy.special.gammaincc(49.5, (60.0 + shift) / 2.0))
        assert worse < base


class TestModelEnvelopeCdf:
    def test_matches_exact_cdf(self):
        from nakasum.gammasum import cdf as exact_cdf
        model = match_parameters(EnsembleSpec(
            fading_m=1, powers=(1.0,) * 3, correlation=EqualCorrelation(0.2)))
        fast = model_envelope_cdf(model)
        rng = np.random.default_rng(6)
        for r in rng.uniform(0.2, 3.0, 5):
            want = exact_cdf(model, float(r) ** 2)
            got = float(fast(np.array([r]))[0])
            assert got == pytest.approx(want, abs=1e-7)


# the ten campaign cells of criterion 08b, as (correlation, m_z, L)
CRITERION_08B_CELLS = [
    (corr(rho), m_z, L) for corr, rho, m_z, L in [
        (EqualCorrelation, 0.2, 3, 2), (EqualCorrelation, 0.2, 3, 5),
        (EqualCorrelation, 0.7, 3, 2), (EqualCorrelation, 0.7, 3, 5),
        (ExponentialCorrelation, 0.2, 1, 2), (ExponentialCorrelation, 0.2, 1, 5),
        (ExponentialCorrelation, 0.2, 3, 2), (ExponentialCorrelation, 0.2, 3, 5),
        (ExponentialCorrelation, 0.7, 3, 2), (ExponentialCorrelation, 0.7, 3, 5)]]


def scipy_pchip(x, y):
    from scipy.interpolate import PchipInterpolator
    return PchipInterpolator(x, y, extrapolate=False)


class TestPchipPort:
    """``gof._pchip`` gives scipy's ``PchipInterpolator`` values bit for bit."""

    @pytest.mark.parametrize("cell", CRITERION_08B_CELLS,
                             ids=[f"{type(c).__name__[:5]}-{c.rho}-m{m}-L{L}"
                                  for c, m, L in CRITERION_08B_CELLS])
    def test_campaign_grids(self, monkeypatch, cell):
        corr, m_z, L = cell
        real, grids = gof._pchip, []

        def recording(x, y):
            grids.append((x, y))
            return real(x, y)

        monkeypatch.setattr(gof, "_pchip", recording)
        model_envelope_cdf(match_parameters(EnsembleSpec(
            fading_m=m_z, powers=(1.0,) * L, correlation=corr)))
        ((x, y),) = grids
        q = np.concatenate([x, np.random.default_rng(L).uniform(x[0], x[-1], 20_000)])
        assert np.array_equal(real(x, y)(q), scipy_pchip(x, y)(q))

    @pytest.mark.parametrize("y", [
        [0.0, 0.0, 0.2, 0.2, 0.2, 0.7, 0.9, 0.9],        # flat pieces
        [0.0, 0.3, 0.8, 0.99, 1.0, 1.0, 1.0, 1.0],       # tail clamped at 1
        [0.0, 1.0, 5.0, 5.5, 5.6, 9.0, 9.1, 9.15],       # end slope set to 0
        [0.0, 1.0, -9.0, -8.0, 2.0, -3.0, 7.0, 6.0],     # end slope capped at 3 m0
        [1.0, 0.2, 0.4, 0.1, 0.3, 0.3, 0.25, 0.0],       # alternating signs
    ], ids=["flat", "clamped", "end-zero", "end-capped", "alternating"])
    def test_edge_cases(self, y):
        y = np.asarray(y)
        for x in (np.arange(y.size, dtype=float),
                  np.cumsum(np.random.default_rng(3).uniform(0.1, 2.0, y.size))):
            q = np.concatenate([x, np.linspace(x[0], x[-1], 5001)])
            assert np.array_equal(gof._pchip(x, y)(q), scipy_pchip(x, y)(q))

    def test_end_slope_branches(self):
        # the first pieces of "end-zero" and "end-capped" above, on unit steps
        assert gof._pchip_end(1.0, 1.0, 1.0, 4.0) == 0.0
        assert gof._pchip_end(1.0, 1.0, 1.0, -10.0) == 3.0

    def test_package_never_imports_scipy_interpolate(self, run_child):
        code = (
            "import sys, nakasum\n"
            "from nakasum.gof import gof_campaign\n"
            "from nakasum.moments import EnsembleSpec, EqualCorrelation\n"
            "gof_campaign(EnsembleSpec(fading_m=1, powers=(1.0, 1.0),\n"
            "             correlation=EqualCorrelation(0.3)), trials=2, per_trial=500)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))\n")
        assert run_child(code, timeout=120).strip() == "[]"


class TestCampaign:
    def test_exact_model_behaves_as_null(self):
        # maximal correlation makes the fit exact, so alphas should look
        # like draws from the null distribution (not extreme)
        spec = EnsembleSpec(fading_m=2, powers=(1.0, 0.7),
                            correlation=EqualCorrelation(1.0))
        report = gof_campaign(spec, trials=25, per_trial=4000, seed=12)
        assert 0.001 < report.alpha_cs < 0.999
        assert 0.001 < report.alpha_ks < 0.999

    def test_deterministic(self):
        spec = EnsembleSpec(fading_m=1, powers=(1.0, 1.0),
                            correlation=EqualCorrelation(0.3))
        a = gof_campaign(spec, trials=6, per_trial=2000, seed=8)
        b = gof_campaign(spec, trials=6, per_trial=2000, seed=8)
        assert a == b

    def test_statistics_from_public_tests(self):
        # the campaign's averages equal a recomputation from the same draws
        # through chi_square_test and ks_test, and each alpha is the
        # single-trial upper tail at the averaged statistic
        spec = EnsembleSpec(fading_m=1, powers=(1.0, 1.0),
                            correlation=EqualCorrelation(0.3))
        trials, per_trial, seed = 3, 2000, 8
        report = gof_campaign(spec, trials=trials, per_trial=per_trial, seed=seed)
        env_cdf = model_envelope_cdf(match_parameters(spec))
        chi2, dist = [], []
        for idx in range(trials):
            z = sample_sum(spec, per_trial, derive_seed(seed, 0x60F, idx))
            chi2.append(chi_square_test(z, env_cdf)[0])
            dist.append(ks_test(z, env_cdf)[0])
        assert report.chi2_stat == math.fsum(chi2) / trials
        assert report.ks_stat == math.fsum(dist) / trials
        assert report.alpha_cs == scipy.special.gammaincc(99 / 2, report.chi2_stat / 2)
        assert report.alpha_ks == scipy.special.kolmogorov(
            math.sqrt(per_trial) * report.ks_stat)

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"seed": -1}, ValidationError, "seed"),
        ({"trials": 2.5}, ValidationError, "trials"),
        ({"trials": True}, ValidationError, "trials"),
        ({"per_trial": 2000.0}, ValidationError, "per_trial"),
        ({"per_trial": 100}, BinningError, "below 5 with 100 bins"),
    ])
    def test_argument_checks_before_fit(self, monkeypatch, kwargs, error, match):
        monkeypatch.setattr(gof, "match_parameters", pytest.fail)
        spec = EnsembleSpec(fading_m=1, powers=(1.0, 1.0),
                            correlation=EqualCorrelation(0.3))
        with pytest.raises(error, match=match):
            gof_campaign(spec, **{"trials": 2, "per_trial": 2000, **kwargs})

    def test_report_json(self):
        report = GofReport(chi2_stat=101.0, ks_stat=0.01, n_samples=1000, n_trials=10)
        import json
        doc = json.loads(report.to_json())
        assert doc["schema"] == "gof-report/2"
        assert doc["n_trials"] == 10
        assert doc["alpha_cs"] == report.alpha_cs
        assert doc["alpha_ks"] == report.alpha_ks
        assert "alpha_mode" not in doc

    def test_levels_derived_from_statistics(self):
        # the levels follow the statistics they are computed from
        report = GofReport(chi2_stat=99.0, ks_stat=0.0087, n_samples=10_000, n_trials=100)
        assert report.alpha_cs == scipy.special.gammaincc(99 / 2, 99.0 / 2)
        assert report.alpha_ks == scipy.special.kolmogorov(math.sqrt(10_000) * 0.0087)
        far = replace(report, chi2_stat=200.0, ks_stat=0.03)
        assert far.alpha_cs < 1e-7 and far.alpha_ks < 1e-7


@pytest.fixture
def fresh_pool(monkeypatch):
    """The returned function sets the worker count of the calls' pools."""
    def set_workers(k):
        monkeypatch.setattr(simkit, "_worker_count", lambda: k)

    return set_workers


def serial_campaign_means(spec, trials, per_trial, seed):
    """Mean chi-square and K-S distance of the campaign's trials drawn one
    after another through the public sampler and tested through the public
    tests."""
    env_cdf = model_envelope_cdf(match_parameters(spec))
    chi2, dist = [], []
    for idx in range(trials):
        z = sample_sum(spec, per_trial, derive_seed(seed, 0x60F, idx))
        chi2.append(chi_square_test(z, env_cdf)[0])
        dist.append(ks_test(z, env_cdf)[0])
    return math.fsum(chi2) / trials, math.fsum(dist) / trials


class TestPooledCampaign:
    SPEC = EnsembleSpec(fading_m=2, powers=(1.0, 0.5, 0.25),
                        correlation=EqualCorrelation(0.3))

    @pytest.mark.parametrize("trials, per_trial", [(7, 2000), (2, 65_536 + 500)],
                             ids=["one-block", "multi-block"])
    def test_report_independent_of_workers(self, fresh_pool, trials, per_trial):
        want = serial_campaign_means(self.SPEC, trials, per_trial, 4)
        reports = []
        for workers in (1, 2, 3):
            fresh_pool(workers)
            reports.append(gof_campaign(self.SPEC, trials=trials, per_trial=per_trial, seed=4))
            assert (reports[-1].chi2_stat, reports[-1].ks_stat) == want
        assert reports[0] == reports[1] == reports[2]

    def test_trials_skip_public_sampler(self, fresh_pool, monkeypatch):
        # a tracer wraps the public sampler wherever the package binds it; the
        # pool's tasks must not call it
        fresh_pool(2)
        for module in (nakasum, simkit, gof):
            if hasattr(module, "sample_sum"):
                monkeypatch.setattr(module, "sample_sum", pytest.fail)
        gof_campaign(self.SPEC, trials=3, per_trial=2000, seed=4)

    def test_trial_error_reaches_caller(self, fresh_pool, monkeypatch):
        fresh_pool(2)
        before = threading.active_count()
        real = simkit._block_generator
        failing_seed = derive_seed(4, 0x60F, 2)

        def failing(seed, block):
            if seed == failing_seed:
                raise RuntimeError("trial 2 failed")
            return real(seed, block)

        monkeypatch.setattr(simkit, "_block_generator", failing)
        with pytest.raises(RuntimeError, match="trial 2 failed"):
            gof_campaign(self.SPEC, trials=4, per_trial=2000, seed=4)
        assert threading.active_count() == before

    def test_single_trial_runs_inline(self, fresh_pool, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-trial campaign started a pool")

        fresh_pool(3)
        monkeypatch.setattr(simkit, "ThreadPoolExecutor", no_pool)
        gof_campaign(self.SPEC, trials=1, per_trial=2000, seed=4)

    @pytest.mark.parametrize("workers, trials", [(1, 5), (2, 5), (3, 7), (3, 2)])
    def test_one_trial_range_per_worker(self, fresh_pool, monkeypatch, workers, trials):
        fresh_pool(workers)
        real, seen = simkit._map_blocks, []

        def recording(task, jobs):
            seen.append(list(jobs))
            return real(task, jobs)

        monkeypatch.setattr(simkit, "_map_blocks", recording)
        gof_campaign(self.SPEC, trials=trials, per_trial=2000, seed=4)
        (jobs,) = seen
        assert len(jobs) == min(workers, trials)
        assert [idx for job in jobs for idx in job] == list(range(trials))
