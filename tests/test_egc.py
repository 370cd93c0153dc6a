"""Receiver-performance tests: closed forms, orderings, quadrature
equivalence, and the power profile."""
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import legendre
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc

from nakasum import specfun

from nakasum.egc import (
    MODULATIONS,
    ReceiverSpec,
    ber_bfsk_noncoherent,
    ber_bpsk,
    ber_curve,
    egc_model,
    outage,
    outage_curve,
    power_profile,
)
from nakasum.errors import AccuracyError, DomainError, ValidationError
from nakasum.gammasum import cdf, mgf, pdf
from nakasum.linalg import CorrelationMatrix
from nakasum.matcher import match_parameters
from nakasum.moments import (
    ArbitraryCorrelation,
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
)


def balanced_rx(corr, m_z, L, n0=1.0, mod="bpsk"):
    return ReceiverSpec(
        ensemble=EnsembleSpec(fading_m=m_z, powers=(1.0,) * L, correlation=corr),
        noise_psd=n0,
        modulation=mod,
    )


class TestEgcModel:
    def test_unit_everything(self):
        rx = ReceiverSpec(
            ensemble=EnsembleSpec(fading_m=1, powers=(1.0,),
                                  correlation=EqualCorrelation(0.0)),
            noise_psd=1.0)
        model = egc_model(rx)
        assert model.omega_r == pytest.approx(1.0, rel=1e-14)

    def test_noise_scaling(self):
        rx1 = balanced_rx(EqualCorrelation(0.4), 2, 3, n0=1.0)
        rx10 = balanced_rx(EqualCorrelation(0.4), 2, 3, n0=10.0)
        m1, m10 = egc_model(rx1), egc_model(rx10)
        assert m10.omega_r == pytest.approx(m1.omega_r / 10.0, rel=1e-14)
        assert m10.m_r == m1.m_r

    def test_shape_parameter_from_published_cell(self):
        for n0 in (0.1, 1.0, 25.0):
            model = egc_model(balanced_rx(EqualCorrelation(0.8), 2, 4, n0=n0))
            assert model.m_r == pytest.approx(1.9333, abs=5e-4)

    def test_modulation_validation(self):
        with pytest.raises(ValidationError):
            balanced_rx(EqualCorrelation(0.0), 1, 2, mod="qam")

    @pytest.mark.parametrize("n0", [0.0, -1.0, math.nan, math.inf])
    def test_noise_psd_domain(self, n0):
        # an infinite density was accepted and failed later in egc_model
        with pytest.raises(ValidationError, match="noise psd must be positive and finite"):
            balanced_rx(EqualCorrelation(0.0), 1, 2, n0=n0)


class TestOutage:
    def test_vanishes_at_tiny_threshold(self):
        model = egc_model(balanced_rx(EqualCorrelation(0.2), 1, 3))
        assert outage(model, 1e-9 * model.mean_square) < 1e-6

    def test_single_branch_incomplete_gamma(self):
        model = egc_model(ReceiverSpec(
            ensemble=EnsembleSpec(fading_m=2, powers=(1.0,),
                                  correlation=EqualCorrelation(0.0)),
            noise_psd=0.5))
        for t in (0.3, 1.0, 4.0):
            want = float(gammainc(model.m_r, model.m_r * t / model.omega_r))
            assert outage(model, t) == pytest.approx(want, abs=1e-8)

    def test_domain(self):
        model = egc_model(balanced_rx(EqualCorrelation(0.2), 1, 3))
        with pytest.raises(DomainError):
            outage(model, 0.0)


class TestBerBpsk:
    def test_rayleigh_closed_form(self):
        # single branch, unit shape: 0.5 * (1 - sqrt(g/(1+g)))
        for snr in (0.5, 1.0, 4.0, 20.0):
            model = egc_model(ReceiverSpec(
                ensemble=EnsembleSpec(fading_m=1, powers=(snr,),
                                      correlation=EqualCorrelation(0.0)),
                noise_psd=1.0))
            want = 0.5 * (1.0 - math.sqrt(snr / (1.0 + snr)))
            assert ber_bpsk(model) == pytest.approx(want, rel=1e-9)

    def test_no_information_limit(self):
        # the limit is approached like 0.5 - sqrt(gamma)/2, so the deviation
        # at gamma = 1e-9 is about 1.6e-5 by construction
        model = egc_model(ReceiverSpec(
            ensemble=EnsembleSpec(fading_m=1, powers=(1e-9,),
                                  correlation=EqualCorrelation(0.0)),
            noise_psd=1.0))
        assert ber_bpsk(model) == pytest.approx(0.5, abs=5e-5)
        assert ber_bpsk(model) < 0.5

    def test_matches_panel_quadrature(self):
        # same integrand, different quadrature: averaged MGF over the
        # half-open angle interval with dense Gauss-Legendre panels
        model = egc_model(balanced_rx(ExponentialCorrelation(0.5), 2, 3))
        xg, wg = leggauss(64)
        total = 0.0
        panels = np.linspace(0.0, math.pi / 2.0, 65)
        for lo, hi in zip(panels[:-1], panels[1:]):
            theta = lo + (hi - lo) * (xg + 1.0) * 0.5
            vals = np.array([mgf(model, -1.0 / math.sin(t) ** 2) for t in theta])
            total += (hi - lo) * 0.5 * float(wg @ vals)
        ref = total / math.pi
        assert ber_bpsk(model) == pytest.approx(ref, rel=1e-9)


# break points of the BPSK oracle: u = k/24 on [0, 4], where the integrand
# of a high-SNR model falls by hundreds of decades, then decades to 1e12
BPSK_ORACLE_CUTS = ([mp.mpf(k) / 24 for k in range(97)]
                    + [mp.mpf(10) ** e for e in range(1, 13)] + [mp.inf])


def ber_bpsk_mp(model):
    """(1/pi) int_0^inf M(-(1 + u^2)) / (1 + u^2) du in 40-digit mpmath:
    Craig's integral over theta in u = cot(theta)."""
    with mp.workdps(40):
        m_r = mp.mpf(model.m_r)
        rates = [mp.mpf(model.omega_r) * mp.mpf(lam) / m_r
                 for lam in model.spectrum.values if lam > 0]

        def integrand(u):
            w = 1 + u * u
            return mp.fprod(1 + w * rate for rate in rates) ** -m_r / w

        return mp.quad(integrand, BPSK_ORACLE_CUTS) / mp.pi


def at_branch_snr(base, snr_db):
    # the model of a unit-power ensemble at per-branch average SNR snr_db
    return base.scaled(base.omega_r * 10.0 ** (snr_db / 10.0) / base.branch_count)


class TestBerBpskExpSinh:
    # exponential rho=0.97 fits at m_z = 1 only (the joint-moment series
    # overflows at m_z >= 2)
    @pytest.mark.parametrize("corr, L, m_z", [
        (EqualCorrelation(0.0), 1, 1),
        (EqualCorrelation(0.0), 1, 10),
        (EqualCorrelation(0.5), 4, 1),
        (EqualCorrelation(0.5), 4, 10),
        (ExponentialCorrelation(0.97), 4, 1),
        (EqualCorrelation(0.9999), 16, 1),
        (EqualCorrelation(0.9999), 16, 10),
    ])
    def test_against_mpmath(self, corr, L, m_z):
        base = match_parameters(EnsembleSpec(fading_m=m_z, powers=(1.0,) * L,
                                             correlation=corr))
        for snr_db in (-20.0, 0.0, 20.0, 50.0):
            model = at_branch_snr(base, snr_db)
            want = float(ber_bpsk_mp(model))
            assert ber_bpsk(model) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_level_cap_raises_with_partial(self, monkeypatch):
        model = egc_model(balanced_rx(ExponentialCorrelation(0.5), 2, 3))
        want = ber_bpsk(model)
        monkeypatch.setattr(specfun, "_EXP_SINH_LEVELS", 1)
        with pytest.raises(AccuracyError) as err:
            ber_bpsk(model)
        assert err.value.partial == pytest.approx(want, rel=1e-2)

    def test_underflowed_mgf_gives_zero(self):
        base = match_parameters(EnsembleSpec(fading_m=10, powers=(1.0,) * 16,
                                             correlation=EqualCorrelation(0.0)))
        model = at_branch_snr(base, 50.0)
        assert mgf(model, -1.0) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ber_bpsk(model) == 0.0

    def test_subnormal_result_flushed_to_zero(self):
        # the 30 dB sum is about 1.26e-318, a subnormal with ~4 digits left;
        # 25 dB (about 5.4e-241) is still normal and meets the contract
        base = match_parameters(EnsembleSpec(fading_m=10, powers=(1.0,) * 16,
                                             correlation=EqualCorrelation(0.0)))
        assert ber_bpsk(at_branch_snr(base, 30.0)) == 0.0
        model = at_branch_snr(base, 25.0)
        with mp.workdps(30):
            m_r = mp.mpf(model.m_r)
            rates = [mp.mpf(model.omega_r) * mp.mpf(lam) / m_r
                     for lam in model.spectrum.values]

            def integrand(u):  # u = cot(theta); the peak is at u = 0
                w = 1 + u * u
                return mp.fprod((1 + rate * w) ** -m_r for rate in rates) / w

            cuts = [mp.mpf(k) / 20 for k in range(21)] + [2, 4, 8, mp.inf]
            want = float(mp.quad(integrand, cuts) / mp.pi)
        assert want > np.finfo(float).tiny
        assert ber_bpsk(model) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_no_call_builds_a_node_table(self, monkeypatch):
        # Gauss-Legendre tables are built at import; no call may build one
        def forbidden(*args, **kwargs):
            raise AssertionError("Gauss-Legendre table built at call time")

        original = legendre.leggauss
        monkeypatch.setattr(legendre, "leggauss", forbidden)
        for name, module in list(sys.modules.items()):
            if name.startswith("nakasum"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)
        # the first ensemble takes the Moschopoulos series, the second the
        # Bromwich contour sum
        for corr in (EqualCorrelation(0.5), ExponentialCorrelation(0.97)):
            rx = balanced_rx(corr, 1, 4)
            assert all(v > 0 for v in ber_curve(rx, [0.0, 10.0]).values())
            model = egc_model(rx)
            ts = np.array([0.5, 1.0, 2.0]) * model.mean_square
            assert np.all(np.diff(cdf(model, ts)) > 0)
            assert np.all(pdf(model, np.sqrt(ts)) > 0)


class TestBerBfsk:
    def test_is_half_mgf(self):
        model = egc_model(balanced_rx(EqualCorrelation(0.3), 2, 4))
        assert ber_bfsk_noncoherent(model) == 0.5 * mgf(model, -0.5)

    def test_single_rayleigh_third(self):
        model = egc_model(ReceiverSpec(
            ensemble=EnsembleSpec(fading_m=1, powers=(1.0,),
                                  correlation=EqualCorrelation(0.0)),
            noise_psd=1.0))
        assert ber_bfsk_noncoherent(model) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_product_form(self):
        model = egc_model(balanced_rx(ExponentialCorrelation(0.4), 1, 3))
        want = 0.5
        for lam in model.spectrum.values:
            want *= (1.0 + model.omega_r * lam / (2.0 * model.m_r)) ** (-model.m_r)
        assert ber_bfsk_noncoherent(model) == pytest.approx(want, rel=1e-13)


# Ensembles of the curve oracle: each correlation model, up to L = 8, with
# unequal powers in two of them
ORACLE_ENSEMBLES = {
    "equal": EnsembleSpec(fading_m=2, powers=(1.0,) * 8, correlation=EqualCorrelation(0.6)),
    "exponential": EnsembleSpec(fading_m=3, powers=power_profile(1.0, 0.3, 6),
                                correlation=ExponentialCorrelation(0.7)),
    "arbitrary": EnsembleSpec(
        fading_m=2, powers=(1.0, 0.8, 1.3, 0.6),
        correlation=ArbitraryCorrelation(
            CorrelationMatrix.from_markov_links(np.array([0.8, 0.5, 0.65])))),
}


class TestCurveOracle:
    """Each curve against the single-point functions on the fit scaled to
    every grid point: the per-point route the array sweep replaced."""

    @pytest.mark.parametrize("name", list(ORACLE_ENSEMBLES))
    def test_matches_single_points(self, name):
        spec = ORACLE_ENSEMBLES[name]
        grid = np.linspace(-40.0, 60.0, 21)
        base = match_parameters(spec)
        models = [base.scaled(base.omega_r * 10.0 ** (snr_db / 10.0)
                              / (spec.branch_count * spec.powers[0])) for snr_db in grid]
        for mod, single in (("bpsk", ber_bpsk), ("bfsk", ber_bfsk_noncoherent)):
            rx = ReceiverSpec(ensemble=spec, noise_psd=1.0, modulation=mod)
            want = [single(model) for model in models]
            assert min(want) > 0.0
            assert ber_curve(rx, grid).values() == pytest.approx(want, rel=1e-13, abs=0.0)
        rx = ReceiverSpec(ensemble=spec, noise_psd=1.0)
        want = [outage(model, 2.0) for model in models]
        assert outage_curve(rx, grid, 2.0).values() == pytest.approx(want, rel=0.0, abs=1e-14)


class TestPowerProfile:
    def test_flat(self):
        assert power_profile(2.0, 0.0, 4) == (2.0, 2.0, 2.0, 2.0)

    def test_decay(self):
        got = power_profile(1.0, 0.3, 3)
        want = (1.0, math.exp(-0.3), math.exp(-0.6))
        assert got == pytest.approx(want, rel=1e-15)

    def test_strong_decay_approaches_single_branch(self):
        heavy = EnsembleSpec(fading_m=1, powers=power_profile(1.0, 10.0, 4),
                             correlation=EqualCorrelation(0.0))
        single = EnsembleSpec(fading_m=1, powers=(1.0,),
                              correlation=EqualCorrelation(0.0))
        snr_db = 10.0
        gamma1 = 10.0 ** (snr_db / 10.0)
        multi = egc_model(ReceiverSpec(ensemble=heavy, noise_psd=1.0 / gamma1))
        # the residual branches carry e-10-scale power; combiner noise
        # still divides by L, so compare against the L-branch noise floor
        lone = match_parameters(single).scaled(gamma1 / 4.0)
        assert ber_bpsk(multi) == pytest.approx(ber_bpsk(lone), rel=0.02)

    def test_validation(self):
        with pytest.raises(DomainError):
            power_profile(0.0, 0.1, 3)
        with pytest.raises(DomainError):
            power_profile(1.0, -0.1, 3)
        for omega1, mu in ((math.inf, 0.1), (math.nan, 0.1),
                           (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(DomainError):
                power_profile(omega1, mu, 3)
        for L in (0, 2.5, True, "3"):
            with pytest.raises(DomainError):
                power_profile(1.0, 0.1, L)


class TestCurves:
    def test_monotone_in_snr(self):
        grid = np.linspace(0.0, 30.0, 16)
        for corr in (EqualCorrelation(0.5), ExponentialCorrelation(0.3)):
            rx = balanced_rx(corr, 2, 3)
            bers = ber_curve(rx, grid).values()
            assert all(b < a for a, b in zip(bers, bers[1:]))
            outs = outage_curve(rx, grid, threshold=2.0).values()
            assert all(b < a for a, b in zip(outs, outs[1:]))

    def test_correlation_hurts(self):
        grid = [5.0, 10.0, 15.0]
        by_rho = {}
        for rho in (0.0, 0.2, 0.7):
            rx = balanced_rx(EqualCorrelation(rho), 2, 4)
            by_rho[rho] = ber_curve(rx, grid).values()
        for i in range(len(grid)):
            assert by_rho[0.7][i] > by_rho[0.2][i] > by_rho[0.0][i]

    def test_bfsk_above_bpsk(self):
        grid = np.linspace(0.0, 20.0, 8)
        bpsk = ber_curve(balanced_rx(EqualCorrelation(0.4), 1, 3), grid).values()
        bfsk = ber_curve(balanced_rx(EqualCorrelation(0.4), 1, 3, mod="bfsk"),
                         grid).values()
        assert all(f > b for f, b in zip(bfsk, bpsk))

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("curve", ["bpsk", "bfsk", "outage"])
    def test_non_finite_snr_rejected(self, curve, snr_db):
        rx = balanced_rx(EqualCorrelation(0.2), 1, 2, mod="bfsk" if curve == "bfsk" else "bpsk")
        with pytest.raises(DomainError, match="finite"):
            if curve == "outage":
                outage_curve(rx, [5.0, snr_db], threshold=1.0)
            else:
                ber_curve(rx, [5.0, snr_db])

    @pytest.mark.parametrize("grid", [[5.0, 3100.0], np.array([5.0, 3100.0]), [-4000.0]],
                             ids=["list", "numpy", "underflow"])
    @pytest.mark.parametrize("curve", ["bpsk", "bfsk", "outage"])
    def test_out_of_range_snr_names_the_point(self, curve, grid):
        # 10^(snr/10) overflowed: a raw OverflowError for a list, a
        # RuntimeWarning then a fit error for numpy; -4000 dB gave power 0
        rx = balanced_rx(EqualCorrelation(0.2), 1, 2, mod="bfsk" if curve == "bfsk" else "bpsk")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"SNR grid point {float(grid[-1])} dB"):
                if curve == "outage":
                    outage_curve(rx, grid, threshold=1.0)
                else:
                    ber_curve(rx, grid)

    def test_outage_threshold_out_of_range_names_the_point(self):
        # the power at -3080 dB is still positive, but 1/scale overflows
        rx = balanced_rx(EqualCorrelation(0.2), 1, 2)
        grid = [5.0, -3080.0]
        assert ber_curve(rx, grid).values()[-1] == pytest.approx(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="SNR grid point -3080.0 dB puts the outage"):
                outage_curve(rx, grid, threshold=1.0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_outage_threshold_domain(self, threshold):
        with pytest.raises(DomainError, match="outage threshold"):
            outage_curve(balanced_rx(EqualCorrelation(0.2), 1, 2), [5.0], threshold)

    def test_very_high_snr_is_warning_free(self):
        # (1 + u^2) * scale overflows to inf past about 480 dB, where the
        # MGF is 0: a RuntimeWarning before, now the limit value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mod in MODULATIONS:
                rx = balanced_rx(EqualCorrelation(0.2), 2, 2, mod=mod)
                values = ber_curve(rx, [500.0, 1000.0, 3000.0]).values()
                assert 0.0 < values[0] < 1e-180 and values[1:] == [0.0, 0.0]

    def test_curve_metadata_marks_approximation(self):
        curve = ber_curve(balanced_rx(EqualCorrelation(0.2), 1, 2), [5.0])
        assert curve.meta["method"] == "equivalent-mrc-approximation"
        rows = curve.to_rows()
        assert set(rows[0]) == {"snr_db", "value", "kind", "meta"}
