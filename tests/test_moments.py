"""Moment-engine tests: closed-form spot values, route cross-checks,
quadrature and Monte-Carlo oracles."""
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nakasum.egc import power_profile
from nakasum.errors import (
    BoundaryError,
    DomainError,
    FitClampWarning,
    SingularMatrixError,
    TruncationError,
    ValidationError,
)
from nakasum import linalg, moments
from nakasum.linalg import CorrelationMatrix, greens_fit, subset_links
from nakasum.matcher import match_parameters
from nakasum.moments import (
    ArbitraryCorrelation,
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
    MomentPair,
    _concat_lanes,
    _fourth_moment_pair_terms,
    _quad_lanes,
    _triple_lanes,
    _w_via_fa,
    fourth_moment_Z,
    j_identity,
    joint_moment_quad,
    joint_moment_triple,
    second_moment_Z,
    w211_reduced,
    w_coefficient,
)
from nakasum.simkit import estimate_sum_moments, sample_correlated_nakagami
from nakasum.specfun import gauss_2f1


def gamma(x):
    return math.gamma(x)


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=0, powers=(1.0,), correlation=EqualCorrelation(0.0))
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=True, powers=(1.0, 1.0), correlation=EqualCorrelation(0.3))
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=1, powers=(), correlation=EqualCorrelation(0.0))
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=1, powers=(-1.0,), correlation=EqualCorrelation(0.0))
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=1, powers=(1.0, 1.0),
                         correlation=ArbitraryCorrelation(CorrelationMatrix.identity(3)))

    def test_arbitrary_needs_correlation_matrix(self):
        # a raw array used to fail later, with an AttributeError on .dim
        with pytest.raises(ValidationError, match="CorrelationMatrix"):
            ArbitraryCorrelation(np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_power_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            EnsembleSpec(fading_m=1, powers=(1.0, bad), correlation=EqualCorrelation(0.3))

    def test_rho_resolution(self):
        spec = EnsembleSpec(fading_m=1, powers=(1.0,) * 3,
                            correlation=ExponentialCorrelation(0.4))
        assert spec.rho(0, 2) == pytest.approx(0.16)
        spec = EnsembleSpec(fading_m=1, powers=(1.0,) * 3,
                            correlation=ArbitraryCorrelation(
                                CorrelationMatrix.exponential(0.4, 3)))
        assert spec.rho(0, 2) == pytest.approx(0.16)

    def test_maximal_detection(self):
        assert EnsembleSpec(fading_m=1, powers=(1.0, 2.0),
                            correlation=EqualCorrelation(1.0)).is_maximal()
        assert not EnsembleSpec(fading_m=1, powers=(1.0, 2.0),
                                correlation=EqualCorrelation(0.99)).is_maximal()

    def test_moment_pair_invariant(self):
        with pytest.raises(ValidationError):
            MomentPair(m2=2.0, m4=4.0)


class TestSecondMoment:
    def test_single_branch(self):
        spec = EnsembleSpec(fading_m=2, powers=(2.0,),
                            correlation=EqualCorrelation(0.0))
        assert second_moment_Z(spec) == pytest.approx(2.0, rel=1e-14)

    def test_independent_rayleigh_pair(self):
        spec = EnsembleSpec(fading_m=1, powers=(1.0, 1.0),
                            correlation=EqualCorrelation(0.0))
        assert second_moment_Z(spec) == pytest.approx(2.0 + math.pi / 2.0, rel=1e-13)

    def test_maximal(self):
        spec = EnsembleSpec(fading_m=3, powers=(1.0, 4.0, 0.25),
                            correlation=EqualCorrelation(1.0))
        want = (1.0 + 2.0 + 0.5) ** 2
        assert second_moment_Z(spec) == pytest.approx(want, rel=1e-14)

    def test_monotone_in_rho(self):
        vals = []
        for rho in np.linspace(0.0, 0.9, 10):
            spec = EnsembleSpec(fading_m=2, powers=(1.0,) * 3,
                                correlation=EqualCorrelation(float(rho)))
            vals.append(second_moment_Z(spec))
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestJIdentity:
    def test_a_zero(self):
        assert j_identity(1.0, 0.0, 1, 1) == 1.0
        assert j_identity(2.5, 0.0, -1, 1) == 1.0

    def test_p_q_zero(self):
        assert j_identity(2.0, 0.7, 0, 0) == 1.0

    @pytest.mark.parametrize("m,a,p,q", [
        (1.0, 0.5, 1, 1),
        (2.0, 0.3, 1, -1),
        (3.0, 2.4, -1, -1),
        (2.0, 4.0, 1, 1),
    ])
    def test_against_defining_integral(self, m, a, p, q):
        # oracle: adaptive quadrature of the Laplace-type integral with an
        # independent confluent-hypergeometric implementation
        def integrand(u):
            return (u ** (m - 1.0) * math.exp(-u)
                    * scipy.special.hyp1f1(-p / 2.0, m, -a * u)
                    * scipy.special.hyp1f1(-q / 2.0, m, -a * u))

        ref, err = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
        ref /= gamma(m)
        assert err < 1e-9
        assert j_identity(m, a, p, q) == pytest.approx(ref, abs=2e-8, rel=1e-9)

    def test_symmetric_in_p_q(self):
        assert j_identity(2.0, 0.8, 1, -1) == pytest.approx(
            j_identity(2.0, 0.8, -1, 1), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            j_identity(0.0, 0.5, 1, 1)
        with pytest.raises(DomainError):
            j_identity(1.0, -0.6, 1, 1)


class TestWCoefficients:
    def test_rho_zero_product_form(self):
        for orders in [(2, 1, 1), (1, 1, 1, 1), (1, 1)]:
            for m in (1, 2, 3):
                want = math.prod(gamma(m + k / 2.0) / gamma(m) for k in orders)
                assert w_coefficient(orders, m, 0.0) == pytest.approx(want, rel=1e-12)

    def test_w211_matches_fa_route(self):
        for m in (1, 2, 3):
            for rho in (0.1, 0.25, 0.49, 0.64):
                red = w211_reduced(m, rho)
                fa = _w_via_fa((2, 1, 1), m, rho)
                assert red == pytest.approx(fa, rel=1e-8)

    def test_w1111_against_brute_series(self):
        from test_specfun import fa_series_oracle
        m, rho = 2, 0.25
        sr = math.sqrt(rho)
        x = sr / (1.0 + 3.0 * sr)
        ref_fa = fa_series_oracle(float(m), (m + 0.5,) * 4, (float(m),) * 4,
                                  (x,) * 4, kmax=400)
        want = (gamma(m + 0.5) / gamma(m)) ** 4 * \
            ((1.0 - sr) / (1.0 + 3.0 * sr)) ** m * ref_fa
        assert w_coefficient((1, 1, 1, 1), m, rho) == pytest.approx(want, rel=1e-8)

    def test_w211_against_mpmath_near_maximal(self):
        # the four-term reduction summed in 50-digit mpmath from the exact
        # sqrt(rho) of the float rho, against the float reduction and the
        # integral route
        def j_mp(m, a, p, q):
            x = -a * a / (1 + 2 * a)
            return ((1 + a) ** (mp.mpf(p) / 2) * ((1 + 2 * a) / (1 + a)) ** (mp.mpf(q) / 2)
                    * mp.hyp2f1(m + mp.mpf(p) / 2, -mp.mpf(q) / 2, m, x))

        with mp.workdps(50):
            for m_z in (1, 2, 5, 10):
                m = mp.mpf(m_z)
                for rho in (0.25, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6, 1.0 - 1e-8):
                    sr = mp.sqrt(mp.mpf(rho))
                    ap = sr / (1 - sr)
                    bracket = j_mp(m, ap, 1, 1) + ap * (
                        (m + 0.5) ** 2 / m ** 2 * j_mp(m + 1, ap, 1, 1)
                        - (m + 0.5) / m ** 2 * j_mp(m + 1, ap, 1, -1)
                        + 1 / (4 * m ** 2) * j_mp(m + 1, ap, -1, -1))
                    want = float(m * (mp.gamma(m + 0.5) / mp.gamma(m)) ** 2 * bracket)
                    assert w211_reduced(m_z, rho) == pytest.approx(want, rel=1e-13)
                    assert _w_via_fa((2, 1, 1), m_z, rho) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m_z", [1, 2, 5, 10])
    def test_w1111_against_mpmath_integral(self, m_z):
        # W's Laplace integral in 30-digit mpmath, split at the boundary
        # layer u ~ 1/alpha
        with mp.workdps(30):
            m = mp.mpf(m_z)
            pref = (mp.gamma(m + 0.5) / mp.gamma(m)) ** 4 / mp.gamma(m)
            for rho in (0.5, 0.9999, 1.0 - 1e-6, 1.0 - 1e-8):
                sr = mp.sqrt(mp.mpf(rho))
                alpha = sr / (1 - sr)
                integral = mp.quad(
                    lambda u: u ** (m - 1) * mp.exp(-u) * mp.hyp1f1(-0.5, m, -alpha * u) ** 4,
                    [0, 1 / alpha, 1, mp.inf])
                want = float(pref * integral)
                assert w_coefficient((1, 1, 1, 1), m_z, rho) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m_z", [50, 64])
    def test_w1111_where_hyp1f1_overflows(self, m_z):
        # scipy's hyp1f1(-1/2, m, -x) is inf for x from 37.7 to about 1.3m
        # once m >= 50, across the bulk of the weight u^(m-1) e^-u
        with mp.workdps(30):
            m = mp.mpf(m_z)
            pref = (mp.gamma(m + 0.5) / mp.gamma(m)) ** 4 / mp.gamma(m)
            for rho in (0.3, 0.9, 0.9999):
                sr = mp.sqrt(mp.mpf(rho))
                alpha = sr / (1 - sr)
                integral = mp.quad(
                    lambda u: u ** (m - 1) * mp.exp(-u) * mp.hyp1f1(-0.5, m, -alpha * u) ** 4,
                    [0, 1 / alpha, 1, m / 2, m, 2 * m, mp.inf])
                want = float(pref * integral)
                assert w_coefficient((1, 1, 1, 1), m_z, rho) == pytest.approx(want, rel=1e-12)

    def test_w211_monotone_in_rho(self):
        vals = [w211_reduced(3, rho) for rho in np.arange(0.0, 0.95, 0.1)]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_boundary(self):
        with pytest.raises(BoundaryError):
            w_coefficient((2, 1, 1), 1, 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            w_coefficient((2,), 1, 0.5)
        with pytest.raises(DomainError):
            w_coefficient((2, 1, 1), 0, 0.5)


def unit_exponential_spec(m_z, rho, L):
    return EnsembleSpec(fading_m=m_z, powers=(1.0,) * L,
                        correlation=ExponentialCorrelation(rho))


def exponential_links(rho, idx):
    """Links (c_ab, c_bc[, c_cd]) of the subset ``idx`` of an exponential
    correlation matrix."""
    return subset_links(CorrelationMatrix.exponential(rho, max(idx) + 1), np.array([idx]))[0]


class TestJointMomentSeries:
    def test_triple_independent_closed_form(self):
        for m in (1, 2, 3):
            want = gamma(m + 0.5) ** 2 * gamma(m + 1.0) / (gamma(m) ** 3 * m ** 2)
            got = joint_moment_triple(1, 1, 2, (0.0, 0.0), m)
            assert got == pytest.approx(want, rel=1e-12)

    def test_triple_orderings_at_independence_agree(self):
        for n in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
            assert joint_moment_triple(*n, (0.0, 0.0), 2) == pytest.approx(
                joint_moment_triple(2, 1, 1, (0.0, 0.0), 2), rel=1e-12)

    def test_triple_reversal_symmetry(self):
        links = (0.8, 0.45)
        for m in (1, 2):
            assert joint_moment_triple(2, 1, 1, links, m) == pytest.approx(
                joint_moment_triple(1, 1, 2, links[::-1], m), rel=1e-15)
            assert joint_moment_triple(1, 2, 1, links, m) == pytest.approx(
                joint_moment_triple(1, 2, 1, links[::-1], m), rel=1e-11)

    def test_triple_monte_carlo(self):
        # simulation oracle: empirical joint moment of unit-power branches
        m_z, rho, L, n = 1, 0.49, 3, 2_000_000
        spec = unit_exponential_spec(m_z, rho, L)
        z = sample_correlated_nakagami(spec, n, seed=101).data
        prod = z[:, 0] ** 2 * z[:, 1] * z[:, 2]
        emp, se = prod.mean(), prod.std() / math.sqrt(n)
        got = joint_moment_triple(2, 1, 1, exponential_links(rho, (0, 1, 2)), m_z)
        assert abs(got - emp) < 3.5 * se

    def test_quad_independent_closed_form(self):
        for m in (1, 2):
            want = (gamma(m + 0.5) / gamma(m)) ** 4 / m ** 2
            assert joint_moment_quad((0.0, 0.0, 0.0), m) == pytest.approx(want, rel=1e-12)

    def test_quad_continuity_near_zero(self):
        m = 2
        base = joint_moment_quad((0.0, 0.0, 0.0), m)
        near = joint_moment_quad(exponential_links(1e-6, (0, 1, 2, 3)), m)
        assert near == pytest.approx(base, rel=1e-4)

    def test_quad_monte_carlo(self):
        m_z, rho, L, n = 2, 0.25, 4, 2_000_000
        spec = unit_exponential_spec(m_z, rho, L)
        z = sample_correlated_nakagami(spec, n, seed=202).data
        prod = z[:, 0] * z[:, 1] * z[:, 2] * z[:, 3]
        emp, se = prod.mean(), prod.std() / math.sqrt(n)
        got = joint_moment_quad(exponential_links(rho, (0, 1, 2, 3)), m_z)
        assert abs(got - emp) < 3.5 * se

    @pytest.mark.parametrize("links", [
        (0.5,), (0.5, 0.5, 0.5), [[0.5, 0.5]], (0.5, 1.0), (0.5, 1.5), (-0.1, 0.5),
        (math.nan, 0.5), (0.5, math.inf)],
        ids=["one", "three", "nested", "unit", "above-one", "negative", "nan", "inf"])
    def test_triple_rejects_bad_links(self, links):
        for orders in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
            with pytest.raises(ValidationError, match="links"):
                joint_moment_triple(*orders, links, 1)

    @pytest.mark.parametrize("links", [
        (0.5, 0.5), (0.5, 0.5, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, -1e-300),
        (math.nan, 0.5, 0.5)], ids=["two", "four", "unit", "negative", "nan"])
    def test_quad_rejects_bad_links(self, links):
        with pytest.raises(ValidationError, match="links"):
            joint_moment_quad(links, 1)

    def test_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            joint_moment_triple(3, 1, 1, (0.0, 0.0), 1)

    @pytest.mark.parametrize("m_z", [True, 2.5, 0])
    @pytest.mark.parametrize("call", [
        lambda m: w_coefficient((1, 1, 1, 1), m, 0.5),
        lambda m: joint_moment_triple(2, 1, 1, (0.5, 0.5), m),
        lambda m: joint_moment_quad((0.5,) * 3, m),
    ], ids=["w1111", "triple", "quad"])
    def test_fading_parameter_rule(self, call, m_z):
        # the EnsembleSpec rule: a positive integer, not a bool
        with pytest.raises(DomainError, match="fading parameter"):
            call(m_z)
        assert math.isfinite(call(np.int64(2)))


def mp_joint_moment(rho, idx, m, orders):
    """Joint-moment series of an exponentially correlated subset, summed
    in mpmath from an mpmath inverse with one mpmath 2F1 per term."""
    m = mp.mpf(m)
    r = mp.sqrt(mp.mpf(rho))
    d = mp.inverse(mp.matrix([[r ** abs(i - j) for j in idx] for i in idx]))
    if len(orders) == 4:
        pref = mp.det(d) ** m / (d[0, 0] * d[1, 1] * d[2, 2] * d[3, 3]) ** (m + 0.5)
        pref *= mp.gamma(m + 0.5) ** 2 / mp.gamma(m) ** 3 / m ** 2
        q = d[1, 2] ** 2 / (d[1, 1] * d[2, 2])
        x1 = d[0, 1] ** 2 / (d[0, 0] * d[1, 1])
        x2 = d[2, 3] ** 2 / (d[2, 2] * d[3, 3])

        def term(k):
            return (q ** k * mp.gamma(m + k + 0.5) ** 2
                    / (mp.gamma(m + k) * mp.factorial(k))
                    * mp.hyp2f1(m + k + 0.5, m + 0.5, m, x1)
                    * mp.hyp2f1(m + k + 0.5, m + 0.5, m, x2))
    else:
        h1, h2, h3 = (mp.mpf(n) / 2 for n in orders)
        pref = mp.det(d) ** m / (
            d[0, 0] ** (m + h1) * d[1, 1] ** (m + h2) * d[2, 2] ** (m + h3))
        pref *= mp.gamma(m + h3) / mp.gamma(m) ** 2 / m ** (h1 + h2 + h3)
        q = d[0, 1] ** 2 / (d[0, 0] * d[1, 1])
        x = d[1, 2] ** 2 / (d[1, 1] * d[2, 2])

        def term(k):
            return (q ** k * mp.gamma(m + k + h1) * mp.gamma(m + k + h2)
                    / (mp.gamma(m + k) * mp.factorial(k))
                    * mp.hyp2f1(m + k + h2, m + h3, m, x))
    total = mp.mpf(0)
    for k in itertools.count():
        t = term(k)
        total += t
        if k > 3 and t < mp.mpf(10) ** -17 * total:
            return pref * total


class TestJointMomentOracles:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("m_z", [1, 2, 3])
    def test_against_mpmath_series(self, rho, m_z):
        # gapped subsets, so the links are products of several matrix links;
        # the outer-square triples are closed forms, the rest 1e-12 series
        cases = [((2, 1, 1), (0, 2, 3), 1e-14), ((1, 2, 1), (0, 1, 3), 1e-10),
                 ((1, 1, 2), (1, 2, 5), 1e-14), ((2, 1, 1), (1, 2, 5), 1e-14),
                 ((1, 1, 2), (0, 2, 3), 1e-14), ((1, 1, 1, 1), (0, 1, 3, 4), 1e-10)]
        with mp.workdps(30):
            for orders, idx, rel in cases:
                links = exponential_links(rho, idx)
                if len(idx) == 4:
                    got = joint_moment_quad(links, m_z)
                else:
                    got = joint_moment_triple(*orders, links, m_z)
                ref = float(mp_joint_moment(rho, idx, m_z, orders))
                assert got == pytest.approx(ref, rel=rel), (orders, idx)

    @pytest.mark.xfail(strict=True, reason=(
        "the quad series loses mass near maximal correlation (-1.02e-5 here); "
        "ROADMAP item 3 replaces it, and re-records the benchmark's fit/near "
        "reference, which pins this value"))
    def test_quad_near_maximal_against_mpmath_series(self):
        links = exponential_links(0.97, (0, 1, 2, 3))
        with mp.workdps(30):
            ref = float(mp_joint_moment(0.97, (0, 1, 2, 3), 1, (1, 1, 1, 1)))
        assert joint_moment_quad(links, 1) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.999, 1.0 - 1e-6])
    @pytest.mark.parametrize("m_z", [1, 3])
    def test_outer_square_triples_near_maximal(self, rho, m_z):
        # where the series cannot be summed: below the rho -> 1 limit
        # E[Z^4] = (m + 1)/m by about 1.75 (1 - rho)/m, and within a
        # Monte-Carlo estimate's spread
        links = exponential_links(rho, (0, 1, 2))
        t211 = joint_moment_triple(2, 1, 1, links, m_z)
        t112 = joint_moment_triple(1, 1, 2, links, m_z)
        limit = (m_z + 1.0) / m_z
        for got in (t211, t112):
            assert 0.0 < limit - got < 2.0 * (1.0 - rho) / m_z
        n = 4_000_000
        z = sample_correlated_nakagami(unit_exponential_spec(m_z, rho, 3), n, seed=11).data
        for got, prod in ((t211, z[:, 0] ** 2 * z[:, 1] * z[:, 2]),
                          (t112, z[:, 0] * z[:, 1] * z[:, 2] ** 2)):
            assert abs(got - prod.mean()) < 4.0 * prod.std() / math.sqrt(n)

    @pytest.mark.parametrize("spec", [
        EnsembleSpec(fading_m=2, powers=tuple(math.exp(-0.3 * k) for k in range(8)),
                     correlation=ExponentialCorrelation(0.7)),
        EnsembleSpec(fading_m=1, powers=(1.0, 0.8, 1.3, 0.5, 1.1, 0.9),
                     correlation=ArbitraryCorrelation(CorrelationMatrix(np.array([
                         [1.0, 0.7, 0.5, 0.4, 0.2, 0.3],
                         [0.7, 1.0, 0.6, 0.5, 0.3, 0.2],
                         [0.5, 0.6, 1.0, 0.7, 0.4, 0.3],
                         [0.4, 0.5, 0.7, 1.0, 0.6, 0.4],
                         [0.2, 0.3, 0.4, 0.6, 1.0, 0.5],
                         [0.3, 0.2, 0.3, 0.4, 0.5, 1.0]])))),
    ], ids=["exp-L8", "arbitrary-L6"])
    def test_batched_fourth_moment_matches_per_subset_calls(self, spec):
        m = spec.fading_m
        p = spec.powers
        fitted = greens_fit(spec.sqrt_corr_matrix())
        total = (m + 1.0) / m * math.fsum(x * x for x in p)
        total += _fourth_moment_pair_terms(spec)
        for a, b, c in itertools.combinations(range(len(p)), 3):
            links = (fitted.entries[a, b], fitted.entries[b, c])
            total += 12.0 * (
                p[a] * math.sqrt(p[b] * p[c]) * joint_moment_triple(2, 1, 1, links, m)
                + math.sqrt(p[a] * p[c]) * p[b] * joint_moment_triple(1, 2, 1, links, m)
                + math.sqrt(p[a] * p[b]) * p[c] * joint_moment_triple(1, 1, 2, links, m))
        for idx in itertools.combinations(range(len(p)), 4):
            links = [fitted.entries[i, j] for i, j in zip(idx, idx[1:])]
            total += 24.0 * math.sqrt(math.prod(p[i] for i in idx)) * \
                joint_moment_quad(links, m)
        assert fourth_moment_Z(spec) == pytest.approx(total, rel=1e-12)

    def test_no_warning_from_finished_subsets(self):
        # at rho=0.97 the adjacent subsets need ~500 terms, while subsets
        # with one distant branch finish early with 2F1 factors that would
        # overflow long before the batch ends
        spec = unit_exponential_spec(1, 0.97, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isfinite(fourth_moment_Z(spec))

    def test_independent_subset_needs_only_its_first_term(self, monkeypatch):
        # q = 0 ends the series at k = 0, even on a budget below the
        # stop rule's first chance at k = 4
        triple = joint_moment_triple(1, 2, 1, (0.0, 0.0), 2)
        quad4 = joint_moment_quad((0.0, 0.0, 0.0), 2)
        monkeypatch.setattr(moments, "_JOINT_MAX_TERMS", 3)
        assert joint_moment_triple(1, 2, 1, (0.0, 0.0), 2) == triple
        assert joint_moment_quad((0.0, 0.0, 0.0), 2) == quad4
        links = exponential_links(0.3, (0, 1, 2))
        with pytest.raises(TruncationError):
            joint_moment_triple(1, 2, 1, links, 2)
        # the outer-square triples sum no series
        assert math.isfinite(joint_moment_triple(2, 1, 1, links, 2))

    @pytest.mark.parametrize("rho", [0.98, 0.99, 0.999])
    @pytest.mark.parametrize("m_z", [1, 3])
    @pytest.mark.parametrize("L", [4, 8])
    def test_near_maximal_still_raises(self, rho, m_z, L):
        # the quad series goes silently wrong here (ROADMAP item 3): the fit
        # must raise, not return a value built from it
        with pytest.raises(TruncationError):
            match_parameters(unit_exponential_spec(m_z, rho, L))

    @pytest.mark.parametrize("L", [3, 4, 8])
    def test_ratio_within_guard_of_one_raises(self, L):
        # rho = 1 - 2^-53 is not maximal, but it puts the joint series'
        # ratio within the 1e-9 guard of 1
        rho = 1.0 - 2.0 ** -53
        with pytest.raises(TruncationError, match="ratio at or above 1"):
            match_parameters(unit_exponential_spec(1, rho, L))


# -- the joint-moment series summed one k at a time --------------------------
#
# `per_k_series` is the reference for the blocked `_joint_series`: one call
# per lane kind ((1, 2, 1) triples or quads), term k formed, checked, added and tested against
# the stop rule before k + 1 is looked at.  It takes its starting values
# from the same `scipy.special.hyp2f1` (checked against mpmath in
# `test_hyp2f1_starting_values_against_mpmath`), so the comparison isolates
# the block arithmetic, which keeps the per-k order of operations and must
# agree to the last bit.

def per_k_lgam(pattern, m):
    if pattern == "quad":
        return lambda k: (2.0 * math.lgamma(m + k + 0.5) - math.lgamma(k + 1.0)
                          - math.lgamma(m + k))
    n1, n2, _ = pattern
    return lambda k: (math.lgamma(m + k + n1 / 2.0) + math.lgamma(m + k + n2 / 2.0)
                      - math.lgamma(m + k) - math.lgamma(k + 1.0))


def per_k_series(lanes, pattern, m, max_terms=10_000):
    """(values, stop k per lane) of same-pattern lanes, summed per k, to a
    relative 1e-12 within ``max_terms`` terms."""
    lgam = per_k_lgam(pattern, m)
    pref, q, a0, b, x = lanes.pref, lanes.q, lanes.a0[0], lanes.b[0], lanes.x
    c = m
    total = np.zeros(q.size)
    stops = np.full(q.size, -1)
    live = np.arange(q.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_q = np.log(q)
        cur, nxt = scipy.special.hyp2f1(a0, b, c, x), scipy.special.hyp2f1(a0 + 1.0, b, c, x)
        omx = 1.0 - x
        for k in range(max_terms):
            lt = k * log_q + lgam(k) if k > 0 else np.full(live.size, lgam(0))
            term = np.exp(lt)
            for f in cur:
                term *= f
            finite = np.isfinite(term)
            if not finite.all():
                lane = live[np.argmin(finite)]
                raise TruncationError("overflow", partial=float(pref[lane] * total[lane]))
            total[live] += term
            if k > 3:
                keep = ~(term <= 1e-12 * total[live])
                if not keep.all():
                    stops[live[~keep]] = k
                    live, log_q = live[keep], log_q[keep]
                    cur, nxt, x, omx = cur[:, keep], nxt[:, keep], x[:, keep], omx[:, keep]
                    if live.size == 0:
                        return pref * total, stops
            a = a0 + k + 1.0
            cur, nxt = nxt, ((2.0 * a - c + (b - a) * x) * nxt + (c - a) * cur) / (a * omx)
    if not (log_q > -np.inf).any():
        return pref * total, stops
    lane = live[np.argmax(log_q > -np.inf)]
    raise TruncationError("budget", partial=float(pref[lane] * total[lane]))


def per_k_fourth_moment(spec):
    """E[Z^4] with the (1, 2, 1) triple and quad series summed by
    `per_k_series`; the outer-square triples are the fit's closed forms."""
    m = spec.fading_m
    p = np.asarray(spec.powers)
    L = len(p)
    fitted = greens_fit(spec.sqrt_corr_matrix())
    triples = np.array(list(itertools.combinations(range(L), 3)))
    links = subset_links(fitted, triples)
    t121 = per_k_series(_triple_lanes(links, m), (1, 2, 1), float(m))[0]
    t211, t112 = moments._outer_square_triples(links, m)
    pa, pb, pc = p[triples].T
    total = (m + 1.0) / m * math.fsum(p * p) + _fourth_moment_pair_terms(spec)
    joint = 12.0 * np.sum(pa * np.sqrt(pb * pc) * t211 + np.sqrt(pa) * pb * np.sqrt(pc) * t121
                          + np.sqrt(pa * pb) * pc * t112)
    if L >= 4:
        quads = np.array(list(itertools.combinations(range(L), 4)))
        tq = per_k_series(_quad_lanes(subset_links(fitted, quads), m), "quad", float(m))[0]
        joint += 24.0 * np.sum(np.sqrt(np.prod(p[quads], axis=1)) * tq)
    return total + float(joint)


def latent_factor_spec(seed, L, m_z):
    rng = np.random.default_rng(seed)
    a = np.abs(rng.standard_normal((L, 3)))
    c = a @ a.T + 2.0 * np.eye(L)
    d = np.sqrt(np.diag(c))
    return EnsembleSpec(fading_m=m_z, powers=tuple(rng.uniform(0.5, 1.5, L)),
                        correlation=ArbitraryCorrelation(CorrelationMatrix(c / np.outer(d, d))))


class TestBlockedSeries:
    @pytest.mark.parametrize("spec", [
        EnsembleSpec(fading_m=2, powers=tuple(math.exp(-0.3 * k) for k in range(8)),
                     correlation=ExponentialCorrelation(0.7)),
        EnsembleSpec(fading_m=1, powers=tuple(math.exp(-0.3 * k) for k in range(16)),
                     correlation=ExponentialCorrelation(0.5)),
        latent_factor_spec(1, 5, 1),
        latent_factor_spec(2, 6, 2),
        latent_factor_spec(3, 6, 1),
        unit_exponential_spec(1, 0.97, 4),
    ], ids=["exp-L8", "exp-L16", "arbitrary-L5", "arbitrary-L6-m2", "arbitrary-L6",
            "exp-rho0.97-L4"])
    def test_fourth_moment_matches_per_k_oracle(self, spec):
        # exp rho=0.97, L=4 also pins the underflow at k = 542 that ends its
        # quad series early (ROADMAP item 3)
        assert fourth_moment_Z(spec) == pytest.approx(per_k_fourth_moment(spec), rel=1e-13)

    def test_stops_on_block_edges(self, monkeypatch):
        # blocks of exactly `rows` rows; over rows = 2..12 the lanes' stop
        # indices fall on the first and on the last row of a block
        spec = latent_factor_spec(3, 6, 1)
        fitted = greens_fit(spec.sqrt_corr_matrix())
        quads = np.array(list(itertools.combinations(range(6), 4)))
        lanes = _quad_lanes(subset_links(fitted, quads), 1)
        want, stops = per_k_series(lanes, "quad", 1.0)
        first_row = last_row = False
        for rows in range(2, 13):
            monkeypatch.setattr(moments, "_BLOCK_CELLS", rows * lanes.q.size)
            assert np.array_equal(moments._joint_series(lanes, 1.0), want)
            first_row |= bool((stops % rows == 0).any())
            last_row |= bool((stops % rows == rows - 1).any())
        assert first_row and last_row

    def test_stop_index_matches_per_k_oracle(self, monkeypatch):
        # each lane converges on a budget that just reaches the oracle's
        # stop index and raises on one term less (rho = 1e-5 stops at the
        # first chance, k = 4)
        links = np.array([exponential_links(rho, (0, 1, 2)) for rho in (1e-5, 0.3, 0.6)])
        lanes = _triple_lanes(links, 1)
        want, stops = per_k_series(lanes, (1, 2, 1), 1.0)
        assert stops[0] == 4
        for i, stop in enumerate(stops):
            lane = moments._Lanes(*(field[..., i:i + 1] for field in lanes))
            monkeypatch.setattr(moments, "_JOINT_MAX_TERMS", stop + 1)
            assert moments._joint_series(lane, 1.0)[0] == want[i]
            monkeypatch.setattr(moments, "_JOINT_MAX_TERMS", stop)
            with pytest.raises(TruncationError):
                moments._joint_series(lane, 1.0)

    def test_lane_stopping_before_another_overflows(self):
        # lane 0 stops at k ~ 5; past k ~ 150 its factors overflow, inside
        # the block the slow lane 1 (about 300 terms) still needs
        one = np.ones(2)
        lanes = moments._Lanes(pref=one, q=np.array([1e-6, 0.9]), a0=1.5 * one, b=1.5 * one,
                               x=np.array([[0.99, 0.0], [0.99, 0.0]]),
                               group=np.full(2, moments._QUAD_GROUP))
        want, stops = per_k_series(lanes, "quad", 1.0)
        assert stops[0] < 10 < 200 < stops[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = moments._joint_series(lanes, 1.0)
        assert np.array_equal(got, want)

    def test_truncation_partial_matches_per_k_oracle(self, monkeypatch):
        mat = CorrelationMatrix.exponential(0.98, 6)
        triples = np.array(list(itertools.combinations(range(6), 3)))
        lanes = _triple_lanes(subset_links(mat, triples), 1)
        for max_terms, cause, message in ((10_000, "overflow", "overflowed"),
                                          (40, "budget", "did not converge")):
            with pytest.raises(TruncationError, match=cause) as want:
                per_k_series(lanes, (1, 2, 1), 1.0, max_terms)
            with monkeypatch.context() as patch:
                patch.setattr(moments, "_JOINT_MAX_TERMS", max_terms)
                with pytest.raises(TruncationError, match=message) as got:
                    moments._joint_series(lanes, 1.0)
            assert got.value.partial == pytest.approx(want.value.partial, rel=1e-13)
        links = exponential_links(0.98, (0, 1, 2))
        with pytest.raises(TruncationError) as got:
            joint_moment_triple(1, 2, 1, links, 1)
        with pytest.raises(TruncationError) as want:
            per_k_series(_triple_lanes(links[None], 1), (1, 2, 1), 1.0)
        assert got.value.partial == pytest.approx(want.value.partial, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 5, 64])
    def test_lgam_rows_match_per_k_lgamma(self, m):
        # the rows read from one lgamma run over the integers are the per-k
        # sums bit for bit
        triple, quad = per_k_lgam((1, 2, 1), float(m)), per_k_lgam("quad", float(m))
        for k0, rows in ((0, 1), (0, 40), (37, 8), (500, 3)):
            got = moments._joint_lgam(float(m), k0, rows)
            want = [[triple(k), quad(k)] for k in range(k0, k0 + rows)]
            assert got[:, [moments._TRIPLE_GROUP, moments._QUAD_GROUP]].tolist() == want

    def test_hyp2f1_starting_values_against_mpmath(self):
        xs = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999]
        worst = 0.0
        with mp.workdps(40):
            for m in range(1, 11):
                lanes = _concat_lanes([_triple_lanes(np.zeros((1, 2)), m),
                                       _quad_lanes(np.zeros((1, 3)), m)])
                for a0, b in set(zip(lanes.a0, lanes.b)):
                    for a in (a0, a0 + 1.0):
                        for x in xs:
                            ref = mp.hyp2f1(a, b, m, x)
                            got = scipy.special.hyp2f1(a, b, float(m), x)
                            worst = max(worst, float(abs(got - ref) / ref))
        assert worst < 1e-13


# -- exponential correlation as its own Markov chain ---------------------------
#
# An exponential matrix is a Markov chain, so the joint moments read its
# links directly instead of through greens_fit, whose coordinate descent
# returns the same chain to within rounding.  The series kernels are
# checked bit for bit against step-by-step references kept here.

def factor_block_stepwise(cur, nxt, a0, b, c, x, k0, rows):
    """``_factor_block`` with each step's row updated through ``f[j + 2]``
    by in-place operators: the same operations in the same order."""
    a = a0 + np.arange(k0, k0 + rows, dtype=float)[:, None] + 1.0
    fwd = (b - a)[:, None] * x
    fwd += (2.0 * a - c)[:, None]
    back = (c - a)[:, None]
    den = a[:, None] * (1.0 - x)
    f = np.empty((rows + 2,) + x.shape)
    f[0], f[1] = cur, nxt
    tmp = np.empty(x.shape)
    for j in range(rows):
        np.multiply(fwd[j], f[j + 1], out=f[j + 2])
        f[j + 2] += np.multiply(back[j], f[j], out=tmp)
        f[j + 2] /= den[j]
    return f


def fourth_moment_or_overflow(spec, fitted):
    try:
        return moments._fourth_moment_Z(spec, fitted)
    except TruncationError:
        return None


class TestExponentialChain:
    @pytest.mark.parametrize("rho", [0.0, 0.2, 0.5, 0.9, 0.97])
    @pytest.mark.parametrize("m_z", [1, 2, 5])
    def test_matches_greens_fit_route(self, rho, m_z):
        for L in (2, 3, 4, 8, 16):
            for powers in ((1.0,) * L, power_profile(1.0, 0.3, L)):
                spec = EnsembleSpec(fading_m=m_z, powers=powers,
                                    correlation=ExponentialCorrelation(rho))
                chain = moments._markov_fit(spec)
                assert np.array_equal(chain.entries, spec.sqrt_corr_matrix().entries)
                want = fourth_moment_or_overflow(spec, greens_fit(spec.sqrt_corr_matrix()))
                got = fourth_moment_or_overflow(spec, chain)
                if want is None:
                    # rho = 0.97 overflows the series at m_z >= 2 (ROADMAP item 3)
                    assert got is None and rho == 0.97 and m_z > 1
                else:
                    assert got == pytest.approx(want, rel=1e-13)

    def test_factor_block_matches_stepwise_form(self):
        rng = np.random.default_rng(23)
        lanes = _concat_lanes([
            _triple_lanes(np.vstack([rng.uniform(0.0, 0.95, (12, 2)),
                                     exponential_links(0.97, (0, 1, 2))]), 2),
            _quad_lanes(np.vstack([rng.uniform(0.0, 0.95, (12, 3)),
                                   exponential_links(0.97, (0, 1, 2, 3))]), 2)])
        # the triples' second factor is the x = 0 row
        assert not lanes.x[1, :13].any()
        # the exponential lanes' asymptotic term ratio is the link power 0.97
        assert np.max(lanes.q / np.prod(1.0 - lanes.x, axis=0)) == pytest.approx(0.97)
        cur = scipy.special.hyp2f1(lanes.a0, lanes.b, 2.0, lanes.x)
        nxt = scipy.special.hyp2f1(lanes.a0 + 1.0, lanes.b, 2.0, lanes.x)
        for k0, rows in ((0, 1), (0, 40), (37, 8), (500, 3)):
            got = moments._factor_block(cur, nxt, lanes.a0, lanes.b, 2.0, lanes.x, k0, rows)
            want = factor_block_stepwise(cur, nxt, lanes.a0, lanes.b, 2.0, lanes.x, k0, rows)
            assert got.tobytes() == want.tobytes()


# -- one lane per gap pattern on a Toeplitz chain ------------------------------
#
# On an exponential chain a subset's links depend only on its gaps, so the
# fit sums one series lane per gap pattern and expands the values back to
# the subsets.  `per_subset_fourth_moment` is the assembly with one lane per
# subset, in the same order and with the same arithmetic; the grouped fit
# must equal it bit for bit.

def per_subset_fourth_moment(spec, chain):
    m = spec.fading_m
    p = np.asarray(spec.powers)
    L = len(p)
    triples = np.array(list(itertools.combinations(range(L), 3)))
    links = subset_links(chain, triples)
    lanes = [_triple_lanes(links, m)]
    if L >= 4:
        quads = np.array(list(itertools.combinations(range(L), 4)))
        lanes.append(_quad_lanes(subset_links(chain, quads), m))
    series = moments._joint_series(_concat_lanes(lanes), float(m))
    t121, tquad = series[:len(triples)], series[len(triples):]
    t211, t112 = moments._outer_square_triples(links, m)
    pa, pb, pc = p[triples].T
    joint = 12.0 * np.sum(pa * np.sqrt(pb * pc) * t211 + np.sqrt(pa) * pb * np.sqrt(pc) * t121
                          + np.sqrt(pa * pb) * pc * t112)
    if L >= 4:
        joint += 24.0 * np.sum(np.sqrt(np.prod(p[quads], axis=1)) * tquad)
    total = (m + 1.0) / m * math.fsum(w * w for w in spec.powers)
    total += _fourth_moment_pair_terms(spec)
    return total + float(joint)


def count_lanes(monkeypatch):
    """Patch the joint series to record the lane count of each call."""
    series, lanes = moments._joint_series, []

    def counted(lane, m):
        lanes.append(lane.q.size)
        return series(lane, m)

    monkeypatch.setattr(moments, "_joint_series", counted)
    return lanes


class TestGapPatterns:
    @pytest.mark.parametrize("L", [5, 8, 16])
    @pytest.mark.parametrize("rho, m_z", [(0.3, 1), (0.7, 2), (0.95, 3)])
    def test_fourth_moment_equals_per_subset_assembly(self, monkeypatch, L, rho, m_z):
        spec = EnsembleSpec(fading_m=m_z, powers=power_profile(1.0, 0.3, L),
                            correlation=ExponentialCorrelation(rho))
        want = per_subset_fourth_moment(spec, spec.sqrt_corr_matrix())
        lanes = count_lanes(monkeypatch)
        assert fourth_moment_Z(spec) == want
        # C(L - 1, 2) triple and C(L - 1, 3) quad patterns, not C(L, 3) + C(L, 4)
        assert lanes == [math.comb(L - 1, 2) + math.comb(L - 1, 3)]

    @settings(max_examples=40, deadline=None)
    @given(rho=st.floats(0.0, 0.95), m_z=st.integers(1, 5), L=st.integers(3, 12),
           data=st.data())
    def test_fourth_moment_equals_per_subset_assembly_property(self, rho, m_z, L, data):
        powers = data.draw(st.lists(st.floats(0.01, 10.0), min_size=L, max_size=L))
        spec = EnsembleSpec(fading_m=m_z, powers=tuple(powers),
                            correlation=ExponentialCorrelation(rho))
        want = outcome(lambda: per_subset_fourth_moment(spec, spec.sqrt_corr_matrix()))
        assert outcome(lambda: fourth_moment_Z(spec)) == want

    @pytest.mark.parametrize("rho, m_z", [(0.98, 1), (0.99, 1), (0.999, 1), (0.97, 2),
                                          (0.97, 3), (0.97, 5)])
    @pytest.mark.parametrize("L", [5, 8, 16])
    def test_near_maximal_still_raises(self, rho, m_z, L):
        # the series overflows on the representatives as on every subset
        # (ROADMAP item 3)
        spec = EnsembleSpec(fading_m=m_z, powers=power_profile(1.0, 0.3, L),
                            correlation=ExponentialCorrelation(rho))
        with pytest.raises(TruncationError, match="overflowed"):
            match_parameters(spec)

    def test_patterns_map_subsets_to_their_translate_from_branch_zero(self):
        for L in (4, 5, 9):
            for k in (3, 4):
                subsets = moments._subsets(L, k)
                assert np.array_equal(subsets,
                                      np.array(list(itertools.combinations(range(L), k))))
                reps, at = moments._gap_patterns(subsets, L)
                assert reps == math.comb(L - 1, k - 1)
                assert not subsets[:reps, 0].any() and subsets[reps:, 0].all()
                assert np.array_equal(subsets[at], subsets - subsets[:, :1])

    def test_non_toeplitz_chain_takes_every_subset(self, monkeypatch):
        # the arbitrary fit's links differ, and one lane serves each subset
        spec = latent_factor_spec(2, 6, 2)
        chain = moments._markov_fit(spec)
        assert not moments._is_toeplitz(chain)
        assert moments._is_toeplitz(CorrelationMatrix.exponential(0.4, 6))
        assert moments._is_toeplitz(CorrelationMatrix.from_markov_links([0.4] * 5))
        want = per_subset_fourth_moment(spec, chain)
        lanes = count_lanes(monkeypatch)
        assert moments._fourth_moment_Z(spec, chain) == want
        assert lanes == [20 + 15]


# -- the lanes from link products against the inverse-based construction ----
#
# `inverse_triple_lanes`/`inverse_quad_lanes` build the (1, 2, 1) triple and
# quad lanes the way the fit did before its lanes came from link products:
# from stacked tridiagonal inverses of the principal submatrices and their
# determinants.  A float
# matrix rounds each product c_ij, and its inverse amplifies that rounding
# by about 1/w, w = 1 - r^2 of the strongest link; LAPACK adds as much
# again.  Near-unit links are therefore checked against the inverse of the
# exact Markov product, formed in mpmath.

def inverse_triple_lanes(deltas, m_z, dets=None):
    m = float(m_z)
    det = np.linalg.det(deltas) if dets is None else dets
    d11, d22, d33 = deltas[:, 0, 0], deltas[:, 1, 1], deltas[:, 2, 2]
    d12, d23 = deltas[:, 0, 1], deltas[:, 1, 2]
    q = d12 * d12 / (d11 * d22)
    x = d23 * d23 / (d22 * d33)
    size = len(deltas)
    pref = det ** m / (d11 ** (m + 0.5) * d22 ** (m + 1.0) * d33 ** (m + 0.5))
    pref *= math.exp(math.lgamma(m + 0.5) - 2.0 * math.lgamma(m))
    pref /= m ** 2.0
    return moments._Lanes(pref, q, np.full(size, m + 1.0), np.full(size, m + 0.5),
                          np.stack([x, np.zeros(size)]), np.full(size, moments._TRIPLE_GROUP))


def inverse_quad_lanes(psis, m_z, dets=None):
    m = float(m_z)
    det = np.linalg.det(psis) if dets is None else dets
    p11, p22, p33, p44 = (psis[:, i, i] for i in range(4))
    p12, p23, p34 = psis[:, 0, 1], psis[:, 1, 2], psis[:, 2, 3]
    pref = det ** m / (p11 * p22 * p33 * p44) ** (m + 0.5)
    pref *= math.exp(2.0 * math.lgamma(m + 0.5) - 3.0 * math.lgamma(m)) / m ** 2
    size = len(psis)
    return moments._Lanes(pref, p23 * p23 / (p22 * p33), np.full(size, m + 0.5),
                          np.full(size, m + 0.5),
                          np.stack([p12 * p12 / (p11 * p22), p34 * p34 / (p33 * p44)]),
                          np.full(size, moments._QUAD_GROUP))


def mp_inverses(fitted, subsets):
    """Inverses of the principal submatrices of the exact Markov product of
    ``fitted``'s links, and their determinants, in mpmath at 40 digits,
    rounded to floats."""
    links = [mp.mpf(fitted.entries[k, k + 1]) for k in range(fitted.dim - 1)]
    invs, dets = [], []
    with mp.workdps(40):
        for idx in subsets:
            sub = mp.matrix([[mp.fprod(links[min(i, j):max(i, j)]) for j in idx] for i in idx])
            inv = mp.inverse(sub)
            invs.append([[float(inv[i, j]) for j in range(len(idx))] for i in range(len(idx))])
            dets.append(float(1 / mp.det(sub)))
    return np.array(invs), np.array(dets)


def all_subsets(L):
    return [np.array(list(itertools.combinations(range(L), size)))
            for size in ((3, 4) if L >= 4 else (3,))]


def closed_form_lanes(fitted, m_z):
    """Lanes of every triple and quadruple of ``fitted``, as the fit builds
    them."""
    triples, *quads = [subset_links(fitted, s) for s in all_subsets(fitted.dim)]
    lanes = [_triple_lanes(triples, m_z)]
    return _concat_lanes(lanes + [_quad_lanes(links, m_z) for links in quads])


def inverse_lanes(fitted, inverses, m_z):
    """The same lanes from ``inverses(fitted, subsets)``, the stacked
    inverses and their determinants (None for numpy's)."""
    (invs, dets), *quads = [inverses(fitted, s) for s in all_subsets(fitted.dim)]
    lanes = [inverse_triple_lanes(invs, m_z, dets)]
    return _concat_lanes(lanes + [inverse_quad_lanes(i, m_z, d) for i, d in quads])


def lapack_inverses(fitted, subsets):
    """numpy's stacked inverses of the principal submatrices; a singular
    one, or one whose inverse residual reaches 1e-8, raises."""
    subs = fitted.entries[subsets[:, :, None], subsets[:, None, :]]
    try:
        invs = np.linalg.inv(subs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("singular principal submatrix") from exc
    if not np.abs(subs @ invs - np.eye(subsets.shape[1])).max() < 1e-8:
        raise SingularMatrixError("numerically singular principal submatrix")
    return invs, None


def oracle_fourth_moment(spec, fitted, inverses):
    """E[Z^4] assembled from the inverse-based lanes; the outer-square
    triples, which sum no series, are the fit's closed forms."""
    m = spec.fading_m
    p = np.asarray(spec.powers)
    L = len(p)
    series = moments._joint_series(inverse_lanes(fitted, inverses, m), float(m))
    triples = np.array(list(itertools.combinations(range(L), 3)))
    t121, tquad = series[:len(triples)], series[len(triples):]
    t211, t112 = moments._outer_square_triples(subset_links(fitted, triples), m)
    pa, pb, pc = p[triples].T
    total = 12.0 * np.sum(pa * np.sqrt(pb * pc) * t211 + np.sqrt(pa) * pb * np.sqrt(pc) * t121
                          + np.sqrt(pa * pb) * pc * t112)
    if L >= 4:
        quads = np.array(list(itertools.combinations(range(L), 4)))
        total += 24.0 * np.sum(np.sqrt(np.prod(p[quads], axis=1)) * tquad)
    return (m + 1.0) / m * math.fsum(p * p) + _fourth_moment_pair_terms(spec) + float(total)


def assert_lanes_close(got, want, rel):
    for name, g, w in zip(moments._Lanes._fields, got, want):
        np.testing.assert_allclose(g, w, rtol=rel, atol=0, err_msg=name)


def outcome(call):
    try:
        return call()
    except (SingularMatrixError, TruncationError) as exc:
        return type(exc)


def compare_fit(spec, fitted, inverses):
    """Closed-form lanes and E[Z^4] against the inverse-based oracle; the
    same error type where the oracle raises."""
    want = outcome(lambda: inverse_lanes(fitted, inverses, spec.fading_m))
    got = outcome(lambda: closed_form_lanes(fitted, spec.fading_m))
    if isinstance(want, type):
        assert got is want
    else:
        assert_lanes_close(got, want, rel=1e-12)
    want = outcome(lambda: oracle_fourth_moment(spec, fitted, inverses))
    got = outcome(lambda: moments._fourth_moment_Z(spec, fitted))
    if isinstance(want, type):
        assert got is want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    return want


class TestLanesFromLinks:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.9, 0.97])
    @pytest.mark.parametrize("m_z", [1, 3])
    def test_exponential(self, rho, m_z):
        for L in range(3, 17):
            spec = EnsembleSpec(fading_m=m_z, powers=tuple(math.exp(-0.3 * k) for k in range(L)),
                                correlation=ExponentialCorrelation(rho))
            got = compare_fit(spec, moments._markov_fit(spec), lapack_inverses)
            # at rho = 0.97, m = 3 the triple series overflows in either
            # construction (ROADMAP item 3)
            assert got is TruncationError if (rho, m_z) == (0.97, 3) else isinstance(got, float)

    @pytest.mark.parametrize("diag", [0.05, 0.5, 2.0])
    def test_latent_factor(self, diag):
        rng = np.random.default_rng(20261019)
        outcomes = set()
        for L in (5, 6, 7, 8):
            for m_z in (1, 2, 3):
                a = np.abs(rng.standard_normal((L, 3)))
                c = a @ a.T + diag * np.eye(L)
                d = np.sqrt(np.diag(c))
                spec = EnsembleSpec(fading_m=m_z, powers=tuple(rng.uniform(0.5, 1.5, L)),
                                    correlation=ArbitraryCorrelation(
                                        CorrelationMatrix(c / np.outer(d, d))))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", FitClampWarning)
                    fitted = moments._markov_fit(spec)
                outcomes.add(type(compare_fit(spec, fitted, lapack_inverses)))
        assert float in outcomes

    def test_random_links_with_zero_and_near_unit(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            L = 5 + trial % 2
            links = rng.uniform(0.0, 0.95, L - 1)
            links[trial % (L - 1)] = 0.0
            spec = EnsembleSpec(fading_m=1 + trial % 3, powers=tuple(rng.uniform(0.5, 1.5, L)),
                                correlation=ArbitraryCorrelation(
                                    CorrelationMatrix.from_markov_links(links)))
            assert isinstance(compare_fit(spec, spec.correlation.matrix, mp_inverses), float)
            # the near-unit link sums to no value, in either construction
            links[(trial + 2) % (L - 1)] = 1.0 - 1e-9
            fitted = CorrelationMatrix.from_markov_links(links)
            assert compare_fit(spec, fitted, mp_inverses) is TruncationError

    def test_unit_link_raises_naming_subset_at_once(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("series summed past a singular subset")

        monkeypatch.setattr(moments, "_joint_series", unreachable)
        spec = EnsembleSpec(fading_m=2, powers=(1.0,) * 5,
                            correlation=ExponentialCorrelation(0.5))
        fitted = CorrelationMatrix.from_markov_links([0.6, 0.5, 1.0, 0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match=r"\(0, 2, 3\) is singular"):
                moments._fourth_moment_Z(spec, fitted)

    @pytest.mark.parametrize("spec", [
        EnsembleSpec(fading_m=2, powers=tuple(math.exp(-0.3 * k) for k in range(8)),
                     correlation=ExponentialCorrelation(0.7)),
        latent_factor_spec(2, 6, 2),
    ], ids=["exp-L8", "arbitrary-L6"])
    def test_fit_takes_no_submatrix_inverse(self, monkeypatch, spec):
        want = fourth_moment_Z(spec)

        def unreachable(*args):
            raise AssertionError("inverse-based lane construction reached")

        monkeypatch.setattr(linalg, "principal_submatrix_inverse", unreachable)
        monkeypatch.setattr(np.linalg, "inv", unreachable)
        monkeypatch.setattr(np.linalg, "det", unreachable)
        assert fourth_moment_Z(spec) == want


def per_pair_second_moment(spec):
    """E[Z^2] with one 2F1 series per branch pair, summed in pair order."""
    m = spec.fading_m
    p = spec.powers
    coeff = 2.0 * math.exp(math.lgamma(m + 0.5) - math.lgamma(m)) ** 2 / m
    cross = 0.0
    for i, j in itertools.combinations(range(len(p)), 2):
        cross += math.sqrt(p[i] * p[j]) * gauss_2f1(-0.5, -0.5, m, spec.rho(i, j))
    return math.fsum(p) + coeff * cross


@pytest.mark.parametrize("spec, series", [
    (EnsembleSpec(fading_m=1, powers=(1.0,) * 16, correlation=EqualCorrelation(0.9)), 1),
    (EnsembleSpec(fading_m=3, powers=tuple(math.exp(-0.2 * k) for k in range(16)),
                  correlation=EqualCorrelation(0.35)), 1),
    (EnsembleSpec(fading_m=2, powers=tuple(math.exp(-0.3 * k) for k in range(8)),
                  correlation=ExponentialCorrelation(0.7)), 7),
    (EnsembleSpec(fading_m=1, powers=(1.0,) * 16, correlation=ExponentialCorrelation(0.5)),
     15),
    (latent_factor_spec(1, 5, 1), 10),
], ids=["equal-L16", "equal-L16-unequal-powers", "exp-L8", "exp-L16", "arbitrary-L5"])
def test_second_moment_one_series_per_distinct_rho(monkeypatch, spec, series):
    # a cached 2F1 value leaves E[Z^2] bit for bit the per-pair sum
    calls = []

    def counted(*args):
        calls.append(args)
        return gauss_2f1(*args)

    monkeypatch.setattr(moments, "gauss_2f1", counted)
    assert second_moment_Z(spec) == per_pair_second_moment(spec)
    assert len(calls) == series


def test_pair_term_closed_form_matches_gauss_2f1():
    # 2F1(-1, -1; m; r) = 1 + r/m; the pair terms must match the same sum
    # with 2F1(-3/2, -1/2; m; r) from mpmath to rounding
    with mp.workdps(30):
        for m in range(1, 11):
            c2 = 6.0 * moments._gamma_ratio(m + 1.0, m) ** 2 / m ** 2
            c3 = 4.0 * math.exp(math.lgamma(m + 1.5) + math.lgamma(m + 0.5)
                                - 2.0 * math.lgamma(m)) / m ** 2
            for r in np.linspace(0.0, 0.999, 38):
                r = float(r)
                assert 1.0 + r / m == pytest.approx(gauss_2f1(-1.0, -1.0, m, r), rel=1e-15, abs=0)
                spec = EnsembleSpec(fading_m=m, powers=(1.0, 0.7),
                                    correlation=ExponentialCorrelation(r))
                f3 = float(mp.hyp2f1(-1.5, -0.5, m, r))
                want = c2 * 0.7 * (1.0 + r / m) + c3 * (0.7 ** 0.5 + 0.7 ** 1.5) * f3
                assert _fourth_moment_pair_terms(spec) == pytest.approx(want, rel=1e-14, abs=0)


def equal_joint_by_subsets(spec):
    """Three- and four-branch E[Z^4] terms at equal correlation, weighted
    subset by subset over all C(L,3) triples and C(L,4) quadruples."""
    m = spec.fading_m
    rho = spec.correlation.rho
    p = spec.powers
    scale = ((1.0 - rho) / (1.0 + math.sqrt(rho)) / m) ** 2
    triple = math.fsum(p[a] * math.sqrt(p[b] * p[c]) + math.sqrt(p[a]) * p[b] * math.sqrt(p[c])
                       + math.sqrt(p[a] * p[b]) * p[c]
                       for a, b, c in itertools.combinations(range(len(p)), 3))
    quad = math.fsum(math.sqrt(p[a] * p[b] * p[c] * p[d])
                     for a, b, c, d in itertools.combinations(range(len(p)), 4))
    total = 12.0 * scale * w_coefficient((2, 1, 1), m, rho) * triple
    if len(p) >= 4:
        total += 24.0 * scale * w_coefficient((1, 1, 1, 1), m, rho) * quad
    return total


@pytest.mark.parametrize("L", range(3, 17))
def test_equal_joint_weights_match_subset_enumeration(L):
    rng = np.random.default_rng((L, 4))
    for powers in ((1.0,) * L, tuple(math.exp(-0.4 * k) for k in range(L)),
                   tuple(rng.uniform(0.01, 5.0, L))):
        for rho, m_z in ((0.3, 1), (0.9, 3)):
            spec = EnsembleSpec(fading_m=m_z, powers=powers, correlation=EqualCorrelation(rho))
            assert moments._fourth_moment_joint_equal(spec) == pytest.approx(
                equal_joint_by_subsets(spec), rel=1e-13, abs=0)


class TestFourthMoment:
    def test_single_branch(self):
        spec = EnsembleSpec(fading_m=2, powers=(1.0,),
                            correlation=EqualCorrelation(0.0))
        assert fourth_moment_Z(spec) == pytest.approx(1.5, rel=1e-14)

    def test_maximal_is_nakagami(self):
        spec = EnsembleSpec(fading_m=2, powers=(1.0,) * 3,
                            correlation=EqualCorrelation(1.0))
        m2 = second_moment_Z(spec)
        assert m2 == pytest.approx(9.0, rel=1e-14)
        assert fourth_moment_Z(spec) == pytest.approx(1.5 * m2 ** 2, rel=1e-14)

    def test_equal_and_exponential_agree_at_two_branches(self):
        for rho in (0.0, 0.2, 0.7):
            for m_z in (1, 3):
                eq = EnsembleSpec(fading_m=m_z, powers=(1.0, 0.5),
                                  correlation=EqualCorrelation(rho))
                ex = EnsembleSpec(fading_m=m_z, powers=(1.0, 0.5),
                                  correlation=ExponentialCorrelation(rho))
                assert second_moment_Z(eq) == pytest.approx(
                    second_moment_Z(ex), rel=1e-10)
                assert fourth_moment_Z(eq) == pytest.approx(
                    fourth_moment_Z(ex), rel=1e-10)

    def test_variance_positive_random_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            L = int(rng.integers(1, 6))
            m_z = int(rng.integers(1, 4))
            powers = tuple(rng.uniform(0.2, 3.0, L))
            rho = float(rng.uniform(0.0, 0.95))
            corr = [EqualCorrelation(rho), ExponentialCorrelation(rho)][int(rng.integers(2))]
            spec = EnsembleSpec(fading_m=m_z, powers=powers, correlation=corr)
            pair = MomentPair(second_moment_Z(spec), fourth_moment_Z(spec))
            assert pair.m4 > pair.m2 ** 2

    @settings(max_examples=20, deadline=None)
    @given(log2_c=st.integers(-6, 6))
    def test_power_scaling_exact_for_binary_scales(self, log2_c):
        # powers of two scale floats exactly, so the contract is bitwise
        c = 2.0 ** log2_c
        base = EnsembleSpec(fading_m=2, powers=(1.0, 0.5, 0.25),
                            correlation=ExponentialCorrelation(0.4))
        scaled = EnsembleSpec(fading_m=2, powers=tuple(c * p for p in base.powers),
                              correlation=ExponentialCorrelation(0.4))
        assert second_moment_Z(scaled) == c * second_moment_Z(base)
        assert fourth_moment_Z(scaled) == c * c * fourth_moment_Z(base)

    def test_power_scaling_general(self):
        c = 1.7
        base = EnsembleSpec(fading_m=1, powers=(1.0, 2.0, 0.5, 1.5),
                            correlation=EqualCorrelation(0.3))
        scaled = EnsembleSpec(fading_m=1, powers=tuple(c * p for p in base.powers),
                              correlation=EqualCorrelation(0.3))
        assert second_moment_Z(scaled) == pytest.approx(
            c * second_moment_Z(base), rel=1e-13)
        assert fourth_moment_Z(scaled) == pytest.approx(
            c * c * fourth_moment_Z(base), rel=1e-13)

    def test_arbitrary_matches_exponential_when_matrix_is_markov(self):
        # the Markov fit is the identity here, so both routes must agree
        for L, rho, m_z in [(3, 0.4, 1), (4, 0.6, 2)]:
            exp_spec = unit_exponential_spec(m_z, rho, L)
            arb_spec = EnsembleSpec(
                fading_m=m_z, powers=(1.0,) * L,
                correlation=ArbitraryCorrelation(
                    CorrelationMatrix.exponential(rho, L)))
            assert fourth_moment_Z(arb_spec) == pytest.approx(
                fourth_moment_Z(exp_spec), rel=1e-11)

    def test_near_maximal_equal_against_monte_carlo(self):
        spec = EnsembleSpec(fading_m=1, powers=(1.0,) * 4,
                            correlation=EqualCorrelation(0.9999))
        est = estimate_sum_moments(spec, 2_000_000, seed=607)
        assert abs(second_moment_Z(spec) - est["m2"]) < 3.0 * est["se2"]
        assert abs(fourth_moment_Z(spec) - est["m4"]) < 3.0 * est["se4"]

    def test_table_scenarios_spot_values(self):
        # frozen four-decimal shape parameters for balanced branches
        cells = [
            (EqualCorrelation(0.2), 1, 3, 0.8884),
            (EqualCorrelation(0.8), 3, 4, 2.9321),
            (ExponentialCorrelation(0.6), 1, 4, 0.8817),
            (ExponentialCorrelation(0.2), 2, 4, 1.8897),
        ]
        for corr, m_z, L, want in cells:
            spec = EnsembleSpec(fading_m=m_z, powers=(1.0,) * L, correlation=corr)
            m2 = second_moment_Z(spec)
            m4 = fourth_moment_Z(spec)
            if isinstance(corr, EqualCorrelation):
                sr = math.sqrt(corr.rho)
                lam2 = (1 + (L - 1) * sr) ** 2 + (L - 1) * (1 - sr) ** 2
            else:
                lam2 = float(np.sum(np.linalg.eigvalsh(
                    CorrelationMatrix.exponential(corr.rho, L).entries) ** 2))
            m_r = lam2 / L ** 2 * m2 ** 2 / (m4 - m2 ** 2)
            assert m_r == pytest.approx(want, abs=5e-4)
