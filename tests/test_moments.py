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

from nakasum.errors import BoundaryError, DomainError, TruncationError, ValidationError
from nakasum.linalg import CorrelationMatrix, greens_fit, principal_submatrix_inverse
from nakasum.moments import (
    ArbitraryCorrelation,
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
    MomentPair,
    _fourth_moment_pair_terms,
    _w_via_fa,
    fourth_moment_Z,
    j_identity,
    joint_moment_quad,
    joint_moment_triple,
    moment_pair,
    second_moment_Z,
    w211_reduced,
    w_coefficient,
)
from nakasum.simkit import sample_correlated_nakagami
from nakasum.specfun import SeriesControl


def gamma(x):
    return math.gamma(x)


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=0, powers=(1.0,), correlation=EqualCorrelation(0.0))
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=1, powers=(), correlation=EqualCorrelation(0.0))
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=1, powers=(-1.0,), correlation=EqualCorrelation(0.0))
        with pytest.raises(ValidationError):
            EnsembleSpec(fading_m=1, powers=(1.0, 1.0),
                         correlation=ArbitraryCorrelation(CorrelationMatrix.identity(3)))

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

    def test_w211_monotone_in_rho(self):
        vals = [w211_reduced(3, rho) for rho in np.arange(0.0, 0.95, 0.1)]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_boundary(self):
        with pytest.raises(BoundaryError):
            w_coefficient((2, 1, 1), 1, 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            w_coefficient((2, 1, 1), 1, 0.5, n_vars=4)
        with pytest.raises(DomainError):
            w_coefficient((2, 1, 1), 0, 0.5)


def unit_exponential_spec(m_z, rho, L):
    return EnsembleSpec(fading_m=m_z, powers=(1.0,) * L,
                        correlation=ExponentialCorrelation(rho))


class TestJointMomentSeries:
    def test_triple_independent_closed_form(self):
        for m in (1, 2, 3):
            want = gamma(m + 0.5) ** 2 * gamma(m + 1.0) / (gamma(m) ** 3 * m ** 2)
            got = joint_moment_triple(1, 1, 2, np.eye(3), m)
            assert got == pytest.approx(want, rel=1e-12)

    def test_triple_orderings_at_independence_agree(self):
        for n in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
            assert joint_moment_triple(*n, np.eye(3), 2) == pytest.approx(
                joint_moment_triple(2, 1, 1, np.eye(3), 2), rel=1e-12)

    def test_triple_reversal_symmetry(self):
        m = CorrelationMatrix.exponential(0.49, 3)
        delta = principal_submatrix_inverse(m, (0, 1, 2))
        a = joint_moment_triple(2, 1, 1, delta, 2)
        b = joint_moment_triple(1, 1, 2, delta[::-1, ::-1], 2)
        assert a == pytest.approx(b, rel=1e-11)

    def test_triple_monte_carlo(self):
        # simulation oracle: empirical joint moment of unit-power branches
        m_z, rho, L, n = 1, 0.49, 3, 2_000_000
        spec = unit_exponential_spec(m_z, rho, L)
        z = sample_correlated_nakagami(spec, n, seed=101).data
        prod = z[:, 0] ** 2 * z[:, 1] * z[:, 2]
        emp, se = prod.mean(), prod.std() / math.sqrt(n)
        delta = principal_submatrix_inverse(spec.sqrt_corr_matrix(), (0, 1, 2))
        got = joint_moment_triple(2, 1, 1, delta, m_z)
        assert abs(got - emp) < 3.5 * se

    def test_quad_independent_closed_form(self):
        for m in (1, 2):
            want = (gamma(m + 0.5) / gamma(m)) ** 4 / m ** 2
            assert joint_moment_quad(np.eye(4), m) == pytest.approx(want, rel=1e-12)

    def test_quad_continuity_near_zero(self):
        m = 2
        base = joint_moment_quad(np.eye(4), m)
        delta = principal_submatrix_inverse(
            CorrelationMatrix.exponential(1e-6, 4), (0, 1, 2, 3))
        near = joint_moment_quad(delta, m)
        assert near == pytest.approx(base, rel=1e-4)

    def test_quad_monte_carlo(self):
        m_z, rho, L, n = 2, 0.25, 4, 2_000_000
        spec = unit_exponential_spec(m_z, rho, L)
        z = sample_correlated_nakagami(spec, n, seed=202).data
        prod = z[:, 0] * z[:, 1] * z[:, 2] * z[:, 3]
        emp, se = prod.mean(), prod.std() / math.sqrt(n)
        psi = principal_submatrix_inverse(spec.sqrt_corr_matrix(), (0, 1, 2, 3))
        got = joint_moment_quad(psi, m_z)
        assert abs(got - emp) < 3.5 * se

    def test_rejects_non_tridiagonal(self):
        dense = np.linalg.inv(CorrelationMatrix.equal(0.25, 3).entries)
        with pytest.raises(ValidationError):
            joint_moment_triple(2, 1, 1, dense, 1)

    def test_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            joint_moment_triple(3, 1, 1, np.eye(3), 1)


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
        # gapped subsets, so the inverses couple non-adjacent branches
        mat = CorrelationMatrix.exponential(rho, 6)
        cases = [((2, 1, 1), (0, 2, 3)), ((1, 2, 1), (0, 1, 3)),
                 ((1, 1, 2), (1, 2, 5)), ((1, 1, 1, 1), (0, 1, 3, 4))]
        with mp.workdps(30):
            for orders, idx in cases:
                inv = principal_submatrix_inverse(mat, idx)
                if len(idx) == 4:
                    got = joint_moment_quad(inv, m_z)
                else:
                    got = joint_moment_triple(*orders, inv, m_z)
                ref = float(mp_joint_moment(rho, idx, m_z, orders))
                assert got == pytest.approx(ref, rel=1e-10), (orders, idx)

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
            delta = principal_submatrix_inverse(fitted, (a, b, c))
            total += 12.0 * (
                p[a] * math.sqrt(p[b] * p[c]) * joint_moment_triple(2, 1, 1, delta, m)
                + math.sqrt(p[a] * p[c]) * p[b] * joint_moment_triple(1, 2, 1, delta, m)
                + math.sqrt(p[a] * p[b]) * p[c] * joint_moment_triple(1, 1, 2, delta, m))
        for idx in itertools.combinations(range(len(p)), 4):
            psi = principal_submatrix_inverse(fitted, idx)
            total += 24.0 * math.sqrt(math.prod(p[i] for i in idx)) * \
                joint_moment_quad(psi, m)
        assert fourth_moment_Z(spec) == pytest.approx(total, rel=1e-12)

    def test_no_warning_from_finished_subsets(self):
        # at rho=0.97 the adjacent subsets need ~500 terms, while subsets
        # with one distant branch finish early with 2F1 factors that would
        # overflow long before the batch ends
        spec = unit_exponential_spec(1, 0.97, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isfinite(fourth_moment_Z(spec))

    def test_independent_subset_needs_only_its_first_term(self):
        # q = 0 ends the series at k = 0, even on a budget below the
        # stop rule's first chance at k = 4
        short = SeriesControl(max_terms=3)
        assert joint_moment_triple(2, 1, 1, np.eye(3), 2, short) == \
            joint_moment_triple(2, 1, 1, np.eye(3), 2)
        assert joint_moment_quad(np.eye(4), 2, short) == joint_moment_quad(np.eye(4), 2)
        delta = principal_submatrix_inverse(CorrelationMatrix.exponential(0.3, 3), (0, 1, 2))
        with pytest.raises(TruncationError):
            joint_moment_triple(2, 1, 1, delta, 2, short)

    def test_near_maximal_still_raises(self):
        with pytest.raises(TruncationError):
            fourth_moment_Z(unit_exponential_spec(1, 0.98, 4))


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
            pair = moment_pair(EnsembleSpec(fading_m=m_z, powers=powers,
                                            correlation=corr))
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
