"""Special-function tests against high-precision and brute-force oracles."""
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from nakasum import specfun
from nakasum.errors import DivergenceError, DomainError, TruncationError
from nakasum.specfun import (
    gauss_2f1,
    kummer_1f1,
    lauricella_fa,
    ln_gamma,
    ln_kummer_1f1,
)

mp.mp.dps = 40


class TestLnGamma:
    def test_spot_values(self):
        assert ln_gamma(1.0) == 0.0
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)
        assert ln_gamma(7.0) == pytest.approx(math.log(720.0), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-2.5)

    def test_accuracy_against_mpmath(self):
        for x in [0.5, 0.9, 1.5, 3.7, 12.0, 144.5, 2.5e3, 8.1e5]:
            ref = float(mp.loggamma(mp.mpf(x)))
            assert ln_gamma(x) == pytest.approx(ref, rel=1e-13)


class TestGauss2F1:
    def test_empty_series(self):
        assert gauss_2f1(-0.5, -0.5, 1.0, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;x) = -log(1-x)/x
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(
            -math.log(0.5) / 0.5, rel=1e-12)

    def test_gauss_summation_at_one(self):
        assert gauss_2f1(-0.5, -0.5, 1.0, 1.0) == pytest.approx(4.0 / math.pi,
                                                                rel=1e-13)

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DivergenceError):
            gauss_2f1(0.5, 0.5, 2.0, 1.2)

    def test_c_pole(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 0.0, 0.3)
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, -3.0, 0.3)

    def test_truncation_carries_partial(self, monkeypatch):
        monkeypatch.setattr(specfun, "_F21_MAX_TERMS", 10)
        with pytest.raises(TruncationError) as err:
            gauss_2f1(2.0, 3.0, 1.5, 0.999)
        assert math.isfinite(err.value.partial)

    @pytest.mark.parametrize("a,b,c,x", [
        (-0.5, -0.5, 2.0, 0.3),
        (-1.5, -0.5, 1.0, 0.8),
        (2.5, 1.5, 2.0, -0.9608),
        (3.5, -0.5, 3.0, -4.0),
        (7.0, 0.5, 3.0, 0.44),
    ])
    def test_against_mpmath(self, a, b, c, x):
        ref = float(mp.hyp2f1(a, b, c, x))
        assert gauss_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(-3, 4), b=st.floats(-3, 4),
           x=st.floats(-5, 0.95))
    def test_symmetry_bitwise(self, a, b, x):
        c = 2.25
        assert gauss_2f1(a, b, c, x) == gauss_2f1(b, a, c, x)

    def test_pure(self):
        args = (-1.5, -0.5, 2.0, 0.64)
        assert gauss_2f1(*args) == gauss_2f1(*args)


class TestKummer1F1:
    def test_at_zero(self):
        assert kummer_1f1(2.5, 1.5, 0.0) == 1.0

    def test_exponential_identity(self):
        assert kummer_1f1(1.7, 1.7, 2.5) == pytest.approx(math.exp(2.5), rel=1e-13)

    def test_two_routes_agree(self):
        # direct series vs Kummer-transformed evaluation of the same value
        a, c, x = 1.5, 3.0, 4.0
        direct = kummer_1f1(a, c, x)
        transformed = math.exp(x) * kummer_1f1(c - a, c, -x)
        assert direct == pytest.approx(transformed, rel=1e-10)

    @pytest.mark.parametrize("a,c,x", [
        (0.93, 4.65, 12.0),
        (-0.5, 2.0, -0.7),
        (-0.5, 1.0, -55.0),
        (-0.5, 3.0, -4000.0),
        (-1.0, 2.0, -700.0),
        (2.0, 6.0, 300.0),
        (1.5, 7.5, 680.0),
        (-2.0, 1.5, 700.0),
        (-3.0, 2.5, -900.0),
    ])
    def test_against_mpmath(self, a, c, x):
        ref = float(mp.hyp1f1(a, c, mp.mpf(x)))
        assert kummer_1f1(a, c, x) == pytest.approx(ref, rel=1e-11)

    def test_log_variant_matches(self):
        for x in (0.5, 30.0, 400.0, 900.0):
            ref = float(mp.log(mp.hyp1f1(1.2, 3.6, mp.mpf(x))))
            assert ln_kummer_1f1(1.2, 3.6, x) == pytest.approx(ref, rel=1e-11)

    def test_log_variant_grid_against_mpmath(self):
        # c = a L as in the equal-correlation density; x spans the range
        # where hyp1f1 is finite and, past about 700, where it overflows
        xs = np.concatenate([np.logspace(-6, 8, 57), np.linspace(650.0, 3000.0, 48)])
        worst = 0.0
        for a in (0.55, 0.98, 1.0, 1.5, 2.3, 2.9999, 4.5, 7.25, 9.7, 10.0):
            for L in (1, 2, 3, 4, 8, 15, 16):
                c = a * L
                for x in xs.tolist():
                    ref = float(mp.log(mp.hyp1f1(a, c, x)))
                    err = abs(ln_kummer_1f1(a, c, x) - ref) / max(abs(ref), 1.0)
                    worst = max(worst, err)
        assert worst < 1e-13

    @pytest.mark.parametrize("a,c,x", [
        # S converges and is positive, but the dropped branch is e^-16.6 of
        # the kept one: taken, the expansion is 2.9e-8 off
        (2.0, 32.0, 60.0),
        # S stops at its first term, far below x = max(a, 1)|c-a-1|
        (1.0, 16.0, 1e-6),
    ])
    def test_log_variant_expansion_gates(self, a, c, x):
        ref = float(mp.log(mp.hyp1f1(a, c, mp.mpf(x))))
        assert ln_kummer_1f1(a, c, x) == pytest.approx(ref, rel=2e-15, abs=2e-15)

    def test_log_variant_far_tail_in_bounded_time(self, run_child):
        # hyp1f1's run time grows linearly with x (about 0.4 s at x = 1e10,
        # and out of reach of a signal), so the calls run in a child process
        code = (
            "import json, time\n"
            "from nakasum.specfun import ln_kummer_1f1\n"
            "out = []\n"
            "for a in (0.5, 0.95, 2.0, 3.3, 9.8):\n"
            "    for L in (2, 3, 8, 16):\n"
            "        for x in (1e6, 1e9, 1e12, 1e50, 1e300, float('inf')):\n"
            "            times = []\n"
            "            for _ in range(3):\n"
            "                t = time.perf_counter()\n"
            "                value = ln_kummer_1f1(a, a * L, x)\n"
            "                times.append(time.perf_counter() - t)\n"
            "            out.append((a, L, x, value, min(times)))\n"
            "print(json.dumps(out))\n")
        results = json.loads(run_child(code, timeout=60))
        assert len(results) == 5 * 4 * 6
        for a, L, x, value, seconds in results:
            assert seconds < 5e-3, (a, L, x, seconds)
            if x == math.inf:
                assert value == math.inf
            else:
                ref = mp.log(mp.hyp1f1(a, a * L, mp.mpf(x)))
                assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref)), (a, L, x)

    @pytest.mark.parametrize("c", [50.0, 51.0, 64.0, 100.0, 200.0])
    def test_where_hyp1f1_overflows(self, c):
        # scipy's hyp1f1(-1/2, c, -x) is inf for x from 37.7 to about 1.3c
        # once c >= 50, where the value is of order one
        for x in np.linspace(38.0, 1.25 * c, 9).tolist():
            ref = float(mp.hyp1f1(-0.5, c, -x))
            assert kummer_1f1(-0.5, c, -x) == pytest.approx(ref, rel=1e-12)

    def test_finite_hyp1f1_values_kept(self):
        for a, c in ((-0.5, 49.5), (-1.5, 10.0), (2.0, 6.0), (-0.5, 200.0)):
            for x in np.concatenate([-np.logspace(-3, 3, 25), np.logspace(-3, 2.5, 25)]):
                want = float(scipy.special.hyp1f1(a, c, x))
                if math.isfinite(want):
                    assert kummer_1f1(a, c, float(x)) == want

    @pytest.mark.parametrize("a,c,x", [(45.4, 2043.7, 3826.5), (57.6, 3570.9, 6361.4)])
    def test_log_variant_where_expansion_has_not_converged(self, a, c, x):
        # hyp1f1 overflows, and the large-x expansion cut at its smallest
        # term was not positive (ValueError) or 3e-2 off
        times = []
        for _ in range(3):
            t = time.perf_counter()
            value = ln_kummer_1f1(a, c, x)
            times.append(time.perf_counter() - t)
        assert value == pytest.approx(float(mp.log(mp.hyp1f1(a, c, x))), rel=1e-14)
        assert min(times) < 5e-3

    def test_log_variant_series_budget(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 256)
        with pytest.raises(TruncationError, match="did not converge in 256 terms"):
            ln_kummer_1f1(45.4, 2043.7, 3826.5)

    def test_log_variant_domain(self):
        with pytest.raises(DomainError):
            ln_kummer_1f1(1.0, 2.0, -1.0)

    def test_log_variant_rejects_nan(self):
        with pytest.raises(DomainError):
            ln_kummer_1f1(1.0, 2.0, math.nan)

    def test_c_pole(self):
        with pytest.raises(DomainError):
            kummer_1f1(1.0, -2.0, 0.5)


def fa_series_oracle(a, bs, cs, xs, kmax=600, tol=1e-12):
    """Brute-force F_A multiseries, grouped by total order.

    The inner sum over fixed total order is the N-fold convolution of the
    per-variable term sequences, an exact reorganization of the direct
    multi-index summation.  Everything runs in log space because the
    Pochhammer growth and the factorial decay overflow separately long
    before their product does.  A geometric tail estimate bounds the
    truncation error.
    """
    from scipy.special import gammaln, logsumexp

    assert all(b > 0 and c > 0 and x > 0 for b, c, x in zip(bs, cs, xs))
    logs = []
    for b, c, x in zip(bs, cs, xs):
        k = np.arange(kmax + 1)
        logs.append(gammaln(b + k) - gammaln(b) - gammaln(c + k) + gammaln(c)
                    - gammaln(k + 1) + k * math.log(x))
    conv = logs[0]
    for seq in logs[1:]:
        nxt = np.empty(kmax + 1)
        for big_k in range(kmax + 1):
            nxt[big_k] = logsumexp(conv[:big_k + 1] + seq[big_k::-1])
        conv = nxt
    big_k = np.arange(kmax + 1)
    inc_log = gammaln(a + big_k) - gammaln(a) + conv
    total_log = logsumexp(inc_log)
    ratio = math.exp(inc_log[-1] - inc_log[-2])
    assert 0 < ratio < 1, "oracle truncation not in the geometric regime"
    tail_log = inc_log[-1] + math.log(ratio / (1.0 - ratio))
    assert tail_log < math.log(tol) + total_log, "oracle tail too large"
    return math.exp(total_log)


def fa_integral_oracle(a, bs, cs, xs):
    """F_A from its Kummer-transformed Laplace integral in mpmath at the
    working precision, with breakpoints across the boundary layer of width
    (1 - sum(x)) / max(x) at u = 0."""
    a = mp.mpf(a)
    s = mp.fsum(mp.mpf(x) for x in xs)
    factors = {}
    for b, c, x in zip(bs, cs, xs):
        key = (mp.mpf(c) - b, mp.mpf(c), mp.mpf(x) / (1 - s))
        factors[key] = factors.get(key, 0) + 1

    def integrand(u):
        g = u ** (a - 1) * mp.exp(-u)
        for (p, c, sc), count in factors.items():
            g *= mp.hyp1f1(p, c, -sc * u) ** count
        return g

    layer = 1 / max(sc for _, _, sc in factors)
    cuts = {mp.mpf(0), mp.mpf(1), a + 1, a + 40, mp.inf}
    cuts.update(layer * 10 ** k for k in range(-1, 4) if layer * 10 ** k < 1)
    return (1 - s) ** (-a) / mp.gamma(a) * mp.quad(integrand, sorted(cuts))


def fa_mesh_oracle(a, bs, cs, xs, kmax):
    """Plain nested-loop multiseries for small cases (oracle of the oracle)."""
    total = 0.0
    n = len(bs)
    idx = [0] * n

    def rec(depth, remaining):
        nonlocal total
        if depth == n:
            big_k = sum(idx)
            term = 1.0
            for d in range(big_k):
                term *= a + d
            for b, c, x, k in zip(bs, cs, xs, idx):
                for d in range(k):
                    term *= (b + d) / ((c + d) * (d + 1.0)) * x
            total += term
            return
        for k in range(remaining + 1):
            idx[depth] = k
            rec(depth + 1, remaining - k)
        idx[depth] = 0

    rec(0, kmax)
    return total


class TestLauricellaFA:
    def test_single_variable_is_gauss(self):
        val = lauricella_fa(1.0, (1.0,), (2.0,), (0.3,))
        assert val == pytest.approx(-math.log(0.7) / 0.3, rel=1e-10)

    def test_zero_arguments(self):
        assert lauricella_fa(2.0, (1.5, 2.5, 0.5), (1.0, 2.0, 3.0),
                             (0.0, 0.0, 0.0)) == 1.0

    def test_collapses_when_b_equals_c(self):
        val = lauricella_fa(1.0, (1.0, 1.0), (1.0, 1.0), (0.2, 0.3))
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            lauricella_fa(1.0, (1.0, 1.0), (1.0, 1.0), (0.6, 0.5))

    def test_oracle_against_mesh(self):
        a, bs, cs, xs = 1.5, (2.0, 1.0), (1.0, 2.0), (0.15, 0.2)
        conv = fa_series_oracle(a, bs, cs, xs, kmax=200)
        mesh = fa_mesh_oracle(a, bs, cs, xs, kmax=60)
        assert conv == pytest.approx(mesh, rel=1e-10)

    @pytest.mark.parametrize("m,sqrt_rho", [
        (1, 0.3), (1, 0.7), (2, 0.5), (3, 0.7), (2, 0.2),
    ])
    def test_four_variable_against_series(self, m, sqrt_rho):
        # the coefficient-style parameterization: all arguments equal
        x = sqrt_rho / (1.0 + 3.0 * sqrt_rho)
        bs = (m + 0.5,) * 4
        cs = (float(m),) * 4
        val = lauricella_fa(float(m), bs, cs, (x,) * 4)
        ref = fa_series_oracle(float(m), bs, cs, (x,) * 4, kmax=900, tol=1e-10)
        assert val == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_four_variable_near_boundary_against_integral(self, m):
        # W(1,1,1,1) arguments up to rho = 1 - 1e-6, where 1 - sum(x) is
        # about 1.25e-7 and the factors vary on that scale near u = 0
        with mp.workdps(20):
            for rho in (0.9999, 1.0 - 1e-6):
                sqrt_rho = math.sqrt(rho)
                args = (float(m), (m + 0.5,) * 4, (float(m),) * 4,
                        (sqrt_rho / (1.0 + 3.0 * sqrt_rho),) * 4)
                ref = float(fa_integral_oracle(*args))
                assert lauricella_fa(*args) == pytest.approx(ref, rel=1e-13)

    def test_truncation_carries_partial(self, monkeypatch):
        args = (2.0, (2.5, 1.5), (2.0, 2.0), (0.2, 0.4))
        want = lauricella_fa(*args)
        monkeypatch.setattr(specfun, "_EXP_SINH_LEVELS", 1)
        with pytest.raises(TruncationError) as err:
            lauricella_fa(*args)
        assert err.value.partial == pytest.approx(want, rel=1e-3)

    def test_pure(self):
        args = (2.0, (2.5, 1.5), (2.0, 2.0), (0.2, 0.4))
        assert lauricella_fa(*args) == lauricella_fa(*args)


class TestExpSinh:
    """The exp-sinh rule on integrals with closed forms; the integrand is
    u * f(u) as a function of ln u."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0])
    def test_gamma_integral(self, a):
        val = specfun._exp_sinh(lambda t: np.exp(a * t - np.exp(t)),
                                -40.0 / a, math.log(700.0), 1e-12)
        assert val == pytest.approx(math.gamma(a), rel=1e-13)

    def test_algebraic_tail(self):
        val = specfun._exp_sinh(lambda t: np.exp(t) / (1.0 + np.exp(2.0 * t)),
                                -745.0, 300.0, 1e-12)
        assert val == pytest.approx(math.pi / 2.0, rel=1e-13)

    def test_level_cap_carries_partial(self, monkeypatch):
        monkeypatch.setattr(specfun, "_EXP_SINH_LEVELS", 1)
        with pytest.raises(TruncationError) as err:
            specfun._exp_sinh(lambda t: np.exp(2.0 * t - np.exp(t)),
                              -20.0, math.log(700.0), 1e-12)
        # the sum at step 1/4, already close to Gamma(2) = 1
        assert err.value.partial == pytest.approx(1.0, rel=1e-3)
        assert err.value.partial != 1.0
