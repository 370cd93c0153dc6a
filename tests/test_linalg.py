"""Matrix kernel tests; eigenvalue and determinant oracles come from numpy."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakasum.errors import FitClampWarning, SingularMatrixError, ValidationError
from nakasum.linalg import (
    CorrelationMatrix,
    cholesky_psd,
    eigenvalues_sym,
    greens_fit,
    principal_submatrix_inverse,
)


def random_psd_corr(rng, dim):
    """Random valid correlation matrix: Hadamard product of two random
    Markov-product matrices (Schur's theorem keeps it PSD, entries stay
    in [0, 1], diagonal stays 1)."""
    t1 = rng.uniform(0.05, 0.98, dim - 1)
    t2 = rng.uniform(0.05, 0.98, dim - 1)
    a = CorrelationMatrix.from_markov_links(t1).entries
    b = CorrelationMatrix.from_markov_links(t2).entries
    return CorrelationMatrix(a * b)


def latent_factor_corr(rng, dim, diag):
    """Non-negative PSD matrix from three non-negative latent factors (the
    benchmark's arbitrary-correlation recipe); small ``diag`` correlates
    strongly."""
    a = np.abs(rng.standard_normal((dim, 3)))
    c = a @ a.T + diag * np.eye(dim)
    d = np.sqrt(np.diag(c))
    return CorrelationMatrix(c / np.outer(d, d))


def markov_links_loop(links):
    """c_ij = prod(links[i:j]) accumulated one link at a time."""
    dim = len(links) + 1
    m = np.eye(dim)
    for i in range(dim):
        acc = 1.0
        for j in range(i + 1, dim):
            acc *= links[j - 1]
            m[i, j] = m[j, i] = acc
    return m


def greens_fit_oracle(target):
    """Coordinate descent of greens_fit with every chain product recomputed
    from its links (O(L^4) per sweep); returns (fitted entries, clamped)."""
    n = target.shape[0]
    t = np.diag(target, 1).copy()
    clamped = False

    def objective(links):
        total = 0.0
        for i in range(n):
            acc = 1.0
            for j in range(i + 1, n):
                acc *= links[j - 1]
                total += (acc - target[i, j]) ** 2
        return total

    prev_obj = objective(t)
    for _ in range(100):
        for k in range(n - 1):
            num = 0.0
            den = 0.0
            for i in range(k + 1):
                for j in range(k + 1, n):
                    other = 1.0
                    for l in range(i, j):
                        if l != k:
                            other *= t[l]
                    num += other * target[i, j]
                    den += other * other
            tk = num / den
            if tk < 0.0 or tk > 1.0:
                clamped = True
                tk = min(1.0, max(0.0, tk))
            t[k] = tk
        obj = objective(t)
        if prev_obj - obj <= 1e-10 * max(prev_obj, 1e-300):
            break
        prev_obj = obj
    return markov_links_loop(t), clamped


class TestCorrelationMatrix:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
        with pytest.raises(ValidationError):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 0.9]]))  # diagonal
        with pytest.raises(ValidationError):
            CorrelationMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))  # range
        with pytest.raises(ValidationError):
            # entries in range but eigenvalue -0.2
            m = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
            CorrelationMatrix(m)

    def test_constructors(self):
        eq = CorrelationMatrix.equal(0.25, 3)
        assert eq.entries[0, 1] == pytest.approx(0.5)
        ex = CorrelationMatrix.exponential(0.25, 3)
        assert ex.entries[0, 2] == pytest.approx(0.25)
        assert CorrelationMatrix.identity(4).entries[0, 1] == 0.0

    def test_markov_links_match_loop(self):
        rng = np.random.default_rng(11)
        for dim in range(1, 17):
            for links in (rng.uniform(0.0, 1.0, dim - 1), rng.uniform(0.9, 1.0, dim - 1),
                          np.zeros(dim - 1), np.ones(dim - 1)):
                got = CorrelationMatrix.from_markov_links(links).entries
                assert np.array_equal(got, markov_links_loop(links))


class TestEigenvalues:
    def test_identity(self):
        spec = eigenvalues_sym(CorrelationMatrix.identity(4))
        assert spec.values == (1.0, 1.0, 1.0, 1.0)

    def test_equal_correlation_analytic(self):
        # one dominant eigenvalue 1+(L-1)*sqrt(rho), the rest 1-sqrt(rho)
        spec = eigenvalues_sym(CorrelationMatrix.equal(0.25, 3))
        assert spec.values[0] == pytest.approx(2.0, abs=1e-13)
        assert spec.values[1] == pytest.approx(0.5, abs=1e-13)
        assert spec.values[2] == pytest.approx(0.5, abs=1e-13)

    def test_maximal_correlation(self):
        spec = eigenvalues_sym(CorrelationMatrix.equal(1.0, 5))
        assert spec.values[0] == pytest.approx(5.0, abs=1e-12)
        assert all(abs(v) < 1e-12 for v in spec.values[1:])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
    def test_trace_and_det_invariants(self, seed, dim):
        m = random_psd_corr(np.random.default_rng(seed), dim)
        spec = eigenvalues_sym(m)
        assert math.fsum(spec.values) == pytest.approx(dim, abs=1e-10)
        det_lu = float(np.linalg.det(m.entries))
        assert math.prod(spec.values) == pytest.approx(det_lu, rel=1e-10, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
    def test_against_lapack(self, seed, dim):
        m = random_psd_corr(np.random.default_rng(seed), dim)
        ours = np.asarray(eigenvalues_sym(m).values)
        ref = np.sort(np.linalg.eigvalsh(m.entries))[::-1]
        np.testing.assert_allclose(ours, ref, rtol=1e-11, atol=1e-11)


class TestSubmatrixInverse:
    def test_identity(self):
        inv = principal_submatrix_inverse(CorrelationMatrix.identity(5), (0, 2, 4))
        np.testing.assert_allclose(inv, np.eye(3), atol=1e-14)

    def test_exponential_inverse_is_tridiagonal(self):
        m = CorrelationMatrix.exponential(0.49, 4)
        inv = principal_submatrix_inverse(m, (0, 1, 2))
        assert abs(inv[0, 2]) < 1e-12
        inv4 = principal_submatrix_inverse(m, (0, 1, 2, 3))
        assert abs(inv4[0, 2]) < 1e-12
        assert abs(inv4[0, 3]) < 1e-12
        assert abs(inv4[1, 3]) < 1e-12

    def test_nonadjacent_markov_indices_stay_tridiagonal(self):
        m = CorrelationMatrix.exponential(0.6, 6)
        inv = principal_submatrix_inverse(m, (0, 2, 5))
        assert abs(inv[0, 2]) < 1e-12

    def test_residual(self):
        m = CorrelationMatrix.exponential(0.25, 3)
        sub = m.entries
        inv = principal_submatrix_inverse(m, (0, 1, 2))
        np.testing.assert_allclose(sub @ inv, np.eye(3), atol=1e-12)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            principal_submatrix_inverse(CorrelationMatrix.equal(1.0, 4), (0, 1, 2))

    def test_index_validation(self):
        m = CorrelationMatrix.identity(4)
        with pytest.raises(ValidationError):
            principal_submatrix_inverse(m, (0, 1))
        with pytest.raises(ValidationError):
            principal_submatrix_inverse(m, (2, 1, 0))
        with pytest.raises(ValidationError):
            principal_submatrix_inverse(m, (0, 1, 7))


class TestGreensFit:
    def test_exponential_is_fixed_point(self):
        m = CorrelationMatrix.exponential(0.49, 5)
        fit = greens_fit(m)
        np.testing.assert_allclose(fit.entries, m.entries, atol=1e-12)

    def test_identity_fixed_point(self):
        m = CorrelationMatrix.identity(4)
        np.testing.assert_allclose(greens_fit(m).entries, m.entries, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        m = random_psd_corr(rng, 5)
        once = greens_fit(m)
        twice = greens_fit(once)
        np.testing.assert_allclose(twice.entries, once.entries, atol=1e-12)

    def test_three_branch_fit_matches_grid_search(self):
        m = CorrelationMatrix(np.array([
            [1.0, 0.6, 0.2],
            [0.6, 1.0, 0.5],
            [0.2, 0.5, 1.0],
        ]))
        fit = greens_fit(m)
        c13 = fit.entries[0, 2]
        assert 0.2 < c13 < 0.30

        # brute-force the least-squares objective over the two link weights
        grid = np.linspace(0.0, 1.0, 401)
        best = None
        for t1 in grid:
            for t2 in grid:
                obj = (t1 - 0.6) ** 2 + (t2 - 0.5) ** 2 + (t1 * t2 - 0.2) ** 2
                if best is None or obj < best[0]:
                    best = (obj, t1, t2)
        fit_obj = ((fit.entries[0, 1] - 0.6) ** 2 + (fit.entries[1, 2] - 0.5) ** 2
                   + (fit.entries[0, 2] - 0.2) ** 2)
        assert fit_obj <= best[0] + 1e-6
        assert fit.entries[0, 1] == pytest.approx(best[1], abs=5e-3)
        assert fit.entries[1, 2] == pytest.approx(best[2], abs=5e-3)

    def test_matches_chain_product_oracle(self):
        clamps = []
        for dim in range(3, 17):
            rng = np.random.default_rng((dim, 8))
            for m in (random_psd_corr(rng, dim), latent_factor_corr(rng, dim, 0.05),
                      latent_factor_corr(rng, dim, 0.5), latent_factor_corr(rng, dim, 2.0)):
                want, clamped = greens_fit_oracle(m.entries)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    fit = greens_fit(m)
                np.testing.assert_allclose(fit.entries, want, rtol=0, atol=1e-13)
                assert [w.category for w in caught] == [FitClampWarning] * clamped
                clamps.append(clamped)
        # both outcomes are exercised
        assert 0 < sum(clamps) < len(clamps)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(3, 7))
    def test_fit_output_has_tridiagonal_subinverses(self, seed, dim):
        m = random_psd_corr(np.random.default_rng(seed), dim)
        fit = greens_fit(m)
        idx = (0, dim // 2, dim - 1)
        if len(set(idx)) == 3:
            inv = principal_submatrix_inverse(fit, idx)
            assert abs(inv[0, 2]) < 1e-12
        if dim >= 4:
            inv4 = principal_submatrix_inverse(fit, (0, 1, dim - 2, dim - 1))
            for i in range(4):
                for j in range(i + 2, 4):
                    assert abs(inv4[i, j]) < 1e-12


class TestCholeskyPsd:
    def test_identity(self):
        low = cholesky_psd(CorrelationMatrix.identity(3))
        np.testing.assert_allclose(low, np.eye(3), atol=1e-15)

    def test_two_by_two_closed_form(self):
        m = CorrelationMatrix(np.array([[1.0, 0.6], [0.6, 1.0]]))
        low = cholesky_psd(m)
        np.testing.assert_allclose(low, [[1.0, 0.0], [0.6, 0.8]], atol=1e-15)

    def test_rank_one_all_ones(self):
        low = cholesky_psd(CorrelationMatrix.equal(1.0, 4))
        np.testing.assert_allclose(low[:, 0], np.ones(4), atol=1e-15)
        np.testing.assert_allclose(low[:, 1:], 0.0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
    def test_reconstruction(self, seed, dim):
        m = random_psd_corr(np.random.default_rng(seed), dim)
        low = cholesky_psd(m)
        np.testing.assert_allclose(low @ low.T, m.entries, atol=1e-10)
        assert np.allclose(np.triu(low, 1), 0.0)
