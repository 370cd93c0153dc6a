"""Sampler tests: determinism, marginals, correlation fidelity, batch
round-trips, the semi-analytic error simulation, and the worker pool."""
import json
import math
import threading

import numpy as np
import pytest
import scipy.stats

from nakasum.egc import ReceiverSpec, ber_bpsk, ber_curve, egc_model
from nakasum.errors import DomainError, ValidationError
from nakasum.matcher import match_parameters
from nakasum.moments import (
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
    second_moment_Z,
)
from nakasum import simkit
from nakasum.linalg import cholesky_psd
from nakasum.simkit import (
    SampleBatch,
    derive_seed,
    load_batch,
    sample_correlated_nakagami,
    sample_sum,
    save_batch,
    simulate_egc_ber,
    estimate_sum_moments,
)


def unit_spec(corr, m_z, L):
    return EnsembleSpec(fading_m=m_z, powers=(1.0,) * L, correlation=corr)


class TestSampling:
    def test_deterministic(self):
        spec = unit_spec(EqualCorrelation(0.3), 2, 3)
        a = sample_correlated_nakagami(spec, 70_000, seed=11).data
        b = sample_correlated_nakagami(spec, 70_000, seed=11).data
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        spec = unit_spec(EqualCorrelation(0.3), 2, 3)
        a = sample_correlated_nakagami(spec, 1000, seed=1).data
        b = sample_correlated_nakagami(spec, 1000, seed=2).data
        assert not np.array_equal(a, b)

    def test_independent_rayleigh_ks(self):
        spec = unit_spec(EqualCorrelation(0.0), 1, 2)
        z = sample_correlated_nakagami(spec, 100_000, seed=7).data[:, 0]
        # unit-power Rayleigh envelope: scale = sqrt(1/2)
        res = scipy.stats.kstest(z, scipy.stats.rayleigh(scale=math.sqrt(0.5)).cdf)
        assert res.pvalue > 0.01

    def test_marginal_power_and_shape(self):
        spec = EnsembleSpec(fading_m=3, powers=(2.0, 0.5),
                            correlation=EqualCorrelation(0.4))
        n = 1_000_000
        z = sample_correlated_nakagami(spec, n, seed=5).data
        for k, omega in enumerate(spec.powers):
            p = z[:, k] ** 2
            se = p.std() / math.sqrt(n)
            assert abs(p.mean() - omega) < 3.0 * se
            # fading parameter = mean(power)^2 / var(power)
            m_hat = p.mean() ** 2 / p.var()
            assert m_hat == pytest.approx(3.0, rel=0.02)

    def test_power_correlation_matches_target(self):
        rho, n = 0.49, 1_000_000
        spec = EnsembleSpec(fading_m=2, powers=(1.0, 1.0),
                            correlation=EqualCorrelation(rho))
        z = sample_correlated_nakagami(spec, n, seed=3).data
        p = z ** 2
        r = np.corrcoef(p[:, 0], p[:, 1])[0, 1]
        # correlation estimator spread ~ (1 - rho^2)/sqrt(n)
        assert abs(r - rho) < 3.0 * (1.0 - rho ** 2) / math.sqrt(n)

    def test_maximal_correlation_columns_proportional(self):
        spec = EnsembleSpec(fading_m=1, powers=(1.0, 4.0, 0.25),
                            correlation=EqualCorrelation(1.0))
        z = sample_correlated_nakagami(spec, 5000, seed=9).data
        base = z[:, 0] / 1.0
        np.testing.assert_allclose(z[:, 1] / 2.0, base, atol=1e-12)
        np.testing.assert_allclose(z[:, 2] / 0.5, base, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_correlated_nakagami(unit_spec(EqualCorrelation(0.0), 1, 2), 0, 1)


class TestSampleSum:
    def test_second_moment_agrees(self):
        spec = unit_spec(ExponentialCorrelation(0.5), 2, 3)
        est = estimate_sum_moments(spec, 1_000_000, seed=21)
        assert abs(est["m2"] - second_moment_Z(spec)) < 3.0 * est["se2"]

    def test_single_branch_ks_against_nakagami(self):
        spec = EnsembleSpec(fading_m=2, powers=(1.0,),
                            correlation=EqualCorrelation(0.0))
        z = sample_sum(spec, 100_000, seed=13)
        # Nakagami(m, 1) == sqrt of Gamma(m, scale=1/m)
        cdf = lambda r: scipy.stats.gamma(a=2.0, scale=0.5).cdf(r * r)
        res = scipy.stats.kstest(z, cdf)
        assert res.pvalue > 0.01

    def test_matches_direct_row_sum(self):
        spec = unit_spec(EqualCorrelation(0.2), 1, 4)
        z = sample_sum(spec, 2000, seed=17)
        batch = sample_correlated_nakagami(spec, 2000, seed=17)
        np.testing.assert_allclose(z, batch.data.sum(axis=1), atol=0)


class TestBatchIO:
    def test_binary_round_trip(self, tmp_path):
        spec = unit_spec(EqualCorrelation(0.3), 1, 3)
        batch = sample_correlated_nakagami(spec, 257, seed=23)
        path = tmp_path / "batch.bin"
        save_batch(batch, str(path), fmt="bin")
        data, seed = load_batch(str(path))
        assert seed == 23
        np.testing.assert_array_equal(data, batch.data)
        assert path.stat().st_size == 32 + 257 * 3 * 8

    def test_csv_round_trip(self, tmp_path):
        spec = unit_spec(EqualCorrelation(0.3), 1, 2)
        batch = sample_correlated_nakagami(spec, 50, seed=29)
        path = tmp_path / "batch.csv"
        save_batch(batch, str(path), fmt="csv")
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(loaded, batch.data, rtol=1e-15)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTABTCH" + b"\x00" * 24)
        with pytest.raises(ValidationError):
            load_batch(str(path))

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"CNKSUM01" + b"\x00" * 10)
        with pytest.raises(ValidationError):
            load_batch(str(path))

    def test_seed_outside_header_range(self, tmp_path):
        spec = unit_spec(EqualCorrelation(0.3), 1, 2)
        data = np.ones((3, 2))
        path = tmp_path / "batch.bin"
        for seed in (2 ** 64 + 3, -1):
            with pytest.raises(ValidationError):
                save_batch(SampleBatch(data=data, seed=seed, spec=spec), str(path))
        assert not path.exists()
        save_batch(SampleBatch(data=data, seed=2 ** 64 - 1, spec=spec), str(path))
        assert load_batch(str(path))[1] == 2 ** 64 - 1


class TestEgcSimulation:
    def test_low_snr_limit(self):
        rx = ReceiverSpec(ensemble=unit_spec(EqualCorrelation(0.2), 1, 2),
                          noise_psd=1.0)
        curve = simulate_egc_ber(rx, [-80.0], n_bits=50_000, seed=31)
        point = curve.points[0]
        assert abs(point.value - 0.5) < 3.0 * point.stderr + 1e-4

    def test_maximal_correlation_matches_analytic_exactly(self):
        spec = EnsembleSpec(fading_m=2, powers=(1.0, 0.5, 0.25),
                            correlation=EqualCorrelation(1.0))
        rx = ReceiverSpec(ensemble=spec, noise_psd=1.0)
        grid = [0.0, 6.0, 12.0]
        sim = simulate_egc_ber(rx, grid, n_bits=400_000, seed=37)
        base = egc_model(rx)
        omega1 = spec.powers[0]
        for point in sim.points:
            gamma1 = 10.0 ** (point.snr_db / 10.0)
            model = base.scaled(base.omega_r * gamma1 * rx.noise_psd / omega1)
            analytic = ber_bpsk(model)
            assert abs(point.value - analytic) < 3.0 * point.stderr

    def test_conditional_vs_bit_counting(self):
        rx = ReceiverSpec(ensemble=unit_spec(ExponentialCorrelation(0.4), 1, 2),
                          noise_psd=1.0)
        grid = [4.0]
        cond = simulate_egc_ber(rx, grid, n_bits=1_000_000, seed=41,
                                conditional=True)
        hard = simulate_egc_ber(rx, grid, n_bits=1_000_000, seed=41,
                                conditional=False)
        pc, ph = cond.points[0], hard.points[0]
        assert pc.value > 1e-3
        combined = math.hypot(pc.stderr, ph.stderr)
        assert abs(pc.value - ph.value) < 3.0 * combined

    def test_rows_carry_stderr(self):
        rx = ReceiverSpec(ensemble=unit_spec(EqualCorrelation(0.5), 1, 3), noise_psd=1.0)
        curve = simulate_egc_ber(rx, [2.0, 8.0], n_bits=20_000, seed=43)
        rows = curve.to_rows()
        assert len(rows) == 2
        for row, point in zip(rows, curve.points):
            meta = json.loads(row["meta"])
            assert meta["stderr"] == point.stderr > 0.0
            assert meta["method"] == "conditional-error"

    def test_deterministic(self):
        rx = ReceiverSpec(ensemble=unit_spec(EqualCorrelation(0.5), 1, 3),
                          noise_psd=1.0)
        a = simulate_egc_ber(rx, [8.0], n_bits=20_000, seed=43)
        b = simulate_egc_ber(rx, [8.0], n_bits=20_000, seed=43)
        assert a.points[0].value == b.points[0].value

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 4000.0, -4000.0])
    def test_grid_point_out_of_domain(self, snr_db):
        rx = ReceiverSpec(ensemble=unit_spec(EqualCorrelation(0.5), 1, 3),
                          noise_psd=1.0)
        grid = [8.0, snr_db]
        for run in (lambda: ber_curve(rx, grid),
                    lambda: simulate_egc_ber(rx, grid, n_bits=20_000, seed=43)):
            with pytest.raises(DomainError, match=f"(point|got) {snr_db}"):
                run()

    def test_points_share_envelope_draws(self):
        # every point scales the same envelope draws, so each point of a
        # curve is the single-point curve at that SNR and the same seed
        rx = ReceiverSpec(ensemble=unit_spec(EqualCorrelation(0.5), 1, 3),
                          noise_psd=1.0)
        grid = [0.0, 8.0, 16.0]
        curve = simulate_egc_ber(rx, grid, n_bits=20_000, seed=43)
        for point, snr_db in zip(curve.points, grid):
            alone = simulate_egc_ber(rx, [snr_db], n_bits=20_000, seed=43).points[0]
            assert point.value == pytest.approx(alone.value, rel=1e-14)
            assert point.stderr == pytest.approx(alone.stderr, rel=1e-12)

    def test_empty_grid(self):
        # an empty grid gave ValueError from a pool of no workers
        rx = ReceiverSpec(ensemble=unit_spec(EqualCorrelation(0.5), 1, 3),
                          noise_psd=1.0)
        assert simulate_egc_ber(rx, [], n_bits=20_000, seed=43).points == ()

    def test_min_draws(self):
        rx = ReceiverSpec(ensemble=unit_spec(EqualCorrelation(0.5), 1, 3),
                          noise_psd=1.0)
        with pytest.raises(ValidationError):
            simulate_egc_ber(rx, [8.0], n_bits=100, seed=1)


CHECK_SPEC = unit_spec(EqualCorrelation(0.3), 1, 2)
ENTRY_POINTS = {
    "sample": lambda n, seed: sample_correlated_nakagami(CHECK_SPEC, n, seed),
    "sum": lambda n, seed: sample_sum(CHECK_SPEC, n, seed),
    "moments": lambda n, seed: estimate_sum_moments(CHECK_SPEC, n, seed),
    "ber": lambda n, seed: simulate_egc_ber(
        ReceiverSpec(ensemble=CHECK_SPEC, noise_psd=1.0), [0.0], n, seed),
}


class TestInputChecks:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("n, seed", [
        (0, 1), (-5, 1), (20_000, -1), (20_000.0, 1), (2.5, 1), ("20000", 1),
        (True, 1), (20_000, 1.5),
    ])
    def test_typed_error_at_once(self, entry, n, seed):
        with pytest.raises(ValidationError):
            ENTRY_POINTS[entry](n, seed)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_integers_accepted(self, entry):
        ENTRY_POINTS[entry](np.int64(20_000), np.uint32(5))


# -- the serial block loop of the sampler before its worker pool and streamed
# layers, kept as the oracle the pooled sampler must match bit for bit; each
# block adds its squared layers in layer order ------------------------------

def oracle_blocks(spec, n, seed):
    L = spec.branch_count
    m_z = spec.fading_m
    chol_t = cholesky_psd(spec.sqrt_corr_matrix()).T
    scale = np.asarray(spec.powers) / (2.0 * m_z)
    produced = 0
    block = 0
    while produced < n:
        rows = min(simkit._BLOCK_ROWS, n - produced)
        rng = simkit._block_generator(seed, block)
        power = np.zeros((rows, L))
        for layer in rng.standard_normal((2 * m_z, rows, L)) @ chol_t:
            power += layer * layer
        yield np.sqrt(power * scale)
        produced += rows
        block += 1


def oracle_moments(blocks, n):
    s2 = s4 = s8 = 0.0
    for block in blocks:
        z2 = block.sum(axis=1) ** 2
        z4 = z2 * z2
        s2 += float(z2.sum())
        s4 += float(z4.sum())
        s8 += float((z4 * z4).sum())
    m2, m4 = s2 / n, s4 / n
    return {"n": n, "m2": m2, "m4": m4,
            "se2": math.sqrt(max(0.0, s4 / n - m2 * m2) / n),
            "se4": math.sqrt(max(0.0, s8 / n - m4 * m4) / n)}


def oracle_ber(rx, grid, n_bits, seed, conditional):
    # one envelope stream per curve, each point's combiner SNR its squared
    # row sum times 10^(snr/10) / (L omega_1); one bit stream per point
    spec = rx.ensemble
    scale = 10.0 ** (np.asarray(grid, dtype=float) / 10.0) / (
        spec.branch_count * spec.powers[0])
    total = np.zeros(len(grid))
    total_sq = np.zeros(len(grid))
    blocks = oracle_blocks(spec, n_bits, derive_seed(seed, 0xE9C, 0))
    for block, envelopes in enumerate(blocks):
        z2 = envelopes.sum(axis=1) ** 2
        for idx in range(len(grid)):
            bep = simkit._conditional_bep(z2 * scale[idx], rx.modulation)
            if not conditional:
                rng = simkit._block_generator(derive_seed(seed, 0xB17, idx), block)
                bep = (rng.random(bep.size) < bep).astype(float)
            total[idx] += float(bep.sum())
            total_sq[idx] += float((bep * bep).sum())
    out = []
    for snr_db, s1, s2 in zip(grid, total.tolist(), total_sq.tolist()):
        mean = s1 / n_bits
        var = max(0.0, s2 / n_bits - mean * mean)
        out.append((float(snr_db), mean, math.sqrt(var / n_bits)))
    return out


@pytest.fixture
def fresh_pool(monkeypatch):
    """The returned function sets the worker count of the calls' pools."""
    def set_workers(k):
        monkeypatch.setattr(simkit, "_worker_count", lambda: k)

    return set_workers


BLOCK = 1 << 16
ORACLE_SPECS = [
    EnsembleSpec(fading_m=2, powers=(1.0, 0.5, 0.25), correlation=EqualCorrelation(0.3)),
    EnsembleSpec(fading_m=3, powers=(2.0,), correlation=EqualCorrelation(0.0)),
]


class TestPooledSamplerMatchesSerialOracle:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["L3", "L1"])
    @pytest.mark.parametrize("n", [1, 1000, 2 * BLOCK + 17])
    def test_samples_sums_and_moments(self, fresh_pool, workers, spec, n):
        fresh_pool(workers)
        # at seed 23 the one-value block (n = 1, L = 1) depends on the order
        # in which its six squared layers are summed
        want = np.concatenate(list(oracle_blocks(spec, n, 23)))
        got = sample_correlated_nakagami(spec, n, 23).data
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(sample_sum(spec, n, 23), want.sum(axis=1))
        assert estimate_sum_moments(spec, n, 23) == oracle_moments(oracle_blocks(spec, n, 23), n)

    def test_one_value_block_sums_layers_in_order(self):
        # n = 1 at L = 1 takes every block's route: its six squared layers
        # are added one by one, an order that at seed 23 decides the last bit
        power = 0.0
        for v in simkit._block_generator(23, 0).standard_normal(6).tolist():
            power += v * v
        got = sample_correlated_nakagami(ORACLE_SPECS[1], 1, 23).data
        assert got.tolist() == [[math.sqrt(power * (2.0 / 6.0))]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("conditional", [True, False])
    def test_egc_simulation(self, fresh_pool, workers, conditional):
        fresh_pool(workers)
        rx = ReceiverSpec(ensemble=ORACLE_SPECS[0], noise_psd=1.0)
        grid = [0.0, 6.0, 12.0]
        curve = simulate_egc_ber(rx, grid, n_bits=BLOCK + 5000, seed=47,
                                 conditional=conditional)
        got = [(p.snr_db, p.value, p.stderr) for p in curve.points]
        assert got == oracle_ber(rx, grid, BLOCK + 5000, 47, conditional)


class TestWorkerPool:
    SPEC = unit_spec(EqualCorrelation(0.3), 1, 2)

    def test_single_block_runs_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single-block call started a pool")

        monkeypatch.setattr(simkit, "ThreadPoolExecutor", no_pool)
        sample_sum(self.SPEC, 1000, 3)
        simulate_egc_ber(ReceiverSpec(ensemble=self.SPEC, noise_psd=1.0), [8.0],
                         n_bits=10_000, seed=0)

    def test_thread_count_bounded(self, fresh_pool):
        fresh_pool(3)
        before = threading.active_count()
        for _ in range(20):
            sample_sum(self.SPEC, 3 * BLOCK, 5)
            # every worker has been joined when the call returns
            assert threading.active_count() == before

    def test_block_error_reaches_caller(self, fresh_pool, monkeypatch):
        fresh_pool(2)
        real = simkit._block_generator

        def failing(seed, block):
            if block == 1:
                raise RuntimeError("block 1 failed")
            return real(seed, block)

        monkeypatch.setattr(simkit, "_block_generator", failing)
        with pytest.raises(RuntimeError, match="block 1 failed"):
            sample_sum(self.SPEC, 2 * BLOCK + 1, 7)


def chunk_edge_sizes(L):
    """Draw counts at the edges of the sampler's layer chunks: one chunk's
    rows minus one, plus one and plus two (where fixed-size chunks would
    leave a tail of 1 or 2 rows), counts that 4096-row chunks would leave a
    one-row tail, and a second block of such a count."""
    chunk = simkit._LAYER_CELLS // L
    return sorted({chunk - 1, chunk + 1, chunk + 2, 4097, 8193, BLOCK + 4097})


class TestLayerChunksMatchSerialOracle:
    """Each Gaussian layer is drawn and multiplied in row chunks; the
    samples, sums and moments stay those of the one-shot oracle."""

    @pytest.mark.parametrize("L", [2, 8, 16])
    @pytest.mark.parametrize("m_z", [1, 5])
    def test_chunk_edges(self, L, m_z):
        spec = EnsembleSpec(fading_m=m_z, powers=tuple(1.0 / (1 + 0.3 * k) for k in range(L)),
                            correlation=ExponentialCorrelation(0.7))
        for n in chunk_edge_sizes(L):
            seed = 31 * L + n
            blocks = list(oracle_blocks(spec, n, seed))
            want = np.concatenate(blocks)
            assert np.array_equal(sample_correlated_nakagami(spec, n, seed).data, want), n
            assert np.array_equal(sample_sum(spec, n, seed), want.sum(axis=1)), n
            assert estimate_sum_moments(spec, n, seed) == oracle_moments(blocks, n), n

    def test_chunks_split_evenly(self, monkeypatch):
        # a block's layers are cut into chunks whose lengths differ by at
        # most one row and hold at most _LAYER_CELLS cells each
        seen = []
        real = np.matmul

        def recording(a, b, out=None):
            seen.append(a.shape)
            return real(a, b, out=out)

        monkeypatch.setattr(simkit.np, "matmul", recording)
        L = 8
        rows = simkit._LAYER_CELLS // L * 3 + 1
        sample_sum(unit_spec(EqualCorrelation(0.3), 1, L), rows, 3)
        lengths = {shape[0] for shape in seen}
        assert len(seen) == 2 * 4 and len(lengths) == 2
        assert max(lengths) - min(lengths) == 1
        assert max(lengths) * L <= simkit._LAYER_CELLS
