"""Monte-Carlo engine: correlated Nakagami vector sampling and semi-analytic
EGC error simulation.

Sampling uses the Gaussian-layer construction: for each of m independent
complex layers draw a correlated Gaussian pair through the Cholesky factor
of the sqrt-correlation matrix, then take the root of the scaled power sum.
This yields exact Nakagami marginals for integer m and forces the power
correlation between branches to the square of the Gaussian correlation.

Draws come in blocks of 65 536 rows.  Each block has its own counter-based
Philox stream keyed by (seed, block) and builds its 2m Gaussian layers one
at a time: one (rows, L) draw, the Cholesky product, squared and added
into the block's power array, so a block holds two layers at most.
Multi-block calls run their blocks on a thread pool that the call starts
and joins before it returns (one worker per available CPU, at most four,
never more than the call has blocks), and combine the per-block rows or
partial sums in block order, so every output is bit-identical whatever the
number of workers.  Single-block calls run inline and start no thread.
"""
from __future__ import annotations

import math
import numbers
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import erfc

from .egc import PerfCurve, PerfPoint, ReceiverSpec
from .errors import ValidationError
from .linalg import cholesky_psd
from .moments import EnsembleSpec

__all__ = [
    "SampleBatch",
    "sample_correlated_nakagami",
    "sample_sum",
    "estimate_sum_moments",
    "simulate_egc_ber",
    "save_batch",
    "load_batch",
]

_BLOCK_ROWS = 1 << 16
_BATCH_MAGIC = b"CNKSUM01"
# Pool size cap: each block in flight holds about three (rows, L) arrays.
_MAX_WORKERS = 4


@dataclass(frozen=True)
class SampleBatch:
    """Envelope samples, one row per draw, one column per branch."""

    data: NDArray[np.float64]
    seed: int
    spec: EnsembleSpec


def derive_seed(seed: int, tag: int, index: int) -> int:
    """Deterministic 63-bit child seed for an independent substream."""
    ss = np.random.SeedSequence((int(seed), int(tag), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _check_draws(n, seed, minimum: int = 1) -> None:
    """Reject a draw count below ``minimum`` and a negative seed; both must
    be integers."""
    for name, value, low in (("draw count", n, minimum), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValidationError(f"{name} must be at least {low}, got {value}")


# -- worker pool ------------------------------------------------------------

def _worker_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS))


def _map_blocks(task, jobs: list) -> list:
    """task(job) for every job, results in job order; one job runs inline,
    more run on a thread pool that lives for this call only.

    Tasks run on the pool's workers, so they call only private helpers and
    touch no public (traceable) name.
    """
    if len(jobs) == 1:
        return [task(jobs[0])]
    with ThreadPoolExecutor(min(_worker_count(), len(jobs)),
                            thread_name_prefix="nakasum-simkit") as pool:
        return list(pool.map(task, jobs))


# -- blocks -----------------------------------------------------------------

def _block_generator(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(block)))))


def _blocks(n: int) -> list[tuple[int, int, int]]:
    """(block index, first row, end row) of each block of n rows."""
    return [(b, lo, min(lo + _BLOCK_ROWS, n))
            for b, lo in enumerate(range(0, n, _BLOCK_ROWS))]


def _layer_factors(spec: EnsembleSpec) -> tuple[NDArray[np.float64], NDArray[np.float64], int]:
    """Transposed Cholesky factor, per-branch power scale and layer count."""
    m_z = spec.fading_m
    return (cholesky_psd(spec.sqrt_corr_matrix()).T,
            np.asarray(spec.powers) / (2.0 * m_z), 2 * m_z)


def _envelope_block(out: NDArray[np.float64], factors, seed: int,
                    block: int) -> NDArray[np.float64]:
    """Fill out (rows, L) with the envelopes of one block and return it.

    The layers are drawn one (rows, L) array at a time, in the order of a
    single (layers, rows, L) draw, and their squares are summed layer by
    layer.
    """
    chol_t, scale, layers = factors
    rng = _block_generator(seed, block)
    if out.size == 1:
        # a one-value block keeps the summation order einsum gives a lone
        # reduction axis, so that a seed's samples stay what they have been
        g = rng.standard_normal((layers,) + out.shape) @ chol_t
        out[...] = np.einsum("krl,krl->rl", g, g)
    else:
        z = np.empty_like(out)
        g = np.empty_like(out)
        out[...] = 0.0
        for _ in range(layers):
            rng.standard_normal(out=z)
            out += np.square(np.matmul(z, chol_t, out=g), out=g)
    out *= scale
    return np.sqrt(out, out=out)


def _row_sum_block(factors, seed: int, block: int, rows: int,
                   out: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """Envelope sums of one block's rows (written to out when given)."""
    envelopes = _envelope_block(np.empty((rows, factors[0].shape[0])), factors, seed, block)
    return envelopes.sum(axis=1, out=out)


def sample_correlated_nakagami(spec: EnsembleSpec, n: int, seed: int) -> SampleBatch:
    """Draw n correlated Nakagami envelope vectors."""
    _check_draws(n, seed)
    factors = _layer_factors(spec)
    data = np.empty((n, spec.branch_count))

    def task(job):
        block, lo, hi = job
        _envelope_block(data[lo:hi], factors, seed, block)

    _map_blocks(task, _blocks(n))
    return SampleBatch(data=data, seed=int(seed), spec=spec)


def sample_sum(spec: EnsembleSpec, n: int, seed: int) -> NDArray[np.float64]:
    """Row sums of a correlated Nakagami batch."""
    _check_draws(n, seed)
    factors = _layer_factors(spec)
    z = np.empty(n)

    def task(job):
        block, lo, hi = job
        _row_sum_block(factors, seed, block, hi - lo, out=z[lo:hi])

    _map_blocks(task, _blocks(n))
    return z


def estimate_sum_moments(spec: EnsembleSpec, n: int, seed: int) -> dict:
    """Streaming estimates of E[Z^2] and E[Z^4] with standard errors."""
    _check_draws(n, seed)
    factors = _layer_factors(spec)

    def task(job):
        block, lo, hi = job
        z2 = _row_sum_block(factors, seed, block, hi - lo) ** 2
        z4 = z2 * z2
        return float(z2.sum()), float(z4.sum()), float((z4 * z4).sum())

    s2 = s4 = s8 = 0.0
    for p2, p4, p8 in _map_blocks(task, _blocks(n)):
        s2 += p2
        s4 += p4
        s8 += p8
    m2 = s2 / n
    m4 = s4 / n
    var2 = max(0.0, s4 / n - m2 * m2)
    var4 = max(0.0, s8 / n - m4 * m4)
    return {
        "n": n,
        "m2": m2,
        "m4": m4,
        "se2": math.sqrt(var2 / n),
        "se4": math.sqrt(var4 / n),
    }


def _conditional_bep(gammas: NDArray[np.float64], modulation: str) -> NDArray[np.float64]:
    if modulation == "bpsk":
        return 0.5 * erfc(np.sqrt(gammas))
    return 0.5 * np.exp(-0.5 * gammas)


def simulate_egc_ber(rx: ReceiverSpec, snr_db_grid, n_bits: int, seed: int,
                     conditional: bool = True) -> PerfCurve:
    """Monte-Carlo EGC error probability over a per-branch SNR grid (dB).

    The default averages the exact conditional error probability of each
    combiner draw (semi-analytic, low variance); ``conditional=False``
    counts hard bit decisions instead.
    """
    _check_draws(n_bits, seed, minimum=10_000)
    spec = rx.ensemble
    L = spec.branch_count
    omega1 = spec.powers[0]
    grid = [float(snr_db) for snr_db in snr_db_grid]
    # per point: noise density, envelope stream seed, bit-decision stream seed
    streams = [(omega1 / 10.0 ** (snr_db / 10.0), derive_seed(seed, 0xE9C, idx),
                derive_seed(seed, 0xB17, idx)) for idx, snr_db in enumerate(grid)]
    factors = _layer_factors(spec)
    blocks = _blocks(n_bits)

    def task(job):
        (n0, child, bit_seed), (block, lo, hi) = job
        gammas = _row_sum_block(factors, child, block, hi - lo) ** 2 / (L * n0)
        bep = _conditional_bep(gammas, rx.modulation)
        if not conditional:
            rng = _block_generator(bit_seed, block)
            bep = (rng.random(gammas.size) < bep).astype(float)
        return float(bep.sum()), float((bep * bep).sum())

    partials = _map_blocks(task, [(point, b) for point in streams for b in blocks])
    points = []
    for idx, snr_db in enumerate(grid):
        total = 0.0
        total_sq = 0.0
        for part, part_sq in partials[idx * len(blocks):(idx + 1) * len(blocks)]:
            total += part
            total_sq += part_sq
        mean = total / n_bits
        var = max(0.0, total_sq / n_bits - mean * mean)
        points.append(PerfPoint(snr_db=snr_db, value=mean,
                                stderr=math.sqrt(var / n_bits)))
    return PerfCurve(
        points=tuple(points),
        kind=f"ber-{rx.modulation}-sim",
        meta={"method": "conditional-error" if conditional else "bit-count",
              "n_bits": n_bits, "seed": int(seed),
              "branches": L},
    )


def save_batch(batch: SampleBatch, path: str, fmt: str = "bin") -> None:
    """Write a batch as little-endian float64 column-major with a 32-byte
    header (magic, n, L, seed), or as CSV."""
    n, L = batch.data.shape
    if fmt == "bin":
        if not 0 <= batch.seed < 1 << 64:
            raise ValidationError(
                f"binary batch header holds a seed in [0, 2**64), got {batch.seed}")
        with open(path, "wb") as fh:
            fh.write(_BATCH_MAGIC)
            fh.write(struct.pack("<QQQ", n, L, batch.seed))
            # column-major data is the C-order bytes of the transpose
            fh.write(np.ascontiguousarray(batch.data.T, dtype="<f8"))
    elif fmt == "csv":
        header = ",".join(f"z_{k + 1}" for k in range(L))
        np.savetxt(path, batch.data, delimiter=",", header=header, comments="")
    else:
        raise ValidationError(f"unknown batch format {fmt!r}")


def load_batch(path: str) -> tuple[NDArray[np.float64], int]:
    """Read a binary batch; returns (data, seed)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BATCH_MAGIC:
            raise ValidationError(f"not a sample batch file: magic {magic!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise ValidationError(
                f"batch header is cut short: {len(header)} of 24 bytes after the magic")
        n, L, seed = struct.unpack("<QQQ", header)
        flat = np.frombuffer(fh.read(), dtype="<f8")
    if flat.size != n * L:
        raise ValidationError(
            f"batch payload has {flat.size} values, expected {n * L}")
    return flat.reshape((n, L), order="F").copy(), int(seed)
