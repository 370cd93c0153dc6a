"""Monte-Carlo engine: correlated Nakagami vector sampling and semi-analytic
EGC error simulation.

Sampling uses the Gaussian-layer construction: for each of m independent
complex layers draw a correlated Gaussian pair through the Cholesky factor
of the sqrt-correlation matrix, then take the root of the scaled power sum.
This yields exact Nakagami marginals for integer m and forces the power
correlation between branches to the square of the Gaussian correlation.

Draws come in blocks of 65 536 rows.  Each block has its own counter-based
Philox stream keyed by (seed, block) and adds its 2m Gaussian layers, one
at a time, into its one (rows, L) power array.  A layer is drawn,
multiplied by the Cholesky factor, squared and added in row chunks of at
most ``_LAYER_CELLS`` cells, split evenly over the block and taken in
stream order, so a block in flight holds its power array and two chunks,
and its samples are those of one (rows, L) draw per layer.
Multi-block calls run their blocks on a thread pool that the call starts
and joins before it returns (one worker per available CPU, at most four,
never more than the call has blocks).  The same pool runs the trials of a
goodness-of-fit campaign (``gof.gof_campaign``), one contiguous range of
trials per worker.  Samples are written in place;
every estimate maps each block's row sums to an array of partial sums and
adds the arrays in block order.  So every output is bit-identical whatever
the number of workers.  Single-block calls run inline and start no thread.
A simulated EGC curve evaluates all its SNR points on one envelope draw
(common random numbers); hard bit decisions draw one stream per point.
"""
from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import erfc

from .egc import PerfCurve, PerfPoint, ReceiverSpec, _snr_scale
from .errors import ValidationError, _check_count
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
# Cells of a Gaussian layer drawn and multiplied at once.  Up to L = 16 each
# chunk's (rows, L) @ (L, L) product stays within OpenBLAS's single-thread
# size, so concurrent blocks do not contend for BLAS threads.
_LAYER_CELLS = 1 << 14
# Fewest rows a layer chunk is cut to: OpenBLAS can round a product of a few
# rows differently from the whole block's (at L = 32-96, up to 37 rows).
_MIN_CHUNK_ROWS = 64
_BATCH_MAGIC = b"CNKSUM01"
# Pool size cap: each block in flight holds one (rows, L) array and two
# layer chunks.
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

    The layers are drawn in the order of a single (layers, rows, L) draw,
    each in an even split of row chunks, and their squares are summed layer
    by layer.
    """
    chol_t, scale, layers = factors
    rng = _block_generator(seed, block)
    rows = out.shape[0]
    # chunk lengths differ by at most one row, so no chunk is a short
    # remainder whose product rounds differently
    chunks = max(1, min(-(-out.size // _LAYER_CELLS), rows // _MIN_CHUNK_ROWS))
    bounds = [rows * k // chunks for k in range(chunks + 1)]
    z = np.empty((-(-rows // chunks), out.shape[1]))
    g = np.empty_like(z)
    out[...] = 0.0
    for _ in range(layers):
        for lo, hi in zip(bounds, bounds[1:]):
            zc, gc = z[:hi - lo], g[:hi - lo]
            rng.standard_normal(out=zc)
            out[lo:hi] += np.square(np.matmul(zc, chol_t, out=gc), out=gc)
    out *= scale
    return np.sqrt(out, out=out)


def _row_sum_block(factors, seed: int, block: int, rows: int,
                   out: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """Envelope sums of one block's rows (written to out when given)."""
    envelopes = _envelope_block(np.empty((rows, factors[0].shape[0])), factors, seed, block)
    return envelopes.sum(axis=1, out=out)


def sample_correlated_nakagami(spec: EnsembleSpec, n: int, seed: int) -> SampleBatch:
    """Draw n correlated Nakagami envelope vectors."""
    _check_count(n, "draw count", ValidationError)
    _check_count(seed, "seed", ValidationError, 0)
    factors = _layer_factors(spec)
    data = np.empty((n, spec.branch_count))

    def task(job):
        block, lo, hi = job
        _envelope_block(data[lo:hi], factors, seed, block)

    _map_blocks(task, _blocks(n))
    return SampleBatch(data=data, seed=int(seed), spec=spec)


def sample_sum(spec: EnsembleSpec, n: int, seed: int) -> NDArray[np.float64]:
    """Row sums of a correlated Nakagami batch."""
    _check_count(n, "draw count", ValidationError)
    _check_count(seed, "seed", ValidationError, 0)
    factors = _layer_factors(spec)
    z = np.empty(n)

    def task(job):
        block, lo, hi = job
        _row_sum_block(factors, seed, block, hi - lo, out=z[lo:hi])

    _map_blocks(task, _blocks(n))
    return z


def _reduce_blocks(reduce, factors, seed: int, n: int) -> NDArray[np.float64]:
    """Sum over the blocks of n rows of reduce(block, squared envelope row
    sums), an array, added in block order."""
    def task(job):
        block, lo, hi = job
        z = _row_sum_block(factors, seed, block, hi - lo)
        return reduce(block, np.square(z, out=z))

    return sum(_map_blocks(task, _blocks(n)))


def estimate_sum_moments(spec: EnsembleSpec, n: int, seed: int) -> dict:
    """Streaming estimates of E[Z^2] and E[Z^4] with standard errors."""
    _check_count(n, "draw count", ValidationError)
    _check_count(seed, "seed", ValidationError, 0)

    def reduce(block, z2):
        z4 = z2 * z2
        return np.array([z2.sum(), z4.sum(), (z4 * z4).sum()])

    m2, m4, m8 = (_reduce_blocks(reduce, _layer_factors(spec), seed, n) / n).tolist()
    return {"n": n, "m2": m2, "m4": m4,
            "se2": math.sqrt(max(0.0, m4 - m2 * m2) / n),
            "se4": math.sqrt(max(0.0, m8 - m4 * m4) / n)}


def _conditional_bep(gammas: NDArray[np.float64], modulation: str) -> NDArray[np.float64]:
    if modulation == "bpsk":
        return 0.5 * erfc(np.sqrt(gammas))
    return 0.5 * np.exp(-0.5 * gammas)


def simulate_egc_ber(rx: ReceiverSpec, snr_db_grid, n_bits: int, seed: int,
                     conditional: bool = True) -> PerfCurve:
    """Monte-Carlo EGC error probability over a per-branch SNR grid (dB).

    The default averages the exact conditional error probability of each
    combiner draw (semi-analytic, low variance); ``conditional=False``
    counts hard bit decisions instead, one stream per point.  All points
    share one draw of n_bits envelopes, scaled to each point's combiner SNR
    by the rule of ``ber_curve``, which rejects a point before any draw.
    """
    _check_count(n_bits, "draw count", ValidationError, 10_000)
    _check_count(seed, "seed", ValidationError, 0)
    grid, scale = _snr_scale(rx, snr_db_grid)
    bit_seeds = [derive_seed(seed, 0xB17, idx) for idx in range(len(grid))]

    def reduce(block, z2):
        sums = np.empty((len(grid), 2))
        for idx, point_scale in enumerate(scale):
            # the last point scales the block's draws in place: one array less
            gammas = np.multiply(z2, point_scale, out=z2 if idx == len(grid) - 1 else None)
            bep = _conditional_bep(gammas, rx.modulation)
            if not conditional:
                rng = _block_generator(bit_seeds[idx], block)
                bep = (rng.random(bep.size) < bep).astype(float)
            sums[idx] = bep.sum(), (bep * bep).sum()
        return sums

    mean, mean_sq = (_reduce_blocks(reduce, _layer_factors(rx.ensemble),
                                    derive_seed(seed, 0xE9C, 0), n_bits) / n_bits).T
    stderr = np.sqrt(np.maximum(0.0, mean_sq - mean * mean) / n_bits)
    return PerfCurve(
        points=tuple(map(PerfPoint, grid, mean.tolist(), stderr.tolist())),
        kind=f"ber-{rx.modulation}-sim",
        meta={"method": "conditional-error" if conditional else "bit-count",
              "n_bits": n_bits, "seed": int(seed),
              "branches": rx.ensemble.branch_count},
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
