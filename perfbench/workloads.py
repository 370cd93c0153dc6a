"""Seeded inputs, op lists and output checks for the three workloads.

An op is one public library call on inputs generated here; the package
receives only the generated ``EnsembleSpec``s, models and grids.  Every op
carries a check: deterministic outputs are compared with references
recorded at the recording commit (``references.json``, written by
``record.py``), Monte-Carlo outputs are tested by z-score.

The seed picks inputs that leave the work of a pass unchanged: the branch
order of pooled matrices and power profiles (an order reversal gives the
same fit), Monte-Carlo seeds, and the order in which the ops of each pass
run.  Every input a seed can produce therefore has a recorded reference,
and a seed changes what a pass computes but not what it costs; the
shuffled order spreads each op kind over the whole run, so that a latency
percentile does not rest on the few seconds in which one kind would
otherwise run back to back.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from nakasum import cli, egc, gammasum, gof, matcher, simkit
from nakasum.linalg import CorrelationMatrix
from nakasum.moments import (
    ArbitraryCorrelation,
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
)

WORKLOADS = ("fit-sweep", "receiver-curves", "mc-validate")
REFERENCE_FILE = pathlib.Path(__file__).with_name("references.json")

# Check tolerances.  m_r and the MGF-based error rates are series or
# closed-form values; PDF/CDF/outage come from quadrature with
# abs_tol=1e-8; GoF statistics are averages of counts and K-S gaps.
PUBLISHED_TOL = 5e-4
FIT_RTOL = 1e-9
BER_RTOL = 1e-8
BFSK_RTOL = 1e-10
DIST_ATOL = 1e-7
GOF_RTOL = 1e-6
Z_MAX = 5.0

# Published shape-parameter tables for balanced branches: rows are
# (rho, m_z), columns L = 2, 3, 4.
TABLE_L = (2, 3, 4)
TABLE_EQUAL = {
    (0.0, 1): (0.9552, 0.9411, 0.9343),
    (0.0, 2): (1.947, 1.93, 1.9217),
    (0.0, 3): (2.943, 2.9258, 2.9168),
    (0.2, 1): (0.9195, 0.8884, 0.8709),
    (0.2, 2): (1.9102, 1.876, 1.8569),
    (0.2, 3): (2.9068, 2.8715, 2.8518),
    (0.4, 1): (0.9156, 0.8841, 0.8672),
    (0.4, 2): (1.907, 1.8722, 1.8535),
    (0.4, 3): (2.9039, 2.868, 2.8487),
    (0.6, 1): (0.9304, 0.9056, 0.8929),
    (0.6, 2): (1.9242, 1.8971, 1.8831),
    (0.6, 3): (2.9222, 2.8944, 2.8799),
    (0.8, 1): (0.9587, 0.9445, 0.9374),
    (0.8, 2): (1.956, 1.9409, 1.9333),
    (0.8, 3): (2.9553, 2.9399, 2.9321),
}
TABLE_EXPONENTIAL = {
    (0.0, 1): (0.9552, 0.9411, 0.9343),
    (0.0, 2): (1.947, 1.93, 1.9217),
    (0.0, 3): (2.943, 2.9258, 2.9168),
    (0.2, 1): (0.9195, 0.9033, 0.9015),
    (0.2, 2): (1.9102, 1.892, 1.8897),
    (0.2, 3): (2.9068, 2.8878, 2.8852),
    (0.4, 1): (0.9156, 0.8887, 0.88),
    (0.4, 2): (1.907, 1.877, 1.8675),
    (0.4, 3): (2.9039, 2.8728, 2.8629),
    (0.6, 1): (0.9304, 0.8988, 0.8817),
    (0.6, 2): (1.9242, 1.889, 1.87),
    (0.6, 3): (2.9222, 2.8858, 2.866),
    (0.8, 1): (0.9587, 0.934, 0.9162),
    (0.8, 2): (1.956, 1.9291, 1.9093),
    (0.8, 3): (2.9553, 2.9277, 2.9072),
}
CORR = {"equal": EqualCorrelation, "exp": ExponentialCorrelation}

# fit-sweep pools: (correlation, L, rho, m_z) at L=8 and 16 with decaying
# powers exp(-LARGE_MU * k), in a seed-chosen order (decaying or rising)
LARGE_CELLS = (("exp", 8, 0.7, 2), ("equal", 8, 0.5, 2),
               ("exp", 16, 0.5, 1), ("equal", 16, 0.5, 2))
LARGE_MU = 0.3
# Many cheap arbitrary-matrix fits: besides exercising the Markov-product
# fit, they form a dense block of similar latencies around the median op,
# which keeps op_p50_ms from resting on one or two sub-millisecond fits.
# The pool holds ARB_PAIRS matrices in both branch orders; a run takes one
# order of each, so the seed changes the inputs but not the work.
ARB_PAIRS = 64
NEAR_MAXIMAL = ("exp", 0.97, 1, 4)
KNOWN_DEFECT_CELLS = (("exp", 0.98, 1, 4), ("equal", 0.9999, 1, 4))
STRONG_PER_RUN = 4

# receiver-curves ensembles, all with m_z = 2: equal rho=0.5 and
# exponential rho=0.5 with powers exp(-0.3 k) at L=4, and a 3x3 arbitrary
# matrix (rx_arb_spec).  They are fixed: BER is referred to the first
# branch's power and BFSK is checked to 1e-10, so a branch reversal would
# change the outputs, and a seed-chosen rho would change the cost of an
# ensemble's ops by up to 40% (its fit dominates BFSK and outage).
RX_EQUAL_RHO = 0.5
RX_EXP = (0.5, 0.3)
RX_ARB = 2
RX_M, RX_L = 2, 4
SNR9 = tuple(float(x) for x in np.linspace(0.0, 16.0, 9))
SNR21 = tuple(float(x) for x in np.linspace(0.0, 20.0, 21))
OUTAGE_THRESHOLD = 1.0
PDF_POINTS, CDF_POINTS = 50, 200
CLI_SNR_GRID = "0:16:3"

# mc-validate: two cells of the published "<0.001" GoF set, the three
# headline EGC scenarios, and an exponential L=8 moment estimate
GOF_CELLS = (("exp", 0.2, 3, 2), ("exp", 0.7, 3, 2))
GOF_SEED_POOL = 8
GOF_TRIALS, GOF_PER_TRIAL = 100, 10_000
SMOKE_GOF_TRIALS, SMOKE_GOF_PER_TRIAL = 3, 2_000
SIM_GRID = tuple(float(x) for x in np.linspace(0.0, 16.0, 5))
SIM_BITS, SMOKE_SIM_BITS = 1_000_000, 20_000
EST_SPEC_ARGS = ("exp", 0.7, 2, 8)
EST_DRAWS, SMOKE_EST_DRAWS = 2_000_000, 20_000
REFERENCE_MC_SEED = 20_100_734


def balanced(corr: str, rho: float, m_z: int, L: int) -> EnsembleSpec:
    return EnsembleSpec(fading_m=m_z, powers=(1.0,) * L, correlation=CORR[corr](rho))


def random_matrix(rng: np.random.Generator, L: int, diag: float) -> CorrelationMatrix:
    """Non-negative PSD sqrt-correlation matrix from three non-negative
    latent factors; a smaller ``diag`` gives stronger correlation."""
    a = np.abs(rng.standard_normal((L, 3)))
    c = a @ a.T + diag * np.eye(L)
    d = np.sqrt(np.diag(c))
    return CorrelationMatrix(c / np.outer(d, d))


def arb_pool_spec(pair: int, reverse: int) -> EnsembleSpec:
    """A moderately correlated L=5-6 ensemble of the fixed pool, with its
    branch order reversed when ``reverse`` is 1."""
    L = 5 + pair % 2
    matrix = random_matrix(np.random.default_rng((734, 1, pair)), L, 2.0).entries
    if reverse:
        matrix = matrix[::-1, ::-1]
    return EnsembleSpec(fading_m=1 + pair // 2 % 2, powers=(1.0,) * L,
                        correlation=ArbitraryCorrelation(CorrelationMatrix(matrix)))


def rx_arb_spec(i: int) -> EnsembleSpec:
    matrix = random_matrix(np.random.default_rng((734, 2, i)), 3, 1.0)
    return EnsembleSpec(fading_m=RX_M, powers=(1.0,) * 3,
                        correlation=ArbitraryCorrelation(matrix))


def egc_scenarios() -> dict[str, EnsembleSpec]:
    """The headline scenarios of scripts/egc_curves.py."""
    return {
        "equal-balanced": EnsembleSpec(
            fading_m=2, powers=(1.0,) * 4, correlation=EqualCorrelation(0.7)),
        "exp-decaying": EnsembleSpec(
            fading_m=2, powers=egc.power_profile(1.0, 0.3, 3),
            correlation=ExponentialCorrelation(0.7)),
        "arbitrary": EnsembleSpec(
            fading_m=2, powers=(1.0,) * 3,
            correlation=ArbitraryCorrelation(CorrelationMatrix(np.array([
                [1.0, 0.6, 0.2],
                [0.6, 1.0, 0.5],
                [0.2, 0.5, 1.0],
            ])))),
    }


def est_spec() -> EnsembleSpec:
    return balanced(EST_SPEC_ARGS[0], EST_SPEC_ARGS[1], EST_SPEC_ARGS[2],
                    EST_SPEC_ARGS[3])


# -- ops and checks ---------------------------------------------------------

@dataclass
class Op:
    kind: str                                   # latency group in the report
    key: str                                    # entry in references.json
    call: Callable[[], object]                  # one public library call
    summarize: Callable[[object], dict]         # output -> comparable values
    check: Callable[[dict, dict | None], str | None]  # None when correct


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _points_check(rtol: float, atol: float = 0.0):
    def check(summary: dict, ref: dict | None) -> str | None:
        if ref is None:
            return "no reference"
        for x, got in summary.items():
            if x not in ref:
                return f"no reference at {x}"
            if not _close(got, ref[x], rtol, atol):
                return f"at {x}: got {got!r}, reference {ref[x]!r}"
        return None
    return check


def _curve_points(curve) -> dict:
    return {repr(p.snr_db): p.value for p in curve.points}


def fit_op(kind: str, key: str, spec: EnsembleSpec,
           published: float | None = None) -> Op:
    fields_check = _points_check(FIT_RTOL)

    def check(summary: dict, ref: dict | None) -> str | None:
        if published is not None:
            got = summary["m_r"]
            if abs(got - published) > PUBLISHED_TOL:
                # the published (rho=0, m_z=3, L=2) cell truncates 2.94396
                # instead of rounding; accept digit-exact truncation
                decimals = len(repr(published).split(".")[1])
                if math.floor(got * 10 ** decimals) / 10 ** decimals != published:
                    return f"m_r {got:.6f} vs published {published}"
        return fields_check(summary, ref)

    return Op(kind, key, lambda: matcher.match_parameters(spec),
              lambda m: {"m_r": m.m_r, "omega_r": m.omega_r}, check)


def _cli_ber(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_points(result) -> dict:
    code, text = result
    points = {repr(float(row["snr_db"])): float(row["value"])
              for row in csv.DictReader(io.StringIO(text))}
    return {"exit": code, **points}


def _cli_check(summary: dict, ref: dict | None) -> str | None:
    summary = dict(summary)
    code = summary.pop("exit")
    if code != 0:
        return f"cli exit code {code}"
    if len(summary) != 3:
        return f"cli printed {len(summary)} points, expected 3"
    return _points_check(BER_RTOL)(summary, ref)


def _gof_summary(report) -> dict:
    return {"chi2_stat": report.chi2_stat, "ks_stat": report.ks_stat,
            "alpha_cs": report.alpha_cs, "alpha_ks": report.alpha_ks}


def _sim_summary(curve) -> dict:
    return {repr(p.snr_db): [p.value, p.stderr] for p in curve.points}


def _sim_check(summary: dict, ref: dict | None) -> str | None:
    if ref is None:
        return "no reference"
    for x, (value, stderr) in summary.items():
        ref_value, ref_stderr = ref[x]
        z = abs(value - ref_value) / max(math.hypot(stderr, ref_stderr), 1e-300)
        if not z <= Z_MAX:
            return f"at {x} dB: simulated {value:.4e} vs reference {ref_value:.4e} (z={z:.1f})"
    return None


def _est_summary(est: dict) -> dict:
    return {k: est[k] for k in ("m2", "m4", "se2", "se4")}


def _est_check(summary: dict, ref: dict | None) -> str | None:
    if ref is None:
        return "no reference"
    for moment, se in (("m2", "se2"), ("m4", "se4")):
        z = abs(summary[moment] - ref[moment]) / max(summary[se], 1e-300)
        if not z <= Z_MAX:
            return f"E[Z^{moment[1]}] estimate {summary[moment]:.6g} vs exact {ref[moment]:.6g} (z={z:.1f})"
    return None


# -- workload builders ------------------------------------------------------

def fit_ops(large_orders, arb_orders, smoke: bool = False) -> list[Op]:
    ops = []
    for corr, table in (("equal", TABLE_EQUAL), ("exp", TABLE_EXPONENTIAL)):
        for (rho, m_z), row in table.items():
            for L, published in zip(TABLE_L, row):
                if smoke and not (rho == 0.2 and m_z == 1):
                    continue
                ops.append(fit_op(f"fit.table.{corr}-L{L}",
                                  f"fit/table/{corr}/rho{rho}/m{m_z}/L{L}",
                                  balanced(corr, rho, m_z, L), published))
    for (corr, L, rho, m_z), reverse in zip(LARGE_CELLS, large_orders):
        if smoke and L > 8:
            continue
        powers = egc.power_profile(1.0, LARGE_MU, L)
        spec = EnsembleSpec(fading_m=m_z, powers=powers[::-1] if reverse else powers,
                            correlation=CORR[corr](rho))
        ops.append(fit_op(f"fit.large.{corr}-L{L}", f"fit/large/{corr}/L{L}/mu{LARGE_MU}",
                          spec))
    for pair, reverse in enumerate(arb_orders):
        ops.append(fit_op("fit.arbitrary", f"fit/arb/{pair}/{reverse}",
                          arb_pool_spec(pair, reverse)))
    if not smoke:
        corr, rho, m_z, L = NEAR_MAXIMAL
        ops.append(fit_op("fit.near-maximal", f"fit/near/{corr}/rho{rho}/m{m_z}/L{L}",
                          balanced(corr, rho, m_z, L)))
    return ops


def defect_probe(rng: np.random.Generator, smoke: bool) -> list[tuple[str, EnsembleSpec]]:
    """Inputs that fail at the recording commit: near-maximal cells that raise
    TruncationError, and strongly correlated L=5-6 matrices of which a
    share raise SingularMatrixError after the Markov fit clamps a link."""
    cells = KNOWN_DEFECT_CELLS[1:] if smoke else KNOWN_DEFECT_CELLS
    probe = [(f"{c}-rho{rho}-m{m}-L{L}", balanced(c, rho, m, L)) for c, rho, m, L in cells]
    for j in range(0 if smoke else STRONG_PER_RUN):
        L = 5 + j % 2
        spec = EnsembleSpec(fading_m=1 + j % 2, powers=(1.0,) * L,
                            correlation=ArbitraryCorrelation(random_matrix(rng, L, 0.2)))
        probe.append((f"strong-arbitrary-{j}-L{L}", spec))
    return probe


def rx_ensembles() -> list[tuple[str, EnsembleSpec]]:
    rho_exp, mu = RX_EXP
    return [
        ("eq", balanced("equal", RX_EQUAL_RHO, RX_M, RX_L)),
        ("exp", EnsembleSpec(fading_m=RX_M, powers=egc.power_profile(1.0, mu, RX_L),
                             correlation=ExponentialCorrelation(rho_exp))),
        ("arb", rx_arb_spec(RX_ARB)),
    ]


def receiver_ops(smoke: bool = False) -> list[Op]:
    ops = []
    snr9 = SNR9[:2] if smoke else SNR9
    snr21 = SNR21[:3] if smoke else SNR21
    for eid, spec in rx_ensembles():
        rx = egc.ReceiverSpec(ensemble=spec, noise_psd=1.0)
        rx_fsk = egc.ReceiverSpec(ensemble=spec, noise_psd=1.0, modulation="bfsk")
        ops.append(Op("ber_curve.bpsk", f"rx/{eid}/bpsk",
                      lambda rx=rx: egc.ber_curve(rx, snr9),
                      _curve_points, _points_check(BER_RTOL)))
        ops.append(Op("ber_curve.bfsk", f"rx/{eid}/bfsk",
                      lambda rx=rx_fsk: egc.ber_curve(rx, snr9),
                      _curve_points, _points_check(BFSK_RTOL)))
        ops.append(Op("outage_curve", f"rx/{eid}/outage",
                      lambda rx=rx: egc.outage_curve(rx, snr21, OUTAGE_THRESHOLD),
                      _curve_points, _points_check(0.0, DIST_ATOL)))
        model = matcher.match_parameters(spec)
        r_max = 2.5 * math.sqrt(model.mean_square)
        t_max = 3.0 * model.mean_square
        r_grid = np.linspace(r_max / PDF_POINTS, r_max, PDF_POINTS)
        t_grid = np.linspace(t_max / CDF_POINTS, t_max, CDF_POINTS)
        if smoke:
            r_grid, t_grid = r_grid[::25], t_grid[::50]
        for r in map(float, r_grid):
            ops.append(Op("pdf", f"rx/{eid}/pdf",
                          lambda r=r, model=model: gammasum.pdf(model, r),
                          lambda v, r=r: {repr(r): v}, _points_check(0.0, DIST_ATOL)))
        for t in map(float, t_grid):
            ops.append(Op("cdf", f"rx/{eid}/cdf",
                          lambda t=t, model=model: gammasum.cdf(model, t),
                          lambda v, t=t: {repr(t): v}, _points_check(0.0, DIST_ATOL)))
    argv = ["ber", "--model", "equal", "--rho", repr(RX_EQUAL_RHO),
            "--mz", str(RX_M), "--L", str(RX_L), "--snr-grid", CLI_SNR_GRID]
    ops.append(Op("cli.ber", "rx/eq/bpsk", lambda: _cli_ber(argv),
                  _cli_points, _cli_check))
    return ops


def gof_key(cell: int, k: int, smoke: bool) -> str:
    return f"{'gof-smoke' if smoke else 'gof'}/{'/'.join(map(str, GOF_CELLS[cell]))}/seed{k}"


def gof_campaign_seed(cell: int, k: int) -> int:
    return 8000 + 100 * cell + k


def mc_ops(gof_k: int, sim_seed: int, est_seed: int, smoke: bool = False) -> list[Op]:
    ops = []
    trials, per_trial = (SMOKE_GOF_TRIALS, SMOKE_GOF_PER_TRIAL) if smoke else (GOF_TRIALS, GOF_PER_TRIAL)
    for cell, (corr, rho, m_z, L) in enumerate(GOF_CELLS[:1] if smoke else GOF_CELLS):
        spec = balanced(corr, rho, m_z, L)
        seed = gof_campaign_seed(cell, gof_k)
        ops.append(Op("gof_campaign", gof_key(cell, gof_k, smoke),
                      lambda spec=spec, seed=seed: gof.gof_campaign(
                          spec, trials=trials, per_trial=per_trial, seed=seed),
                      _gof_summary, _points_check(GOF_RTOL, 1e-12)))
    scenarios = list(egc_scenarios().items())
    grid = SIM_GRID[2:3] if smoke else SIM_GRID
    n_bits = SMOKE_SIM_BITS if smoke else SIM_BITS
    for name, spec in scenarios[:1] if smoke else scenarios:
        rx = egc.ReceiverSpec(ensemble=spec, noise_psd=1.0)
        for j, snr in enumerate(grid):
            ops.append(Op("simulate_egc_ber", f"mc/sim/{name}",
                          lambda rx=rx, snr=snr, s=sim_seed + j: simkit.simulate_egc_ber(
                              rx, [snr], n_bits=n_bits, seed=s),
                          _sim_summary, _sim_check))
    spec = est_spec()
    n = SMOKE_EST_DRAWS if smoke else EST_DRAWS
    ops.append(Op("estimate_sum_moments", "mc/est/exact",
                  lambda: simkit.estimate_sum_moments(spec, n, est_seed),
                  _est_summary, _est_check))
    return ops


# -- assembled workloads ----------------------------------------------------

@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], object]
    inputs: dict
    order_rng: np.random.Generator              # the op order of each pass
    probe: list[tuple[str, EnsembleSpec]] = field(default_factory=list)

    def pass_order(self) -> list[Op]:
        """The ops of the next pass, in a fresh seed-determined order."""
        return [self.ops[i] for i in self.order_rng.permutation(len(self.ops))]


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate a workload's inputs from the seed."""
    rng = np.random.default_rng((734, WORKLOADS.index(name), seed))
    order_rng = np.random.default_rng((734, WORKLOADS.index(name), seed, 1))
    if name == "fit-sweep":
        large_orders = [int(r) for r in rng.integers(2, size=len(LARGE_CELLS))]
        arb_orders = [int(r) for r in rng.integers(2, size=1 if smoke else ARB_PAIRS)]
        ops = fit_ops(large_orders, arb_orders, smoke)
        probe = defect_probe(rng, smoke)
        warm = balanced("equal", 0.4, 2, 4)
        return Workload(name, ops, lambda: matcher.match_parameters(warm),
                        {"large_reversed": large_orders, "arbitrary_reversed": arb_orders,
                         "probe": [label for label, _ in probe]}, order_rng, probe)
    if name == "receiver-curves":
        ops = receiver_ops(smoke)
        warm = egc.ReceiverSpec(ensemble=rx_arb_spec(RX_ARB), noise_psd=1.0)
        return Workload(name, ops, lambda: egc.ber_curve(warm, [8.0]),
                        {"ensembles": [eid for eid, _ in rx_ensembles()]}, order_rng)
    if name == "mc-validate":
        gof_k = int(rng.integers(GOF_SEED_POOL))
        sim_seed, est_seed = (int(s) for s in rng.integers(2 ** 31, size=2))
        ops = mc_ops(gof_k, sim_seed, est_seed, smoke)
        warm = egc.ReceiverSpec(ensemble=egc_scenarios()["arbitrary"], noise_psd=1.0)
        return Workload(name, ops,
                        lambda: simkit.simulate_egc_ber(warm, [8.0], n_bits=10_000, seed=0),
                        {"gof_campaign_seeds": [gof_campaign_seed(c, gof_k) for c in range(len(GOF_CELLS))],
                         "sim_seed": sim_seed, "est_seed": est_seed}, order_rng)
    raise ValueError(f"unknown workload {name!r}")


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["entries"]
