#!/usr/bin/env python3
"""Benchmark of the nakasum pipeline.

    python3 perfbench/run.py --workload fit-sweep --seed 1 --seconds 40 --trace 0

Each run drives one workload (fit-sweep, receiver-curves, mc-validate) as
a closed loop from one single-threaded process: every op is one public
library call, issued only after the previous call has returned.  A pass is
one sweep over the workload's op list, in an order drawn from the seed
afresh for every pass; passes repeat while the next one is expected to end
within --seconds (at least one pass always runs).  Every op's output is
checked after its pass, outside the timed region; a failed check or a
raised error counts as a failed op and the run goes on.  Pass, op and
setup times are stated at the reference speed of calib.py.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of the
time untraced and half with the span tracer installed, and reports the
per-layer metrics (per pass, from the traced half) together with the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A full record (environment, inputs, per-op-kind
latencies, failures, known-defect probe) is written to perfbench/out/.

--smoke runs every op kind at a tiny size, for tests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

# one thread: numpy's BLAS and OpenMP pools are sized before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# same names as workloads.WORKLOADS; arguments are parsed before the
# package (and numpy) is imported, so that import counts toward setup_s
WORKLOADS = ("fit-sweep", "receiver-curves", "mc-validate")
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms",
             "op_p95_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and a single setup, for tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one setup and print it as JSON (used internally)")
    return p.parse_args(argv)


# -- identity and environment -------------------------------------------

def _git_head(root: pathlib.Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_identity() -> dict:
    """Git commit when available, and a hash of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nakasum").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": _git_head(ROOT), "src_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# -- setup ----------------------------------------------------------------

def setup(args):
    """Import the package, generate the inputs and run one warm-up op."""
    if not (SRC / "nakasum" / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nakasum

    if pathlib.Path(nakasum.__file__).resolve().parent != (SRC / "nakasum").resolve():
        raise SystemExit(f"error: imported nakasum from {nakasum.__file__}, not {SRC}")
    import workloads

    wl = workloads.build(args.workload, args.seed, args.smoke)
    wl.warmup()
    return wl, time.perf_counter() - t0


def speed_factor() -> float:
    """calib.REFERENCE_S over the mean of 20 calibration samples, taken
    after 10 that warm up the numpy functions they call."""
    import calib

    for _ in range(10):
        calib.sample()
    return calib.REFERENCE_S / statistics.fmean(calib.sample() for _ in range(20))


def child_setups(args, count: int) -> list[tuple[float, float]]:
    """Time ``count`` further setups, each in a fresh interpreter, with the
    speed factor measured right after each."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((res["setup_s"], res["speed_factor"]))
    return times


# -- measurement ------------------------------------------------------------

def measure(wl, refs: dict, seconds: float, tracer=None) -> dict:
    """Closed-loop passes over the workload's ops until the next pass would
    overrun.  Calibration samples are taken before each pass and between
    ops at least every calib.INTERVAL_S; their time is left out of the
    op and pass times."""
    from time import perf_counter

    import calib

    latencies: list[float] = []
    kinds: list[str] = []
    pass_times: list[float] = []
    pass_cal: list[float] = []
    failures: list[dict] = []
    begin = perf_counter()
    while True:
        ops = wl.pass_order()
        outputs = []
        cal = [calib.sample()]
        t_pass = last_cal = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                out = tracer.op(op.call) if tracer is not None else op.call()
                err = None
            except Exception as exc:  # a raised error is a failed op
                out, err = None, exc
            t1 = perf_counter()
            latencies.append(t1 - t0)
            outputs.append((out, err))
            if t1 - last_cal >= calib.INTERVAL_S:
                cal.append(calib.sample())
                last_cal = perf_counter()
        pass_times.append(perf_counter() - t_pass - sum(cal[1:]))
        pass_cal.append(statistics.fmean(cal))
        for op, (out, err) in zip(ops, outputs):
            kinds.append(op.kind)
            if err is not None:
                msg = f"{type(err).__name__}: {err}"
            else:
                msg = op.check(op.summarize(out), refs.get(op.key))
            if msg is not None:
                failures.append({"kind": op.kind, "key": op.key, "error": msg[:300]})
        elapsed = perf_counter() - begin
        if elapsed + statistics.median(pass_times) > seconds:
            break
    return {"latencies": latencies, "kinds": kinds, "pass_times": pass_times,
            "pass_cal": pass_cal, "failures": failures}


def latency_stats(run: dict) -> dict:
    """Pass and op times at the reference speed of calib.py: each pass's
    times are scaled by REFERENCE_S over its mean calibration sample.  The
    raw wall-clock figures are kept next to them."""
    import numpy as np

    import calib

    factors = calib.REFERENCE_S / np.asarray(run["pass_cal"])
    raw_ms = np.asarray(run["latencies"]) * 1e3
    lat_ms = raw_ms * np.repeat(factors, raw_ms.size // factors.size)
    passes = np.asarray(run["pass_times"]) * factors
    p50, p95 = np.percentile(lat_ms, [50, 95])
    per_kind = {}
    kinds = np.asarray(run["kinds"])
    for kind in dict.fromkeys(run["kinds"]):
        sel = lat_ms[kinds == kind]
        per_kind[kind] = {"n": int(sel.size), "median_ms": float(np.median(sel)),
                          "max_ms": float(sel.max())}
    raw_p50, raw_p95 = np.percentile(raw_ms, [50, 95])
    return {"pass_s": float(np.median(passes)),
            "passes": len(run["pass_times"]),
            "op_p50_ms": float(p50), "op_p95_ms": float(p95),
            "ops": int(lat_ms.size), "beyond_p95": int(np.sum(lat_ms > p95)),
            "speed_factors": factors.tolist(),
            "raw": {"pass_s": statistics.median(run["pass_times"]),
                    "op_p50_ms": float(raw_p50), "op_p95_ms": float(raw_p95)},
            "per_kind": per_kind}


def _origin(exc: BaseException) -> str:
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_globals.get("__name__", "?") if tb is not None else "?"


def run_probe(probe) -> list[dict]:
    """Attempt each known-defect input once (untimed, not part of a pass)."""
    from nakasum import matcher

    outcomes = []
    for label, spec in probe:
        t0 = time.perf_counter()
        try:
            model = matcher.match_parameters(spec)
            outcome = {"label": label, "raised": None, "m_r": model.m_r}
        except Exception as exc:  # the probe records failures, it does not stop
            outcome = {"label": label, "raised": type(exc).__name__,
                       "origin": _origin(exc), "message": str(exc)[:200]}
        outcome["s"] = time.perf_counter() - t0
        outcomes.append(outcome)
    return outcomes


# -- per-layer metrics ---------------------------------------------------------

# (metric, function, field) read from the span summary, per traced pass
FUNC_METRICS = [
    ("specfun.gauss_2f1.calls", "specfun.gauss_2f1", "calls"),
    ("specfun.gauss_2f1.self_s", "specfun.gauss_2f1", "self_s"),
    ("specfun.lauricella_fa.calls", "specfun.lauricella_fa", "calls"),
    ("specfun.lauricella_fa.self_s", "specfun.lauricella_fa", "self_s"),
    ("specfun.kummer_1f1.calls", "specfun.kummer_1f1", "calls"),
    ("linalg.greens_fit.calls", "linalg.greens_fit", "calls"),
    ("linalg.greens_fit.self_s", "linalg.greens_fit", "self_s"),
    ("linalg.eigenvalues_sym.self_s", "linalg.eigenvalues_sym", "self_s"),
    ("linalg.principal_submatrix_inverse.calls", "linalg.principal_submatrix_inverse", "calls"),
    ("linalg.principal_submatrix_inverse.self_s", "linalg.principal_submatrix_inverse", "self_s"),
    ("moments.fourth_moment_Z.self_s", "moments.fourth_moment_Z", "self_s"),
    ("moments.second_moment_Z.self_s", "moments.second_moment_Z", "self_s"),
    ("moments.joint_moment_triple.calls", "moments.joint_moment_triple", "calls"),
    ("moments.joint_moment_quad.calls", "moments.joint_moment_quad", "calls"),
    ("moments.w_coefficient.calls", "moments.w_coefficient", "calls"),
    ("matcher.match_parameters.calls", "matcher.match_parameters", "calls"),
    ("matcher.match_parameters.s", "matcher.match_parameters", "s"),
    ("gammasum.mgf.calls", "gammasum.mgf", "calls"),
    ("gammasum.mgf.self_s", "gammasum.mgf", "self_s"),
    ("gammasum.cdf.calls", "gammasum.cdf", "calls"),
    ("gammasum.cdf.self_s", "gammasum.cdf", "self_s"),
    ("gammasum.pdf.calls", "gammasum.pdf", "calls"),
    ("gammasum.pdf.self_s", "gammasum.pdf", "self_s"),
    ("egc.ber_bpsk.calls", "egc.ber_bpsk", "calls"),
    ("egc.ber_bpsk.self_s", "egc.ber_bpsk", "self_s"),
    ("egc.ber_bpsk.s", "egc.ber_bpsk", "s"),
    ("egc.outage.calls", "egc.outage", "calls"),
    ("simkit.sample_sum.self_s", "simkit.sample_sum", "self_s"),
    ("simkit.simulate_egc_ber.self_s", "simkit.simulate_egc_ber", "self_s"),
    ("simkit.estimate_sum_moments.self_s", "simkit.estimate_sum_moments", "self_s"),
    ("gof.gof_campaign.self_s", "gof.gof_campaign", "self_s"),
    ("gof.model_envelope_cdf.s", "gof.model_envelope_cdf", "s"),
    ("gof.ks_test.calls", "gof.ks_test", "calls"),
    ("gof.ks_test.self_s", "gof.ks_test", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]
FIELD_UNITS = {"calls": "count/pass", "self_s": "s/pass", "s": "s/pass"}


def layer_metrics(summary: dict, counters: dict, errors: dict, passes: int,
                  untraced_mean_s: float, traced_mean_s: float,
                  probe: list[dict]) -> dict:
    """Per-layer metrics per traced pass.  The overhead compares mean pass
    times, like trace.self_sum_s, so that the layers' self times reconcile
    with the untraced pass: self_sum ~ untraced mean * (1 + overhead)."""
    funcs, layers, pairs = summary["funcs"], summary["layers"], summary["pairs"]
    out = {}
    for metric, func, fld in FUNC_METRICS:
        out[metric] = (funcs[func][fld] / passes, FIELD_UNITS[fld])
    for layer, self_s in layers.items():
        out[f"{layer}.self_s"] = (self_s / passes, "s/pass")
    ber_calls = funcs["egc.ber_bpsk"]["calls"]
    simkit_self = layers["simkit"]
    out.update({
        "specfun.lauricella_fa.fallbacks": (counters["fa_fallbacks"] / passes, "count/pass"),
        "moments.truncation_errors": (errors.get(("moments", "TruncationError"), 0), "count"),
        "matcher.fit_clamp_warnings": (counters["fit_clamp_warnings"] / passes, "count/pass"),
        "gammasum.accuracy_errors": (errors.get(("gammasum", "AccuracyError"), 0), "count"),
        "egc.mgf_evals_per_ber": (
            pairs.get(("egc.ber_bpsk", "gammasum.mgf"), 0) / ber_calls if ber_calls else 0.0,
            "count"),
        "gof.model_envelope_cdf.cdf_calls": (
            pairs.get(("gof.model_envelope_cdf", "gammasum.cdf"), 0) / passes, "count/pass"),
        "simkit.draws": (counters["draws"] / passes, "count/pass"),
        "simkit.draws_per_s": (counters["draws"] / simkit_self if simkit_self > 0 else 0.0, "1/s"),
        "trace.overhead_frac": (traced_mean_s / untraced_mean_s - 1.0, "ratio"),
        "trace.self_sum_s": (sum(layers.values()) / passes, "s/pass"),
        "trace.spans": (summary["spans"] / passes, "count/pass"),
        "probe.failed_frac": (
            sum(1 for p in probe if p["raised"]) / len(probe) if probe else 0.0, "ratio"),
    })
    return {name: {"value": float(v), "unit": u} for name, (v, u) in out.items()}


# -- reporting ----------------------------------------------------------------

def print_run(label: str, stats: dict, run: dict) -> None:
    n = stats["ops"]
    failed = len(run["failures"])
    raw = stats["raw"]
    factors = stats["speed_factors"]
    print(f"  [{label}] pass_s {stats['pass_s']:.4f} s over {stats['passes']} passes; "
          f"op_p50_ms {stats['op_p50_ms']:.3f} / op_p95_ms {stats['op_p95_ms']:.3f} ms "
          f"over {n} ops ({stats['beyond_p95']} beyond p95); "
          f"failed_frac {failed / n:.4f} ({failed} of {n})")
    print(f"  [{label}] raw wall clock: pass_s {raw['pass_s']:.4f} s; op_p50_ms "
          f"{raw['op_p50_ms']:.3f} / op_p95_ms {raw['op_p95_ms']:.3f} ms; speed factor "
          f"per pass {min(factors):.3f}..{max(factors):.3f}")


def print_report(args, env, ident, wl, setup_times, setup_raw, e2e, stats, runs, probe,
                 layer):
    print(f"nakasum benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', smoke' if args.smoke else ''}")
    print("  closed loop, 1 client, threads=1; each op is one public library call")
    print("  pass and op times are stated at the reference speed of perfbench/calib.py")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    print(f"  source {json.dumps(ident, sort_keys=True)}")
    print(f"  inputs {json.dumps(wl.inputs, sort_keys=True)}")
    print(f"  setup_s samples {[round(t, 4) for t in setup_times]}; "
          f"raw wall clock {[round(t, 4) for t in setup_raw]}")
    for label, run in runs.items():
        print_run(label, stats[label], run)
    if e2e:
        main = stats["untraced"]
        counts = {"setup_s": f"median of {len(setup_times)} setups",
                  "pass_s": f"median of {main['passes']} passes",
                  "op_p50_ms": f"{main['ops']} ops",
                  "op_p95_ms": f"{main['ops']} ops, {main['beyond_p95']} beyond p95",
                  "peak_rss_mb": "1 process"}
        print(f"  {'metric':<14}{'value':>14}  {'unit':<6}samples")
        for name, m in e2e.items():
            print(f"  {name:<14}{m['value']:>14.4f}  {m['unit']:<6}{counts[name]}")
        print(f"  {'failed_frac':<14}{len(runs['untraced']['failures']) / main['ops']:>14.4f}"
              f"  {'1':<6}{main['ops']} ops")
    for kind, k in stats["untraced"]["per_kind"].items():
        print(f"    op {kind:<22} n={k['n']:<5} median {k['median_ms']:10.3f} ms"
              f"  max {k['max_ms']:10.3f} ms")
    for run in runs.values():
        for f in run["failures"][:10]:
            print(f"  FAILED {f['kind']} {f['key']}: {f['error']}")
    if probe:
        raised = [p for p in probe if p["raised"]]
        print(f"  known-defect probe: {len(raised)} of {len(probe)} inputs raised")
        for p in probe:
            what = (f"{p['raised']} from {p['origin']}" if p["raised"]
                    else f"ok, m_r={p['m_r']:.6f}")
            print(f"    {p['label']:<32} {what} ({p['s']:.3f} s)")
    if layer:
        untraced_mean = statistics.fmean(runs["untraced"]["pass_times"])
        print(f"  layer self times sum to {layer['trace.self_sum_s']['value']:.4f} s per traced "
              f"pass; untraced mean pass {untraced_mean:.4f} s; "
              f"trace.overhead_frac {layer['trace.overhead_frac']['value']:+.4f}")
        for name, m in layer.items():
            print(f"    {name:<44}{m['value']:>16.6g}  {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, setup_s = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "speed_factor": speed_factor()}))
        return 0

    import gc
    import warnings

    import workloads
    from tracer import Tracer

    warnings.simplefilter("ignore")
    setups = [(setup_s, speed_factor())]
    setups += child_setups(args, 1 if args.smoke else SETUP_CHILDREN)
    setup_raw = [raw for raw, _ in setups]
    setup_times = [raw * factor for raw, factor in setups]
    refs = workloads.load_references()
    env, ident = environment(), source_identity()
    # keep the harness's own long-lived objects out of the collector's scans
    gc.collect()
    gc.freeze()

    runs, layer, e2e, spans_path = {}, None, None, None
    if args.trace == 0:
        runs["untraced"] = measure(wl, refs, args.seconds)
        probe = run_probe(wl.probe)
    else:
        runs["untraced"] = measure(wl, refs, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            runs["traced"] = measure(wl, refs, args.seconds / 2, tracer)
            summary = tracer.summary()
            counters = {"draws": tracer.draws, "fa_fallbacks": tracer.fa_fallbacks,
                        "fit_clamp_warnings": tracer.fit_clamp_warnings}
            mark = tracer.mark()
            probe = run_probe(wl.probe)
            tracer.truncate(mark)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)

    stats = {label: latency_stats(run) for label, run in runs.items()}
    if args.trace == 0:
        values = {"setup_s": statistics.median(setup_times),
                  "pass_s": stats["untraced"]["pass_s"],
                  "op_p50_ms": stats["untraced"]["op_p50_ms"],
                  "op_p95_ms": stats["untraced"]["op_p95_ms"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        e2e = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        metrics = e2e
    else:
        layer = layer_metrics(summary, counters, tracer.errors, stats["traced"]["passes"],
                              statistics.fmean(runs["untraced"]["pass_times"]),
                              statistics.fmean(runs["traced"]["pass_times"]), probe)
        metrics = layer

    attempted = sum(len(r["kinds"]) for r in runs.values())
    failed = sum(len(r["failures"]) for r in runs.values())
    print_report(args, env, ident, wl, setup_times, setup_raw, e2e, stats, runs, probe, layer)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "args": vars(args), "environment": env, "source": ident, "inputs": wl.inputs,
        "setup_times_s": setup_times, "setup_raw_s": setup_raw,
        "runs": {label: {**s, "pass_times_s": runs[label]["pass_times"],
                         "failures": runs[label]["failures"]}
                 for label, s in stats.items()},
        "probe": probe, "metrics": metrics,
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
