"""Tests of the benchmark itself.

    python -m pytest perfbench/test_smoke.py -q

The smoke tests run every workload at a tiny size, untraced and traced, and
assert that every end-to-end and per-layer metric declared in
BENCHMARK.json is emitted with its unit.  The remaining tests cover the
scaling of times to the reference speed, the tracer's bookkeeping, the
output checks, and the refusal to run without the package sources.
"""
from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMEOUT_S = 300

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))


def run_bench(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if trace == 0:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_times_are_scaled_to_the_reference_speed():
    import calib
    import run

    ref = calib.REFERENCE_S
    # two passes of two ops; the second ran at half the reference speed
    stats = run.latency_stats({
        "latencies": [0.1, 0.3, 0.2, 0.6], "kinds": ["a", "b", "a", "b"],
        "pass_times": [0.4, 0.8], "pass_cal": [ref, 2 * ref], "failures": []})
    assert stats["speed_factors"] == [1.0, 0.5]
    assert stats["pass_s"] == pytest.approx(0.4)
    assert stats["per_kind"]["a"]["median_ms"] == pytest.approx(100.0)
    assert stats["per_kind"]["b"]["max_ms"] == pytest.approx(300.0)
    assert stats["raw"]["pass_s"] == pytest.approx(0.6)


def test_tracer_spans_self_time_and_uninstall():
    import nakasum
    from nakasum import moments
    from tracer import Tracer

    original = moments.gauss_2f1
    spec = nakasum.EnsembleSpec(fading_m=1, powers=(1.0,) * 4,
                                correlation=nakasum.ExponentialCorrelation(0.5))
    tracer = Tracer()
    tracer.install()
    try:
        assert moments.gauss_2f1 is not original
        model = tracer.op(lambda: nakasum.match_parameters(spec))
    finally:
        tracer.uninstall()
    assert moments.gauss_2f1 is original
    assert model.m_r == nakasum.match_parameters(spec).m_r

    summary = tracer.summary()
    funcs = summary["funcs"]
    assert funcs["bench.op"]["calls"] == 1
    assert funcs["matcher.match_parameters"]["calls"] == 1
    assert funcs["moments.joint_moment_quad"]["calls"] == 1
    assert funcs["specfun.gauss_2f1"]["calls"] > 0
    # self times partition the root span's duration
    assert math.isclose(sum(summary["layers"].values()), funcs["bench.op"]["s"],
                        rel_tol=1e-9)
    assert summary["pairs"][("matcher.match_parameters", "moments.fourth_moment_Z")] == 1


def test_tracer_counts_errors_once_per_layer():
    import nakasum
    from tracer import Tracer

    spec = nakasum.EnsembleSpec(fading_m=1, powers=(1.0,) * 4,
                                correlation=nakasum.EqualCorrelation(0.9999))
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(nakasum.TruncationError):
            nakasum.match_parameters(spec)
    finally:
        tracer.uninstall()
    assert tracer.errors[("specfun", "TruncationError")] == 1
    assert tracer.errors[("moments", "TruncationError")] == 1
    assert tracer.errors[("matcher", "TruncationError")] == 1


def test_checks_reject_perturbed_outputs():
    import workloads

    refs = workloads.load_references()
    for name in WORKLOADS:
        wl = workloads.build(name, seed=5, smoke=True)
        kinds_seen = set()
        for op in wl.ops:
            if op.kind in kinds_seen:
                continue
            kinds_seen.add(op.kind)
            summary = op.summarize(op.call())
            ref = refs.get(op.key)
            assert op.check(summary, ref) is None, (op.kind, op.key)
            bad = {k: (v if k == "exit" else
                       [x * 1.5 for x in v] if isinstance(v, list) else v * 1.5 + 1e-3)
                   for k, v in summary.items()}
            assert op.check(bad, ref) is not None, (op.kind, op.key)
