#!/usr/bin/env python3
"""Compose perfbench/baseline.json from finished benchmark runs.

Run first, from the repository root:

    for w in fit-sweep receiver-curves mc-validate; do
        python3 perfbench/spread.py --workload $w --seeds 1-10
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 1
    done
    python3 perfbench/baseline.py

The baseline holds, per workload, the end-to-end medians and quartiles over
the seeds, the failed-op fraction, the per-op-kind median latencies (at
the reference speed of calib.py, like the end-to-end times), the
per-layer metrics of the traced run, and the known-defect probe outcomes;
it also maps each row of the ROADMAP baseline table to the op or layer
metric that measures it.
"""
from __future__ import annotations

import json
import pathlib
import statistics
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
TRACE_SEED = 1

# ROADMAP baseline row -> (workload, source, name, divisor, note); layer
# rows divide a per-pass traced value by the calls per pass
ROADMAP_ROWS = [
    ("equal-correlation fit, L>=4 (~110 ms)", "fit-sweep", "op", "fit.table.equal-L4", 1,
     "published cells, L=4, rho in 0..0.8, m_z 1..3"),
    ("exponential-correlation fit, L=8 (170 ms)", "fit-sweep", "op", "fit.large.exp-L8", 1,
     "rho=0.7, m_z=2, powers exp(-0.3 k) in seeded order"),
    ("exponential-correlation fit, L=16 (1.6 s)", "fit-sweep", "op", "fit.large.exp-L16", 1,
     "rho=0.5, m_z=1, powers exp(-0.3 k) in seeded order"),
    ("scalar cdf (~2 ms)", "receiver-curves", "op", "cdf", 1, "one threshold per op"),
    ("ber_bpsk (164 ms)", "receiver-curves", "per_call", "egc.ber_bpsk", 1,
     "inclusive egc.ber_bpsk.s over egc.ber_bpsk.calls"),
    ("model_envelope_cdf (2.5 s)", "mc-validate", "layer", "gof.model_envelope_cdf.s", 2,
     "two GoF cells per pass"),
    ("GoF cell, 100x1e4 (2.7 s)", "mc-validate", "op", "gof_campaign", 1, ""),
    ("sample_sum, 1e6 draws (0.7 s)", "mc-validate", "layer", "simkit.sample_sum.self_s", 2,
     "100 trials x 1e4 draws per GoF cell, two cells per pass"),
    ("nakasum tables via CLI (2.5 s)", "fit-sweep", "kinds", "fit.table.", 1,
     "the 90 published cells through match_parameters, summed per pass"),
]


def load(path: pathlib.Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def workload_baseline(name: str) -> dict:
    spread = load(OUT_DIR / f"spread-{name}-trace0.json")
    results = [load(OUT_DIR / f"result-{name}-seed{s}-trace0.json") for s in spread["seeds"]]
    traced = load(OUT_DIR / f"result-{name}-seed{TRACE_SEED}-trace1.json")
    kinds: dict[str, list[float]] = {}
    per_pass: dict[str, float] = {}
    for res in results:
        for kind, k in res["runs"]["untraced"]["per_kind"].items():
            kinds.setdefault(kind, []).append(k["median_ms"])
            per_pass[kind] = k["n"] / res["runs"]["untraced"]["passes"]
    attempted = sum(r["attempted"] for r in spread["runs"])
    failed = sum(r["failed"] for r in spread["runs"])
    probe: dict[str, dict] = {}
    for res in results:
        for p in res["probe"]:
            entry = probe.setdefault(p["label"], {"attempts": 0, "raised": {}})
            entry["attempts"] += 1
            if p["raised"]:
                key = f"{p['raised']} from {p['origin']}"
                entry["raised"][key] = entry["raised"].get(key, 0) + 1
    probe_attempts = sum(e["attempts"] for e in probe.values())
    probe_raised = sum(sum(e["raised"].values()) for e in probe.values())
    return {
        "seeds": spread["seeds"],
        "run_seconds": spread["seconds"],
        "end_to_end": {k: {f: v[f] for f in ("unit", "median", "q1", "q3", "spread", "bound")}
                       for k, v in spread["metrics"].items()},
        "failed_frac": failed / attempted,
        "ops_attempted": attempted,
        "op_kinds": {k: {"per_pass": per_pass[k], "median_ms": statistics.median(v)}
                     for k, v in kinds.items()},
        "per_layer": {k: v for k, v in traced["metrics"].items()},
        "traced_run": {"seed": TRACE_SEED,
                       "untraced_pass_s": traced["runs"]["untraced"]["pass_s"],
                       "traced_pass_s": traced["runs"]["traced"]["pass_s"]},
        "known_defect_probe": {"failed_frac": probe_raised / probe_attempts if probe_attempts else 0.0,
                               "attempted": probe_attempts, "inputs": probe},
        "environment": results[0]["environment"],
        "source": results[0]["source"],
    }


def roadmap_rows(base: dict) -> list[dict]:
    rows = []
    for row, workload, source, name, divisor, note in ROADMAP_ROWS:
        wb = base[workload]
        if source == "op":
            value, unit = wb["op_kinds"][name]["median_ms"] / divisor, "ms per op"
        elif source == "kinds":
            value = sum(k["median_ms"] * k["per_pass"] for kind, k in wb["op_kinds"].items()
                        if kind.startswith(name)) / 1e3
            unit = "s per pass"
        elif source == "per_call":
            layer = wb["per_layer"]
            value = layer[f"{name}.s"]["value"] / layer[f"{name}.calls"]["value"] * 1e3
            unit = "ms per call (traced)"
        else:
            value, unit = wb["per_layer"][name]["value"] / divisor, "s per GoF cell (traced)"
        rows.append({"roadmap_row": row, "workload": workload, "measured_by": name,
                     "value": value, "unit": unit, "note": note})
    return rows


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    base = {w["name"]: workload_baseline(w["name"]) for w in spec["workloads"]}
    doc = {"schema": "perfbench-baseline/1", "workloads": base,
           "roadmap_table": roadmap_rows(base)}
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for row in doc["roadmap_table"]:
        print(f"{row['roadmap_row']:<44} {row['workload']:<16} {row['value']:10.3f} {row['unit']}")
    print(f"wrote {path.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
