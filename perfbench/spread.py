#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fit-sweep --seeds 1-10

For every metric it prints the median over the runs, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  With --trace 1 it does
the same for the per-layer metrics (which have no bound).  The summary is
written to perfbench/out/spread-<workload>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name), "values": values}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in seed_range(args.seeds):
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    summary = summarize(results, bounds)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        bound = "" if s["bound"] is None else (
            f"  bound {s['bound']} ({'ok' if s['spread'] is not None and s['spread'] <= s['bound'] / 3 else 'ABOVE a third of bound'})")
        print(f"{name:<44} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {spread}{bound}")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spread-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seeds": seed_range(args.seeds), "seconds": seconds,
        "trace": args.trace,
        "runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in results],
        "metrics": summary}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
