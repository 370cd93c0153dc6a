#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare with.

Runs every op that any seed can generate (all pool members) once and
writes ``perfbench/references.json``.  Run it from the repository root, at
the commit whose outputs are to be the reference:

    python3 perfbench/record.py

It takes a few minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import pathlib
import sys
import time
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from nakasum import moments  # noqa: E402
from run import source_identity  # noqa: E402


def record(ops, entries: dict) -> None:
    for op in ops:
        if op.kind == "cli.ber":
            continue  # checked against the BPSK curve entry of its ensemble
        entries.setdefault(op.key, {}).update(op.summarize(op.call()))


def main() -> int:
    warnings.simplefilter("ignore")
    t0 = time.perf_counter()
    entries: dict = {}
    # both branch orders of each pooled arbitrary matrix; a large cell's
    # rising power order is held to the reference of its decaying order
    record(wl.fit_ops((0,) * len(wl.LARGE_CELLS), [0] * wl.ARB_PAIRS), entries)
    record([op for op in wl.fit_ops((1,) * len(wl.LARGE_CELLS), [1] * wl.ARB_PAIRS)
            if op.kind == "fit.arbitrary"], entries)
    print(f"fit-sweep references: {time.perf_counter() - t0:.1f}s", flush=True)
    record(wl.receiver_ops(), entries)
    print(f"receiver-curves references: {time.perf_counter() - t0:.1f}s", flush=True)
    seed = wl.REFERENCE_MC_SEED
    for k in range(wl.GOF_SEED_POOL):
        record([op for op in wl.mc_ops(k, seed, seed)
                if op.kind == "gof_campaign" or (k == 0 and op.kind == "simulate_egc_ber")],
               entries)
        record([op for op in wl.mc_ops(k, seed, seed, smoke=True)
                if op.kind == "gof_campaign"], entries)
    spec = wl.est_spec()
    entries["mc/est/exact"] = {"m2": moments.second_moment_Z(spec),
                               "m4": moments.fourth_moment_Z(spec)}
    print(f"mc-validate references: {time.perf_counter() - t0:.1f}s", flush=True)
    doc = {
        "schema": "perfbench-references/1",
        "source": source_identity(),
        "monte_carlo_seed": seed,
        "entries": dict(sorted(entries.items())),
    }
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {wl.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
