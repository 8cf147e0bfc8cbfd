#!/usr/bin/env python3
"""Checks of the dsem_bench binary, registered as ctest cases of its package.

    check.py smoke <dsem_bench> <BENCHMARK.json> <work-dir>
        Runs every workload at --smoke sizes, untraced and traced. Every
        check must pass, and the printed metric names and units must be
        exactly those BENCHMARK.json lists.

    check.py determinism <dsem_bench> <work-dir>
        Runs serve_burst, serve_churn and sched_stream at --smoke sizes
        under DSEM_THREADS=1 and 4. The output digests and the exact
        metrics must be equal.
"""

import json
import os
import subprocess
import sys

# Metrics that are pure functions of the seed: equal for any thread count.
EXACT = [
    "quality_ratio",
    "serve.hit_rate", "serve.misses", "serve.mean_batch_size",
    "serve.shed_rate", "serve.cache_invalidations",
    "sched.infeasible", "sched.deadline_misses",
    "sim.launches", "sweep.grid_points", "ml.fit_rows", "obs.ledger_bytes",
]


def run(binary, workload, trace, work_dir, threads=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("DSEM_TRACE", "DSEM_METRICS", "DSEM_LEDGER")}
    if threads is not None:
        env["DSEM_THREADS"] = str(threads)
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--smoke", "--work-dir", work_dir]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    return result, digest


def smoke(binary, benchmark_json, work_dir):
    with open(benchmark_json) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(binary, workload, trace, work_dir)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"{where}: checks failed: {result}")
            if result["attempted"] < 1:
                sys.exit(f"{where}: no operation attempted")
            if printed != expected:
                sys.exit(f"{where}: metrics {printed} != {expected}")
            print(f"ok {where}: {result['attempted']} operations")


def determinism(binary, work_dir):
    for workload in ("serve_burst", "serve_churn", "sched_stream"):
        for trace in (0, 1):
            seen = []
            for threads in (1, 4):
                result, digest = run(binary, workload, trace, work_dir,
                                     threads)
                exact = {k: v["value"] for k, v in result["metrics"].items()
                         if k in EXACT}
                seen.append((digest, exact))
            if seen[0] != seen[1]:
                sys.exit(f"{workload} --trace {trace}: DSEM_THREADS=1 gave "
                         f"{seen[0]}, DSEM_THREADS=4 gave {seen[1]}")
            print(f"ok {workload} --trace {trace}: digest {seen[0][0]}")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "smoke":
        smoke(*sys.argv[2:])
    elif len(sys.argv) == 4 and sys.argv[1] == "determinism":
        determinism(*sys.argv[2:])
    else:
        sys.exit(__doc__)
