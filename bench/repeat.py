#!/usr/bin/env python3
"""Run the end-to-end suite N times and check it repeats within its bounds.

    python3 bench/repeat.py 10     # run i uses --seed i, as the driver does

Prints, per workload × end-to-end metric, min / median / max, the largest
pairwise deviation ``(max − min) / min`` and the quartile spread
``(Q3 − Q1) / median`` (``statistics.quantiles(values, n=4)``).  Exits
non-zero if a run failed or if any metric's quartile spread — ``setup_s``
included — exceeds its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv) -> int:
    runs = int(argv[0]) if argv else 5
    contract = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in contract["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}

    values = {(w, m): [] for w in workloads for m in bounds}
    status = 0
    for seed in range(1, runs + 1):
        for workload in workloads:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"seed {seed} of {workload} failed:\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric in bounds:
                values[workload, metric].append(result["metrics"][metric]["value"])
            print(f"seed {seed} {workload}: " + "  ".join(
                f"{m}={values[workload, m][-1]:.4g}" for m in bounds), flush=True)

    print(f"\n{'workload':14s} {'metric':14s} {'min':>10s} {'median':>10s} {'max':>10s} "
          f"{'max dev':>8s} {'IQR/med':>8s} {'bound':>6s}")
    for (workload, metric), series in values.items():
        if len(series) < 2:
            continue
        median = statistics.median(series)
        deviation = (max(series) - min(series)) / min(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        over = spread > bounds[metric]
        status |= int(over)
        print(f"{workload:14s} {metric:14s} {min(series):10.4g} {median:10.4g} "
              f"{max(series):10.4g} {deviation:8.1%} {spread:8.1%} {bounds[metric]:6.0%}"
              f"{'  OVER' if over else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
