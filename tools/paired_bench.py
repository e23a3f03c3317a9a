#!/usr/bin/env python
"""Paired parent/change runs of one benchmark workload.

Usage (from the repository root)::

    python3 tools/paired_bench.py <parent-rev> --workload xmark_warm --pairs 10

Exports ``<parent-rev>`` with ``git archive`` into a temporary directory,
then runs ``python3 bench/run.py --workload W --trace 0 --out FILE`` there
and in the working tree, one pair at a time, alternating which side runs
first.  Prints, per end-to-end metric of ``BENCHMARK.json``, the parent's
median and quartile spread, the change's median and how many pairs the
change won; the last line is one JSON object, metric name → the
``paired_runs`` record a ``BENCH_<pr>.json`` claim carries.

Only subprocesses touch the benchmark: nothing under ``bench/`` is
imported, so the tool runs any parent the harness can.  Exit status 1 when
a run fails or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _figure(value: float) -> float:
    """Five significant digits: what a claim quotes."""
    return float(f"{value:.5g}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    parent_runs: list[dict[str, float]],
    change_runs: list[dict[str, float]],
    metrics: list[dict],
    how: str,
) -> dict[str, dict]:
    """The ``paired_runs`` record of every metric.

    ``parent_runs[i]`` and ``change_runs[i]`` are pair ``i``'s metric
    values by name; ``metrics`` are ``BENCHMARK.json``'s ``end_to_end``
    entries (``name``, ``better``).  A pair is a win when the change is
    strictly better in the metric's direction; a metric either side did
    not report (``None``) is left out.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same, non-zero number of runs on each side")
    summary = {}
    for metric in metrics:
        name = metric["name"]
        pairs = [
            (parent[name], change[name])
            for parent, change in zip(parent_runs, change_runs)
            if parent.get(name) is not None and change.get(name) is not None
        ]
        if not pairs:
            continue
        parent_values = [parent for parent, _ in pairs]
        change_values = [change for _, change in pairs]
        if metric["better"] == "higher":
            wins = sum(change > parent for parent, change in pairs)
        else:
            wins = sum(change < parent for parent, change in pairs)
        p1, p50, p3 = _quartiles(parent_values)
        c1, c50, c3 = _quartiles(change_values)
        summary[name] = {
            "pairs": len(pairs),
            "wins": wins,
            "parent_median": _figure(p50),
            "parent_iqr": _figure(p3 - p1),
            "parent_range": f"{_figure(p1)}..{_figure(p3)} (quartiles)",
            "change_median": _figure(c50),
            "change_range": f"{_figure(c1)}..{_figure(c3)} (quartiles)",
            "how": how,
        }
    return summary


def _export(rev: str, target: Path) -> None:
    """``rev``'s tree, as ``git archive`` writes it, unpacked into ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def _run(root: Path, workload: str, out: Path, seed) -> dict[str, float]:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    command += ["--out", str(out)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0 or not out.exists():
        raise SystemExit(f"{root}: bench/run.py failed\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    document = json.loads(out.read_text(encoding="utf-8"))
    if not document.get("correct"):
        raise SystemExit(f"{root}: the run reported correct=false")
    return {name: entry["value"] for name, entry in document["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="passed to bench/run.py")
    options = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", options.parent],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    try:
        parent_root = scratch / "parent"
        _export(rev, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        runs: dict[str, list] = {"parent": [], "change": []}
        for pair in range(options.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = scratch / f"{side}-{pair}.json"
                runs[side].append(_run(sides[side], options.workload, out, options.seed))
            print(
                f"# pair {pair + 1}: "
                + ", ".join(
                    f"{side} {runs[side][-1].get('queries_per_s', 0):.1f} q/s" for side in order
                ),
                flush=True,
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    how = (
        f"python3 bench/run.py --workload {options.workload} --trace 0 on the parent ({rev}, "
        "exported with git archive) and on the working tree, alternating which side runs first"
    )
    summary = summarize(runs["parent"], runs["change"], metrics, how)
    for name, record in summary.items():
        print(
            f"{name:16s} parent {record['parent_median']:>10} (IQR {record['parent_iqr']})"
            f"  change {record['change_median']:>10}  wins {record['wins']}/{record['pairs']}"
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
