#!/usr/bin/env python
"""Paired parent/change runs of benchmark workloads.

Usage (from the repository root)::

    python3 tools/paired_bench.py <parent-rev> --workload xmark_warm --pairs 10
    python3 tools/paired_bench.py <parent-rev> --workload xmark_live --workload dblp_service

Exports ``<parent-rev>`` with ``git archive`` into a temporary directory,
then runs ``python3 bench/run.py --workload W --trace 0 --out FILE`` there
and in the working tree, one pair at a time — every ``--workload`` in
turn within a pair — alternating which side runs first.  Prints one block
per workload: per end-to-end metric of ``BENCHMARK.json``, the parent's
median and quartile spread, the change's median, how many pairs the
change won and the verdict against the metric's bound (:func:`verdict`),
then the operations each side attempted and failed; the last line is one
JSON object, workload → metric name → the ``paired_runs`` record a
``BENCH_<pr>.json`` claim carries.

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


def verdict(
    parent_values: list[float], change_values: list[float], better: str, bound: float
) -> str:
    """What paired runs show about one metric, by the sandbox rule.

    ``gain``: the change wins at least nine tenths of the pairs (ties count
    for neither side) and the medians differ, in the metric's direction, by
    more than the parent's quartile spread.  ``worse``: the change's median
    is past the parent's by more than ``bound`` (a fraction of the parent's
    median).  ``unresolved``: the parent's quartile spread is wider than
    that bound, unless every change run reads better than every parent run.
    ``within bound``: none of these.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (change - parent) > 0 for parent, change in zip(parent_values, change_values))
    p1, p50, p3 = _quartiles(parent_values)
    _, c50, _ = _quartiles(change_values)
    if 10 * wins >= 9 * len(parent_values) and sign * (c50 - p50) > p3 - p1:
        return "gain"
    if sign * (p50 - c50) > bound * abs(p50):
        return "worse"
    if p3 - p1 > bound * abs(p50):
        best_parent = max(parent_values) if sign > 0 else min(parent_values)
        worst_change = min(change_values) if sign > 0 else max(change_values)
        if not sign * (worst_change - best_parent) > 0:
            return "unresolved"
    return "within bound"


def summarize(
    parent_runs: list[dict[str, float]],
    change_runs: list[dict[str, float]],
    metrics: list[dict],
    how: str,
) -> dict[str, dict]:
    """The ``paired_runs`` record of every metric.

    ``parent_runs[i]`` and ``change_runs[i]`` are pair ``i``'s metric
    values by name; ``metrics`` are ``BENCHMARK.json``'s ``end_to_end``
    entries (``name``, ``better``, and the ``bound`` a :func:`verdict`
    reads, when given).  A pair is a win when the change is strictly better
    in the metric's direction; a metric either side did not report
    (``None``) is left out.
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
        if "bound" in metric:
            summary[name]["verdict"] = verdict(
                parent_values, change_values, metric["better"], metric["bound"]
            )
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


def _run(root: Path, workload: str, out: Path, seed) -> tuple[dict[str, float], int, int]:
    """One run's end-to-end metrics, and the operations it attempted and failed."""
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
    metrics = {name: entry["value"] for name, entry in document["metrics"].items()}
    return metrics, document["attempted"], document["failed"]


def _resolve(rev: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", rev],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()


def report(workload: str, summary: dict[str, dict], operations: dict[str, list[int]]) -> str:
    """One workload's verdict block: a line per metric, then per side the
    operations attempted and failed."""
    lines = [f"## {workload}"]
    for name, record in summary.items():
        lines.append(
            f"{name:16s} parent {record['parent_median']:>10} (IQR {record['parent_iqr']})"
            f"  change {record['change_median']:>10}  wins {record['wins']}/{record['pairs']}"
            f"  {record.get('verdict', '')}"
        )
    for side, (attempted, failed) in operations.items():
        lines.append(f"{side:6s} operations attempted {attempted}, failed {failed}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the revision to compare the working tree against")
    parser.add_argument(
        "--workload", action="append", required=True, help="repeat for several workloads"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="passed to bench/run.py")
    options = parser.parse_args(argv)
    workloads = list(dict.fromkeys(options.workload))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    rev = _resolve(options.parent)
    scratch = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    runs = {workload: {"parent": [], "change": []} for workload in workloads}
    operations = {workload: {"parent": [0, 0], "change": [0, 0]} for workload in workloads}
    try:
        parent_root = scratch / "parent"
        _export(rev, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        for pair in range(options.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    out = scratch / f"{workload}-{side}-{pair}.json"
                    metrics_of_run, attempted, failed = _run(
                        sides[side], workload, out, options.seed
                    )
                    runs[workload][side].append(metrics_of_run)
                    operations[workload][side][0] += attempted
                    operations[workload][side][1] += failed
                print(
                    f"# pair {pair + 1} {workload}: "
                    + ", ".join(
                        f"{side} {runs[workload][side][-1].get('queries_per_s', 0):.1f} q/s"
                        for side in order
                    ),
                    flush=True,
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summaries = {}
    for workload in workloads:
        seed = "" if options.seed is None else f" --seed {options.seed}"
        how = (
            f"python3 bench/run.py --workload {workload}{seed} --trace 0 on the parent "
            f"({rev}, exported with git archive) and on the working tree, alternating "
            "which side runs first"
        )
        summaries[workload] = summarize(
            runs[workload]["parent"], runs[workload]["change"], metrics, how
        )
        print(report(workload, summaries[workload], operations[workload]))
    print(json.dumps(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
