"""Self-check of the benchmark itself: ``pytest bench -q`` (not part of tier-1).

Runs all four workloads in ``--smoke`` size, end to end and traced, and checks
the output contract: every name declared in ``BENCHMARK.json`` is printed with
its unit, the last line is the result object, nothing failed, the traced self
times add up to the root spans, and a layer entry point that is gone costs its
own metrics only.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


@functools.cache
def smoke(workload: str, trace: int) -> tuple[list[str], dict, list[dict]]:
    """Printed lines, result object and (traced run) the spans it wrote."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--smoke",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    spans = []
    if trace:
        span_file = BENCH_DIR / "out" / f"trace_{workload}.jsonl"
        spans = [json.loads(line) for line in span_file.read_text().splitlines()]
    return lines, json.loads(lines[-1]), spans


def test_contract_names_are_well_formed():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert any(entry["name"] == "setup_s" for entry in CONTRACT["end_to_end"])
    assert all(0 < entry["bound"] <= 0.25 for entry in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    lines, result, _ = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    printed = {parts[0]: parts[-1] for parts in (line.split() for line in lines[:-1]) if parts}
    for entry in declared:
        assert printed.get(entry["name"]) == entry["unit"], entry["name"]
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        value = result["metrics"][entry["name"]]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), entry["name"]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_deleted_layer_entry_point_nulls_its_metrics_and_fails_nothing(trace):
    # what a later change does when it removes ``repro.canonical.pattern_key``
    script = (
        "import runpy, sys\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(BENCH_DIR.parent / 'src')!r}]\n"
        "import repro.canonical\n"
        "del repro.canonical.pattern_key\n"
        f"sys.argv = ['run.py', '--workload', 'xmark_cold', '--smoke', '--trace', '{trace}']\n"
        f"runpy.run_path({str(BENCH_DIR / 'run.py')!r}, run_name='__main__')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace == 0:
        assert None not in values.values()
        return
    assert values["canonical.fingerprint_ms"] is None
    assert values["patterns.parse_ms"] > 0 and values["rewriting.search_cold_ms"] > 0
    unavailable = next(line for line in lines if line.startswith("# layers_unavailable:"))
    assert "pattern_key" in unavailable and "canonical.fingerprint_ms" in unavailable


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_the_root_spans(workload):
    _, _, spans = smoke(workload, 1)
    assert spans
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            assert spans[span["parent"]]["query"] == span["query"]
            covered[span["parent"]] += span["end"] - span["start"]
    self_time = sum(s["end"] - s["start"] - covered[s["span"]] for s in spans)
    root_time = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    assert abs(self_time - root_time) <= 0.10 * root_time
