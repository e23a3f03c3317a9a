"""``tools/paired_bench.py``: the summary and verdict of paired runs.

The summary and verdict are tested as pure functions; the run loop with
its ``bench/run.py`` subprocesses (minutes long, no tier-1 test) and the
``git archive`` export replaced by stand-ins, so several workloads in one
invocation are checked without running — or importing — the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import paired_bench  # noqa: E402
from paired_bench import summarize, verdict  # noqa: E402

METRICS = [
    {"name": "queries_per_s", "better": "higher"},
    {"name": "query_p50_ms", "better": "lower"},
    {"name": "setup_s", "better": "lower"},
]


def test_wins_follow_each_metric_direction():
    parent = [{"queries_per_s": q, "query_p50_ms": p, "setup_s": 1.0} for q, p in
              [(1000, 0.70), (1060, 0.72), (990, 0.69), (1010, 0.71)]]
    change = [{"queries_per_s": q, "query_p50_ms": p, "setup_s": 1.0} for q, p in
              [(1420, 0.57), (1380, 0.58), (980, 0.75), (1470, 0.56)]]
    summary = summarize(parent, change, METRICS, "by hand")
    throughput = summary["queries_per_s"]
    assert throughput["pairs"] == 4 and throughput["wins"] == 3
    assert throughput["parent_median"] == 1005.0
    assert throughput["change_median"] == 1400.0
    # inclusive quartiles of 990, 1000, 1010, 1060: 997.5 and 1022.5
    assert throughput["parent_iqr"] == 25.0
    assert throughput["parent_range"] == "997.5..1022.5 (quartiles)"
    assert throughput["how"] == "by hand"
    assert summary["query_p50_ms"]["wins"] == 3  # lower is better
    assert summary["setup_s"]["wins"] == 0  # a tie is no win


def test_a_metric_a_side_did_not_report_is_left_out_of_its_pairs():
    parent = [{"queries_per_s": 10.0, "query_p50_ms": None, "setup_s": 1.0}] * 2
    change = [{"queries_per_s": 12.0, "query_p50_ms": 0.5, "setup_s": 0.5}] * 2
    summary = summarize(parent, change, METRICS, "")
    assert "query_p50_ms" not in summary
    assert summary["queries_per_s"]["parent_iqr"] == 0.0
    assert summary["setup_s"] == {
        "pairs": 2,
        "wins": 2,
        "parent_median": 1.0,
        "parent_iqr": 0.0,
        "parent_range": "1.0..1.0 (quartiles)",
        "change_median": 0.5,
        "change_range": "0.5..0.5 (quartiles)",
        "how": "",
    }


def test_one_pair_is_its_own_median_and_uneven_sides_are_refused():
    summary = summarize([{"setup_s": 0.123456}], [{"setup_s": 0.1}], METRICS, "")
    assert summary["setup_s"]["parent_median"] == 0.12346  # five significant digits
    with pytest.raises(ValueError):
        summarize([{"setup_s": 1.0}], [], METRICS, "")


PARENT_QPS = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 1002.0, 998.0, 1008.0, 992.0, 1000.0]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    change = [q * 1.4 for q in PARENT_QPS]
    assert verdict(PARENT_QPS, change, "higher", 0.1) == "gain"
    # eight wins of ten: a large median gap is still no gain
    eight = change[:8] + PARENT_QPS[8:]
    assert verdict(PARENT_QPS, eight, "higher", 0.1) == "within bound"
    # ten wins, but by less than the parent's quartile spread (≈ 10)
    assert verdict(PARENT_QPS, [q + 1.0 for q in PARENT_QPS], "higher", 0.1) == "within bound"
    # lower is better: every latency down by a third
    latency = [1.0 / q for q in PARENT_QPS]
    assert verdict(latency, [v * 0.66 for v in latency], "lower", 0.2) == "gain"
    assert verdict(latency, [v * 1.5 for v in latency], "lower", 0.2) == "worse"


def test_worse_is_a_median_past_the_bound_in_the_metric_direction():
    assert verdict(PARENT_QPS, [q * 0.85 for q in PARENT_QPS], "higher", 0.1) == "worse"
    assert verdict(PARENT_QPS, [q * 0.95 for q in PARENT_QPS], "higher", 0.1) == "within bound"
    rss = [84.9] * 10
    assert verdict(rss, [84.9 * 1.06] * 10, "lower", 0.05) == "worse"
    assert verdict(rss, [84.9 * 1.04] * 10, "lower", 0.05) == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    noisy = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4]  # IQR 0.45 of 0.95
    assert verdict(noisy, list(noisy), "lower", 0.25) == "unresolved"
    # unless every change run reads better than every parent run
    skewed = [1.0] * 5 + [2.0, 3.0, 4.0, 5.0, 6.0]  # median 1.5, IQR 2.75
    assert verdict(skewed, [0.9] * 10, "lower", 0.25) == "within bound"
    assert verdict(skewed, [1.0] * 10, "lower", 0.25) == "unresolved"  # ties
    assert verdict(noisy, [v - 0.05 for v in noisy], "lower", 0.25) == "unresolved"
    # a change whose median is past the bound is worse, spread or not
    assert verdict(noisy, [v * 2 for v in noisy], "lower", 0.25) == "worse"


def test_the_summary_carries_the_verdict_of_a_metric_with_a_bound():
    metrics = [{"name": "queries_per_s", "better": "higher", "bound": 0.1}]
    parent = [{"queries_per_s": q} for q in PARENT_QPS]
    change = [{"queries_per_s": q * 1.4} for q in PARENT_QPS]
    summary = summarize(parent, change, metrics, "")
    assert summary["queries_per_s"]["verdict"] == "gain"
    assert "verdict" not in summarize(parent, change, METRICS, "")["queries_per_s"]


def test_several_workloads_run_in_one_invocation_with_one_block_each(monkeypatch, capsys):
    """Every pair runs every workload, each with the side that goes first
    alternating pair by pair; the output is one verdict block per workload
    and a last JSON line keyed by workload."""
    calls = []
    throughput = {("xmark_live", "parent"): 700.0, ("xmark_live", "change"): 780.0,
                  ("dblp_service", "parent"): 980.0, ("dblp_service", "change"): 975.0}

    def run(root, workload, out, seed):
        side = "parent" if root != paired_bench.ROOT else "change"
        calls.append((workload, side))
        jitter = len(calls) % 3  # never a tie between the two sides
        metrics = {"queries_per_s": throughput[workload, side] + jitter, "setup_s": 0.5}
        return metrics, 10, 1 if side == "parent" else 0

    monkeypatch.setattr(paired_bench, "_resolve", lambda rev: "abc1234")
    monkeypatch.setattr(paired_bench, "_export", lambda rev, target: None)
    monkeypatch.setattr(paired_bench, "_run", run)
    argv = ["HEAD~1", "--workload", "xmark_live", "--workload", "dblp_service", "--pairs", "3"]
    assert paired_bench.main(argv) == 0
    assert calls == [
        ("xmark_live", "parent"), ("xmark_live", "change"),
        ("dblp_service", "parent"), ("dblp_service", "change"),
        ("xmark_live", "change"), ("xmark_live", "parent"),
        ("dblp_service", "change"), ("dblp_service", "parent"),
        ("xmark_live", "parent"), ("xmark_live", "change"),
        ("dblp_service", "parent"), ("dblp_service", "change"),
    ]
    lines = capsys.readouterr().out.splitlines()
    blocks = [line for line in lines if line.startswith("## ")]
    assert blocks == ["## xmark_live", "## dblp_service"]
    summaries = json.loads(lines[-1])
    assert list(summaries) == ["xmark_live", "dblp_service"]
    assert summaries["xmark_live"]["queries_per_s"]["wins"] == 3
    assert summaries["dblp_service"]["queries_per_s"]["wins"] == 0
    assert summaries["xmark_live"]["queries_per_s"]["how"].startswith(
        "python3 bench/run.py --workload xmark_live"
    )
    live = lines[lines.index("## xmark_live"):lines.index("## dblp_service")]
    assert "parent operations attempted 30, failed 3" in live
    assert "change operations attempted 30, failed 0" in live
    source = Path(paired_bench.__file__).read_text(encoding="utf-8")
    assert "from bench" not in source and "import bench" not in source


def test_a_workload_given_twice_runs_once_and_the_seed_is_recorded(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(paired_bench, "_resolve", lambda rev: "abc1234")
    monkeypatch.setattr(paired_bench, "_export", lambda rev, target: None)
    monkeypatch.setattr(
        paired_bench,
        "_run",
        lambda root, workload, out, seed: calls.append((workload, seed))
        or ({"setup_s": 1.0}, 1, 0),
    )
    paired_bench.main(["HEAD", "--workload", "xmark_warm", "--workload", "xmark_warm",
                       "--pairs", "1", "--seed", "7"])
    assert calls == [("xmark_warm", 7), ("xmark_warm", 7)]  # one pair: parent and change
    summaries = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(summaries) == ["xmark_warm"]
    assert "--workload xmark_warm --seed 7 --trace 0" in summaries["xmark_warm"]["setup_s"]["how"]
