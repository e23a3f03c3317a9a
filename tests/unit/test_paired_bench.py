"""``tools/paired_bench.py``: the summary of paired parent/change runs.

Only the pure summary is tested here — the runs themselves are
``bench/run.py`` subprocesses, minutes long, and belong to no tier-1 test.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from paired_bench import summarize  # noqa: E402

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
