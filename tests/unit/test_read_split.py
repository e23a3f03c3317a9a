"""``tools/read_split.py``: the per-phase read split, on the smoke spec.

The tool runs in a child process: importing it here would put ``bench/``
on this process's path and its modules' integer literals into the pool
hypothesis draws constants from, which re-rolls the samples of the
property tests that run later in the same session.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

WARM = ("parse", "key", "front", "lookup", "rerank", "execute_batch", "to_relation",
        "rows", "query", "query_parsed", "query_rows")


def test_the_read_split_times_every_phase_of_both_kinds_of_read():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "read_split.py"),
         "--smoke", "--runs", "3", "--writes", "2"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result["warm"]) == {"Q1", "Q5", "Q6", "Q18"}
    for medians in result["warm"].values():
        assert all(medians[phase] > 0 for phase in WARM)
        assert medians["replanned"] == 0
    for medians in result["after_write"].values():
        # every read after a write is timed: re-ranked, or re-planned
        assert medians["rerank"] is not None or medians["replanned"] == 2
        assert medians["execute_batch"] > 0
        # the phased read follows one write of each round, query_rows the other
        assert medians["rows"] is not None and medians["query_rows"] > 0
    assert "first read after a write" in run.stdout
