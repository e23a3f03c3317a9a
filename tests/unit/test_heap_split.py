"""``tools/heap_split.py``: the heap by source file and by type, on the smoke spec.

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


def test_the_heap_split_shows_no_identifier_per_node():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "heap_split.py"), "--smoke", "--top", "40",
         "--log"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["smoke"] and result["document_size"] > 1000
    # the set-up's peak, the change log's load record included
    assert result["log"] and result["traced_peak_mb"] > 0
    assert "set-up traced peak" in run.stdout
    assert result["traced_mb"] > 0 and result["gc_tracked"] > 0
    assert result["ru_maxrss_mb"] > 0
    # nodes store ordinals: the DeweyIDs left are the extents' ID cells,
    # far fewer than the nodes (one per node, plus the extents', before)
    assert result["objects"]["XMLNode"] >= result["document_size"]
    assert result["objects"].get("DeweyID", 0) < result["document_size"] / 4
    assert "traced MB per source file" in run.stdout
    assert "GC-tracked objects by type" in run.stdout
