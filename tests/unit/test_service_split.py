"""``tools/service_split.py``: wall, client and server CPU per request, on the smoke spec.

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


def test_the_service_split_times_both_sides_of_every_request():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "service_split.py"), "--smoke"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["mismatches"] == 0
    assert result["requests"] == 3 * 2 * 4 * 4  # rounds × clients × repeats × classes
    for key in ("wall_ms", "client_cpu_ms", "server_cpu_ms"):
        assert result[key] > 0
    assert "not payload-identical" in run.stdout
