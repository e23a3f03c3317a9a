"""``tools/plan_choices.py``: every benchmark class's chosen plan and costs.

The tool runs in a child process: importing it here would put ``bench/``
on this process's path and its modules' integer literals into the pool
hypothesis draws constants from, which re-rolls the samples of the
property tests that run later in the same session.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SMOKE_CLASSES = {
    "xmark_small": {"Q1", "Q5", "Q6", "Q18"},
    "xmark_large": {"Q1", "Q5", "Q6", "Q18"},
    "dblp": {"thesis_school", "proceedings_recent", "article_cite", "all_authors"},
}


def _run(*arguments) -> tuple[str, dict]:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "plan_choices.py"), "--smoke", *arguments],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return run.stdout, json.loads(run.stdout.splitlines()[-1])


def test_every_class_reports_its_masked_plan_and_ranked_costs():
    text, result = _run()
    assert {name: set(classes) for name, classes in result.items()} == SMOKE_CLASSES
    for classes in result.values():
        for chosen in classes.values():
            assert chosen["plan"] and not re.search(r"[@#]\d", chosen["plan"])
            assert "@N" in chosen["plan"]
            costs = chosen["costs"]
            assert costs and costs == sorted(costs) and costs[0] > 0
    assert "xmark_small Q19" not in text  # --smoke drops the slow classes
    # the same session planned twice picks the same plan
    assert _run("--dataset", "dblp")[1] == {"dblp": result["dblp"]}
