#!/usr/bin/env python
"""The plan the cost model picks for every benchmark query class, and why.

Usage (from the repository root)::

    python3 tools/plan_choices.py                    # xmark_small, xmark_large, dblp
    python3 tools/plan_choices.py --dataset dblp
    python3 tools/plan_choices.py --smoke            # the small specs: seconds

Sets up the benchmark's ``Session`` (``bench/workloads.py``, imported and
never changed) for each dataset and plans every query class once.  For
each class it prints the chosen plan's algebra with the per-search alias
numbers masked (``@N``: the numbers depend on how many searches ran
before), then the estimated cost of every costed alternative, cheapest
first.  The last line is the JSON of all of it,
``{dataset: {class: {"plan": text, "costs": [...]}}}``.

Run it on two commits and compare the ``plan`` texts to see whether a
change to the cost model changed a choice; the ``costs`` show by how much
each alternative moved.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import DATASETS, Session  # noqa: E402

_ALIAS = re.compile(r"[@#]\d+")


def choices(session) -> dict:
    """``{class: {"plan": masked text, "costs": [cost, ...]}}`` for ``session``."""
    result = {}
    for name, text in session.classes.items():
        choice = session.db.plan_query(text, name=name)
        result[name] = {
            "plan": _ALIAS.sub("@N", choice.best.plan_operator.describe()),
            "costs": [round(cost, 3) for cost in choice.alternative_costs],
        }
    return result


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dataset", choices=sorted(DATASETS), action="append",
                        help="repeatable; every dataset when absent")
    parser.add_argument("--smoke", action="store_true", help="the datasets' small specs")
    args = parser.parse_args(argv)
    result = {}
    for name in args.dataset or sorted(DATASETS):
        dataset = DATASETS[name]
        session = Session(dataset, dataset.default_seed, args.smoke, None)
        try:
            result[name] = choices(session)
        finally:
            session.close()
        for query, chosen in result[name].items():
            costs = ", ".join(f"{cost:.1f}" for cost in chosen["costs"])
            print(f"{name} {query}:")
            for line in chosen["plan"].splitlines():
                print(f"    {line}")
            print(f"  costs: {costs}")
    print(json.dumps(result, sort_keys=True))
    return result


if __name__ == "__main__":
    main()
