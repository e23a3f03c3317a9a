#!/usr/bin/env python
"""Where a read's time goes, phase by phase, per benchmark query class.

Usage (from the repository root)::

    python3 tools/read_split.py                  # xmark_large, 300 warm / 30 write rounds
    python3 tools/read_split.py --dataset dblp --runs 100 --writes 10
    python3 tools/read_split.py --smoke          # the small spec: seconds

Sets up the benchmark's ``Session`` (``bench/workloads.py``, imported and
never changed), answers every class once, then takes medians, in
milliseconds and with the cyclic collector off, of each phase of
``Database.query`` run one at a time:

* ``parse`` / ``key`` — ``parse_pattern`` and ``pattern_key``, what the
  plan cache's text front spares a repeated string; ``front`` — the front
  probe that replaces them;
* ``lookup`` — ``plan_cache.lookup(fingerprint, views.version)``;
* ``rerank`` — ``Planner.current`` on the cached choice (a no-op unless a
  write moved ``views.data_version``; a write that moved ``views.version``
  empties the plan cache, and the read is re-planned, untimed, and counted
  under ``replanned``);
* ``execute_batch`` / ``to_relation`` — the executor's batch and the
  relation backed by it, which reads no value;
* ``rows`` — the first read of that relation's ``.rows``, which builds
  them; checked, untimed, against the columns of a fresh execution of a
  copy of the plan (a copy carries no memo), so a wrong row exits non-zero;
* ``query_rows`` — the whole ``db.query(text).rows``: a read that reads
  every row.

Two tables: **warm** reads of an unchanged session, which also time the
whole ``db.query(text)`` against ``db.query(parse_pattern(text))`` — the
path without the front, so their difference is the front's saving — and
the **first read after a write**, where ``rerank`` and the executor's memo
do their real work.  Each write round inserts the live workload's subtree
and deletes it again; the phased read follows one of the two writes and
``query_rows`` the other, swapping every round, so each is always the
first read after its write and half of each follow an insert.  The last
line is the JSON of both tables.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from repro import parse_pattern  # noqa: E402
from repro.algebra.execution import PlanExecutor  # noqa: E402
from repro.algebra.tuples import _hashable  # noqa: E402
from repro.canonical import pattern_key  # noqa: E402
from workloads import DATASETS, Session  # noqa: E402

WARM = ("parse", "key", "front", "lookup", "rerank", "execute_batch", "to_relation",
        "rows", "query", "query_parsed", "query_rows")
AFTER_WRITE = ("parse", "key", "lookup", "rerank", "execute_batch", "to_relation", "rows",
               "query_rows")


def _timed(samples: dict, phase: str, call):
    started = time.perf_counter()
    result = call()
    samples.setdefault(phase, []).append(time.perf_counter() - started)
    return result


def _phases(db, name: str, text: str, samples: dict) -> None:
    """One read of ``text``, each phase of ``Database.query`` timed apart."""
    cache = db.plan_cache
    pattern = _timed(samples, "parse", lambda: parse_pattern(text, name=name))
    fingerprint = _timed(samples, "key", lambda: pattern_key(pattern))
    version = db.views.version
    cached = _timed(samples, "lookup", lambda: cache.lookup(fingerprint, version))
    if cached is None:  # the write moved views.version: a search, not timed here
        samples["replanned"] = samples.get("replanned", 0) + 1
        choice = db.plan_query(pattern)
    else:
        choice = _timed(samples, "rerank", lambda: db.planner.current(cached))
        if choice is not cached:
            cache.store(fingerprint, version, choice)
    plan = choice.best.plan_operator
    batch = _timed(samples, "execute_batch", lambda: PlanExecutor(db.views).execute_batch(plan))
    relation = _timed(samples, "to_relation", batch.to_relation)
    rows = _timed(samples, "rows", lambda: relation.rows)
    fresh = PlanExecutor(db.views).execute_batch(copy.deepcopy(plan))
    expected = list(zip(*(fresh.values(i) for i in range(len(fresh.columns)))))
    if not fresh.columns:
        expected = [()] * fresh.row_count
    if list(map(_hashable, rows)) != list(map(_hashable, expected)):  # nested cells: by value
        raise SystemExit(f"{name}: the rows read differ from a fresh execution's columns")


def _query_rows(db, text: str, samples: dict) -> None:
    _timed(samples, "query_rows", lambda: db.query(text).rows)


def _medians(samples: dict, phases) -> dict:
    medians = {
        phase: round(statistics.median(samples[phase]) * 1e3, 4) if phase in samples else None
        for phase in phases
    }
    medians["replanned"] = samples.get("replanned", 0)
    return medians


def split(session, runs: int, writes: int) -> dict:
    """``{"warm": {class: {phase: ms}}, "after_write": {...}}`` for ``session``."""
    db = session.db
    for text in session.classes.values():
        db.query(text)
    warm = {name: {} for name in session.classes}
    after_write = {name: {} for name in session.classes}
    gc.collect()
    gc.disable()
    try:
        for _ in range(runs):
            for name, text in session.classes.items():
                samples = warm[name]
                _phases(db, name, text, samples)
                _timed(samples, "front", lambda: db.plan_cache.text_key(text))
                _timed(samples, "query", lambda: db.query(text))
                _timed(samples, "query_parsed", lambda: db.query(parse_pattern(text, name=name)))
                _query_rows(db, text, samples)
        for turn in range(writes):
            readers = [
                lambda name, text: _phases(db, name, text, after_write[name]),
                lambda name, text: _query_rows(db, text, after_write[name]),
            ]
            if turn % 2:
                readers.reverse()
            node = db.insert_subtree(session.update_parent, session.update_subtree())
            for name, text in session.classes.items():
                readers[0](name, text)
            db.delete_subtree(node)
            for name, text in session.classes.items():
                readers[1](name, text)
    finally:
        gc.enable()
    return {
        "warm": {name: _medians(samples, WARM) for name, samples in warm.items()},
        "after_write": {
            name: _medians(samples, AFTER_WRITE) for name, samples in after_write.items()
        } if writes else {},
    }


def _table(title: str, rows: dict) -> str:
    if not rows:
        return f"{title}: (none)"
    phases = list(next(iter(rows.values())))
    width = max(len(name) for name in rows)
    lines = [f"{title} (median ms)", " " * width + "".join(f"{p:>15}" for p in phases)]
    for name, medians in rows.items():
        cells = (f"{value:>15.4f}" if isinstance(value, float) else f"{value!s:>15}"
                 for value in medians.values())
        lines.append(name.ljust(width) + "".join(cells))
    return "\n".join(lines)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dataset", default="xmark_large", choices=sorted(DATASETS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true", help="the dataset's small spec")
    parser.add_argument("--runs", type=int, default=300, help="warm reads per class")
    parser.add_argument("--writes", type=int, default=30,
                        help="insert + delete rounds, each write followed by a read per class")
    args = parser.parse_args(argv)
    dataset = DATASETS[args.dataset]
    session = Session(dataset, args.seed if args.seed is not None else dataset.default_seed,
                      args.smoke, None)
    try:
        result = split(session, args.runs, args.writes)
    finally:
        session.close()
    print(_table("warm reads", result["warm"]))
    print(_table("first read after a write", result["after_write"]))
    print(json.dumps(result, sort_keys=True))
    return result


if __name__ == "__main__":
    main()
