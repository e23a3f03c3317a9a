#!/usr/bin/env python
"""Where the heap goes, per source file and per object type, on a set-up
benchmark session.

Usage (from the repository root)::

    python3 tools/heap_split.py                  # xmark_large
    python3 tools/heap_split.py --dataset dblp
    python3 tools/heap_split.py --smoke          # the small spec: seconds
    python3 tools/heap_split.py --log            # a change log, as xmark_live

Starts ``tracemalloc``, sets up the benchmark's ``Session``
(``bench/workloads.py``, imported and never changed, the way
``tools/read_split.py`` does) — with ``--log`` it attaches a change log
in a temporary directory before the views, as the live workload does —
records the traced peak of that set-up, answers every class twice and
then prints two tables:

* the traced megabytes still held, per source file that allocated them
  (the ``--top`` largest, plus the total);
* the objects the cyclic collector tracks, counted by type (the ``--top``
  most numerous, plus the total), with the document's ``size`` and the
  process's peak RSS (``ru_maxrss``; ``tracemalloc``'s own bookkeeping
  inflates it, so compare it only between runs of this tool).

A last line before the JSON gives the set-up's traced peak
(``traced_peak_mb``): the most the set-up held at once, transients
included, where the tables show what stays.  The last line is the JSON of
all of it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import DATASETS, Session  # noqa: E402


def _source(filename: str) -> str:
    """``filename`` relative to the repository when it lies inside it."""
    try:
        return Path(filename).resolve().relative_to(ROOT).as_posix()
    except ValueError:
        return filename


def split(session, top: int) -> dict:
    """The heap of ``session`` after every class was answered twice."""
    for _ in range(2):
        for text in session.classes.values():
            session.db.query(text)
    gc.collect()
    by_file: Counter = Counter()
    for stat in tracemalloc.take_snapshot().statistics("filename"):
        by_file[_source(stat.traceback[0].filename)] += stat.size
    by_type = Counter(type(obj).__name__ for obj in gc.get_objects())
    mb = 1 << 20
    return {
        "traced_mb": round(sum(by_file.values()) / mb, 2),
        "files": {name: round(size / mb, 2) for name, size in by_file.most_common(top)},
        "gc_tracked": sum(by_type.values()),
        "objects": dict(by_type.most_common(top)),
        "document_size": session.document.size,
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def _table(title: str, rows: dict, unit: str) -> str:
    width = max(len(name) for name in rows)
    lines = [title]
    lines.extend(f"{name.ljust(width)}  {value:>10}{unit}" for name, value in rows.items())
    return "\n".join(lines)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dataset", default="xmark_large", choices=sorted(DATASETS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true", help="the dataset's small spec")
    parser.add_argument("--top", type=int, default=12, help="rows per table")
    parser.add_argument("--log", action="store_true",
                        help="attach a change log before the views, as xmark_live does")
    args = parser.parse_args(argv)
    dataset = DATASETS[args.dataset]
    seed = args.seed if args.seed is not None else dataset.default_seed
    with tempfile.TemporaryDirectory() as scratch:
        log_path = str(Path(scratch) / "session.log") if args.log else None
        tracemalloc.start()
        session = Session(dataset, seed, args.smoke, log_path)
        peak = tracemalloc.get_traced_memory()[1]
        try:
            result = {"dataset": dataset.name, "smoke": args.smoke, "log": args.log,
                      "traced_peak_mb": round(peak / (1 << 20), 2),
                      **split(session, args.top)}
        finally:
            session.close()
            tracemalloc.stop()
    print(_table(f"traced MB per source file (total {result['traced_mb']})",
                 result["files"], " MB"))
    print(_table(f"GC-tracked objects by type (total {result['gc_tracked']})",
                 result["objects"], ""))
    print(f"document size {result['document_size']} nodes, "
          f"peak RSS {result['ru_maxrss_mb']} MB")
    print(f"set-up traced peak {result['traced_peak_mb']} MB"
          f"{' (change log attached)' if args.log else ''}")
    print(json.dumps(result, sort_keys=True))
    return result


if __name__ == "__main__":
    main()
