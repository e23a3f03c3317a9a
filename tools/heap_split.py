#!/usr/bin/env python
"""Where the heap goes, per source file and per object type, on a set-up
benchmark session.

Usage (from the repository root)::

    python3 tools/heap_split.py                  # xmark_large
    python3 tools/heap_split.py --dataset dblp
    python3 tools/heap_split.py --smoke          # the small spec: seconds

Starts ``tracemalloc``, sets up the benchmark's ``Session``
(``bench/workloads.py``, imported and never changed, the way
``tools/read_split.py`` does), answers every class twice and then prints
two tables:

* the traced megabytes still held, per source file that allocated them
  (the ``--top`` largest, plus the total);
* the objects the cyclic collector tracks, counted by type (the ``--top``
  most numerous, plus the total), with the document's ``size`` and the
  process's peak RSS (``ru_maxrss``; ``tracemalloc``'s own bookkeeping
  inflates it, so compare it only between runs of this tool).

The last line is the JSON of both.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
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
    args = parser.parse_args(argv)
    dataset = DATASETS[args.dataset]
    tracemalloc.start()
    session = Session(dataset, args.seed if args.seed is not None else dataset.default_seed,
                      args.smoke, None)
    try:
        result = {"dataset": dataset.name, "smoke": args.smoke, **split(session, args.top)}
    finally:
        session.close()
        tracemalloc.stop()
    print(_table(f"traced MB per source file (total {result['traced_mb']})",
                 result["files"], " MB"))
    print(_table(f"GC-tracked objects by type (total {result['gc_tracked']})",
                 result["objects"], ""))
    print(f"document size {result['document_size']} nodes, "
          f"peak RSS {result['ru_maxrss_mb']} MB")
    print(json.dumps(result, sort_keys=True))
    return result


if __name__ == "__main__":
    main()
