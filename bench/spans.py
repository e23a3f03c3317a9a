"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, parent index, query id, start, end)``.  Spans of one query
share its id.  Nothing is written while measuring: :meth:`Recorder.write`
dumps JSON lines once the run is over.  A layer's *self time* is its span's
duration minus the part its child spans cover.  Spans inside the program are
a later change; these sit in the benchmark's own files, at layer boundaries
reachable through public calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Single-threaded span recorder; ``enabled=False`` makes spans no-ops."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.query_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        record = [name, parent, self.query_id, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for span, _, _, start, end in self.spans if span == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (span minus its direct children)."""
        covered = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for index, (name, _, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def root_time(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, query_id, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "name": name, "parent": parent,
                    "query": query_id, "start": start, "end": end,
                }) + "\n")
