"""OpenTelemetry-style request tracing, without the dependency.

One :class:`Tracer` produces a span *tree* per request — the root span is
the HTTP request, its children the pipeline phases (``parse`` → ``plan`` →
``execute``), and under ``execute`` one span per plan operator with the
planner's *estimated* and the executor's *actual* row counts side by side
(:func:`attach_operator_spans` converts an analyzed
:class:`~repro.session.explain.ExplainReport` into spans, so the EXPLAIN
ANALYZE plumbing is the instrumentation backbone rather than a parallel
code path).  Spans that are costly to build and rarely read can be
deferred (:meth:`Span.defer`): they are built when the trace is first
rendered.

Finished traces go to exporters: :class:`RingBufferExporter` keeps the
last N in memory and renders them when read (served at
``GET /debug/traces``), :class:`JsonlExporter` appends one JSON line per
trace to a file.  Spans record wall-clock start plus a monotonic duration;
ids are random hex, in the OTel spirit (16-hex span ids, 32-hex trace
ids), drawn from one generator per tracer: they need to be unique, not
secret, so no id costs a system call.

>>> tracer = Tracer()
>>> ring = RingBufferExporter()
>>> tracer.add_exporter(ring)
>>> with tracer.trace("request", endpoint="/query") as span:
...     with span.child("parse") as parse:
...         parse.set_attribute("pattern_nodes", 3)
>>> trace = ring.traces()[-1]
>>> trace["name"], trace["children"][0]["name"]
('request', 'parse')
>>> trace["attributes"]["endpoint"]
'/query'
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.explain import ExplainReport

__all__ = [
    "JsonlExporter",
    "RingBufferExporter",
    "Span",
    "Tracer",
    "attach_operator_spans",
]


def _hex_id(ids: random.Random, digits: int) -> str:
    return f"{ids.getrandbits(4 * digits):0{digits}x}"


class Span:
    """One timed operation in a request's span tree.

    Use as a context manager (via :meth:`Tracer.trace` /
    :meth:`Span.child`): entry stamps the start, exit the duration; an
    exception propagating out flips :attr:`status` to ``"error"`` and
    records the exception type, then re-raises.
    """

    def __init__(
        self,
        name: str,
        ids: random.Random,
        trace_id: str,
        parent_id: Optional[str] = None,
        **attributes,
    ):
        self.name = name
        self._ids = ids  # the tracer's generator, shared by the whole tree
        self.trace_id = trace_id
        self.span_id = _hex_id(ids, 16)
        self.parent_id = parent_id
        self.attributes: dict = dict(attributes)
        self.children: list["Span"] = []
        self.status = "ok"
        self.started_at = time.time()
        self.duration_seconds: Optional[float] = None
        self._start_clock: Optional[float] = None
        self._on_end = None  # set by the tracer on root spans
        self._deferred = None  # see defer()

    # ------------------------------------------------------------------ #
    def set_attribute(self, key: str, value) -> None:
        """Attach one key/value annotation to this span."""
        self.attributes[key] = value

    def child(self, name: str, **attributes) -> "Span":
        """A new child span (enter it to time the nested operation)."""
        span = Span(name, self._ids, self.trace_id, parent_id=self.span_id, **attributes)
        self.children.append(span)
        return span

    def defer(self, render) -> None:
        """Have ``render(self)`` add this span's children when the trace is
        first rendered (:meth:`to_dict`) instead of now.  ``render`` must
        hold only what it needs: the trace keeps it until then."""
        self._deferred = render

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Span":
        self._start_clock = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.end(error=exc_type.__name__ if exc_type is not None else None)

    def end(self, error: Optional[str] = None) -> None:
        """Close the span (idempotent); called by the context manager."""
        if self.duration_seconds is None:
            start = self._start_clock
            self.duration_seconds = (
                time.perf_counter() - start if start is not None else 0.0
            )
        if error is not None:
            self.status = "error"
            self.attributes.setdefault("error", error)
        if self._on_end is not None:
            callback, self._on_end = self._on_end, None
            callback(self)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """The span (sub)tree as a JSON-safe dict."""
        if self._deferred is not None:
            render, self._deferred = self._deferred, None
            render(self)
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "status": self.status,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} trace={self.trace_id[:8]} "
            f"children={len(self.children)} status={self.status}>"
        )


class Tracer:
    """Mints ids (trace, span, and the service's request ids) and exports
    finished span trees.

    Thread-safe: concurrent requests each get their own root span; only
    the export fan-out takes the tracer's lock.
    """

    def __init__(self, exporters=()):
        self._exporters = list(exporters)
        self._lock = threading.Lock()
        self._ids = random.Random(os.urandom(16))

    def new_id(self, digits: int) -> str:
        """A fresh random id of ``digits`` hex digits."""
        return _hex_id(self._ids, digits)

    def add_exporter(self, exporter) -> None:
        """Register an exporter (an object with ``export(span)``)."""
        with self._lock:
            self._exporters.append(exporter)

    def trace(self, name: str, **attributes) -> Span:
        """A new root span; exported to every exporter when it ends."""
        span = Span(name, self._ids, self.new_id(32), **attributes)
        span._on_end = self._export
        return span

    def _export(self, span: Span) -> None:
        with self._lock:
            exporters = list(self._exporters)
        for exporter in exporters:
            exporter.export(span)


class RingBufferExporter:
    """Keeps the last ``capacity`` finished traces in memory.

    The backing store of ``GET /debug/traces`` — cheap enough to leave on
    in production, bounded so a long-lived service never grows without
    limit.  A trace is kept as its span tree and rendered to a dict when
    read, so a request pays for no rendering nobody asks for.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._traces: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        with self._lock:
            self._traces.append(span)

    def traces(self) -> list[dict]:
        """The retained traces, oldest first."""
        with self._lock:
            return [span.to_dict() for span in self._traces]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class JsonlExporter:
    """Appends one JSON line per finished trace to a file.

    The durable sibling of the ring buffer: a JSONL trace log survives the
    process and is greppable by trace id.  Appends are serialized under a
    lock and flushed per trace, so concurrent requests never interleave
    bytes within a line.  A closed exporter reopens its file on the next
    export, so a service restarted on the same app keeps logging.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), separators=(",", ":"))
        with self._lock:
            if self._handle.closed:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


def attach_operator_spans(parent: Span, report: "ExplainReport") -> None:
    """Expand an analyzed explain report into per-operator child spans.

    Every :class:`~repro.session.explain.ExplainOperator` entry becomes a
    span under ``parent`` (nesting reconstructed from the entries' depths),
    carrying the planner's ``estimated_rows`` next to the executor's
    measured ``actual_rows`` and per-operator wall time — the
    estimated-vs-actual comparison, exported as a trace instead of a
    rendered report.  Shared sub-plan repeats are annotated, not
    re-expanded, matching how the executor evaluates the plan once.  The
    executor times operators but does not stamp when each began, so every
    operator span starts at ``parent``'s start: inside the interval its
    operators ran in, however late the spans are built (:meth:`Span.defer`).
    """
    stack: list[tuple[int, Span]] = [(-1, parent)]
    for entry in report.operators:
        while stack and stack[-1][0] >= entry.depth:
            stack.pop()
        container = stack[-1][1]
        span = container.child(
            f"operator:{entry.description}",
            estimated_rows=entry.estimated_rows,
            estimated_cost=entry.estimated_cost,
        )
        span.started_at = parent.started_at
        if entry.actual_rows is not None:
            span.set_attribute("actual_rows", entry.actual_rows)
        if entry.actual_seconds is not None:
            span.duration_seconds = entry.actual_seconds
        else:
            span.duration_seconds = 0.0
        if entry.access_path is not None:
            span.set_attribute("access_path", entry.access_path)
        if entry.shared:
            span.set_attribute("shared", True)
        stack.append((entry.depth, span))
