"""The service metrics layer: counters, gauges, histograms, slow queries.

A :class:`MetricsRegistry` holds named metrics and renders them in the
Prometheus text exposition format (served at ``GET /metrics``).  All three
kinds are lock-protected and label-aware:

* :class:`Counter` — monotonically increasing totals
  (``service_requests_total{endpoint="/query",status="200"}``);
* :class:`Gauge` — point-in-time values, set at scrape time from
  :meth:`repro.Database.stats` (plan-cache hits, maintenance paths, …);
* :class:`Histogram` — fixed-bucket latency distributions with cumulative
  bucket counts, plus estimated ``p50``/``p95``/``p99`` quantiles (linear
  interpolation inside the winning bucket — the standard Prometheus
  ``histogram_quantile`` estimate, computed server-side so the load
  tester and the bench artifact read the same numbers).

The :class:`SlowQueryLog` rides along: every query slower than a
configurable threshold records its canonical fingerprint, the chosen
plan's description and the request's trace id, so one slow request is
attributable end to end (grep the JSONL trace log by trace id).

>>> registry = MetricsRegistry()
>>> requests = registry.counter("requests_total", "Requests served.",
...                             labelnames=("endpoint",))
>>> requests.inc({"endpoint": "/query"})
>>> latency = registry.histogram("request_seconds", "Request latency.")
>>> for ms in (1, 2, 3, 4, 5):
...     latency.observe(ms / 1000.0)
>>> round(latency.quantile(0.5), 4) <= 0.005
True
>>> 'requests_total{endpoint="/query"} 1' in registry.render()
True
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from typing import Optional, Sequence

from repro.errors import ServiceError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQueryLog",
]

DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Upper bounds (seconds) of the default latency histogram — the standard
Prometheus ladder, sub-millisecond to 10 s, with ``+Inf`` implicit."""


def _label_key(labelnames: Sequence[str], labels: Optional[dict]) -> tuple:
    labels = labels or {}
    if set(labels) != set(labelnames):
        raise ServiceError(
            f"metric labels {sorted(labels)} do not match the declared "
            f"label names {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _render_labels(labelnames: Sequence[str], key: tuple, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in zip(labelnames, key)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def inc(self, labels: Optional[dict] = None, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ServiceError("counters only go up; use a Gauge")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, labels: Optional[dict] = None) -> float:
        """The current total of one labelled series (0 if never touched)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_render_labels(self.labelnames, key)} {_format(value)}"
            for key, value in items
        ]


class Gauge:
    """A point-in-time value, optionally labelled (set, not accumulated)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, labels: Optional[dict] = None) -> None:
        """Set the labelled series to ``value``."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, labels: Optional[dict] = None) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_render_labels(self.labelnames, key)} {_format(value)}"
            for key, value in items
        ]


class _HistogramSeries:
    __slots__ = ("counts", "total", "sum")

    def __init__(self, bucket_count: int):
        self.counts = [0] * bucket_count  # per-bucket (non-cumulative)
        self.total = 0
        self.sum = 0.0


class Histogram:
    """A fixed-bucket distribution with server-side quantile estimates."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ServiceError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(float(bound) for bound in buckets)
        self._series: dict[tuple, _HistogramSeries] = {}
        self._lock = threading.Lock()

    def _get_series(self, labels: Optional[dict]) -> _HistogramSeries:
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series.setdefault(
                key, _HistogramSeries(len(self.buckets) + 1)
            )
        return series

    def observe(self, value: float, labels: Optional[dict] = None) -> None:
        """Record one observation into its bucket."""
        position = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._get_series(labels)
            series.counts[position] += 1
            series.total += 1
            series.sum += value

    def count(self, labels: Optional[dict] = None) -> int:
        """Observations recorded in one labelled series."""
        with self._lock:
            return self._get_series(labels).total

    def quantile(self, q: float, labels: Optional[dict] = None) -> float:
        """Estimated ``q``-quantile (0 < q < 1) of one labelled series.

        Linear interpolation inside the winning bucket, the
        ``histogram_quantile`` estimate; observations beyond the last
        finite bound report that bound (the estimate is clamped, never
        extrapolated to infinity).  Returns 0.0 for an empty series.
        """
        if not 0.0 < q < 1.0:
            raise ServiceError(f"quantile must be in (0, 1), got {q}")
        with self._lock:
            series = self._get_series(labels)
            counts = list(series.counts)
            total = series.total
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0.0
        for position, count in enumerate(counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if position >= len(self.buckets):  # the +Inf bucket
                    return self.buckets[-1]
                lower = self.buckets[position - 1] if position else 0.0
                upper = self.buckets[position]
                fraction = (rank - seen) / count
                return lower + (upper - lower) * fraction
            seen += count
        return self.buckets[-1]

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(
                (key, list(series.counts), series.total, series.sum)
                for key, series in self._series.items()
            )
        lines = []
        for key, counts, total, total_sum in items:
            cumulative = 0
            for position, bound in enumerate(self.buckets):
                cumulative += counts[position]
                label = _render_labels(
                    self.labelnames, key, f'le="{_format(bound)}"'
                )
                lines.append(f"{self.name}_bucket{label} {cumulative}")
            label = _render_labels(self.labelnames, key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{label} {total}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format(total_sum)}")
            lines.append(f"{self.name}_count{plain} {total}")
        return lines


def _format(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Named metrics, one namespace, rendered as Prometheus text."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ServiceError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter (idempotent per name)."""
        return self._get_or_create(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a gauge (idempotent per name)."""
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram (idempotent per name)."""
        return self._get_or_create(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + "\n"


class SlowQueryLog:
    """A bounded record of queries slower than a configurable threshold.

    Each entry carries enough to attribute the slowness end to end: the
    query's canonical fingerprint (stable across textual re-parses), the
    chosen plan's one-line description, the elapsed seconds and the trace
    id of the request that ran it — the key into ``/debug/traces`` and the
    JSONL trace log, where the per-operator spans say *which* operator ate
    the time.
    """

    def __init__(self, threshold_seconds: float = 0.25, capacity: int = 128):
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def observe(
        self,
        query_name: str,
        fingerprint: str,
        plan: str,
        seconds: float,
        trace_id: Optional[str] = None,
    ) -> bool:
        """Record the query if it crossed the threshold; True if recorded."""
        if seconds < self.threshold_seconds:
            return False
        entry = {
            "query_name": query_name,
            "fingerprint": fingerprint,
            "plan": plan,
            "seconds": seconds,
            "trace_id": trace_id,
        }
        with self._lock:
            self._entries.append(entry)
        return True

    def entries(self) -> list[dict]:
        """Recorded slow queries, oldest first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
