"""The metrics layer: counters, gauges, histograms, rendering, slow queries.

The quantitative contract under test: cumulative bucket counts follow
Prometheus ``le`` semantics, and the rendered text parses as the exposition
format (# HELP / # TYPE plus samples).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
)


# --------------------------------------------------------------------------- #
# counters and gauges
# --------------------------------------------------------------------------- #
def test_counter_accumulates_per_label_set():
    counter = Counter("requests_total", "Requests.", labelnames=("endpoint",))
    counter.inc({"endpoint": "/query"})
    counter.inc({"endpoint": "/query"}, amount=2)
    counter.inc({"endpoint": "/healthz"})
    assert counter.value({"endpoint": "/query"}) == 3
    assert counter.value({"endpoint": "/healthz"}) == 1
    assert counter.value({"endpoint": "/never"}) == 0


def test_counter_rejects_negative_increments():
    counter = Counter("requests_total", "Requests.")
    with pytest.raises(ServiceError, match="only go up"):
        counter.inc(amount=-1)


def test_label_names_are_enforced():
    counter = Counter("requests_total", "Requests.", labelnames=("endpoint",))
    with pytest.raises(ServiceError, match="label"):
        counter.inc()  # missing the label
    with pytest.raises(ServiceError, match="label"):
        counter.inc({"endpoint": "/q", "extra": "x"})


def test_gauge_sets_and_overwrites():
    gauge = Gauge("views", "Views declared.")
    gauge.set(3)
    gauge.set(7)
    assert gauge.value() == 7.0


def test_counter_is_thread_safe():
    counter = Counter("requests_total", "Requests.")

    def hammer() -> None:
        for _ in range(1000):
            counter.inc()

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value() == 8000


# --------------------------------------------------------------------------- #
# histograms
# --------------------------------------------------------------------------- #
def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ServiceError, match="strictly increasing"):
        Histogram("h", "x", buckets=(1.0, 0.5))
    with pytest.raises(ServiceError, match="strictly increasing"):
        Histogram("h", "x", buckets=(1.0, 1.0))


def test_histogram_buckets_follow_le_semantics():
    histogram = Histogram("h", "x", buckets=(1.0, 2.0))
    for value in (0.5, 1.0, 1.5, 5.0):
        histogram.observe(value)
    lines = histogram.samples()
    # an observation exactly at a bound counts in that bound's bucket
    assert 'h_bucket{le="1"} 2' in lines
    assert 'h_bucket{le="2"} 3' in lines
    assert 'h_bucket{le="+Inf"} 4' in lines
    assert "h_count 4" in lines
    assert "h_sum 8" in lines


def test_histogram_count_per_label_set():
    histogram = Histogram("h", "x", labelnames=("phase",))
    histogram.observe(0.1, {"phase": "plan"})
    histogram.observe(0.2, {"phase": "plan"})
    histogram.observe(0.3, {"phase": "execute"})
    assert histogram.count({"phase": "plan"}) == 2
    assert histogram.count({"phase": "execute"}) == 1


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
def test_registry_is_idempotent_per_name():
    registry = MetricsRegistry()
    first = registry.counter("c", "x")
    second = registry.counter("c", "x")
    assert first is second


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("c", "x")
    with pytest.raises(ServiceError, match="already registered"):
        registry.gauge("c", "x")


def test_render_produces_the_exposition_format():
    registry = MetricsRegistry()
    registry.counter("requests_total", "Requests.", labelnames=("endpoint",)).inc(
        {"endpoint": "/query"}
    )
    registry.gauge("views", "Views.").set(2)
    registry.histogram("latency", "Latency.", buckets=(0.1, 1.0)).observe(0.05)
    text = registry.render()
    assert "# HELP requests_total Requests.\n# TYPE requests_total counter" in text
    assert 'requests_total{endpoint="/query"} 1' in text
    assert "# TYPE views gauge" in text and "views 2" in text
    assert "# TYPE latency histogram" in text
    assert 'latency_bucket{le="0.1"} 1' in text
    assert 'latency_bucket{le="+Inf"} 1' in text
    assert "latency_sum 0.05" in text and "latency_count 1" in text
    assert text.endswith("\n")


# --------------------------------------------------------------------------- #
# the slow-query log
# --------------------------------------------------------------------------- #
def test_slow_query_log_records_only_above_threshold():
    log = SlowQueryLog(threshold_seconds=0.1)
    assert not log.observe("q", "abcd", "ViewScan(v)", 0.05, trace_id="t1")
    assert log.observe("q", "abcd", "ViewScan(v)", 0.15, trace_id="t2")
    assert len(log) == 1
    entry = log.entries()[0]
    assert entry["fingerprint"] == "abcd"
    assert entry["plan"] == "ViewScan(v)"
    assert entry["trace_id"] == "t2"
    assert entry["seconds"] == 0.15


def test_slow_query_log_is_bounded():
    log = SlowQueryLog(threshold_seconds=0.0, capacity=2)
    for index in range(4):
        log.observe(f"q{index}", "f", "p", 1.0)
    assert [entry["query_name"] for entry in log.entries()] == ["q2", "q3"]
