"""The tracing layer: span trees, exporters, and explain-to-span expansion.

The load-bearing property is ``attach_operator_spans``: an analyzed
:class:`ExplainReport` must expand into a span tree whose *nesting mirrors
the operator depths* and whose spans carry the planner's estimated rows
next to the executor's actual rows.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.service.tracing import (
    JsonlExporter,
    RingBufferExporter,
    Tracer,
    attach_operator_spans,
)
from repro.session.explain import ExplainOperator, ExplainReport


# --------------------------------------------------------------------------- #
# span mechanics
# --------------------------------------------------------------------------- #
def test_root_span_is_exported_on_end_with_the_whole_tree():
    ring = RingBufferExporter()
    tracer = Tracer(exporters=[ring])
    with tracer.trace("request", endpoint="/query") as root:
        with root.child("parse") as parse:
            parse.set_attribute("nodes", 3)
        with root.child("plan"):
            pass
    assert len(ring) == 1
    trace = ring.traces()[0]
    assert trace["name"] == "request"
    assert trace["attributes"]["endpoint"] == "/query"
    assert [child["name"] for child in trace["children"]] == ["parse", "plan"]
    assert trace["children"][0]["attributes"]["nodes"] == 3


def test_span_ids_follow_the_otel_shape():
    span = Tracer().trace("request")
    child = span.child("inner")
    assert len(span.trace_id) == 32 and len(span.span_id) == 16
    assert child.trace_id == span.trace_id
    assert child.parent_id == span.span_id
    assert span.parent_id is None


def test_ids_come_from_one_generator_seeded_once(monkeypatch):
    """Ids need to be unique, not secret: after the tracer is built, minting
    them reads no system entropy."""
    import os

    tracer = Tracer()

    def no_entropy(size):
        raise AssertionError("an id read os.urandom")

    monkeypatch.setattr(os, "urandom", no_entropy)
    spans = [tracer.trace("request") for _ in range(200)]
    children = [span.child("inner") for span in spans]
    ids = [span.trace_id for span in spans] + [s.span_id for s in spans + children]
    assert len(set(ids)) == len(ids)
    assert all(len(span.trace_id) == 32 for span in spans)
    assert all(len(span.span_id) == 16 for span in spans + children)
    assert all(int(value, 16) >= 0 for value in ids)
    assert len(tracer.new_id(16)) == 16


def test_exception_marks_the_span_as_error_and_reraises():
    ring = RingBufferExporter()
    tracer = Tracer(exporters=[ring])
    with pytest.raises(ValueError):
        with tracer.trace("request") as span:
            with span.child("explode"):
                raise ValueError("boom")
    trace = ring.traces()[0]
    assert trace["status"] == "error"
    assert trace["attributes"]["error"] == "ValueError"
    assert trace["children"][0]["status"] == "error"


def test_durations_are_measured_and_end_is_idempotent():
    with Tracer().trace("request") as span:
        pass
    first = span.duration_seconds
    assert first is not None and first >= 0
    span.end()  # a second end must not overwrite the measurement
    assert span.duration_seconds == first


def test_ring_buffer_is_bounded():
    ring = RingBufferExporter(capacity=3)
    tracer = Tracer(exporters=[ring])
    for index in range(5):
        with tracer.trace(f"request-{index}"):
            pass
    names = [trace["name"] for trace in ring.traces()]
    assert names == ["request-2", "request-3", "request-4"]


def test_add_exporter_after_construction():
    tracer = Tracer()
    ring = RingBufferExporter()
    tracer.add_exporter(ring)
    with tracer.trace("request"):
        pass
    assert len(ring) == 1


def test_jsonl_exporter_appends_one_line_per_trace(tmp_path):
    path = tmp_path / "traces.jsonl"
    exporter = JsonlExporter(path)
    tracer = Tracer(exporters=[exporter])
    with tracer.trace("first"):
        pass
    with tracer.trace("second") as span:
        with span.child("inner"):
            pass
    exporter.close()
    exporter.close()  # idempotent
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["name"] == "first"
    assert second["children"][0]["name"] == "inner"


def test_concurrent_traces_do_not_interleave_trees():
    ring = RingBufferExporter(capacity=64)
    tracer = Tracer(exporters=[ring])

    def one_request(index: int) -> None:
        with tracer.trace("request", index=index) as span:
            for position in range(3):
                with span.child(f"phase-{position}"):
                    pass

    threads = [
        threading.Thread(target=one_request, args=(index,)) for index in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    traces = ring.traces()
    assert len(traces) == 8
    assert {trace["trace_id"] for trace in traces} == set(
        trace["trace_id"] for trace in traces
    )
    for trace in traces:
        assert [child["name"] for child in trace["children"]] == [
            "phase-0",
            "phase-1",
            "phase-2",
        ]


# --------------------------------------------------------------------------- #
# explain → spans
# --------------------------------------------------------------------------- #
def _analyzed_report() -> ExplainReport:
    return ExplainReport(
        query_name="q",
        views_used=("v",),
        is_union=False,
        chosen_cost=30.0,
        estimated_rows=5.0,
        alternative_costs=(30.0,),
        analyzed=True,
        actual_rows=5,
        actual_seconds=0.01,
        operators=[
            ExplainOperator("Join", 0, 5.0, 10.0, 30.0,
                            actual_rows=5, actual_seconds=0.004),
            ExplainOperator("ViewScan(v)", 1, 8.0, 10.0, 10.0,
                            access_path="scan",
                            actual_rows=8, actual_seconds=0.003),
            ExplainOperator("ViewScan(v)", 1, 8.0, 10.0, 10.0,
                            access_path="scan", shared=True,
                            actual_rows=8, actual_seconds=0.003),
        ],
    )


def test_attach_operator_spans_mirrors_depths_and_carries_both_row_counts():
    parent = Tracer().trace("execute")
    attach_operator_spans(parent, _analyzed_report())
    assert len(parent.children) == 1
    join = parent.children[0]
    assert join.name == "operator:Join"
    assert join.attributes["estimated_rows"] == 5.0
    assert join.attributes["actual_rows"] == 5
    assert "order_decision" not in join.attributes
    assert join.duration_seconds == 0.004
    scans = join.children
    assert [span.name for span in scans] == ["operator:ViewScan(v)"] * 2
    assert scans[0].attributes["access_path"] == "scan"
    assert "shared" not in scans[0].attributes
    assert scans[1].attributes["shared"] is True


def test_attach_operator_spans_without_actuals_reports_zero_duration():
    report = ExplainReport(
        query_name="q", views_used=("v",), is_union=False,
        chosen_cost=1.0, estimated_rows=1.0, alternative_costs=(1.0,),
        operators=[ExplainOperator("ViewScan(v)", 0, 1.0, 1.0, 1.0)],
    )
    parent = Tracer().trace("execute")
    attach_operator_spans(parent, report)
    span = parent.children[0]
    assert "actual_rows" not in span.attributes
    assert span.duration_seconds == 0.0


def test_attach_operator_spans_handles_depth_pops():
    # depth sequence 0,1,2,1: the last operator must attach to the root
    report = ExplainReport(
        query_name="q", views_used=("v",), is_union=False,
        chosen_cost=1.0, estimated_rows=1.0, alternative_costs=(1.0,),
        operators=[
            ExplainOperator("Root", 0, 1.0, 1.0, 1.0),
            ExplainOperator("Mid", 1, 1.0, 1.0, 1.0),
            ExplainOperator("Leaf", 2, 1.0, 1.0, 1.0),
            ExplainOperator("Sibling", 1, 1.0, 1.0, 1.0),
        ],
    )
    parent = Tracer().trace("execute")
    attach_operator_spans(parent, report)
    root = parent.children[0]
    assert [span.name for span in root.children] == [
        "operator:Mid",
        "operator:Sibling",
    ]
    assert [span.name for span in root.children[0].children] == ["operator:Leaf"]
