"""The service application, driven directly — no socket, no transport.

``ServiceApp.handle`` maps ``(method, path, payload)`` to a typed
response; these tests pin the endpoint contracts (bodies, envelopes,
error codes) and the tracing and metrics side effects.
"""

from __future__ import annotations

import json

import pytest

from repro import Database, parse_parenthesized
from repro.service.app import ServiceApp
from repro.service.models import SCHEMA_VERSION, relation_from_payload

ITEM_NAMES = "site(//item[ID](/name[V]))"


def make_database() -> Database:
    document = parse_parenthesized(
        'site(item(name="pen") item(name="ink") item(name="vase"))'
    )
    database = Database(document)
    database.create_view(ITEM_NAMES, name="item_names")
    return database


@pytest.fixture()
def db():
    database = make_database()
    yield database
    database.close()


@pytest.fixture()
def app(db):
    return ServiceApp(db)


# --------------------------------------------------------------------------- #
# /query and the response envelope
# --------------------------------------------------------------------------- #
def test_query_returns_the_enveloped_result(app, db):
    response = app.handle("POST", "/query", {"query": ITEM_NAMES})
    assert response.ok and response.status == 200
    body = response.body
    assert body["schema_version"] == SCHEMA_VERSION
    assert body["request_id"] == response.request_id
    assert body["trace_id"] == response.trace_id
    assert len(response.trace_id) == 32
    assert body["views_used"] == ["item_names"]
    rebuilt = relation_from_payload(body["result"])
    assert rebuilt.same_contents(db.query(ITEM_NAMES))


def test_each_request_gets_a_distinct_id_and_trace(app):
    first = app.handle("POST", "/query", {"query": ITEM_NAMES})
    second = app.handle("POST", "/query", {"query": ITEM_NAMES})
    assert first.request_id != second.request_id
    assert first.trace_id != second.trace_id


def test_query_body_must_be_json_object(app):
    response = app.handle("POST", "/query", None)
    assert response.status == 400
    assert response.body["error"]["code"] == "bad-request"


def test_unparsable_pattern_maps_to_bad_pattern(app):
    response = app.handle("POST", "/query", {"query": "site(((("})
    assert response.status == 400
    assert response.body["error"]["code"] == "bad-pattern"


def test_unanswerable_query_maps_to_422(app):
    response = app.handle("POST", "/query", {"query": "site(//mailbox[ID])"})
    assert response.status == 422
    assert response.body["error"]["code"] == "unanswerable"


def test_unknown_endpoint_and_wrong_method(app):
    assert app.handle("POST", "/nope", {}).status == 404
    assert app.handle("GET", "/query", None).status == 405
    assert app.handle("POST", "/healthz", {}).status == 405
    assert app.handle("GET", "/execute/stmt-1", None).status == 405


def test_trailing_slashes_are_tolerated(app):
    assert app.handle("GET", "/healthz/", None).status == 200


def test_query_many_preserves_input_order(app, db):
    queries = [ITEM_NAMES, "site(//item[ID])", ITEM_NAMES]
    response = app.handle("POST", "/query_many", {"queries": queries})
    assert response.ok
    results = response.body["results"]
    assert len(results) == 3
    for query, result in zip(queries, results):
        rebuilt = relation_from_payload(result["result"])
        assert rebuilt.same_contents(db.query(query))


# --------------------------------------------------------------------------- #
# prepare / execute
# --------------------------------------------------------------------------- #
def test_prepare_then_execute_roundtrip(app, db):
    prepared = app.handle("POST", "/prepare", {"query": ITEM_NAMES})
    assert prepared.ok
    stmt_id = prepared.body["stmt_id"]
    assert prepared.body["times_planned"] == 1
    executed = app.handle("POST", f"/execute/{stmt_id}", None)
    assert executed.ok
    assert executed.body["times_planned"] == 1
    rebuilt = relation_from_payload(executed.body["result"])
    assert rebuilt.same_contents(db.query(ITEM_NAMES))


def test_execute_replans_after_ddl(app):
    stmt_id = app.handle("POST", "/prepare", {"query": ITEM_NAMES}).body["stmt_id"]
    app.handle("POST", f"/execute/{stmt_id}", None)
    ddl = app.handle(
        "POST", "/ddl",
        {"op": "create_view", "name": "ids", "pattern": "site(//item[ID])"},
    )
    assert ddl.ok
    executed = app.handle("POST", f"/execute/{stmt_id}", None)
    assert executed.body["times_planned"] == 2, "DDL must force a re-plan"


def test_execute_unknown_statement_is_404(app):
    response = app.handle("POST", "/execute/stmt-99", None)
    assert response.status == 404
    assert response.body["error"]["code"] == "unknown-statement"


def test_execute_rejects_a_request_body(app):
    stmt_id = app.handle("POST", "/prepare", {"query": ITEM_NAMES}).body["stmt_id"]
    response = app.handle("POST", f"/execute/{stmt_id}", {"surprise": 1})
    assert response.status == 400


# --------------------------------------------------------------------------- #
# explain
# --------------------------------------------------------------------------- #
def test_explain_returns_the_structured_report(app, db):
    response = app.handle("POST", "/explain", {"query": ITEM_NAMES})
    assert response.ok
    report = response.body["explain"]
    assert report["views_used"] == ["item_names"]
    assert report["analyzed"] is False
    assert report["operators"][0]["depth"] == 0
    from repro.session.explain import ExplainReport

    assert ExplainReport.from_dict(report).views_used == ("item_names",)


def test_explain_analyze_carries_actual_rows(app):
    response = app.handle(
        "POST", "/explain", {"query": ITEM_NAMES, "analyze": True}
    )
    report = response.body["explain"]
    assert report["analyzed"] is True
    assert report["actual_rows"] == 3
    for entry in report["operators"]:
        assert entry["actual_rows"] is not None


# --------------------------------------------------------------------------- #
# ddl / ingest
# --------------------------------------------------------------------------- #
def test_ddl_create_and_drop(app, db):
    created = app.handle(
        "POST", "/ddl",
        {"op": "create_view", "name": "ids", "pattern": "site(//item[ID])"},
    )
    assert created.ok and created.body["rows"] == 3
    assert "ids" in db.views
    dropped = app.handle("POST", "/ddl", {"op": "drop_view", "name": "ids"})
    assert dropped.ok
    assert dropped.body["views_version"] > created.body["views_version"]
    assert "ids" not in db.views


def test_ddl_drop_unknown_view_is_404(app):
    response = app.handle("POST", "/ddl", {"op": "drop_view", "name": "ghost"})
    assert response.status == 404
    assert response.body["error"]["code"] == "unknown-view"


def test_ddl_duplicate_view_name_is_400_not_500(app):
    response = app.handle(
        "POST", "/ddl",
        {"op": "create_view", "name": "item_names", "pattern": "site(//item[ID])"},
    )
    assert response.status in (400, 500)
    assert "error" in response.body


def test_ingest_insert_and_delete_maintain_results(app, db):
    inserted = app.handle(
        "POST", "/ingest",
        {"op": "insert", "parent": "1",
         "subtree": ["item", None, [["name", "jar", []]]]},
    )
    assert inserted.ok
    dewey = inserted.body["dewey"]
    assert inserted.body["maintenance"]["summary_rebuilt"] == 0
    after = app.handle("POST", "/query", {"query": ITEM_NAMES})
    assert after.body["result"]["row_count"] == 4
    deleted = app.handle("POST", "/ingest", {"op": "delete", "dewey": dewey})
    assert deleted.ok and deleted.body["dewey"] == dewey
    final = app.handle("POST", "/query", {"query": ITEM_NAMES})
    assert final.body["result"]["row_count"] == 3


def test_ingest_bad_dewey_is_a_client_error(app):
    response = app.handle("POST", "/ingest", {"op": "delete", "dewey": "9.9.9"})
    assert 400 <= response.status < 500


# --------------------------------------------------------------------------- #
# observability endpoints
# --------------------------------------------------------------------------- #
def test_healthz_reports_the_session(app):
    response = app.handle("GET", "/healthz", None)
    assert response.ok
    assert response.body["status"] == "ok"
    assert response.body["views"] == 1


def test_metrics_render_requests_and_database_gauges(app):
    app.handle("POST", "/query", {"query": ITEM_NAMES})
    app.handle("POST", "/query", {"query": ITEM_NAMES})
    response = app.handle("GET", "/metrics", None)
    assert response.ok
    assert response.content_type.startswith("text/plain")
    text = response.body
    assert 'service_requests_total{endpoint="/query",status="200"} 2' in text
    assert 'service_request_seconds_count{endpoint="/query"} 2' in text
    # phase histograms observed once per query
    assert 'service_query_phase_seconds_count{phase="plan"} 2' in text
    # database gauges from Database.stats(): second query hit the plan cache
    assert "service_plan_cache_hits 1" in text
    assert "service_plan_cache_misses 1" in text
    assert "service_plan_cache_hit_rate 0.5" in text
    assert "service_views 1" in text
    assert 'service_maintenance_operations{path="delta_applied"} 0' in text
    assert 'service_maintenance_operations{path="links_followed"} 0' in text
    assert 'service_maintenance_operations{path="links_dropped"} 0' in text


def test_metrics_error_statuses_are_counted(app):
    app.handle("POST", "/query", {"query": "site(//mailbox[ID])"})
    text = app.handle("GET", "/metrics", None).body
    assert 'service_requests_total{endpoint="/query",status="422"} 1' in text


def test_debug_traces_exposes_span_trees_with_operator_children(app):
    app.handle("POST", "/query", {"query": ITEM_NAMES})
    response = app.handle("GET", "/debug/traces", None)
    traces = response.body["traces"]
    assert traces, "the query trace must be retained"
    trace = traces[-1]
    assert trace["name"] == "POST /query"
    phases = [child["name"] for child in trace["children"]]
    assert phases == ["parse", "plan", "execute"]
    execute = trace["children"][2]
    operators = [
        grandchild
        for grandchild in execute["children"]
        if grandchild["name"].startswith("operator:")
    ]
    assert operators, "execute must carry per-operator spans"
    for span in operators:
        assert "estimated_rows" in span["attributes"]
        assert "actual_rows" in span["attributes"]


def test_profile_queries_false_skips_operator_spans(db):
    app = ServiceApp(db, profile_queries=False)
    app.handle("POST", "/query", {"query": ITEM_NAMES})
    trace = app.handle("GET", "/debug/traces", None).body["traces"][-1]
    execute = trace["children"][2]
    assert execute["children"] == []


def test_slow_query_log_fed_by_the_pipeline(db):
    app = ServiceApp(db, slow_query_seconds=0.0)  # everything is "slow"
    app.handle("POST", "/query", {"query": ITEM_NAMES})
    response = app.handle("GET", "/debug/slow_queries", None)
    assert response.body["threshold_seconds"] == 0.0
    entries = response.body["slow_queries"]
    assert len(entries) == 1
    entry = entries[0]
    assert len(entry["fingerprint"]) == 16
    assert "Projection" in entry["plan"] or "Scan" in entry["plan"]
    assert len(entry["trace_id"]) == 32


def test_a_fast_query_pays_nothing_for_the_slow_query_log(db, monkeypatch):
    from repro.service import app as app_module

    fingerprints = []
    real = app_module._fingerprint_hex
    monkeypatch.setattr(
        app_module,
        "_fingerprint_hex",
        lambda pattern: fingerprints.append(pattern) or real(pattern),
    )
    fast = ServiceApp(db, slow_query_seconds=3600.0)
    assert fast.handle("POST", "/query", {"query": ITEM_NAMES}).status == 200
    assert fast.handle("GET", "/debug/slow_queries", None).body["slow_queries"] == []
    assert fingerprints == []  # not computed and thrown away

    slow = ServiceApp(db, slow_query_seconds=0.0)
    slow.handle("POST", "/query", {"query": ITEM_NAMES})
    (entry,) = slow.handle("GET", "/debug/slow_queries", None).body["slow_queries"]
    assert sorted(entry) == ["fingerprint", "plan", "query_name", "seconds", "trace_id"]
    assert len(fingerprints) == 1 and entry["fingerprint"] == real(fingerprints[0])


def test_trace_log_path_writes_jsonl(db, tmp_path):
    path = tmp_path / "traces.jsonl"
    app = ServiceApp(db, trace_log_path=path)
    app.handle("POST", "/query", {"query": ITEM_NAMES})
    app.handle("GET", "/healthz", None)
    app.close()
    app.close()  # idempotent
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["POST /query", "GET /healthz"]


def test_error_requests_still_trace(app):
    response = app.handle("POST", "/query", {"query": "site(//mailbox[ID])"})
    assert response.trace_id is not None
    traces = app.handle("GET", "/debug/traces", None).body["traces"]
    failed = [t for t in traces if t["trace_id"] == response.trace_id]
    assert failed and failed[0]["status"] == "error"
