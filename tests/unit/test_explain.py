"""``EXPLAIN`` / ``EXPLAIN ANALYZE`` reports: structure, decisions, actuals.

The acceptance-level property lives in ``test_explain_analyze_fig13_query``:
on a real Figure 13 XMark query pattern, ``PreparedQuery.explain(analyze=
True)`` must report estimated *and* actual rows for every plan operator.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import RewritingError
from repro.session.explain import ExplainReport
from repro.workloads.synthetic import seed_tag_views
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns

JOIN_QUERY = "site(//item[ID](/name[V], /description[ID]))"


@pytest.fixture()
def db(auction_document):
    database = Database(auction_document)
    database.create_view("site(//item[ID](/name[V]))", name="names")
    database.create_view("site(//description[ID])", name="descriptions")
    yield database
    database.close()


def test_explain_reports_plan_shape_and_estimates(db):
    report = db.explain(JOIN_QUERY, name="q")
    assert isinstance(report, ExplainReport)
    assert not report.analyzed
    assert report.query_name == "q"
    assert report.views_used  # at least one view is scanned
    assert report.chosen_cost > 0
    assert report.alternative_costs[0] == report.chosen_cost
    assert list(report.alternative_costs) == sorted(report.alternative_costs)
    assert report.operators, "the plan tree must be listed"
    assert report.operators[0].depth == 0
    # the search that found the plan reports what it did, by counter name
    assert set(report.search) == {
        "candidates_explored", "joins_attempted",
        "alignments_pruned", "pairs_skipped_by_suppliers", "fusions_skipped",
    }
    assert report.search["joins_attempted"] > 0
    assert "search: candidates_explored=" in report.to_text()
    for entry in report.operators:
        assert entry.estimated_rows >= 0
        assert entry.cumulative_cost > 0
        assert entry.actual_rows is None  # no analyze, no actuals


def test_explain_reports_join_order_decisions(db):
    report = db.explain(JOIN_QUERY, name="q")
    decisions = [e.order_decision for e in report.operators if e.order_decision]
    assert decisions, "a join plan must surface its order decisions"
    for decision in decisions:
        assert decision == "merge" or decision.startswith(("sort+merge", "hash"))


def test_explain_analyze_attaches_actuals(db):
    prepared = db.prepare(JOIN_QUERY, name="q")
    report = prepared.explain(analyze=True)
    assert report.analyzed
    assert report.actual_seconds is not None and report.actual_seconds > 0
    assert report.actual_rows == len(prepared.run())
    for entry in report.operators:
        assert entry.actual_rows is not None, entry.description
        assert entry.actual_seconds is not None and entry.actual_seconds >= 0
    # the root's measured size is the result size
    assert report.operators[0].actual_rows == report.actual_rows


def test_explain_text_rendering_mentions_estimates_and_actuals(db):
    text = db.explain(JOIN_QUERY, analyze=True, name="q").to_text()
    assert text.startswith("EXPLAIN ANALYZE 'q'")
    assert "rows≈" in text and "cost≈" in text
    assert "actual rows=" in text and "time=" in text


def test_explain_analyze_fig13_query():
    """Estimated and actual rows for every operator on a fig13 query."""
    document = generate_xmark_document(scale=0.3, seed=548, name="xmark-explain")
    database = Database(document)
    for index, pattern in enumerate(seed_tag_views(database.summary)):
        database.create_view(pattern, name=f"seed{index}_{pattern.name}")

    report = None
    for name, pattern in sorted(
        xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
    ):
        try:
            prepared = database.prepare(pattern)
        except RewritingError:
            continue
        report = prepared.explain(analyze=True)
        break
    assert report is not None, "no fig13 query is answerable over the seed views"
    assert report.analyzed and report.operators
    for entry in report.operators:
        assert entry.estimated_rows >= 0, entry.description
        assert entry.actual_rows is not None, (
            f"operator {entry.description} has no measured row count"
        )
    database.close()


# --------------------------------------------------------------------------- #
# dict round-trips (the service tier's wire format)
# --------------------------------------------------------------------------- #
def test_report_to_dict_roundtrip_unanalyzed(db):
    report = db.explain(JOIN_QUERY, name="q")
    data = report.to_dict()
    assert data["query_name"] == "q"
    assert isinstance(data["views_used"], list)
    assert isinstance(data["alternative_costs"], list)
    assert all(isinstance(entry, dict) for entry in data["operators"])
    rebuilt = ExplainReport.from_dict(data)
    assert rebuilt == report
    assert rebuilt.to_text() == report.to_text()


def test_report_to_dict_roundtrip_analyzed(db):
    report = db.explain(JOIN_QUERY, analyze=True, name="q")
    rebuilt = ExplainReport.from_dict(report.to_dict())
    assert rebuilt == report
    assert rebuilt.analyzed and rebuilt.actual_rows == report.actual_rows


def test_report_to_dict_is_json_safe(db):
    import json

    data = db.explain(JOIN_QUERY, analyze=True, name="q").to_dict()
    assert json.loads(json.dumps(data)) == data


def test_from_dict_rejects_malformed_payloads(db):
    report = db.explain(JOIN_QUERY, name="q")
    data = report.to_dict()
    with pytest.raises(ValueError, match="malformed explain report"):
        ExplainReport.from_dict({"query_name": "q"})
    broken = dict(data, operators=[{"description": "x"}])
    with pytest.raises(ValueError, match="malformed explain operator"):
        ExplainReport.from_dict(broken)
