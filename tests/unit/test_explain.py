"""``EXPLAIN`` / ``EXPLAIN ANALYZE`` reports: structure, estimates, actuals.

The acceptance-level property lives in ``test_explain_analyze_fig13_query``:
on a real Figure 13 XMark query pattern, ``PreparedQuery.explain(analyze=
True)`` must report estimated *and* actual rows for every plan operator.
"""

from __future__ import annotations

import pytest

from repro import (
    Database,
    MaterializedView,
    parse_parenthesized,
    parse_pattern,
)
from repro.algebra.columnar import ColumnBatch
from repro.errors import RewritingError
from repro.session.explain import ExplainReport
from repro.views.view import IdScheme
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


def test_an_equality_join_over_opaque_ids_is_explained_without_an_order_label():
    """An opaque identifier scheme keeps its extent in no document order;
    the plan joins on ``⋈=``, and EXPLAIN reports operators with no
    algorithm label: each operator has one algorithm, order is read off
    the data at run time, and the planner predicts none of it."""
    document = parse_parenthesized(
        'site(regions(asia(item(name="pen" price="3") item(name="ink" price="5"))))'
    )
    opaque = IdScheme(structural=False, derives_parent=False, name="opaque")
    views = [
        MaterializedView(parse_pattern(text, name=name), document, id_scheme=opaque)
        for name, text in (
            ("v_name", "site(//item[ID](/name[V]))"),
            ("v_price", "site(//item[ID](/price[V]))"),
        )
    ]
    database = Database(document, views)
    report = database.explain("site(//item[ID](/name[V], /price[V]))")
    assert "IdEqualityJoin" in report.to_text()
    assert all("order_decision" not in entry.to_dict() for entry in report.operators)
    assert "merge" not in report.to_text() and "hash" not in report.to_text()
    database.close()


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


def _counting_to_relation(monkeypatch) -> list:
    calls = []
    real = ColumnBatch.to_relation

    def counted(batch):
        calls.append(batch)
        return real(batch)

    monkeypatch.setattr(ColumnBatch, "to_relation", counted)
    return calls


def test_explain_analyze_builds_no_result_relation(db, monkeypatch):
    prepared = db.prepare(JOIN_QUERY, name="q")
    # what the report said when it was built from execute_choice's run
    _, executor = db.execute_choice(prepared.choice, profile=True)
    before = db.explain_choice(prepared.choice, executor, 0.0)
    calls = _counting_to_relation(monkeypatch)
    report = prepared.explain(analyze=True)
    assert calls == []
    assert [e.description for e in report.operators] == [
        e.description for e in before.operators
    ]
    assert [e.actual_rows for e in report.operators] == [
        e.actual_rows for e in before.operators
    ]


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
def test_report_to_dict_unanalyzed(db):
    report = db.explain(JOIN_QUERY, name="q")
    data = report.to_dict()
    assert data["query_name"] == "q"
    assert isinstance(data["views_used"], list)
    assert isinstance(data["alternative_costs"], list)
    assert data["operators"] == [operator.to_dict() for operator in report.operators]
    assert data["analyzed"] is False


def test_report_to_dict_analyzed(db):
    report = db.explain(JOIN_QUERY, analyze=True, name="q")
    data = report.to_dict()
    assert data["analyzed"] and data["actual_rows"] == report.actual_rows


def test_report_to_dict_is_json_safe(db):
    import json

    data = db.explain(JOIN_QUERY, analyze=True, name="q").to_dict()
    assert json.loads(json.dumps(data)) == data


def test_two_identical_sessions_describe_a_plan_byte_for_byte(auction_document):
    """Scan aliases (``view@N``) and generated column names (``vid#N``) are
    numbered per search: two identically built sessions in one process show
    one query's plans the same, whatever either of them ran before."""
    query = "site(//item[ID](/name[V], /description[ID]))"

    def session():
        database = Database(auction_document)
        database.create_view("site(//item[ID](/name[V]))", name="names")
        database.create_view("site(//item[ID](/description[ID]))", name="descr")
        database.create_view("site(//description[ID])", name="descriptions")
        return database

    first, second = session(), session()
    for unrelated in ("site(//item[ID](/name[V]))", "site(//description[ID])", JOIN_QUERY):
        first.query(unrelated)
    texts = [
        [planned.describe() for planned in database.plan_query(query)]
        for database in (first, second)
    ]
    assert texts[0] == texts[1]
    assert any("@" in text for text in texts[0]) and any("#" in text for text in texts[0])
    assert first.explain(query).to_text() == second.explain(query).to_text()
    first.close()
    second.close()
