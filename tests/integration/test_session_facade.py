"""End-to-end façade behaviour: layer identity, warm batches, DDL flow.

* the layer-level ``Planner(rewriter).answer`` and the façade's
  ``Database.query`` must produce identical relations;
* a ``Database.query_many`` workload the plan cache already holds searches
  nothing and answers exactly like the first run;
* a DDL → query → DDL → query session must stay consistent throughout.
"""

from __future__ import annotations

import pytest

from repro import Database, Rewriter, parse_pattern
from repro.planning.planner import Planner

ITEM_NAMES = "site(//item[ID](/name[V]))"
KEYWORDS = "site(//keyword[ID,V])"


@pytest.fixture()
def db(auction_document):
    database = Database(auction_document)
    database.create_view(ITEM_NAMES, name="names")
    database.create_view(KEYWORDS, name="keywords")
    yield database
    database.close()


# --------------------------------------------------------------------------- #
# layer-level answer ≡ façade
# --------------------------------------------------------------------------- #
def test_planner_answer_matches_facade(db, auction_summary):
    rewriter = Rewriter(auction_summary, list(db.views))
    query = parse_pattern(ITEM_NAMES, name="q")

    layer_answer = Planner(rewriter).answer(query)
    facade_answer = db.query(ITEM_NAMES, name="q")
    assert layer_answer.same_contents(facade_answer), (
        "the planner and the façade must produce identical relations"
    )


# --------------------------------------------------------------------------- #
# a warm query_many
# --------------------------------------------------------------------------- #
def test_a_warm_query_many_searches_nothing(db):
    queries = [ITEM_NAMES, KEYWORDS, "site(//item[ID])", ITEM_NAMES]
    sequential = db.query_many(queries)
    searches = db.rewriter.search_totals["searches"]
    warm = db.query_many(queries)
    assert db.rewriter.search_totals["searches"] == searches
    assert [result.rows for result in warm] == [result.rows for result in sequential]


# --------------------------------------------------------------------------- #
# a full session: DDL interleaved with queries
# --------------------------------------------------------------------------- #
def test_session_stays_consistent_across_ddl(db, auction_document):
    from repro import evaluate_pattern

    prepared = db.prepare(ITEM_NAMES, name="q")
    baseline = prepared.run()

    db.drop_view("keywords")
    assert prepared.run().same_contents(baseline)

    db.create_view("site(//description[ID])", name="descr")
    joined = db.query(
        "site(//item[ID](/name[V], /description[ID]))", name="join-q"
    )
    direct = evaluate_pattern(
        parse_pattern("site(//item[ID](/name[V], /description[ID]))", name="join-q"),
        auction_document,
    )
    assert joined.same_contents(direct)
