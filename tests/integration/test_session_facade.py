"""End-to-end façade behaviour: layer identity, pool persistence, DDL flow.

* the layer-level ``Planner(rewriter).answer`` and the façade's
  ``Database.query`` must produce identical relations;
* ``Database.query_many(workers=2)`` must answer exactly like the
  sequential path, reusing one persistent pool across calls and surviving
  ``close()`` (which only releases the processes);
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
# persistent pool through query_many
# --------------------------------------------------------------------------- #
def test_query_many_parallel_matches_sequential_and_reuses_pool(db):
    queries = [ITEM_NAMES, KEYWORDS, "site(//item[ID])", ITEM_NAMES]
    sequential = db.query_many(queries)

    first_parallel = db.query_many(queries, workers=2)
    engine = db.rewriter._batch_engine
    assert engine is not None and engine._pool is not None, (
        "a parallel query_many must leave the persistent pool alive"
    )
    pool_before = engine._pool
    second_parallel = db.query_many(queries, workers=2)
    assert engine._pool is pool_before, (
        "an unchanged session must reuse the pool, not respawn it"
    )

    for left, right in zip(sequential, first_parallel):
        assert left.same_contents(right)
    for left, right in zip(sequential, second_parallel):
        assert left.same_contents(right)

    db.close()
    assert engine._pool is None, "close() must shut the pool down"
    # the session stays usable; a fresh pool comes up on demand
    reopened = db.query_many(queries, workers=2)
    for left, right in zip(sequential, reopened):
        assert left.same_contents(right)


def test_ddl_recycles_the_pool(db):
    queries = [ITEM_NAMES, KEYWORDS]
    db.query_many(queries, workers=2)
    engine = db.rewriter._batch_engine
    pool_before = engine._pool
    db.create_view("site(//listitem[ID])", name="listitems")
    db.query_many(queries, workers=2)
    assert engine._pool is not pool_before, (
        "view DDL must recycle the pool (workers hold the old catalog)"
    )


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
