"""End-to-end façade behaviour: layer identity, pool persistence, DDL flow.

* the layer-level ``Planner(rewriter).answer`` and the façade's
  ``Database.query`` must produce identical relations;
* ``Database.query_many(workers=2)`` must answer exactly like the
  sequential path, reusing one persistent pool across calls and surviving
  ``close()`` (which only releases the processes); the pool follows the
  view *definitions* — DDL and shape-changing writes recycle it, a write
  that only moved instance counts keeps it — and a workload the plan cache
  already holds starts no pool at all;
* a DDL → query → DDL → query session must stay consistent throughout.

``query_many`` answers plan-cache hits without a search, so the tests that
mean to exercise the pool empty ``db.plan_cache`` first or go through
``rewrite_many``.
"""

from __future__ import annotations

import re

import pytest

from repro import Database, Rewriter, XMLNode, parse_parenthesized, parse_pattern
from repro.planning.planner import Planner
from repro.views.catalog import ViewCatalog

ITEM_NAMES = "site(//item[ID](/name[V]))"
KEYWORDS = "site(//keyword[ID,V])"
TEXTS = "site(//text[ID,V])"


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

    db.plan_cache.clear()
    first_parallel = db.query_many(queries, workers=2)
    engine = db.rewriter._batch_engine
    assert engine is not None and engine._pool is not None, (
        "a parallel query_many must leave the persistent pool alive"
    )
    pool_before = engine._pool
    db.plan_cache.clear()
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
    db.plan_cache.clear()
    reopened = db.query_many(queries, workers=2)
    assert engine._pool is not None
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


def test_a_warm_query_many_starts_no_pool_and_searches_nothing(db):
    queries = [ITEM_NAMES, KEYWORDS, "site(//item[ID])", ITEM_NAMES]
    sequential = db.query_many(queries)
    searches = db.rewriter.search_totals["searches"]
    warm = db.query_many(queries, workers=2)
    assert db.rewriter._batch_engine is None, "every query was a plan-cache hit"
    assert db.rewriter.search_totals["searches"] == searches
    assert [result.rows for result in warm] == [result.rows for result in sequential]


_ALIAS = re.compile(r"[@#]\d+")


def _fingerprint(outcome):
    return [
        (tuple(r.views_used), r.is_union, _ALIAS.sub("@N", r.plan.describe()))
        for r in outcome.rewritings
    ]


@pytest.fixture()
def live_db():
    """A session over its own document: these tests write to it."""
    document = parse_parenthesized(
        'site(regions(asia(item(name="pen" description(text="steel")) '
        'item(name="ink" description(text="blue")))))'
    )
    database = Database(document)
    database.create_view(ITEM_NAMES, name="names")
    database.create_view(TEXTS, name="texts")
    yield database
    database.close()


@pytest.mark.parametrize(
    "children, definitions_change",
    [
        # an item like the ones already there: every path exists, every edge
        # flag survives — only instance counts move
        ([XMLNode("name", "quill"), XMLNode("description", None, [XMLNode("text", "grey")])], False),
        # a new label under item: the summary gains a path
        ([XMLNode("name", "quill"), XMLNode("colour", "grey")], True),
    ],
    ids=["count-only", "shape-changing"],
)
def test_the_pool_follows_the_definition_version(
    live_db, monkeypatch, children, definitions_change
):
    db = live_db
    queries = [
        parse_pattern(text, name=f"q{i}")
        for i, text in enumerate([ITEM_NAMES, TEXTS, "site(//item[ID])"])
    ]
    db.rewrite_many(queries, workers=2)
    engine = db.rewriter._batch_engine
    pool_before = engine._pool
    version = db.views.version
    db.insert_subtree(
        db.document.nodes_on_path("/site/regions/asia")[0],
        XMLNode("item", None, children),
    )
    assert (db.views.version != version) == definitions_change

    saves = []
    original_save = ViewCatalog.save

    def counting_save(self, path, include_extents=False):
        saves.append(str(path))
        return original_save(self, path, include_extents=include_extents)

    monkeypatch.setattr(ViewCatalog, "save", counting_save)
    parallel = db.rewrite_many(queries, workers=2)
    # workers hold the catalog of the snapshot they loaded: it must be
    # replaced exactly when a rewriting could have changed
    assert (engine._pool is not pool_before) == definitions_change
    assert len(saves) == definitions_change
    sequential = db.rewrite_many(queries)
    assert [_fingerprint(o) for o in parallel] == [_fingerprint(o) for o in sequential]


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
