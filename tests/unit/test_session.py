"""Unit tests for the ``Database`` session façade.

Lifecycle (construction, save/load, close), view DDL with *incremental*
catalog maintenance (the entry-build counter is the observable contract),
prepared queries (plan-once semantics, DDL-driven re-planning) and the
query sugar, all over the small auction fixture document.
"""

from __future__ import annotations

import pytest

from repro import Database, evaluate_pattern, parse_pattern
from repro.errors import ReproError, RewritingError, SessionError
from repro.views.catalog import ViewCatalog

ITEM_NAMES = "site(//item[ID](/name[V]))"


@pytest.fixture()
def db(auction_document):
    database = Database(auction_document)
    database.create_view(ITEM_NAMES, name="item_names")
    yield database
    database.close()


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
def test_database_needs_document_or_summary():
    with pytest.raises(SessionError):
        Database()


def test_database_builds_summary_and_owns_views(db, auction_summary):
    assert db.summary.size == auction_summary.size
    assert db.views.names == ["item_names"]
    assert db.document is not None


def test_from_summary_session_rewrites_without_a_document(auction_summary):
    database = Database.from_summary(auction_summary)
    database.create_view(ITEM_NAMES, name="v", materialize=False)
    outcome = database.rewrite(parse_pattern(ITEM_NAMES, name="q"))
    assert outcome.found


def test_context_manager_closes(auction_document):
    with Database(auction_document) as database:
        database.create_view(ITEM_NAMES, name="v")
        assert len(database.query(ITEM_NAMES)) == 3
    database.close()  # idempotent after __exit__


def test_save_load_roundtrip(db, auction_document, tmp_path):
    path = tmp_path / "auction.db"
    db.save(path)
    loaded = Database.load(path)
    assert loaded.views.names == db.views.names
    # extents ship with the database snapshot: the loaded session executes
    assert loaded.query(ITEM_NAMES).same_contents(db.query(ITEM_NAMES))
    # the persisted catalog is adopted, not rebuilt
    assert loaded.catalog.entry_build_count == db.catalog.entry_build_count


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.db"
    path.write_bytes(b"not a pickle")
    with pytest.raises(SessionError):
        Database.load(path)


def test_catalog_snapshots_without_build_counter_still_load(db):
    """Pre-1.4 catalog snapshots lack entry_build_count; loading backfills it."""
    import pickle

    catalog = db.catalog
    saved = catalog.__dict__.pop("entry_build_count")
    try:
        payload = pickle.dumps(catalog)
    finally:
        catalog.entry_build_count = saved
    restored = pickle.loads(payload)
    assert restored.entry_build_count == len(restored._entries)
    # and the incremental DDL path works on the restored catalog
    from repro import MaterializedView, parse_pattern

    restored.add_view(
        MaterializedView(parse_pattern("site(//keyword[ID])", name="kw"), name="kw")
    )
    assert restored.entry_build_count == len(restored._entries)


# --------------------------------------------------------------------------- #
# view DDL + incremental catalog maintenance
# --------------------------------------------------------------------------- #
def test_create_view_parses_text_and_materialises(db):
    view = db.create_view("site(//keyword[ID,V])", name="keywords")
    assert view.is_materialized
    assert "keywords" in db.views


def test_create_view_rejects_duplicate_names(db):
    with pytest.raises(ReproError):
        db.create_view(ITEM_NAMES, name="item_names")


def test_drop_view_unknown_raises(db):
    with pytest.raises(KeyError):
        db.drop_view("nope")


def test_ddl_patches_catalog_instead_of_rebuilding(auction_document):
    """One create + one drop among 50 views must build exactly one entry."""
    database = Database(auction_document)
    for index in range(50):
        database.create_view(
            "site(//item[ID](/name[V]))" if index % 2 else "site(//keyword[ID,V])",
            name=f"v{index}",
        )
    catalog = database.catalog  # force the build
    builds_after_full_build = catalog.entry_build_count
    assert builds_after_full_build >= 50

    database.drop_view("v7")
    extra = database.create_view("site(//listitem[ID])", name="extra")
    assert database.catalog is catalog, "DDL must not replace the catalog object"
    assert catalog.entry_build_count == builds_after_full_build + 1, (
        "dropping + creating 1 view among 50 must build exactly one new "
        "entry — the other 49 are patched around, not rebuilt"
    )
    assert len(catalog) == 50
    # and the patched catalog is consistent: the new view is queryable
    assert extra.name in {view.name for view in catalog.views}
    assert "v7" not in {view.name for view in catalog.views}
    database.close()


def test_patched_catalog_matches_fresh_rebuild(db, auction_summary):
    db.create_view("site(//keyword[ID,V])", name="kw")
    db.create_view("site(//listitem[ID])", name="li")
    db.drop_view("kw")
    patched = db.catalog
    fresh = ViewCatalog(auction_summary, list(db.views))
    assert patched._by_name == fresh._by_name
    assert patched._by_root_label == fresh._by_root_label
    assert patched._by_related_path == fresh._by_related_path
    assert patched._by_path_attribute == fresh._by_path_attribute


def test_statistics_follow_incremental_ddl(db):
    db.catalog.statistics()  # build the snapshot before the DDL
    view = db.create_view("site(//keyword[ID,V])", name="kw")
    assert db.catalog.statistics().view_rows("kw") == float(len(view.relation))
    db.drop_view("kw")
    assert db.catalog.statistics().view_rows("kw") == 1.0  # unknown floor


# --------------------------------------------------------------------------- #
# prepared queries + sugar
# --------------------------------------------------------------------------- #
def test_query_matches_direct_evaluation(db, auction_document):
    answer = db.query(ITEM_NAMES, name="q")
    direct = evaluate_pattern(parse_pattern(ITEM_NAMES, name="q"), auction_document)
    assert answer.same_contents(direct)


def test_prepare_plans_once_and_runs_many(db):
    prepared = db.prepare(ITEM_NAMES, name="q")
    first = prepared.run()
    second = prepared.run()
    assert prepared.times_planned == 1
    assert first.same_contents(second)
    assert len(first) == 3


def test_prepare_raises_without_rewriting(db):
    with pytest.raises(RewritingError):
        db.prepare("site(//mailbox[ID])", name="q")


def test_prepared_query_replans_after_ddl(db):
    prepared = db.prepare(ITEM_NAMES, name="q")
    before = prepared.run()
    db.create_view("site(//keyword[ID,V])", name="kw")
    after = prepared.run()
    assert prepared.times_planned == 2, "view DDL must force a re-plan"
    assert before.same_contents(after)


def test_prepared_query_fails_cleanly_when_views_vanish(db):
    prepared = db.prepare(ITEM_NAMES, name="q")
    db.drop_view("item_names")
    with pytest.raises(RewritingError):
        prepared.run()


def test_query_many_matches_single_queries(db):
    queries = [ITEM_NAMES, "site(//item[ID])"]
    batched = db.query_many(queries)
    singles = [db.query(query) for query in queries]
    assert len(batched) == len(singles)
    for left, right in zip(batched, singles):
        assert left.same_contents(right)


def test_query_many_raises_on_unanswerable_query(db):
    with pytest.raises(RewritingError):
        db.query_many([ITEM_NAMES, "site(//mailbox[ID])"])


# --------------------------------------------------------------------------- #
# the aggregated observability snapshot
# --------------------------------------------------------------------------- #
def test_stats_aggregates_every_layer(db):
    snapshot = db.stats()
    assert snapshot["document"] == "auction"
    assert snapshot["summary"]["size"] > 0
    assert snapshot["views"] == {
        "count": 1, "version": 1, "data_version": 1, "materialized": 1,
    }
    assert snapshot["executor"] == "vectorized"
    assert "maintenance_mode" not in snapshot
    assert snapshot["plan_cache"]["hits"] == 0
    assert set(snapshot["maintenance"]) == {
        "delta_applied", "rematerialized",
        "summary_incremental", "summary_rebuilt",
        "statistics_spliced", "statistics_reobserved",
        "links_followed", "links_dropped",
    }
    assert "worker_pool" not in snapshot
    assert snapshot["indexes"].keys() == {"builds", "probes"}


def test_stats_tracks_queries_and_ddl(db):
    db.query(ITEM_NAMES)
    db.query(ITEM_NAMES)  # second one hits the plan cache
    db.create_view("site(//keyword[ID,V])", name="kw")
    snapshot = db.stats()
    assert snapshot["plan_cache"]["hits"] == 1
    assert snapshot["plan_cache"]["misses"] == 1
    # one search (the miss); its counters are summed under "rewriting"
    assert snapshot["rewriting"]["searches"] == 1
    assert {"candidates_explored", "joins_attempted", "alignments_pruned",
            "pairs_skipped_by_suppliers", "fusions_skipped"} <= set(snapshot["rewriting"])
    assert snapshot["views"]["count"] == 2
    assert snapshot["views"]["version"] == 2


def test_stats_export_the_containment_deciders(db):
    from repro import clear_containment_cache

    clear_containment_cache()
    db.query(ITEM_NAMES)
    containment = db.stats()["containment"]
    deciders = containment["deciders"]
    assert set(deciders) == {
        "preconditions", "ancestry_negative", "homomorphism", "canonical",
    }
    # every uncached single decision is counted under exactly one decider
    # (a union lookup misses without one)
    assert 0 < sum(deciders.values()) <= containment["misses"]
    # plain view, plain query: the summary chase answers every question
    assert deciders["canonical"] == 0 and deciders["homomorphism"] > 0
    assert 0.0 <= containment["hit_rate"] <= 1.0
    clear_containment_cache()
    assert set(db.stats()["containment"]["deciders"].values()) == {0}


def test_stats_is_a_pure_read(db):
    before = db.stats()
    after = db.stats()
    assert before == after, "taking a snapshot must not move any counter"


def test_plan_query_execute_choice_split_matches_query(db, auction_document):
    choice = db.plan_query(ITEM_NAMES, name="q")
    result, executor = db.execute_choice(choice)
    assert result.same_contents(db.query(ITEM_NAMES))
    assert executor.run_stats(choice.best.plan_operator) is None  # no profile


def test_execute_choice_profile_feeds_explain_choice(db):
    choice = db.plan_query(ITEM_NAMES, name="q")
    result, executor = db.execute_choice(choice, profile=True)
    report = db.explain_choice(choice, executor, elapsed=0.5)
    assert report.analyzed
    assert report.actual_rows == len(result)
    assert report.actual_seconds == 0.5
    for entry in report.operators:
        assert entry.actual_rows is not None
    # without the executor the same choice explains un-analyzed
    assert db.explain_choice(choice).analyzed is False
