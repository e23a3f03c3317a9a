"""Database save/load: the one persisted snapshot of a session.

A loaded database must behave exactly like the one that was saved — same
pruning, same prototypes, same rewritings, same statistics — across the
id()-keyed column bookkeeping that a naive pickle would corrupt.  A file
that is not such a snapshot is refused with a typed
:class:`~repro.errors.SessionError`.
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro import (
    Database,
    MaterializedView,
    build_summary,
    parse_parenthesized,
    parse_pattern,
)
from repro.errors import SessionError
from repro.rewriting.algorithm import RewritingConfig
from repro.session.database import DATABASE_FORMAT_VERSION
from repro.views.catalog import ViewCatalog

_ALIAS = re.compile(r"[@#]\d+")


def _fingerprint(outcome):
    return [
        (tuple(r.views_used), r.is_union, _ALIAS.sub("@N", r.plan.describe()))
        for r in outcome.rewritings
    ]


@pytest.fixture()
def setup():
    doc = parse_parenthesized(
        'site(regions(asia(item(name="pen") item(name="ink"))'
        ' europe(item(name="nib"))))',
        name="persist-doc",
    )
    summary = build_summary(doc)
    views = [
        MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), doc),
        MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"), doc),
        MaterializedView(
            parse_pattern("site(//item[ID](/name[ID,V]))", name="v_in"), doc
        ),
    ]
    return doc, summary, views


@pytest.fixture()
def database(setup):
    doc, summary, views = setup
    return Database(doc, views, summary=summary)


def _save_and_load(database, path):
    database.save(path)
    return Database.load(path)


def test_round_trip_preserves_rewritings(setup, tmp_path):
    doc, summary, views = setup
    config = RewritingConfig(max_rewritings=4, time_budget_seconds=10.0)
    original = Database(doc, views, config, summary=summary)
    restored = _save_and_load(original, tmp_path / "session.db")
    assert restored.rewriter.config == config
    queries = [
        parse_pattern("site(//item[ID,V])"),
        parse_pattern("site(//name[ID,V])"),
        parse_pattern("site(//item(/name[ID,V]))"),
    ]
    for query in queries:
        assert _fingerprint(original.rewrite(query)) == _fingerprint(
            restored.rewrite(query)
        )


def test_statistics_snapshot_travels_with_the_catalog(database, tmp_path):
    expected = database.catalog.statistics().view_rows("v_item")
    loaded = _save_and_load(database, tmp_path / "session.db")
    assert loaded.catalog.statistics().view_rows("v_item") == expected


def test_statistics_counters_travel_with_the_session(database, tmp_path):
    statistics = database.catalog.statistics()
    kept = _save_and_load(database, tmp_path / "session.db").catalog.statistics()
    # the exact counters a later write splices come back with the extents
    assert kept._view_counts.keys() == statistics._view_counts.keys()
    assert kept._view_columns == statistics._view_columns


def test_loaded_summaries_never_share_containment_tokens(database, tmp_path):
    from repro.canonical.hashing import summary_token

    path = tmp_path / "session.db"
    summary_token(database.summary)  # force a token onto the summary being saved
    database.save(path)
    first = Database.load(path)
    second = Database.load(path)
    assert summary_token(first.summary) != summary_token(second.summary)
    assert summary_token(first.summary) != summary_token(database.summary)


def test_version_mismatch_is_rejected(database, tmp_path):
    path = tmp_path / "session.db"
    # 1 is the tag of the bare catalog snapshots older releases wrote
    for version in ("database/0", 1):
        payload = {"format": version, "catalog": database.catalog}
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SessionError, match="unsupported snapshot format"):
            Database.load(path)


def test_garbage_files_are_rejected(tmp_path):
    path = tmp_path / "not-a-database.db"
    path.write_bytes(b"definitely not pickle")
    with pytest.raises(SessionError, match="cannot read"):
        Database.load(path)
    for payload in ([1, 2, 3], {"catalog": None}):
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SessionError, match="not a persisted database"):
            Database.load(path)


def test_a_snapshot_without_a_view_catalog_is_rejected(setup, tmp_path):
    _, _, views = setup
    path = tmp_path / "session.db"
    for catalog in (None, views):
        payload = {"format": DATABASE_FORMAT_VERSION, "catalog": catalog}
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SessionError, match="does not contain a view catalog"):
            Database.load(path)


def test_views_supplying_respects_same_node_correlation(setup):
    """A view offering ID on one node and V on another (same summary path)
    must not count as supplying {ID, V} — Prop. 3.7 needs one node."""
    _, summary, _ = setup
    split = MaterializedView(
        parse_pattern("site(//item[ID], //item[V])", name="v_split")
    )
    whole = MaterializedView(parse_pattern("site(//item[ID,V])", name="v_whole"))
    catalog = ViewCatalog(summary, [split, whole])
    item = summary.node_by_path("/site/regions/asia/item").number
    supplying = catalog.views_supplying({item}, {"ID", "V"})
    assert "v_whole" in supplying
    assert "v_split" not in supplying
    # each attribute alone is offered by both
    assert catalog.views_with_attribute(item, "ID") and catalog.views_with_attribute(
        item, "V"
    )


def _columns(view):
    return [(column.name, column.kind) for column in view.schema()]


def test_a_view_derives_its_schema_once_and_pickles_it(setup, monkeypatch):
    import repro.views.view as view_module

    _, _, views = setup
    view = MaterializedView(parse_pattern("site(//item[ID](/name[ID,V]))", name="v"))
    calls = []
    derive = view_module.pattern_schema
    monkeypatch.setattr(
        view_module, "pattern_schema", lambda pattern: calls.append(1) or derive(pattern)
    )
    expected = _columns(view)
    for _ in range(3):
        assert view.dewey_sort_column() == "ID1"
        assert _columns(view) == expected
    assert len(calls) == 1
    loaded = pickle.loads(pickle.dumps(view))
    assert _columns(loaded) == expected and len(calls) == 1, "the pickle carried it"
    # a pickle written before the schema was cached derives it on first use
    state = view.__getstate__()  # what a pickle carries: no layout
    del state["_schema"]
    old = MaterializedView.__new__(MaterializedView)
    old.__dict__.update(state)
    assert _columns(old) == expected and len(calls) == 2


def test_a_view_pickles_without_its_evaluation_layout():
    """The layout incremental maintenance evaluates regions with is keyed on
    pattern-node identities: a loaded view derives its own."""
    view = MaterializedView(parse_pattern("site(//item[ID](/name[ID,V]))", name="v"))
    columns, layout = view._layout
    assert layout.node_columns
    assert set(layout.node_columns) <= {id(node) for node in view.pattern.nodes()}
    loaded = pickle.loads(pickle.dumps(view))
    assert "_layout" not in vars(loaded) and "_layout" in vars(view)
    assert set(loaded._layout[1].node_columns) <= {id(node) for node in loaded.pattern.nodes()}
    assert loaded._layout[0] == columns


def test_statistics_pickled_before_the_integer_sums_load_whole(setup):
    _, summary, views = setup
    statistics = ViewCatalog(summary, views).statistics()
    state = dict(vars(statistics))
    for name in ("_total", "_weighted_depth", "_internal", "_view_counts"):
        del state[name]
    old = type(statistics).__new__(type(statistics))
    old.__setstate__(state)
    assert (old._total, old._weighted_depth, old._internal) == (
        statistics._total, statistics._weighted_depth, statistics._internal
    )
    assert old._view_counts == {}


# --------------------------------------------------------------------------- #
# the value index never travels in a pickle, and slots an older build
# pickled (a gather's repeat-free record, a projection memo) load ignored
# --------------------------------------------------------------------------- #
def test_a_column_source_pickles_without_its_index_or_projection_memo():
    from repro.algebra.columnar import _ColumnSource
    from repro.views.indexes import index_for_source

    # a column of tuples refuses indexing: the source caches the sentinel,
    # which a pickle would bring back as a bare object() taken for an index
    refused = _ColumnSource(values=[("a",), ("b",)])
    assert index_for_source(refused) is None
    copy = pickle.loads(pickle.dumps(refused))
    assert copy.index is None and index_for_source(copy) is None

    indexed = _ColumnSource(values=["b", "a"])
    assert index_for_source(indexed) is not None
    copy = pickle.loads(pickle.dumps(indexed))
    assert copy.index is None and copy.values() == ["b", "a"]

    old = _ColumnSource.__new__(_ColumnSource)
    old.__setstate__(
        {**indexed.__getstate__(), "_repeat_free": True, "projected": ((), None), "index": 1}
    )
    assert old.values() == ["b", "a"] and old.index is None and old.links is None
    assert not hasattr(old, "_repeat_free") and not hasattr(old, "projected")


def test_a_save_file_whose_sources_carry_removed_slots_loads(setup, tmp_path, monkeypatch):
    """A ``Database.save`` file of a build whose column sources pickled a
    gather's ``_repeat_free`` record and a ``projected`` memo loads, and
    answers as the session that wrote it."""
    from repro.algebra.columnar import _ColumnSource

    doc, summary, views = setup
    db = Database(doc, views, summary=summary)
    expected = db.query(SELECTIVE)
    state = _ColumnSource.__getstate__
    monkeypatch.setattr(
        _ColumnSource,
        "__getstate__",
        lambda source: {**state(source), "_repeat_free": False, "projected": None},
    )
    db.save(tmp_path / "old.db")
    monkeypatch.undo()
    loaded = Database.load(tmp_path / "old.db")
    assert loaded.query(SELECTIVE).same_contents(expected)


SELECTIVE = 'site(//item[ID](/name[ID,V]{v="ink"}))'


def _save_with_a_removed_index_class(db, save, monkeypatch):
    """``save`` as a build that pickled each source's value index did, one
    index being an instance of a class that no longer exists."""
    from repro.algebra.columnar import ColumnBatch, _ColumnSource
    from repro.views import indexes

    class BitmapIndex:
        pass

    BitmapIndex.__module__ = indexes.__name__
    BitmapIndex.__qualname__ = "BitmapIndex"
    monkeypatch.setattr(indexes, "BitmapIndex", BitmapIndex, raising=False)
    db.query(SELECTIVE)  # builds the name column's index
    for name in db.views.names:
        for source in ColumnBatch.from_relation(db.views[name].relation)._sources:
            if source.index is not None:
                source.index = BitmapIndex()
    monkeypatch.setattr(
        _ColumnSource,
        "__getstate__",
        lambda source: {
            name: getattr(source, name)
            for name in _ColumnSource.__slots__
            if name not in ("links", "projected", "__weakref__")
        },
    )
    save()
    monkeypatch.undo()


def test_a_snapshot_naming_a_removed_index_class_is_refused(setup, tmp_path, monkeypatch):
    doc, summary, views = setup
    db = Database(doc, views, summary=summary)
    path = tmp_path / "old.db"
    _save_with_a_removed_index_class(db, lambda: db.save(path), monkeypatch)
    with pytest.raises(SessionError, match="cannot read"):
        Database.load(path)


def test_recovery_falls_back_past_a_checkpoint_naming_a_removed_index_class(
    tmp_path, monkeypatch
):
    from repro import evaluate_pattern

    db = Database(
        parse_parenthesized('site(item(name="pen") item(name="ink"))', name="ckpt")
    )
    db.attach_log(tmp_path / "doc.log")
    db.create_view("site(//item[ID](/name[ID,V]))", name="items")
    _save_with_a_removed_index_class(
        db, lambda: db.checkpoint(tmp_path / "doc.ckpt"), monkeypatch
    )
    db.close()
    with pytest.raises(SessionError):
        Database.load(tmp_path / "doc.ckpt")
    recovered = Database.recover(tmp_path / "doc.log")  # replays from the load record
    query = parse_pattern(SELECTIVE)
    expected = evaluate_pattern(query, recovered.document)
    assert recovered.query(SELECTIVE).same_contents(expected)
    assert len(expected) == 1
    recovered.close()
