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
