"""ViewCatalog save/load: the snapshot parallel workers share.

A loaded catalog must behave exactly like the one that was saved — same
pruning, same prototypes, same rewritings — across the id()-keyed column
bookkeeping that a naive pickle would corrupt.
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro import MaterializedView, build_summary, parse_parenthesized, parse_pattern
from repro.rewriting.algorithm import RewritingConfig
from repro.rewriting.rewriter import Rewriter
from repro.views.catalog import CATALOG_FORMAT_VERSION, CatalogFormatError, ViewCatalog

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


def test_round_trip_preserves_rewritings(setup, tmp_path):
    _, summary, views = setup
    catalog = ViewCatalog(summary, views)
    path = tmp_path / "catalog.pkl"
    catalog.save(path)
    loaded = ViewCatalog.load(path)

    config = RewritingConfig(max_rewritings=4, time_budget_seconds=10.0)
    queries = [
        parse_pattern("site(//item[ID,V])"),
        parse_pattern("site(//name[ID,V])"),
        parse_pattern("site(//item(/name[ID,V]))"),
    ]
    original = Rewriter.from_catalog(catalog, config)
    restored = Rewriter.from_catalog(loaded, config)
    for query in queries:
        assert _fingerprint(original.rewrite(query)) == _fingerprint(
            restored.rewrite(query)
        )


def test_extents_are_stripped_by_default(setup, tmp_path):
    _, summary, views = setup
    path = tmp_path / "catalog.pkl"
    ViewCatalog(summary, views).save(path)
    loaded = ViewCatalog.load(path)
    assert all(not view.is_materialized for view in loaded.views)
    # the in-memory views are untouched by saving
    assert all(view.is_materialized for view in views)


def test_extents_can_be_included(setup, tmp_path):
    _, summary, views = setup
    path = tmp_path / "catalog.pkl"
    ViewCatalog(summary, views).save(path, include_extents=True)
    loaded = ViewCatalog.load(path)
    assert all(view.is_materialized for view in loaded.views)
    assert len(loaded.views[0].relation) == len(views[0].relation)


def test_statistics_snapshot_travels_with_the_catalog(setup, tmp_path):
    _, summary, views = setup
    catalog = ViewCatalog(summary, views)
    expected = catalog.statistics().view_rows("v_item")
    path = tmp_path / "catalog.pkl"
    catalog.save(path)
    loaded = ViewCatalog.load(path)
    # extents were stripped, yet the snapshot keeps the exact counts
    assert loaded.statistics().view_rows("v_item") == expected


def test_loaded_summaries_never_share_containment_tokens(setup, tmp_path):
    from repro.canonical.hashing import summary_token

    _, summary, views = setup
    path = tmp_path / "catalog.pkl"
    catalog = ViewCatalog(summary, views)
    summary_token(summary)  # force a token onto the summary being saved
    catalog.save(path)
    first = ViewCatalog.load(path)
    second = ViewCatalog.load(path)
    assert summary_token(first.summary) != summary_token(second.summary)
    assert summary_token(first.summary) != summary_token(summary)


def test_version_mismatch_is_rejected(setup, tmp_path):
    _, summary, views = setup
    path = tmp_path / "catalog.pkl"
    payload = {"format": CATALOG_FORMAT_VERSION + 1, "catalog": None}
    path.write_bytes(pickle.dumps(payload))
    with pytest.raises(CatalogFormatError, match="unsupported"):
        ViewCatalog.load(path)


def test_garbage_files_are_rejected(tmp_path):
    path = tmp_path / "not-a-catalog.pkl"
    path.write_bytes(b"definitely not pickle")
    with pytest.raises(CatalogFormatError):
        ViewCatalog.load(path)
    path.write_bytes(pickle.dumps([1, 2, 3]))
    with pytest.raises(CatalogFormatError, match="not a persisted view catalog"):
        ViewCatalog.load(path)


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
    state = view.__getstate__()
    del state["_schema"]
    old = MaterializedView.__new__(MaterializedView)
    old.__dict__.update(state)
    assert _columns(old) == expected and len(calls) == 2


def test_statistics_counters_travel_only_with_extents(setup, tmp_path):
    _, summary, views = setup
    catalog = ViewCatalog(summary, views)
    statistics = catalog.statistics()
    path = tmp_path / "catalog.pkl"
    catalog.save(path)
    stripped = ViewCatalog.load(path).statistics()
    assert stripped._view_counts == {}
    assert stripped._view_columns == statistics._view_columns
    catalog.save(path, include_extents=True)
    kept = ViewCatalog.load(path).statistics()
    assert kept._view_counts.keys() == statistics._view_counts.keys()


def test_statistics_pickled_before_the_integer_sums_load_whole(setup):
    _, summary, views = setup
    statistics = ViewCatalog(summary, views).statistics()
    state = statistics.__getstate__()
    for name in ("_total", "_weighted_depth", "_internal", "_view_counts"):
        del state[name]
    old = type(statistics).__new__(type(statistics))
    old.__setstate__(state)
    assert (old._total, old._weighted_depth, old._internal) == (
        statistics._total, statistics._weighted_depth, statistics._internal
    )
    assert old._view_counts == {}
