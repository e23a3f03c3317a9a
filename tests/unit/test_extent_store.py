"""The shared extent store: codec fidelity, publish-once, staleness, refcounts.

The parallel-execution A/B harness
(``tests/integration/test_parallel_execution_ab.py``) covers the store as
used by worker processes; these tests pin the store's *contracts* in one
process, where every failure mode is observable directly.
"""

from __future__ import annotations

import pytest

from repro import Database, MaterializedView, parse_parenthesized, parse_pattern
from repro.algebra.tuples import Column, Relation
from repro.views.extent_store import (
    AttachedExtents,
    ExtentStore,
    ExtentStoreError,
    StaleExtentError,
    decode_relation,
    encode_relation,
)
from repro.views.store import ViewSet
from repro.xmltree.ids import DeweyID


@pytest.fixture()
def document():
    return parse_parenthesized(
        'site(item(name="pen" price=3) item(name="ink" price=5))'
    )


@pytest.fixture()
def views(document):
    return ViewSet(
        [
            MaterializedView(
                parse_pattern("site(//item[ID](/name[V]))", name="names"), document
            ),
            MaterializedView(
                parse_pattern("site(//item[ID,C])", name="contents"), document
            ),
        ]
    )


# --------------------------------------------------------------------------- #
# codec
# --------------------------------------------------------------------------- #
def test_codec_round_trips_every_cell_type():
    nested = Relation([Column("n", kind="V")], rows=[(1,), ("x",)])
    document = parse_parenthesized('site(item(name="pen"))')
    node = document.root.children[0]  # <item>, with dewey + path assigned
    relation = Relation(
        [
            Column("ID1", kind="ID", paths=("/site/item",)),
            Column("V1", kind="V"),
            Column("C1", kind="C"),
            Column("A1", kind="NESTED"),
        ]
    )
    relation.append((DeweyID((1, 1)), "text", node, nested))
    relation.append((None, 2**80, None, None))  # ⊥, beyond-i64 int, nulls
    relation.append((DeweyID((1, 2)), -3.5, None, nested))
    relation.mark_sorted_by("ID1")

    decoded = decode_relation(encode_relation(relation))
    assert decoded.column_names == relation.column_names
    assert [c.kind for c in decoded.columns] == [c.kind for c in relation.columns]
    assert decoded.columns[0].paths == ("/site/item",)
    assert decoded.sorted_by == "ID1"
    assert decoded.same_contents(relation)
    assert decoded.rows[1][1] == 2**80

    # the content reference is a rebuilt copy: ID-equal, structurally equal,
    # but not the parent process's live node object
    rebuilt = decoded.rows[0][2]
    assert rebuilt is not node
    assert rebuilt.dewey == node.dewey
    assert rebuilt.path == node.path
    assert rebuilt.children[0].label == "name"
    assert rebuilt.children[0].dewey == node.children[0].dewey


def test_codec_rejects_foreign_cell_types():
    relation = Relation([Column("x")])
    relation.append((object(),))
    with pytest.raises(ExtentStoreError, match="cannot be encoded"):
        encode_relation(relation)


def test_decode_rejects_non_extent_payloads():
    with pytest.raises(ExtentStoreError, match="bad magic"):
        decode_relation(b"not an extent")


# --------------------------------------------------------------------------- #
# publish / attach lifecycle
# --------------------------------------------------------------------------- #
def test_publish_is_keyed_on_view_set_version(views):
    store = ExtentStore()
    try:
        manifest = store.publish(views)
        assert sorted(manifest.view_names) == ["contents", "names"]
        assert store.publish_count == 2
        assert store.publish(views) is manifest, "unchanged version republished"
        assert store.publish_count == 2
    finally:
        store.release()


def test_attach_reads_the_published_extents(views):
    store = ExtentStore()
    attached = None
    try:
        attached = AttachedExtents.attach(store.publish(views))
        for view in views:
            relation = attached[view.name].relation
            assert relation.same_contents(view.relation)
            assert relation.sorted_by == view.relation.sorted_by
        assert set(attached) == {"names", "contents"}
        with pytest.raises(KeyError, match="no published extent"):
            attached["missing"]
    finally:
        if attached is not None:
            attached.close()
        store.release()


def test_unmaterialised_views_are_skipped(views):
    views.add(
        MaterializedView(parse_pattern("site(//name[V])", name="lazy"))
    )
    store = ExtentStore()
    try:
        manifest = store.publish(views)
        assert "lazy" not in manifest.view_names
    finally:
        store.release()


def test_stale_manifest_is_rejected_after_ddl(views, document):
    store = ExtentStore()
    try:
        old_manifest = store.publish(views)
        views.add(
            MaterializedView(parse_pattern("site(//name[V])", name="extra"), document)
        )
        new_manifest = store.publish(views)  # supersedes the old segments
        assert new_manifest.version != old_manifest.version
        with pytest.raises(StaleExtentError, match="stale"):
            AttachedExtents.attach(old_manifest)
        fresh = AttachedExtents.attach(new_manifest)
        assert len(fresh["extra"].relation) > 0
        fresh.close()
    finally:
        store.release()


def test_diff_publish_reencodes_only_changed_views(views, document):
    store = ExtentStore()
    try:
        store.publish(views)
        assert store.publish_count == 2
        # DDL adds a third view: only the new extent is encoded
        views.add(
            MaterializedView(parse_pattern("site(//name[V])", name="extra"), document)
        )
        store.publish(views)
        assert store.publish_count == 3
        # a document mutation bumps one view's extent_version: one re-encode
        names = views["names"]
        names._relation = names.relation.project(names.relation.column_names)
        names._extent_version = names.extent_version + 1
        views.touch()
        store.publish(views)
        assert store.publish_count == 4
    finally:
        store.release()


def test_publishing_follows_the_data_version_not_the_definition_version(views):
    store = ExtentStore()
    try:
        old_manifest = store.publish(views)
        definitions = views.version
        views.touch()  # a count-only write: cached plans stay, extents do not
        assert views.version == definitions
        new_manifest = store.publish(views)
        assert new_manifest is not old_manifest
        assert new_manifest.version == store.version == views.data_version
        with pytest.raises(StaleExtentError, match="stale"):
            AttachedExtents.attach(old_manifest)
        assert store.publish(views) is new_manifest
    finally:
        store.release()


def test_old_manifests_go_stale_even_when_all_segments_survive(views):
    # Diff publishing reuses every view segment when nothing changed except
    # the version — the per-publish guard segment alone must reject readers
    # holding the superseded manifest.
    store = ExtentStore()
    try:
        old_manifest = store.publish(views)
        views.touch()  # e.g. a document mutation that left every extent intact
        new_manifest = store.publish(views)
        assert new_manifest.version != old_manifest.version
        assert store.publish_count == 2, "no view segment was re-encoded"
        with pytest.raises(StaleExtentError, match="stale"):
            AttachedExtents.attach(old_manifest)
        fresh = AttachedExtents.attach(new_manifest)
        fresh.close()
    finally:
        store.release()


def test_refcounted_release_unlinks_on_last_owner(views):
    store = ExtentStore()
    manifest = store.publish(views)
    store.retain()  # two owners now
    store.release()
    # one owner left: segments must still be attachable
    attached = AttachedExtents.attach(manifest)
    attached.close()
    store.release()  # last owner: segments unlinked
    assert store.references == 0
    with pytest.raises(StaleExtentError):
        AttachedExtents.attach(manifest)
    with pytest.raises(ExtentStoreError, match="released"):
        store.publish(views)
    with pytest.raises(ExtentStoreError, match="released"):
        store.retain()
    store.release()  # over-release is a quiet no-op


def test_database_close_releases_the_store(document):
    db = Database(document)
    db.create_view("site(//item[ID](/name[V]))", name="v")
    db.query_many(["site(//item[ID](/name[V]))"] * 2, workers=2, execute=True)
    store = db.extent_store
    assert store is not None and store.references == 1
    manifest = store.manifest
    db.close()
    assert store.references == 0
    with pytest.raises(StaleExtentError):
        AttachedExtents.attach(manifest)
    assert db.extent_store is None
