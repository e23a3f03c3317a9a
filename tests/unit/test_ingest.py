"""Units for the live-document layer: change log, streaming, maintenance.

The tentpole contract under test here, piece by piece (the stateful
equivalence harness in ``tests/property/test_live_maintenance.py`` then
drives random interleavings of the whole):

* the change log validates itself — CRC per record, contiguous LSNs,
  torn tails replay cleanly, everything else raises the typed
  :class:`~repro.errors.ChangeLogCorruptError`;
* streamed fragments convert exactly like parsed documents;
* subtree inserts and deletes never reuse Dewey IDs (ORDPATH-style gaps);
* the summary's incremental counters match a from-scratch
  :func:`~repro.summary.build_summary` — paths, counts, *and* the
  strong / one-to-one edge flags;
* :meth:`MaterializedView.apply_delta` is row-identical to
  ``materialize`` (and falls back to it when the splice gate fails);
* value-index probes over a delta-maintained extent answer exactly like
  probes over a freshly rebuilt one (indexes rebuild lazily — the new
  relation simply has no cached batch).
"""

from __future__ import annotations

import json

import pytest

from repro import (
    ChangeLog,
    ChangeLogCorruptError,
    Database,
    IngestError,
    XMLNode,
    build_summary,
    decode_subtree,
    encode_subtree,
    iter_stream_subtrees,
    parse_parenthesized,
    parse_pattern,
)
from repro.errors import SessionError, XMLError
from repro.summary.dataguide import Summary
from repro.views import delta
from repro.views.delta import can_apply_delta
from repro.views.view import MaterializedView

DOC_TEXT = (
    'site(regions(asia(item(name="pen" quantity=2) item(name="ink")))'
    '     people(person(name="bob")))'
)


def _db():
    return Database(parse_parenthesized(DOC_TEXT, name="live"))


# --------------------------------------------------------------------------- #
# change log
# --------------------------------------------------------------------------- #
class TestChangeLog:
    def test_round_trip_and_reopen_continues_lsn(self, tmp_path):
        path = tmp_path / "doc.log"
        with ChangeLog(path) as log:
            assert log.append("load", {"name": "d"}).lsn == 1
            assert log.append("insert", {"i": 1}).lsn == 2
        with ChangeLog(path) as log:  # reopen: validates, then continues
            assert log.last_lsn == 2
            assert log.append("delete", {"d": 1}).lsn == 3
        assert [r.type for r in ChangeLog.read(path)] == ["load", "insert", "delete"]

    def test_torn_tail_is_a_clean_crash(self, tmp_path):
        path = tmp_path / "doc.log"
        with ChangeLog(path) as log:
            log.append("load", {})
            log.append("insert", {"i": 1})
        with open(path, "a") as handle:
            handle.write('{"lsn": 3, "type": "ins')  # crash mid-append
        assert len(ChangeLog.read(path)) == 2  # replay stops at the tear
        with ChangeLog(path) as log:  # reopen truncates the tear and resumes
            assert log.append("insert", {"i": 2}).lsn == 3
        assert len(ChangeLog.read(path)) == 3

    def test_crc_mismatch_is_corruption(self, tmp_path):
        path = tmp_path / "doc.log"
        with ChangeLog(path) as log:
            log.append("load", {})
            log.append("insert", {"value": "original"})
            log.append("delete", {})
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"original", b"tampered")
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ChangeLogCorruptError, match="CRC"):
            ChangeLog.read(path)

    def test_lsn_gap_is_corruption(self, tmp_path):
        path = tmp_path / "doc.log"
        with ChangeLog(path) as log:
            log.append("load", {})
            log.append("insert", {"i": 1})
            log.append("insert", {"i": 2})
        lines = path.read_bytes().split(b"\n")
        del lines[1]  # drop a middle record entirely
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ChangeLogCorruptError, match="LSN"):
            ChangeLog.read(path)

    def test_mid_file_garbage_is_corruption_not_a_tear(self, tmp_path):
        path = tmp_path / "doc.log"
        with ChangeLog(path) as log:
            log.append("load", {})
            log.append("insert", {"i": 1})
        lines = path.read_bytes().split(b"\n")
        lines[0] = b"not json at all"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ChangeLogCorruptError, match="malformed"):
            ChangeLog.read(path)

    def test_record_lines_are_plain_jsonl(self, tmp_path):
        path = tmp_path / "doc.log"
        with ChangeLog(path) as log:
            log.append("insert", {"parent": "1.2"})
        data = json.loads(path.read_text().splitlines()[0])
        assert set(data) == {"lsn", "type", "payload", "crc"}

    def test_subtree_codec_round_trips(self):
        node = XMLNode("item", None, [XMLNode("name", "pen"), XMLNode("qty", 3)])
        clone = decode_subtree(encode_subtree(node))
        assert clone.label == "item"
        assert [(c.label, c.value) for c in clone.children] == [
            ("name", "pen"),
            ("qty", 3),
        ]
        with pytest.raises(ChangeLogCorruptError):
            decode_subtree(["missing-children-slot"])


# --------------------------------------------------------------------------- #
# streaming ingestion
# --------------------------------------------------------------------------- #
class TestStreaming:
    def test_chunk_boundaries_are_irrelevant(self):
        text = '<item id="4"><name>pen</name></item><item><name>ink</name></item>'
        whole = list(iter_stream_subtrees([text]))
        for cut in range(1, len(text) - 1, 7):
            split = list(iter_stream_subtrees([text[:cut], text[cut:]]))
            assert [encode_subtree(s) for s in split] == [
                encode_subtree(w) for w in whole
            ]

    def test_conversion_matches_the_document_parser(self):
        streamed = next(iter(iter_stream_subtrees(['<a x="1">hi<b>2</b></a>'])))
        assert streamed.label == "a"
        assert streamed.value == "hi"
        assert [(c.label, c.value) for c in streamed.children] == [
            ("@x", 1),
            ("b", 2),
        ]

    def test_malformed_stream_raises_after_complete_elements(self):
        chunks = ["<item><name>pen</name></item><item></oops>"]
        seen = []
        with pytest.raises(IngestError):
            for subtree in iter_stream_subtrees(chunks):
                seen.append(subtree)
        assert [s.label for s in seen] == ["item"]  # the complete one survived


# --------------------------------------------------------------------------- #
# document mutations: identifier discipline
# --------------------------------------------------------------------------- #
class TestDeweyDiscipline:
    def test_inserts_extend_sibling_ordinals(self):
        db = _db()
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        node = db.insert_subtree(asia, XMLNode("item"))
        assert node.dewey == asia.dewey.child(3)  # after the two seed items

    def test_deleted_ordinals_are_never_reused(self):
        db = _db()
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        doomed = db.insert_subtree(asia, XMLNode("item"))
        db.delete_subtree(doomed)
        replacement = db.insert_subtree(asia, XMLNode("item"))
        assert replacement.dewey.components[-1] > doomed.dewey.components[-1]
        assert not db.document.has_id(doomed.dewey)

    def test_deleting_the_last_and_a_middle_child_frees_no_ordinal(self):
        db = _db()
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        added = [db.insert_subtree(asia, XMLNode("item")) for _ in range(3)]
        used = {child.dewey.ordinal for child in asia.children}
        db.delete_subtree(added[-1])  # the highest live ordinal goes
        db.delete_subtree(added[0])  # and one in the middle
        fresh = [db.insert_subtree(asia, XMLNode("item")) for _ in range(2)]
        ordinals = [node.dewey.ordinal for node in fresh]
        assert ordinals == [max(used) + 1, max(used) + 2]
        assert not used & set(ordinals)
        # children stay in ordinal order, which is what the insert reads
        live = [child.dewey.ordinal for child in asia.children]
        assert live == sorted(live)

    def test_root_deletion_and_foreign_nodes_are_rejected(self):
        db = _db()
        with pytest.raises(XMLError):
            db.delete_subtree(db.document.root)
        with pytest.raises(XMLError):
            db.insert_subtree(XMLNode("orphan"), XMLNode("child"))

    def test_summary_only_sessions_cannot_mutate(self):
        db = Database.from_summary(build_summary(parse_parenthesized(DOC_TEXT)))
        with pytest.raises(SessionError):
            db.insert_subtree("1", XMLNode("item"))


# --------------------------------------------------------------------------- #
# incremental summary maintenance
# --------------------------------------------------------------------------- #
def _summary_snapshot(summary):
    return {
        node.path: (node.instance_count, node.strong, node.one_to_one)
        for node in summary.iter_nodes()
    }


class TestSummaryMaintenance:
    def test_counts_paths_and_flags_track_a_fresh_build(self):
        db = _db()
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        # new path (wingspan), flag-changing second person, then deletions
        added = [
            db.insert_subtree(
                asia, XMLNode("item", None, [XMLNode("wingspan", 9)])
            ),
            db.insert_subtree(
                db.document.nodes_on_path("/site/people")[0],
                XMLNode("person", None, [XMLNode("name", "eve"), XMLNode("age", 4)]),
            ),
        ]
        assert _summary_snapshot(db.summary) == _summary_snapshot(
            build_summary(db.document)
        )
        for node in added:
            db.delete_subtree(node)
        assert _summary_snapshot(db.summary) == _summary_snapshot(
            build_summary(db.document)
        )
        assert db.maintenance_stats["summary_rebuilt"] == 0

    def test_retired_paths_leave_numbers_unreused(self):
        db = _db()
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        first = db.insert_subtree(asia, XMLNode("gadget"))
        number = db.summary.node_by_path("/site/regions/asia/gadget").number
        db.delete_subtree(first)
        assert not db.summary.has_path("/site/regions/asia/gadget")
        db.insert_subtree(asia, XMLNode("widget"))
        fresh = db.summary.node_by_path("/site/regions/asia/widget").number
        assert fresh > number  # append-only numbering: retired numbers stay dead

    def test_summary_without_counters_is_rebuilt_once_then_maintained(self):
        # a hand-constructed summary retains no instance counters, so it
        # cannot be patched in place: the first mutation rebuilds it (with
        # counters), every later one maintains it incrementally
        document = parse_parenthesized(DOC_TEXT, name="live")
        bare = Summary(build_summary(document).root)
        assert not bare.supports_incremental_maintenance
        db = Database(document, summary=bare)
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        db.insert_subtree(asia, XMLNode("gadget"))
        db.insert_subtree(asia, XMLNode("widget"))
        assert db.maintenance_stats["summary_rebuilt"] == 1
        assert db.maintenance_stats["summary_incremental"] == 1
        assert _summary_snapshot(db.summary) == _summary_snapshot(
            build_summary(db.document)
        )


# --------------------------------------------------------------------------- #
# extent delta maintenance
# --------------------------------------------------------------------------- #
class TestExtentDelta:
    def test_delta_gate_rejects_non_chain_and_unpinned_shapes(self):
        doc = parse_parenthesized(DOC_TEXT)
        chain = MaterializedView(
            parse_pattern("site(//item[ID](/name[V]))", name="c"), doc
        )
        assert can_apply_delta(chain) is not None
        branchy = MaterializedView(
            parse_pattern("site(//item[ID](/name[V], /quantity[V]))", name="b"), doc
        )
        assert can_apply_delta(branchy) is None
        root_pinned = MaterializedView(parse_pattern("site[ID]", name="r"), doc)
        assert can_apply_delta(root_pinned) is None

    def test_the_gate_derives_the_chain_once_and_reads_the_order_live(self, monkeypatch):
        doc = parse_parenthesized(DOC_TEXT)
        view = MaterializedView(parse_pattern("site(//item[ID](/name[V]))", name="c"), doc)
        derived = []
        fixed_chain = delta.fixed_chain
        monkeypatch.setattr(
            delta, "fixed_chain", lambda view: derived.append(view) or fixed_chain(view)
        )
        chain, pin = can_apply_delta(view)
        assert can_apply_delta(view) == (chain, pin) and derived == [view]
        assert [node.label for node in chain] == ["site", "item", "name"] and pin == 1
        view.relation.mark_sorted_by(None)  # the order is the data's: read every call
        assert can_apply_delta(view) is None and derived == [view]

    def test_ineligible_views_fall_back_to_rematerialize(self):
        db = _db()
        db.create_view("site(//item[ID](/name[V], /quantity[V]))", name="branchy")
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "new")]))
        assert db.maintenance_stats["rematerialized"] == 1
        assert db.maintenance_stats["delta_applied"] == 0

    def test_delta_rows_are_identical_to_a_rebuild_including_node_identity(self):
        db = _db()
        view = db.create_view("site(//item[ID](/name[V]))", name="items")
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        node = db.insert_subtree(
            asia, XMLNode("item", None, [XMLNode("name", "widget")])
        )
        assert db.maintenance_stats["delta_applied"] == 1
        oracle = MaterializedView(view.pattern.copy(), db.document, name="oracle")
        assert view.relation.rows == oracle.relation.rows
        assert view.relation.sorted_by == oracle.relation.sorted_by
        db.delete_subtree(node)
        oracle = MaterializedView(view.pattern.copy(), db.document, name="oracle2")
        assert view.relation.rows == oracle.relation.rows

    def test_extent_version_moves_only_on_extent_change(self):
        db = _db()
        items = db.create_view("site(//item[ID](/name[V]))", name="items")
        people = db.create_view("site(/people(/person[ID,C]))", name="people")
        items_before, people_before = items.relation, people.relation
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "w")]))
        assert items.relation is not items_before
        # the people view is maintained too, but its splice is empty: the
        # extent is the very same object, content references and all
        assert people.relation is people_before

    def test_value_index_probes_match_after_delta_maintenance(self):
        db = _db()
        db.create_view("site(//item(/name[ID,V]))", name="names")
        query = 'site(//item(/name[ID,V]{v="widget"}))'
        assert len(db.query(query)) == 0
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "widget")]))
        # the delta produced a new Relation with no cached column batch, so
        # the probe below rebuilds its index lazily over the patched rows
        probed = db.query(query)
        rebuilt = Database(db.document)  # fresh summary, fresh extents
        rebuilt.create_view("site(//item(/name[ID,V]))", name="names")
        assert probed.same_contents(rebuilt.query(query))
        assert len(probed) == 1


# --------------------------------------------------------------------------- #
# session-level ingestion
# --------------------------------------------------------------------------- #
class TestSessionIngestion:
    def test_ingest_stream_applies_each_completed_element(self):
        db = _db()
        db.create_view("site(//item[ID](/name[V]))", name="items")
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        before = len(db.query("site(//item[ID](/name[V]))"))
        nodes = db.ingest_stream(
            ["<item><name>str", "eamed</name></item><item><name>x</name></item>"],
            asia,
        )
        assert [n.parent for n in nodes] == [asia, asia]
        assert len(db.query("site(//item[ID](/name[V]))")) == before + 2

    def test_queries_see_mutations_immediately(self):
        db = _db()
        db.create_view("site(//item[ID](/name[V]))", name="items")
        query = "site(//item[ID](/name[V]))"
        baseline = len(db.query(query))
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        node = db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "w")]))
        assert len(db.query(query)) == baseline + 1  # plan cache invalidated
        db.delete_subtree(node)
        assert len(db.query(query)) == baseline

    def test_attach_log_refuses_a_log_with_history(self, tmp_path):
        path = tmp_path / "doc.log"
        with ChangeLog(path) as log:
            log.append("load", {"name": "other", "root": ["site", None, []]})
        db = _db()
        with pytest.raises(SessionError, match="recover"):
            db.attach_log(path)
