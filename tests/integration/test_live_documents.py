"""Live documents end to end: durability, crash recovery, stale readers.

Three contracts from the streaming-ingestion layer, exercised at the
session level:

* **Recovery is exact.**  A session rebuilt from its change log — from the
  newest checkpoint plus the log tail, or by full replay from the ``load``
  record — answers every query identically to the session that wrote the
  log, with the same summary and the same Dewey IDs.
* **Corruption is loud.**  A torn tail (the crash case) replays cleanly to
  the last complete record; anything else — a flipped byte, a missing
  record — is a typed :class:`~repro.errors.ChangeLogCorruptError`, never a
  silently different database.
* **Readers can't see the past.**  A batch answered after a document
  mutation — through ``query_many``, searched again once the plan cache
  is emptied — reflects the live document.

The fig13-style check at the end replays an XMark session log and asserts
the recovered database answers the workload queries row-identically.
"""

from __future__ import annotations

import gc
import weakref
from pathlib import Path

import pytest

from repro import (
    ChangeLogCorruptError,
    Database,
    MaterializedView,
    XMLNode,
    build_summary,
    evaluate_pattern,
    iter_stream_subtrees,
    parse_parenthesized,
    parse_pattern,
    to_parenthesized,
)
from repro.algebra import kernels
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import StructuralJoin, ViewScan
from repro.ingest import changelog
from repro.patterns.pattern import Axis
from repro.service.app import ServiceApp
from repro.views.delta import can_apply_delta
from repro.workloads import XMARK_QUERY_PATTERNS
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.xmark import generate_xmark_document

from support.memo_oracle import assert_memo_derived, assert_plan_cache_derived, plan_nodes
from support.oracle_executor import OracleExecutor
from support.paper_workloads import seed_view_session
from support.rebuild_oracle import normalize

DOC_TEXT = (
    'site(regions(asia(item(name="pen" quantity=2) item(name="ink")))'
    '     people(person(name="bob")))'
)
ITEM_QUERY = "site(//item[ID](/name[V]))"
NAME_QUERY = "site(//name[ID,V])"


@pytest.fixture(autouse=True)
def _memo_checked_after_every_write(monkeypatch):
    """After every write, every plan-cache memo entry that a read would
    take equals a fresh run over the current extents."""
    for name in ("insert_subtree", "delete_subtree"):
        write = getattr(Database, name)

        def checked(self, *args, _write=write, **kwargs):
            result = _write(self, *args, **kwargs)
            assert_plan_cache_derived(self)
            return result

        monkeypatch.setattr(Database, name, checked)


def _scripted_session(tmp_path, checkpoint=True):
    """A session with a log, DDL, mutations, a stream, and (maybe) a checkpoint."""
    db = Database(parse_parenthesized(DOC_TEXT, name="live"))
    db.attach_log(tmp_path / "doc.log")
    db.create_view(ITEM_QUERY, name="items")
    db.create_view(NAME_QUERY, name="names")
    asia = db.document.nodes_on_path("/site/regions/asia")[0]
    doomed = db.insert_subtree(
        asia, XMLNode("item", None, [XMLNode("name", "doomed")])
    )
    for subtree in iter_stream_subtrees(
        ["<item><name>str", "eamed</name><quantity>4</quantity></item>"]
    ):
        db.insert_subtree(asia, subtree)
    db.delete_subtree(doomed)
    if checkpoint:
        db.checkpoint(tmp_path / "doc.ckpt")
    db.create_view("site(/people(/person[ID,C]))", name="people")
    db.insert_subtree(
        db.document.nodes_on_path("/site/people")[0],
        XMLNode("person", None, [XMLNode("name", "eve")]),
    )
    db.drop_view("names")
    return db


def _assert_equivalent(live, recovered):
    assert to_parenthesized(live.document) == to_parenthesized(recovered.document)
    live_summary = {
        n.path: (n.instance_count, n.strong, n.one_to_one)
        for n in live.summary.iter_nodes()
    }
    assert live_summary == {
        n.path: (n.instance_count, n.strong, n.one_to_one)
        for n in recovered.summary.iter_nodes()
    }
    assert set(live.views.names) == set(recovered.views.names)
    for query in (ITEM_QUERY, "site(/people(/person[ID](/name[V])))"):
        assert normalize(live.query(query)) == normalize(recovered.query(query))


# --------------------------------------------------------------------------- #
# recovery
# --------------------------------------------------------------------------- #
def test_recovery_from_checkpoint_matches_the_writing_session(tmp_path):
    live = _scripted_session(tmp_path)
    recovered = Database.recover(tmp_path / "doc.log")
    _assert_equivalent(live, recovered)
    # the recovered session keeps writing the same log: a further mutation
    # appends records behind the ones it replayed
    lsn_before = recovered._change_log.last_lsn
    recovered.insert_subtree(
        recovered.document.nodes_on_path("/site/regions/asia")[0],
        XMLNode("item", None, [XMLNode("name", "post-recovery")]),
    )
    assert recovered._change_log.last_lsn == lsn_before + 1
    live.close()
    recovered.close()


def test_recovery_falls_back_to_full_replay_without_the_snapshot(tmp_path):
    live = _scripted_session(tmp_path)
    (tmp_path / "doc.ckpt").unlink()  # snapshot lost: replay from the load record
    recovered = Database.recover(tmp_path / "doc.log")
    _assert_equivalent(live, recovered)
    live.close()
    recovered.close()


def test_a_log_attached_after_the_views_recovers_them(tmp_path):
    """``attach_log`` writes what ``save`` writes: the ``load`` record and a
    ``create_view`` record per view the session already has."""
    document = parse_parenthesized(DOC_TEXT, name="live")
    view = MaterializedView(parse_pattern(ITEM_QUERY, name="items"), document)
    db = Database(document, [view])
    db.attach_log(tmp_path / "doc.log")
    db.close()
    recovered = Database.recover(tmp_path / "doc.log")
    assert recovered.views.names == ["items"]
    assert normalize(db.query(ITEM_QUERY)) == normalize(recovered.query(ITEM_QUERY))
    recovered.close()


def test_replay_reassigns_the_original_dewey_ids(tmp_path):
    live = _scripted_session(tmp_path, checkpoint=False)
    recovered = Database.recover(tmp_path / "doc.log")
    live_ids = [str(n.dewey) for n in live.document.iter_nodes()]
    assert live_ids == [str(n.dewey) for n in recovered.document.iter_nodes()]
    live.close()
    recovered.close()


@pytest.mark.parametrize("checkpoint", [True, False])
def test_recovery_validates_the_log_once(tmp_path, monkeypatch, checkpoint):
    """Recovery replays the log's records and resumes appending behind them
    from one validating scan of the file (a checkpoint's snapshot is a file
    of its own)."""
    live = _scripted_session(tmp_path, checkpoint=checkpoint)
    log_path = tmp_path / "doc.log"
    scanned = []
    scan = changelog._scan

    def counted(path):
        scanned.append(path)
        return scan(path)

    monkeypatch.setattr(changelog, "_scan", counted)
    recovered = Database.recover(log_path)
    assert scanned.count(log_path) == 1
    assert recovered._change_log.last_lsn == live._change_log.last_lsn
    live.close()
    recovered.close()


@pytest.mark.parametrize("survivors", [1, 0])
def test_a_checkpoint_keeps_the_ordinal_high_water_mark(tmp_path, survivors):
    """Deleting a parent's *last* child leaves its high-water mark above
    its live children.  The snapshot keeps the mark, so the insert behind
    the checkpoint gets the Dewey ID it got in the writing session, in the
    loaded snapshot and in recovery alike."""
    live = Database(parse_parenthesized(DOC_TEXT, name="live"))
    live.attach_log(tmp_path / "doc.log")
    live.create_view(ITEM_QUERY, name="items")
    asia = live.document.nodes_on_path("/site/regions/asia")[0]
    for item in asia.children[survivors:]:
        live.delete_subtree(item)
    live.checkpoint(tmp_path / "doc.ckpt")
    snapshot = Database.load(tmp_path / "doc.ckpt")
    node = live.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "new")]))
    assert str(node.dewey) == "1.1.1.3"
    restored_asia = snapshot.document.nodes_on_path("/site/regions/asia")[0]
    restored = snapshot.insert_subtree(restored_asia, XMLNode("item", None))
    assert restored.dewey == node.dewey
    recovered = Database.recover(tmp_path / "doc.log")
    assert recovered.document.node_by_id(node.dewey).children[0].value == "new"
    live_ids = [str(n.dewey) for n in live.document.iter_nodes()]
    assert live_ids == [str(n.dewey) for n in recovered.document.iter_nodes()]
    assert normalize(live.query(ITEM_QUERY)) == normalize(recovered.query(ITEM_QUERY))
    live.close()
    recovered.close()


def test_a_relative_checkpoint_is_found_from_another_directory(tmp_path, monkeypatch):
    """A relative checkpoint path is logged relative to the log's directory:
    recovering the log from elsewhere starts from the snapshot instead of
    silently replaying the whole log."""
    (tmp_path / "session" / "logs").mkdir(parents=True)
    (tmp_path / "session" / "snapshots").mkdir()
    monkeypatch.chdir(tmp_path / "session")
    live = Database(parse_parenthesized(DOC_TEXT, name="live"))
    live.attach_log("logs/doc.log")
    live.create_view(ITEM_QUERY, name="items")
    live.checkpoint("snapshots/doc.ckpt")
    live.insert_subtree(
        live.document.nodes_on_path("/site/regions/asia")[0],
        XMLNode("item", None, [XMLNode("name", "after")]),
    )
    monkeypatch.chdir(tmp_path)
    loaded = []
    snapshot = Database._snapshot

    def spy(path):
        records = snapshot(path)
        loaded.append(Path(path).resolve())
        return records

    monkeypatch.setattr(Database, "_snapshot", staticmethod(spy))
    recovered = Database.recover(Path("session", "logs", "doc.log"))
    assert loaded == [tmp_path.resolve() / "session" / "snapshots" / "doc.ckpt"]
    assert normalize(live.query(ITEM_QUERY)) == normalize(recovered.query(ITEM_QUERY))
    live.close()
    recovered.close()


# --------------------------------------------------------------------------- #
# fault injection
# --------------------------------------------------------------------------- #
def test_torn_tail_recovers_to_the_last_complete_record(tmp_path):
    live = _scripted_session(tmp_path, checkpoint=False)
    live.close()
    log_path = tmp_path / "doc.log"
    whole = log_path.read_bytes()
    last_line_start = whole.rstrip(b"\n").rfind(b"\n") + 1
    tear_point = last_line_start + (len(whole) - last_line_start) // 2
    log_path.write_bytes(whole[:tear_point])  # crash mid-append
    recovered = Database.recover(log_path)
    # the torn final record was the drop of the "names" view; everything up
    # to the tear replayed, the torn record itself never happened
    assert recovered._change_log.last_lsn == whole[:last_line_start].count(b"\n")
    assert "names" in recovered.views
    assert recovered.document.nodes_on_path("/site/people/person")  # eve's insert held
    recovered.close()


def test_flipped_byte_is_a_typed_error_never_a_different_database(tmp_path):
    live = _scripted_session(tmp_path, checkpoint=False)
    live.close()
    log_path = tmp_path / "doc.log"
    lines = log_path.read_bytes().split(b"\n")
    target = next(i for i, line in enumerate(lines) if b'"insert"' in line)
    lines[target] = lines[target].replace(b'"insert"', b'"delete"', 1)
    log_path.write_bytes(b"\n".join(lines))
    with pytest.raises(ChangeLogCorruptError):
        Database.recover(log_path)


def test_missing_record_is_a_typed_error(tmp_path):
    live = _scripted_session(tmp_path, checkpoint=False)
    live.close()
    log_path = tmp_path / "doc.log"
    lines = log_path.read_bytes().split(b"\n")
    del lines[2]
    log_path.write_bytes(b"\n".join(lines))
    with pytest.raises(ChangeLogCorruptError):
        Database.recover(log_path)


# --------------------------------------------------------------------------- #
# stale readers and the batch path
# --------------------------------------------------------------------------- #
def test_mutation_supersedes_published_extents(tmp_path):
    db = Database(parse_parenthesized(DOC_TEXT, name="live"))
    db.create_view(ITEM_QUERY, name="items")
    db.create_view(NAME_QUERY, name="names")
    queries = [ITEM_QUERY, NAME_QUERY]
    try:
        before = db.query_many(queries)
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "fresh")]))
        # searched again (the plan cache emptied), executed over the
        # extents the write maintained
        db.plan_cache.clear()
        after = db.query_many(queries)
        assert len(after[0]) == len(before[0]) + 1
        for text, answer in zip(queries, after):
            direct = evaluate_pattern(parse_pattern(text, name="q"), db.document)
            assert answer.same_contents(direct)
    finally:
        db.close()


def test_structural_links_follow_writes_and_die_with_their_extents():
    """Links cached on an extent never outlive it, nor answer for a newer one.

    ``items ⋈≺ names`` caches its links on the ``names`` ID column, weakly
    keyed on the ``items`` one.  A write splices fresh column sources into
    every extent it touches and moves the links onto them: the next read
    must equal direct evaluation, the superseded source must be
    collectable, and an untouched descendant extent must not pile up
    entries for ancestor extents that are gone.
    """
    db = Database(parse_parenthesized(DOC_TEXT, name="links"))
    db.create_view("site(//item[ID])", name="items")
    db.create_view(NAME_QUERY, name="names")
    query = parse_pattern(ITEM_QUERY, name="q")
    assert "StructuralJoin(items" in str(db.explain(ITEM_QUERY))

    def column(view):
        return db.views[view].extent.source(0)

    def read():
        assert db.query(ITEM_QUERY).same_contents(evaluate_pattern(query, db.document))

    asia = db.document.nodes_on_path("/site/regions/asia")[0]
    read()
    before = weakref.ref(column("names"))
    assert len(before().links) == 1
    named = db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "new")]))
    read()
    db.delete_subtree(named)
    read()
    gc.collect()
    assert before() is None
    # writes that touch only the ancestor extent: the names column stays,
    # and keeps one live entry, not one per items column it ever met
    names = column("names")
    for _ in range(10):
        bare = db.insert_subtree(asia, XMLNode("item"))
        read()
        db.delete_subtree(bare)
        read()
        assert column("names") is names
    gc.collect()
    assert len(names.links) == 1
    db.close()


def _counting_link_builds(monkeypatch) -> list:
    """Record every ``StructuralLinks`` construction from now on."""
    builds = []
    build = kernels.StructuralLinks.__init__

    def counted(self, ancestor_keys, descendant_keys, axis):
        builds.append(axis)
        build(self, ancestor_keys, descendant_keys, axis)

    monkeypatch.setattr(kernels.StructuralLinks, "__init__", counted)
    return builds


def test_no_production_path_reads_a_view_s_row_form(monkeypatch):
    """An extent is its columns alone.  With ``MaterializedView.relation``
    raising, the bench's seed views materialise, every bench class answers
    cold and warm, a live insert and delete are maintained, ``stats()``
    reads, and the service's ``/query`` and ``/ddl`` reply."""

    def refuse(view):
        raise AssertionError(f"{view.name}: a production path read the row form")

    monkeypatch.setattr(MaterializedView, "relation", property(refuse))
    document = generate_xmark_document(scale=2.0, seed=548, name="xmark-columns")
    names = ("Q1", "Q2", "Q4", "Q5", "Q6", "Q18", "Q19")
    db, queries = seed_view_session(document, names)
    with db:

        def reads():
            for query in queries:
                assert db.query(query).same_contents(evaluate_pattern(query, document))

        reads()
        asia = document.nodes_on_path("/site/regions/asia")[0]
        node = db.insert_subtree(asia, asia.children[0].copy())
        reads()
        db.delete_subtree(node)
        reads()
        stats = db.stats()
        assert stats["maintenance"]["delta_applied"] > 0
        assert stats["plan_cache"]["hits"] >= 2 * len(queries)
        app = ServiceApp(db)
        assert app.handle("POST", "/query", {"query": XMARK_QUERY_PATTERNS["Q1"]}).ok
        ddl = app.handle(
            "POST", "/ddl", {"op": "create_view", "name": "items", "pattern": "site(//item[ID])"}
        )
        assert ddl.ok and ddl.body["rows"] == db.views["items"].extent.row_count > 0


def test_the_first_read_after_a_write_follows_the_links(monkeypatch):
    """Q1 (``person ⋈ name``) and Q19 (``item ⋈ location``, ``item ⋈ name``)
    over the seed views: after the first read built the links, the reads
    after an insert and after a delete build none — every entry followed
    the write — and equal direct evaluation."""
    document = generate_xmark_document(scale=10.0, seed=548, name="xmark-follow")
    db, queries = seed_view_session(document, ("Q1", "Q19"))
    with db:
        for query in queries:
            assert "StructuralJoin" in str(db.explain(query))

        def reads():
            for query in queries:
                assert db.query(query).same_contents(evaluate_pattern(query, document))

        reads()
        builds = _counting_link_builds(monkeypatch)
        asia = document.nodes_on_path("/site/regions/asia")[0]
        node = db.insert_subtree(asia, asia.children[0].copy())
        followed = db.maintenance_stats["links_followed"]
        assert followed == 3  # person ⋈ name moves with the names alone
        reads()
        db.delete_subtree(node)
        reads()
        assert builds == []
        assert db.maintenance_stats["links_followed"] == 2 * followed
        assert db.maintenance_stats["links_dropped"] == 0


def _extent_links(db) -> list:
    """Every ``StructuralLinks`` entry cached between two of ``db``'s extents."""
    sources = [
        batch.source(position)
        for batch in (view.extent for view in db.views)
        for position in range(len(batch.columns))
    ]
    extents = {id(source) for source in sources}
    return [
        links
        for source in sources
        for ancestor, by_axis in (source.links or {}).items()
        if id(ancestor) in extents
        for links in by_axis.values()
    ]


def _plan(db, query):
    """The operator tree ``db`` runs for ``query`` (its plan-cache entry)."""
    return db.plan_query(query).best.plan_operator


def _joins(db, query) -> list[StructuralJoin]:
    return [node for node in plan_nodes([_plan(db, query)]) if isinstance(node, StructuralJoin)]


def _scanned(node) -> set[str]:
    return {leaf.view_name for leaf in plan_nodes([node]) if isinstance(leaf, ViewScan)}


def test_a_followed_entry_pairs_again_on_its_first_read():
    """Q1's join and Q19's two joins keep their pair vectors on their plan
    nodes.  An ``item`` write moves the extents of all three joins: the
    links follow it, and the first read after it pairs each join again —
    a new entry, equal to a fresh run — while every answer equals direct
    evaluation.  The read after that takes the new entries as they are."""
    document = generate_xmark_document(scale=10.0, seed=548, name="xmark-paired")
    db, queries = seed_view_session(document, ("Q1", "Q19"))
    with db:

        def reads():
            for query in queries:
                assert db.query(query).same_contents(evaluate_pattern(query, document))

        reads()
        joins = [join for query in queries for join in _joins(db, query)]
        assert len(joins) == 3
        before = [join._kept for join in joins]
        assert all(entry is not None for entry in before)
        asia = document.nodes_on_path("/site/regions/asia")[0]
        node = db.insert_subtree(asia, asia.children[0].copy())
        assert len(_extent_links(db)) == 3  # followed, not dropped
        reads()
        after = [join._kept for join in joins]
        assert not any(map(lambda old, new: old is new, before, after))
        assert assert_plan_cache_derived(db) >= 3
        reads()
        assert all(map(lambda old, join: old is join._kept, after, joins))
        db.delete_subtree(node)
        reads()


def test_a_write_to_the_middle_of_a_chain_makes_its_chained_entry_miss():
    """Q4 chains ``(open_auction ≺≺ bidder) ≺ reserve``.  A ``bidder``
    written into an auction moves the ``bidder`` extent: both joins scan
    it, so both entries miss on the next read and pair again.  A
    ``reserve`` written into an auction that had none moves the last
    extent alone: the first join's entry is read as it was, the chain's
    misses.  Neither write changes the summary, so the plan stays cached
    throughout; Q4 and Q19 equal direct evaluation through both insert /
    delete cycles."""
    document = generate_xmark_document(scale=10.0, seed=548, name="xmark-chained")
    db, queries = seed_view_session(document, ("Q4", "Q19"))
    q4 = queries[0]
    with db:

        def reads():
            for query in queries:
                assert db.query(query).same_contents(evaluate_pattern(query, document))

        reads()
        (chain,) = [join for join in _joins(db, q4) if isinstance(join.left, StructuralJoin)]
        first = chain.left
        assert _scanned(first) == {"seed_open_auction", "seed_bidder"}
        assert _scanned(chain) == {"seed_open_auction", "seed_bidder", "seed_reserve"}
        auctions = document.nodes_on_path("/site/open_auctions/open_auction")
        bidding = next(node for node in auctions if node.children_with_label("bidder"))
        reserved = next(node for node in auctions if node.children_with_label("reserve"))
        bare = next(node for node in auctions if not node.children_with_label("reserve"))
        version = db.views.version
        for parent, child, moved in (
            (bidding, bidding.children_with_label("bidder")[0], (chain, first)),
            (bare, reserved.children_with_label("reserve")[0], (chain,)),
        ):
            kept = {id(join): join._kept for join in (chain, first)}
            node = db.insert_subtree(parent, child.copy())
            reads()
            assert _joins(db, q4)[0] is chain and db.views.version == version
            for join in (chain, first):
                assert (join._kept is kept[id(join)]) == (join not in moved)
            db.delete_subtree(node)
            reads()


def test_a_write_outside_a_projection_keeps_its_memo_and_one_inside_misses():
    """Q2 (``open_auction ≺≺ increase``) and Q4 (``(open_auction ≺≺ bidder)
    ≺ reserve``) end in a ``π`` that keeps its answer.  The bench's write —
    an ``item`` under ``asia`` — touches none of their extents, so both
    entries are read back as they were; a ``bidder`` written into an
    auction moves Q4's chain, so its entry misses on the next read.  Both
    equal direct evaluation throughout."""
    document = generate_xmark_document(scale=10.0, seed=548, name="xmark-kept-pi")
    db, (q2, q4) = seed_view_session(document, ("Q2", "Q4"))
    with db:

        def reads():
            for query in (q2, q4):
                assert db.query(query).same_contents(evaluate_pattern(query, document))

        reads()
        kept = {query.name: _plan(db, query)._kept for query in (q2, q4)}
        assert all(entry is not None for entry in kept.values())
        asia = document.nodes_on_path("/site/regions/asia")[0]
        item = db.insert_subtree(asia, asia.children[0].copy())
        reads()
        assert _plan(db, q2)._kept is kept["Q2"]
        assert _plan(db, q4)._kept is kept["Q4"]
        auction = next(
            node
            for node in document.nodes_on_path("/site/open_auctions/open_auction")
            if node.children_with_label("bidder")
        )
        bidder = db.insert_subtree(auction, auction.children_with_label("bidder")[0].copy())
        reads()
        assert _plan(db, q4)._kept is not kept["Q4"]
        for node in (bidder, item):
            db.delete_subtree(node)
            reads()


def test_a_non_leaf_pinned_ancestor_run_is_followed():
    """``auctions`` pins ``open_auction`` above a ``bidder`` branch, so a
    bidder written below an auction re-evaluates that auction's run (a
    replaced ancestor row, same key): the followed links keep the join
    row-identical to the oracle, and the counters say they were followed."""
    document = generate_xmark_document(scale=10.0, seed=548, name="xmark-auctions")
    db = Database(document)
    db.create_view("site(//open_auction[ID](/bidder))", name="auctions")
    db.create_view("site(//increase[ID,V])", name="increases")
    chain, pin = can_apply_delta(db.views["auctions"])
    assert pin < len(chain) - 1  # pinned above the bidder
    plan = StructuralJoin(
        left=ViewScan("auctions", alias="a"),
        right=ViewScan("increases", alias="i"),
        left_column="a.ID1",
        right_column="i.ID1",
        axis=Axis.DESCENDANT,
    )

    def read():
        fast = PlanExecutor(db.views).execute(plan)
        slow = OracleExecutor(db.views).execute(plan)
        assert fast.rows == slow.rows
        assert assert_memo_derived([plan], db.views) == 1
        return len(fast)

    before = read()
    auctions = document.nodes_on_path("/site/open_auctions/open_auction")
    target = auctions[len(auctions) // 2]
    bidder = next(child for child in target.children if child.label == "bidder")
    stats = db.maintenance_stats
    added = db.insert_subtree(target, bidder.copy())
    assert stats["links_followed"] == 1 and stats["links_dropped"] == 0
    assert read() == before + 1
    db.delete_subtree(added)
    assert stats["links_followed"] == 2 and stats["links_dropped"] == 0
    assert read() == before
    # the auction's last bidders go: its row leaves the ancestor extent
    for child in [child for child in target.children if child.label == "bidder"]:
        db.delete_subtree(child)
        read()
    assert stats["links_dropped"] == 0 and stats["rematerialized"] == 0
    db.close()


def test_a_bulk_ingest_without_reads_follows_each_entry_once():
    """A link entry is followed only if a join read it since the previous
    write: fifty streamed subtrees pay one round of follows, then drops."""
    db = Database(parse_parenthesized(DOC_TEXT, name="bulk"))
    db.create_view("site(//item[ID])", name="items")
    db.create_view(NAME_QUERY, name="names")
    query = parse_pattern(ITEM_QUERY, name="q")
    assert db.query(query).same_contents(evaluate_pattern(query, db.document))
    asia = db.document.nodes_on_path("/site/regions/asia")[0]
    chunks = [f"<item><name>bulk {index}</name></item>" for index in range(50)]
    for subtree in iter_stream_subtrees(chunks):
        db.insert_subtree(asia, subtree)
    stats = db.maintenance_stats
    assert stats["links_followed"] == 1  # the one entry, on the first write
    assert stats["links_dropped"] == 1  # unread since: dropped on the second
    assert db.query(query).same_contents(evaluate_pattern(query, db.document))
    db.close()


# --------------------------------------------------------------------------- #
# a write costs what it changes — the count floor behind ``xmark_live``
# --------------------------------------------------------------------------- #
def test_a_data_only_write_block_rematerializes_and_searches_nothing():
    """Insert + 7 reads + delete + 7 reads on the XMark seed views.

    Counts, not times: no view is rematerialised (every seed view is
    leaf-pinned, so the one-row ``seed_regions`` extent above the insert
    point is left alone), no rewriting search runs, and all fourteen reads
    are plan-cache hits.
    """
    document = generate_xmark_document(scale=1.0, seed=548, name="xmark-live")
    db, queries = seed_view_session(document, ("Q1", "Q2", "Q4", "Q5", "Q6", "Q18", "Q19"))
    with db:
        assert "seed_regions" in db.views

        def reads():
            answers = [db.query(query) for query in queries]
            for query, answer in zip(queries, answers):
                assert answer.same_contents(evaluate_pattern(query, document))
            return [len(answer) for answer in answers]

        sizes = reads()
        searches = db.rewriter.search_totals["searches"]
        hits = db.plan_cache.info()["hits"]
        asia = document.nodes_on_path("/site/regions/asia")[0]
        # a copy of an existing item: counts move, shape and flags do not
        node = db.insert_subtree(asia, asia.children[0].copy())
        grown = reads()
        db.delete_subtree(node)
        assert reads() == sizes
        assert grown != sizes and all(g >= s for g, s in zip(grown, sizes))
        assert db.maintenance_stats["rematerialized"] == 0
        assert db.maintenance_stats["delta_applied"] == 2 * len(db.views)
        assert db.rewriter.search_totals["searches"] == searches
        assert db.plan_cache.info()["hits"] == hits + 14


# --------------------------------------------------------------------------- #
# fig13-style: the XMark workload over a replayed document
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_fig13_queries_survive_log_replay(tmp_path):
    document = generate_xmark_document(scale=0.1, seed=91, name="xmark-live")
    live = Database(document)
    live.attach_log(tmp_path / "xmark.log")
    live.create_view(ITEM_QUERY, name="items")
    live.create_view("site(//keyword[ID,V])", name="keywords")
    parents = live.document.nodes_on_path("/site/regions/asia/item")
    for index, parent in enumerate(parents[:3]):
        live.insert_subtree(
            parent, XMLNode("keyword", f"replayed-{index}")
        )
    live.delete_subtree(parents[0])
    recovered = Database.recover(tmp_path / "xmark.log")
    for query in (ITEM_QUERY, "site(//keyword[ID,V])"):
        assert normalize(live.query(query)) == normalize(recovered.query(query))
    fresh = {
        n.path: (n.instance_count, n.strong, n.one_to_one)
        for n in build_summary(recovered.document).iter_nodes()
    }
    assert fresh == {
        n.path: (n.instance_count, n.strong, n.one_to_one)
        for n in recovered.summary.iter_nodes()
    }
    live.close()
    recovered.close()


@pytest.mark.slow
def test_fig14_queries_survive_log_replay(tmp_path):
    document = generate_dblp_document("2005", scale=0.6, seed=5, name="dblp-live")
    live = Database(document)
    live.attach_log(tmp_path / "dblp.log")
    author_query = "dblp(//article[ID](/author[V]))"
    title_query = "dblp(//title[ID,V])"
    live.create_view(author_query, name="authors")
    live.create_view(title_query, name="titles")
    articles = live.document.nodes_on_path("/dblp/article")
    live.insert_subtree(
        live.document.root,
        XMLNode(
            "article",
            None,
            [XMLNode("author", "new author"), XMLNode("title", "replayed paper")],
        ),
    )
    live.delete_subtree(articles[0])
    live.checkpoint(tmp_path / "dblp.ckpt")
    live.insert_subtree(articles[1], XMLNode("note", "post-checkpoint"))
    recovered = Database.recover(tmp_path / "dblp.log")
    for query in (author_query, title_query):
        assert normalize(live.query(query)) == normalize(recovered.query(query))
    live.close()
    recovered.close()
