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

import pytest

from repro import (
    ChangeLogCorruptError,
    Database,
    XMLNode,
    build_summary,
    evaluate_pattern,
    parse_parenthesized,
    parse_pattern,
    to_parenthesized,
)
from repro.algebra import kernels
from repro.algebra.columnar import ColumnBatch
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import StructuralJoin, ViewScan
from repro.patterns.pattern import Axis
from repro.rewriting import RewritingConfig
from repro.views.delta import can_apply_delta
from repro.workloads import XMARK_QUERY_PATTERNS, seed_tag_views
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.xmark import generate_xmark_document

from support.oracle_executor import OracleExecutor
from support.rebuild_oracle import normalize

DOC_TEXT = (
    'site(regions(asia(item(name="pen" quantity=2) item(name="ink")))'
    '     people(person(name="bob")))'
)
ITEM_QUERY = "site(//item[ID](/name[V]))"
NAME_QUERY = "site(//name[ID,V])"


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
    db.ingest_stream(
        ["<item><name>str", "eamed</name><quantity>4</quantity></item>"], asia
    )
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
    lsn_before = recovered.change_log.last_lsn
    recovered.insert_subtree(
        recovered.document.nodes_on_path("/site/regions/asia")[0],
        XMLNode("item", None, [XMLNode("name", "post-recovery")]),
    )
    assert recovered.change_log.last_lsn == lsn_before + 1
    live.close()
    recovered.close()


def test_recovery_falls_back_to_full_replay_without_the_snapshot(tmp_path):
    live = _scripted_session(tmp_path)
    (tmp_path / "doc.ckpt").unlink()  # snapshot lost: replay from the load record
    recovered = Database.recover(tmp_path / "doc.log")
    _assert_equivalent(live, recovered)
    live.close()
    recovered.close()


def test_replay_reassigns_the_original_dewey_ids(tmp_path):
    live = _scripted_session(tmp_path, checkpoint=False)
    recovered = Database.recover(tmp_path / "doc.log")
    live_ids = [str(n.dewey) for n in live.document.iter_nodes()]
    assert live_ids == [str(n.dewey) for n in recovered.document.iter_nodes()]
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
    assert recovered.change_log.last_lsn == whole[:last_line_start].count(b"\n")
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
        return ColumnBatch.from_relation(db.views[view].relation).source(0)

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


def _seed_view_session(document, names):
    """A session over ``document`` with the bench's seed views for ``names``."""
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=3, enable_unions=False, time_budget_seconds=None
    )
    queries = [parse_pattern(XMARK_QUERY_PATTERNS[name], name=name) for name in names]
    db = Database(document, config=config)
    labels = {node.label for query in queries for node in query.nodes()}
    for view in seed_tag_views(db.summary):
        if view.root.children[0].label in labels:
            db.create_view(view, name=view.name)
    return db, queries


def _counting_link_builds(monkeypatch) -> list:
    """Record every ``StructuralLinks`` construction from now on."""
    builds = []
    build = kernels.StructuralLinks.__init__

    def counted(self, ancestor_keys, descendant_keys, axis):
        builds.append(axis)
        build(self, ancestor_keys, descendant_keys, axis)

    monkeypatch.setattr(kernels.StructuralLinks, "__init__", counted)
    return builds


def test_the_first_read_after_a_write_follows_the_links(monkeypatch):
    """Q1 (``person ⋈ name``) and Q19 (``item ⋈ location``, ``item ⋈ name``)
    over the seed views: after the first read built the links, the reads
    after an insert and after a delete build none — every entry followed
    the write — and equal direct evaluation."""
    document = generate_xmark_document(scale=10.0, seed=548, name="xmark-follow")
    db, queries = _seed_view_session(document, ("Q1", "Q19"))
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
        for batch in (ColumnBatch.from_relation(view.relation) for view in db.views)
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


def test_a_followed_entry_pairs_again_on_its_first_read():
    """Q1's join and Q19's first join read two whole seed extents, so their
    links keep the pair vectors; a write follows the links without them,
    and the first read after it pairs again — equal to a fresh ``pairs()``
    call — while every answer equals direct evaluation."""
    document = generate_xmark_document(scale=10.0, seed=548, name="xmark-paired")
    db, queries = _seed_view_session(document, ("Q1", "Q19"))
    with db:

        def reads():
            for query in queries:
                assert db.query(query).same_contents(evaluate_pattern(query, document))

        reads()
        before = _extent_links(db)
        # item ⋈ name in Q19 reads a join output on its ancestor side
        assert len(before) == 3 and sum(links.paired is not None for links in before) == 2
        asia = document.nodes_on_path("/site/regions/asia")[0]
        node = db.insert_subtree(asia, asia.children[0].copy())
        followed = _extent_links(db)
        assert len(followed) == 3 and not any(links in before for links in followed)
        assert all(links.paired is None for links in followed)
        reads()
        paired = [links for links in followed if links.paired is not None]
        assert len(paired) == 2
        for links in paired:
            fresh = links.pairs(None, range(len(links.targets)), None)
            assert [list(vector) for vector in links.paired] == list(fresh)
        db.delete_subtree(node)
        assert all(links.paired is None for links in _extent_links(db))
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
        assert fast.rows == slow.rows and fast.sorted_by == slow.sorted_by
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
    assert len(db.ingest_stream(chunks, asia)) == 50
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
    db, queries = _seed_view_session(document, ("Q1", "Q2", "Q4", "Q5", "Q6", "Q18", "Q19"))
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
