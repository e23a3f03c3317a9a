"""Relative speed floors: each fast path against the slow path it replaced.

Every test times one production path against its reference on the same
inputs in the same process, asserts the two agree, and asserts the ratio
stays above a fixed floor.  They are ``slow``-marked (minutes, not tier-1)
and write nothing: absolute numbers and trajectories are the business of
``bench/`` (see ``bench/README.md``); these only keep a structural speed-up
from silently disappearing.

Run with ``PYTHONPATH=src python -m pytest tests/integration/test_speed_floors.py -m slow``.
"""

from __future__ import annotations

import copy
import gc
import json
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import (
    Database,
    MaterializedView,
    XMLNode,
    build_summary,
    generate_random_document,
    parse_parenthesized,
    parse_pattern,
)
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import IndexScan, Projection, Selection, StructuralJoin, ViewScan
from repro.algebra.tuples import Column, Relation, _hashable
from repro.containment import core
from repro.containment.core import (
    canonical_containment_decision,
    clear_containment_cache,
)
from repro.errors import RewritingError
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.rewriting.algorithm import RewritingConfig
from repro.rewriting.rewriter import Rewriter
from repro.summary.dataguide import summary_from_paths
from repro.summary.statistics import Statistics
from repro.views.delta import SubtreeChange
from repro.workloads.synthetic import seed_tag_views
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns, xmark_spec
from repro.xmltree.ids import DeweyID

from support.annotation_oracle import oracle_annotate_paths, oracle_annotations
from support.memo_free import memo_free
from support.oracle_executor import OracleExecutor
from support.paper_workloads import build_dblp_workload, build_xmark_workload
from support.rebuild_oracle import scan_fed_extent
from support.relations import stored_view
from support.statistics_oracle import assert_statistics_equal_a_fresh_build

pytestmark = pytest.mark.slow

_ALIAS = re.compile(r"[@#]\d+")


def _seconds(run) -> float:
    """One timed pass, started on a freshly collected heap.  The collector
    stays on inside the pass, so a pass pays for the garbage it makes, not
    for a full collection that earlier passes' survivors happened to start."""
    gc.collect()
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _median_seconds(run, reps=15) -> float:
    return sorted(_seconds(run) for _ in range(reps))[reps // 2]


def _per_run_seconds(run, runs: int) -> float:
    """``runs`` back-to-back passes after one collection, per pass.  A pass
    of tens of microseconds timed alone right after a collection reads the
    cold CPU cache the collection left, not the code it runs."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(runs):
        run()
    return (time.perf_counter() - start) / runs


def _rows(relation):
    return [_hashable(row) for row in relation.rows]


def _copies(plan, count: int):
    """``count`` copies of ``plan``, made before any clock starts.  A copy
    carries no executor memo entry (``PlanExecutor._kept``), so a timed run
    over one computes its kernels instead of reading the memo."""
    return iter([copy.deepcopy(plan) for _ in range(count)])


def _rewriting_fingerprint(outcome):
    """Alias-insensitive identity of an outcome's rewritings."""
    return [
        (tuple(r.views_used), r.is_union, _ALIAS.sub("@N", r.plan.describe()))
        for r in outcome.rewritings
    ]


# --------------------------------------------------------------------------- #
# prefix-keyed structural join vs the O(l × r) nested loop: >= 5x at 10k x 10k
# --------------------------------------------------------------------------- #
def _chain_extents(size: int, reverse: bool = False) -> dict[str, SimpleNamespace]:
    """``size`` ancestors ``1.i`` and ``size`` descendants ``1.i.1``, in
    document order — or, with ``reverse``, in reverse document order."""
    order = range(size, 0, -1) if reverse else range(1, size + 1)
    upper = Relation([Column("ID1", kind="ID")], rows=[(DeweyID((1, i)),) for i in order])
    lower = Relation([Column("ID1", kind="ID")], rows=[(DeweyID((1, i, 1)),) for i in order])
    return {"upper": stored_view(upper), "lower": stored_view(lower)}


def test_structural_pairs_join_beats_the_nested_loop():
    plan = StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("lower", alias="l"),
        left_column="u.ID1",
        right_column="l.ID1",
        axis=Axis.DESCENDANT,
    )
    speedups = {}
    for size in (1_000, 3_000, 10_000):
        views = _chain_extents(size)
        results = {}
        merge_seconds = _seconds(
            lambda: results.update(merge=PlanExecutor(views).execute(plan))
        )
        nested_seconds = _seconds(
            lambda: results.update(
                nested=OracleExecutor(
                    views, structural_join_strategy="nested-loop"
                ).execute(plan)
            )
        )
        # the sort-the-descendants fallback: the same rows, out of order
        reversed_views = _chain_extents(size, reverse=True)
        fallback = PlanExecutor(reversed_views).execute(plan)
        assert results["merge"].same_contents(results["nested"])
        assert fallback.same_contents(results["nested"])
        assert _rows(fallback) == _rows(OracleExecutor(reversed_views).execute(plan))
        assert len(results["merge"]) == size  # one descendant per ancestor
        speedups[size] = nested_seconds / merge_seconds
    print(f"structural join vs nested loop at 10k: {speedups[10_000]:.1f}x")
    assert speedups[10_000] >= 5.0, (
        f"the structural join only {speedups[10_000]:.1f}x faster than the nested "
        f"loop on the 10k x 10k extents"
    )


# --------------------------------------------------------------------------- #
# cached structural links: a repeated view x view join >= 3x its first run
# --------------------------------------------------------------------------- #
def test_a_repeated_structural_join_reads_its_cached_links():
    """The first execution builds the links (keys hashed and sliced); every
    later one over the same extents reads them back and pairs — each on a
    fresh copy of the plan, so it pairs instead of reading the memo.  Both
    start from warm column and Dewey-key caches, so the ratio is the link
    build alone."""
    plan = StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("lower", alias="l"),
        left_column="u.ID1",
        right_column="l.ID1",
        axis=Axis.DESCENDANT,
    )
    ratios = []
    for _ in range(5):
        views = _chain_extents(10_000)
        for view in views.values():
            view.extent.dewey_keys(0)
        batches = {}
        fresh = _copies(plan, 6)
        first = _seconds(
            lambda: batches.update(first=PlanExecutor(views).execute_batch(next(fresh)))
        )
        again = _median_seconds(
            lambda: batches.update(again=PlanExecutor(views).execute_batch(next(fresh))), reps=5
        )
        assert _rows(batches["again"].to_relation()) == _rows(batches["first"].to_relation())
        ratios.append(first / again)
    oracle = OracleExecutor(views).execute(plan)
    assert batches["again"].to_relation().same_contents(oracle)
    ratio = sorted(ratios)[len(ratios) // 2]
    print(f"repeated view x view structural join: {ratio:.1f}x its first run")
    assert ratio >= 3.0, (
        f"a repeated 10k x 10k structural join only {ratio:.1f}x faster than "
        f"the first, which builds the links"
    )


# --------------------------------------------------------------------------- #
# kept pair vectors and the cached distinctness proof: a repeated join + π
# over two whole extents >= 10x its first run
# --------------------------------------------------------------------------- #
def test_a_repeated_extent_join_and_projection_read_what_the_first_run_kept():
    """The first run builds the links and their pair vectors and proves the
    ancestor ID column strictly ascending; every later run over the same
    extents reads all three back — no pairing, and a projection that keeps
    the unique ancestor ID hashes no key.  Both start from warm column and
    Dewey-key caches.  Reading the links alone, re-pairing and hashing the
    projected keys, is ≈ 4x; with what the first run kept, ≈ 40x."""
    plan = Projection(
        child=StructuralJoin(
            left=ViewScan("upper", alias="u"),
            right=ViewScan("lower", alias="l"),
            left_column="u.ID1",
            right_column="l.ID1",
            axis=Axis.CHILD,
        ),
        columns=["u.ID1"],
    )
    ratios = []
    for _ in range(5):
        views = _chain_extents(10_000)
        for view in views.values():
            view.extent.dewey_keys(0)
        batches = {}
        first = _seconds(lambda: batches.update(first=PlanExecutor(views).execute_batch(plan)))
        again = _median_seconds(
            lambda: batches.update(again=PlanExecutor(views).execute_batch(plan)), reps=5
        )
        assert _rows(batches["again"].to_relation()) == _rows(batches["first"].to_relation())
        assert batches["again"].row_count == 10_000
        ratios.append(first / again)
    oracle = OracleExecutor(views).execute(plan)
    assert _rows(batches["again"].to_relation()) == _rows(oracle)
    ratio = sorted(ratios)[len(ratios) // 2]
    print(f"repeated extent join + projection: {ratio:.1f}x its first run")
    assert ratio >= 10.0, (
        f"a repeated 10k x 10k join + projection only {ratio:.1f}x faster than "
        f"the first, which builds the links, pairs and proves"
    )


# --------------------------------------------------------------------------- #
# a join chain: the second join over a kept vector's gather keeps its pairs,
# and the projection reads the repeat-free records — >= 100x the first run
# --------------------------------------------------------------------------- #
def test_a_repeated_join_chain_and_projection_read_what_the_first_run_kept():
    """``(upper ⋈ middle) ⋈ lower`` over three 10k extents (``1.i``,
    ``1.i.1``, ``1.i.2``) and a ``π`` on the ancestor ID.  The first run
    builds both links, both joins' pair vectors and the proof; every later
    run reads them back — the second join through the very vector the
    first one kept — and proves the projection distinct from the vectors'
    repeat-free records, composing and hashing nothing.  Both start from
    warm column and Dewey-key caches.  Reading the links alone, pairing the
    second join per query and hashing the composed gather, is ≈ 17x; with
    what the first run kept, ≈ 700-1 300x."""
    first_join = StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("middle", alias="m"),
        left_column="u.ID1",
        right_column="m.ID1",
        axis=Axis.CHILD,
    )
    plan = Projection(
        child=StructuralJoin(
            left=first_join,
            right=ViewScan("lower", alias="l"),
            left_column="u.ID1",
            right_column="l.ID1",
            axis=Axis.CHILD,
        ),
        columns=["u.ID1"],
    )
    ratios = []
    for _ in range(5):
        views = _chain_extents(10_000)
        views["middle"] = views.pop("lower")
        lower = Relation(
            [Column("ID1", kind="ID")], rows=[(DeweyID((1, i, 2)),) for i in range(1, 10_001)]
        )
        views["lower"] = stored_view(lower)
        for view in views.values():
            view.extent.dewey_keys(0)
        batches = {}
        first = _seconds(lambda: batches.update(first=PlanExecutor(views).execute_batch(plan)))
        again = _per_run_seconds(
            lambda: batches.update(again=PlanExecutor(views).execute_batch(plan)), runs=50
        )
        assert _rows(batches["again"].to_relation()) == _rows(batches["first"].to_relation())
        assert batches["again"].row_count == 10_000
        ratios.append(first / again)
    oracle = OracleExecutor(views).execute(plan)
    assert _rows(batches["again"].to_relation()) == _rows(oracle)
    ratio = sorted(ratios)[len(ratios) // 2]
    print(f"repeated 10k join chain + projection: {ratio:.1f}x its first run")
    assert ratio >= 100.0, (
        f"a repeated 10k three-extent chain + projection only {ratio:.1f}x faster "
        f"than the first, which builds both links, pairs and proves"
    )


# --------------------------------------------------------------------------- #
# a kept π: a repeated dedup over a join chain >= 5x its first run
# --------------------------------------------------------------------------- #
def test_a_repeated_projection_over_a_join_chain_reads_its_kept_answer():
    """``π(l.V1)`` over ``(upper ⋈ middle) ⋈ lower`` (three 10k extents,
    ``l.V1`` holding 100 values, so nothing proves the rows distinct).  The
    chain is run once first, so both joins already read what their links
    keep; the first ``π`` then gathers and hashes the 10k projected keys,
    and every later one reads the dedup vector it kept back."""

    def extent(suffix, values=False):
        rows = [
            (DeweyID((1, i, *suffix)), f"v{i % 100:02d}") if values else (DeweyID((1, i, *suffix)),)
            for i in range(1, 10_001)
        ]
        columns = [Column("ID1", kind="ID")] + ([Column("V1")] if values else [])
        return stored_view(Relation(columns, rows=rows))

    first_join = StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("middle", alias="m"),
        left_column="u.ID1",
        right_column="m.ID1",
        axis=Axis.CHILD,
    )
    chain = StructuralJoin(
        left=first_join,
        right=ViewScan("lower", alias="l"),
        left_column="u.ID1",
        right_column="l.ID1",
        axis=Axis.CHILD,
    )
    plan = Projection(child=chain, columns=["l.V1"])
    ratios = []
    for _ in range(5):
        views = {"upper": extent(()), "middle": extent((1,)), "lower": extent((2,), True)}
        PlanExecutor(views).execute_batch(chain)
        batches = {}
        first = _seconds(lambda: batches.update(first=PlanExecutor(views).execute_batch(plan)))
        again = _median_seconds(
            lambda: batches.update(again=PlanExecutor(views).execute_batch(plan)), reps=5
        )
        assert batches["again"].source(0)._indices is batches["first"].source(0)._indices
        assert _rows(batches["again"].to_relation()) == _rows(batches["first"].to_relation())
        assert batches["again"].row_count == 100
        ratios.append(first / again)
    oracle = OracleExecutor(views).execute(plan)
    assert _rows(batches["again"].to_relation()) == _rows(oracle)
    ratio = sorted(ratios)[len(ratios) // 2]
    print(f"repeated projection over a 10k join chain: {ratio:.1f}x its first run")
    assert ratio >= 5.0, (
        f"a repeated projection over a 10k join chain only {ratio:.1f}x faster than "
        f"the first, which hashes the projected keys"
    )


# --------------------------------------------------------------------------- #
# links that follow a write: the first join after it >= 3x one that rebuilds
# --------------------------------------------------------------------------- #
def test_the_first_join_after_a_write_reads_the_followed_links():
    """A one-row insert into both extents of a 10k x 10k view x view join,
    halfway through them: the write carries the links across its splices
    (the ancestor shift included), so the first join after it only reads
    them; with the links dropped, the same join builds them again.  Both
    start from the spliced, warm column and key caches, and each runs a
    fresh copy of the plan, so neither reads the executor's memo."""
    half = "g(" + " ".join(["a(b)"] * 5_000) + ")"
    db = Database(parse_parenthesized(f"site({half} {half})", name="follow"))
    db.create_view("site(//a[ID])", name="upper")
    db.create_view("site(//b[ID])", name="lower")
    plan = StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("lower", alias="l"),
        left_column="u.ID1",
        right_column="l.ID1",
        axis=Axis.CHILD,
    )
    PlanExecutor(db.views).execute_batch(plan)  # builds the links
    group = db.document.root.children[0]
    ratios = []
    for round_ in range(5):
        db.insert_subtree(group, XMLNode("a", None, [XMLNode("b")]))
        assert db.maintenance_stats["links_followed"] == round_ + 1
        batches = {}
        fresh = _copies(plan, 2)
        followed = _seconds(
            lambda: batches.update(followed=PlanExecutor(db.views).execute_batch(next(fresh)))
        )
        lower = db.views["lower"].extent.source(0)
        lower.links = None
        rebuilt = _seconds(
            lambda: batches.update(rebuilt=PlanExecutor(db.views).execute_batch(next(fresh)))
        )
        assert _rows(batches["followed"].to_relation()) == _rows(
            batches["rebuilt"].to_relation()
        )
        assert len(batches["followed"].to_relation()) == 10_001 + round_
        ratios.append(rebuilt / followed)
    oracle = OracleExecutor(db.views).execute(plan)
    assert batches["followed"].to_relation().same_contents(oracle)
    db.close()
    ratio = sorted(ratios)[len(ratios) // 2]
    print(f"first join after a write vs rebuilt links: {ratio:.1f}x")
    assert ratio >= 3.0, (
        f"the first 10k x 10k structural join after a write only {ratio:.1f}x "
        f"faster than one that rebuilds its links"
    )


# --------------------------------------------------------------------------- #
# projection dedup on row keys vs Relation.project: >= 5x on a sorted ID extent
# --------------------------------------------------------------------------- #
def test_projection_dedup_beats_relation_project():
    views = _chain_extents(10_000)
    plan = Projection(child=ViewScan("upper", alias="u"), columns=["u.ID1"])
    fast = PlanExecutor(views).execute(plan)  # warm: row keys cached on the extent
    slow = OracleExecutor(views).execute(plan)  # Relation.project + _hashable
    assert fast.rows == slow.rows
    speedup = _median_seconds(lambda: OracleExecutor(views).execute(plan)) / _median_seconds(
        lambda: PlanExecutor(views).execute(plan)
    )
    print(f"Projection vs Relation.project: {speedup:.1f}x")
    assert speedup >= 5.0, f"Projection only {speedup:.1f}x faster than Relation.project"


# --------------------------------------------------------------------------- #
# index probe vs scan-and-filter: >= 5x selective, low-cardinality and
# half-selective range probes alike
# --------------------------------------------------------------------------- #
def test_index_probe_beats_the_full_scan():
    """One index kind for every column: a 0.5 % probe of a 200-value
    column, a 4 % probe of a 25-value one (the case a per-value bitmap kind
    used to serve) and a range matching half the rows of the 25-value
    column (forced: at that selectivity the planner keeps the scan).  Every
    timed run executes a fresh copy of its plan: a cached plan reads its
    kept keep vector instead of probing or filtering."""
    items, name_values, group_values = 50_000, 200, 25
    document = parse_parenthesized(
        "site("
        + " ".join(
            f'item(name="k{i % name_values:03d}" grp="g{i % group_values:02d}")'
            for i in range(items)
        )
        + ")"
    )
    db = Database(document)
    db.create_view("site(/item(/name[ID,V]))", name="names")
    db.create_view("site(/item(/grp[ID,V]))", name="groups")
    plans = {}
    for label, query in [
        ("selective", 'site(/item(/name[ID,V]{v="k123"}))'),
        ("low-cardinality", 'site(/item(/grp[ID,V]{v="g07"}))'),
    ]:
        planned = db.prepare(query).choice.best
        # the pushdown's IndexScan probe, and the untransformed scan + filter
        plans[label] = planned.plan_operator, planned.rewriting.plan
    half = ValueFormula.parse('v < "g12"')
    plans["half-selective range"] = (
        IndexScan("groups", "g.V1", half, alias="g"),
        Selection(child=ViewScan("groups", alias="g"), column="g.V1", formula=half),
    )
    speedups, rows = {}, {}
    for label, (index_plan, scan_plan) in plans.items():
        assert "IndexScan" in index_plan.describe()
        assert "IndexScan" not in scan_plan.describe()
        index_result = PlanExecutor(db.views).execute(index_plan)  # builds the index
        assert _rows(index_result) == _rows(PlanExecutor(db.views).execute(scan_plan))
        index_copies, scan_copies = _copies(index_plan, 15), _copies(scan_plan, 15)
        index_seconds = _median_seconds(
            lambda: PlanExecutor(db.views).execute(next(index_copies))
        )
        scan_seconds = _median_seconds(lambda: PlanExecutor(db.views).execute(next(scan_copies)))
        speedups[label] = scan_seconds / index_seconds
        rows[label] = len(index_result)
    built = db.stats()["indexes"]["built"]
    db.close()
    print("index probe over scan-and-filter: " + ", ".join(
        f"{label} {speedup:.1f}x" for label, speedup in speedups.items()
    ))
    assert built == 2, "one index per probed column"
    assert rows == {
        "selective": items // name_values,
        "low-cardinality": items // group_values,
        "half-selective range": items * 12 // group_values,
    }
    for label, speedup in speedups.items():
        assert speedup >= 5.0, f"{label} probe only {speedup:.1f}x"


# --------------------------------------------------------------------------- #
# delta maintenance vs rematerialization: >= 5x for single-subtree changes
# --------------------------------------------------------------------------- #
def test_delta_maintenance_beats_rematerialization():
    pattern = "site(//item[ID](/name[V]))"  # a delta-eligible chain
    document = generate_xmark_document(scale=20.0, seed=548, name="xmark-ingest")
    view = MaterializedView(parse_pattern(pattern, name="items"), document, name="items")
    parent = document.nodes_on_path("/site/regions/asia")[0]
    serial = iter(range(1, 1_000_000))

    def subtree():
        return XMLNode("item", None, [XMLNode("name", f"floor-{next(serial)}")])

    def delta_cycle():
        node = document.insert_subtree(parent, subtree())
        insert = SubtreeChange("insert", node.dewey, parent.dewey)
        assert view.apply_delta(document, insert) == "delta"
        detached = document.delete_subtree(node)
        delete = SubtreeChange("delete", detached.dewey, parent.dewey)
        assert view.apply_delta(document, delete) == "delta"

    def rebuild_cycle():
        node = document.insert_subtree(parent, subtree())
        scan_fed_extent(view, document)
        document.delete_subtree(node)
        scan_fed_extent(view, document)

    node = document.insert_subtree(parent, subtree())
    assert (
        view.apply_delta(document, SubtreeChange("insert", node.dewey, parent.dewey))
        == "delta"
    )
    assert _rows(view.relation) == _rows(scan_fed_extent(view, document))
    document.delete_subtree(node)
    view.apply_delta(document, SubtreeChange("delete", node.dewey, parent.dewey))

    speedup = _median_seconds(rebuild_cycle) / _median_seconds(delta_cycle)
    print(f"apply_delta vs rematerialization: {speedup:.1f}x")
    assert speedup >= 5.0, f"apply_delta only {speedup:.1f}x faster than rematerializing"


# --------------------------------------------------------------------------- #
# a leaf-pinned view above the change: >= 10x over rematerializing it
# --------------------------------------------------------------------------- #
def test_a_leaf_pinned_update_beats_rematerialization():
    """``site(//regions[ID,V])`` holds one row, pinned at an ancestor of every
    insert point whose subtree is most of the document: the update must cost
    a bisect, not the ``evaluate_pattern`` (or even the subtree count) that
    the half-document fallback used to pay."""
    document = generate_xmark_document(scale=300.0, seed=548, name="xmark-ingest")
    assert document.size >= 100_000
    pattern = parse_pattern("site(//regions[ID,V])", name="regions")
    view = MaterializedView(pattern, document, name="regions")
    parent = document.nodes_on_path("/site/regions/asia")[0]
    assert parent.parent.subtree_size() > 0.5 * document.size

    def delta_cycle():
        node = document.insert_subtree(parent, XMLNode("item", None, [XMLNode("name", "x")]))
        insert = SubtreeChange("insert", node.dewey, parent.dewey)
        assert view.apply_delta(document, insert) == "delta"
        document.delete_subtree(node)
        delete = SubtreeChange("delete", node.dewey, parent.dewey)
        assert view.apply_delta(document, delete) == "delta"

    before = view.extent
    delta_cycle()
    assert view.extent is before
    assert _rows(view.relation) == _rows(scan_fed_extent(view, document))
    speedup = _median_seconds(lambda: scan_fed_extent(view, document), reps=5) * 2 / (
        _median_seconds(delta_cycle)
    )
    print(f"leaf-pinned update vs rematerialization: {speedup:.1f}x")
    assert speedup >= 10.0, f"leaf-pinned update only {speedup:.1f}x faster than rematerializing"


# --------------------------------------------------------------------------- #
# statistics following a write's splice vs re-observing the extent: >= 20x
# --------------------------------------------------------------------------- #
def test_statistics_follow_the_splice_not_the_extent(monkeypatch):
    """A 50 000-row view with a high-cardinality numeric ``V`` column (a
    histogram, not a common-value table): one item in and out must move its
    statistics by the rows it changed, not by counting the whole column."""
    items = 50_000
    document = parse_parenthesized(
        "site(" + " ".join(f"item(qty={i % 5_000})" for i in range(items)) + ")"
    )
    db = Database(document)
    view = db.create_view("site(/item(/qty[ID,V]))", name="quantities")
    statistics = db.catalog.statistics()
    assert "numeric" in statistics.view_column_stats("quantities", "V1")
    followed = []
    follow = Statistics.follow_write

    def timed_follow(self, delta, changed=()):
        start = time.perf_counter()
        result = follow(self, delta, changed)
        followed.append(time.perf_counter() - start)
        return result

    monkeypatch.setattr(Statistics, "follow_write", timed_follow)

    def cycle():
        node = db.insert_subtree(document.root, XMLNode("item", None, [XMLNode("qty", 2_500)]))
        db.delete_subtree(node)

    cycle()
    assert_statistics_equal_a_fresh_build(statistics, db.summary, db.views)
    assert db.maintenance_stats["statistics_reobserved"] == 0
    followed.clear()
    for _ in range(15):
        cycle()
    per_write = sorted(followed)[len(followed) // 2]
    reobserve = _median_seconds(lambda: statistics.observe_view(view), reps=5)
    db.close()
    print(f"statistics re-observe vs follow: {reobserve / per_write:.1f}x")
    assert reobserve / per_write >= 20.0, (
        f"following a write only {reobserve / per_write:.1f}x faster than re-observing"
    )


# --------------------------------------------------------------------------- #
# store-fed materialisation vs the full walk: >= 5x on the bench's seed views
# --------------------------------------------------------------------------- #
def test_store_fed_materialisation_beats_the_scan():
    """The 16 seed tag views behind the bench's XMark classes, on a >= 100 k
    node document: ``//tag`` from the root reads the path store's lists for
    ``tag`` where the reference walks every node once per view."""
    document = generate_xmark_document(scale=300.0, seed=548, name="xmark-store")
    assert document.size >= 100_000
    queries = xmark_query_patterns()
    labels = {
        node.label
        for name in ("Q1", "Q2", "Q4", "Q5", "Q6", "Q18", "Q19")
        for node in queries[name].nodes()
    }
    views = [
        MaterializedView(pattern, name=pattern.name)
        for pattern in seed_tag_views(build_summary(document))
        if pattern.root.children[0].label in labels
    ]
    assert len(views) == 16
    for view in views:
        extent = view.materialize(document).to_relation()
        reference = scan_fed_extent(view, document)
        assert extent.rows == reference.rows

    def store_fed():
        for view in views:
            view.materialize(document)

    def scan_fed():
        for view in views:
            scan_fed_extent(view, document)

    speedup = _median_seconds(scan_fed, reps=3) / _median_seconds(store_fed, reps=5)
    print(f"store-fed vs scan-fed materialisation: {speedup:.1f}x")
    assert speedup >= 5.0, f"store-fed materialisation only {speedup:.1f}x faster than the scan"


# --------------------------------------------------------------------------- #
# summary-indexed path annotation vs the node-by-node oracle: >= 10x alone,
# >= 3x on a cold search of the benchmark's fig13 query classes
# --------------------------------------------------------------------------- #
def test_indexed_annotation_beats_the_oracle_annotator(monkeypatch):
    from repro.canonical import annotate_paths

    # the benchmark's ``xmark_small`` shape: a ~300-node summary
    summary = build_summary(
        generate_random_document(xmark_spec(50, 90, 80), seed=548, name="xmark-annot")
    )
    patterns = xmark_query_patterns()
    for pattern in patterns.values():
        annotate_paths(pattern, summary)
        assert [n.annotated_paths for n in pattern.nodes()] == oracle_annotations(
            pattern, summary
        ), pattern.name
    indexed = _median_seconds(
        lambda: [annotate_paths(p, summary) for p in patterns.values()], reps=5
    )
    oracle = _median_seconds(
        lambda: [oracle_annotate_paths(p, summary) for p in patterns.values()], reps=3
    )
    print(f"indexed vs oracle annotator: {oracle / indexed:.1f}x")
    assert oracle / indexed >= 10.0, (
        f"indexed annotation only {oracle / indexed:.1f}x faster than the oracle"
    )

    queries = [patterns[name] for name in ("Q1", "Q2", "Q4", "Q5", "Q6", "Q18", "Q19")]
    labels = {node.label for query in queries for node in query.nodes()}
    views = [
        MaterializedView(pattern, name=pattern.name)
        for pattern in seed_tag_views(summary)
        if pattern.root.children[0].label in labels
    ]
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=3, enable_unions=False, time_budget_seconds=None
    )
    outcomes = {}

    def cold_search(key):
        clear_containment_cache()
        rewriter = Rewriter(summary, views, config)
        outcomes[key] = [rewriter.rewrite(query) for query in queries]

    # best-of, not median: the ratio is ~3.6 and one slow repetition on a
    # shared box must not read as a lost speed-up
    fast_seconds = min(_seconds(lambda: cold_search("indexed")) for _ in range(5))
    for module in ("repro.rewriting.algorithm", "repro.rewriting.fusion", "repro.views.catalog"):
        monkeypatch.setattr(f"{module}.annotate_paths", oracle_annotate_paths)
    slow_seconds = min(_seconds(lambda: cold_search("oracle")) for _ in range(3))
    assert [_rewriting_fingerprint(o) for o in outcomes["indexed"]] == [
        _rewriting_fingerprint(o) for o in outcomes["oracle"]
    ], "the annotator must not change what the search finds"
    print(f"cold search, indexed vs oracle annotator: {slow_seconds / fast_seconds:.1f}x")
    assert slow_seconds / fast_seconds >= 3.0, (
        f"cold search only {slow_seconds / fast_seconds:.2f}x faster than with "
        f"the oracle annotator"
    )


# --------------------------------------------------------------------------- #
# the summary chase vs the canonical model on a cold XMark block's
# summary-fixed positives: >= 3x
# --------------------------------------------------------------------------- #
def _corpus_questions(dataset):
    corpus = json.loads(
        (Path(__file__).resolve().parent.parent / "corpus" / "containment_questions.json")
        .read_text()
    )[dataset]
    summary = summary_from_paths([tuple(entry) for entry in corpus["summary"]])

    def load(text, returns):
        pattern = parse_pattern(text)
        nodes = pattern.nodes()
        pattern.set_return_order([nodes[position] for position in returns])
        return pattern

    return [
        (load(left, left_returns), load(right, right_returns), summary, check)
        for left, left_returns, right, right_returns, check in corpus["questions"]
    ]


def test_the_summary_chase_beats_the_canonical_model():
    """The 14 positive questions of a cold XMark block that no plain
    homomorphism answers — the query's extra steps are implied only by the
    summary — decided by the chase and by every canonical tree."""
    chased = []
    for contained, container, summary, check in _corpus_questions("xmark_small"):
        if core._structural_preconditions(contained, container, summary, check):
            continue
        fast = core._fast_decision(contained, container, summary)
        if fast is not None and fast[0] == "homomorphism" and not (
            core._homomorphism_exists(contained, container)
        ):
            chased.append((contained, container, summary, check))
    assert len(chased) == 14
    for question in chased:
        assert canonical_containment_decision(*question).contained

    def chase():
        for contained, container, summary, _ in chased:
            assert core._fast_decision(contained, container, summary)[1].contained

    def canonical():
        for question in chased:
            canonical_containment_decision(*question)

    with memo_free():
        speedup = _median_seconds(canonical, reps=5) / _median_seconds(chase)
    print(f"summary chase vs canonical model: {speedup:.1f}x")
    assert speedup >= 3.0, f"the chase only {speedup:.1f}x faster than the canonical model"


# --------------------------------------------------------------------------- #
# batch kernels vs the tuple interpreter on the paper workloads: >= 1.2x
# --------------------------------------------------------------------------- #
def test_batch_kernels_beat_the_tuple_interpreter():
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False, time_budget_seconds=30.0
    )
    probe = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False, time_budget_seconds=2.0
    )
    seconds = {PlanExecutor: 0.0, OracleExecutor: 0.0}
    for workload in (build_xmark_workload(scale=30.0), build_dblp_workload(scale=30.0)):
        db = Database(workload.document, views=workload.views, config=config)
        prober = Rewriter(db.summary, db.views, probe)
        rewritable = [query for query in workload.queries if prober.rewrite(query).found]
        assert rewritable, "the workload is degenerate"
        plans = [db.prepare(query).plan.rewriting.plan for query in rewritable]
        for plan in plans:
            assert _rows(OracleExecutor(db.views).execute(plan)) == _rows(
                PlanExecutor(db.views).execute(plan)
            )
        # a fresh executor per run keeps the per-run result memo from
        # carrying over, and a fresh copy of every plan the memo of kernel
        # outputs kept on plan nodes; the column, Dewey-key and link caches
        # on the view relations do persist — the steady state a session
        # answering a stream of queries it has not planned before sees
        for executor in seconds:
            runs = [copy.deepcopy(plan) for _ in range(3) for plan in plans]
            seconds[executor] += _seconds(
                lambda: [executor(db.views).execute(plan) for plan in runs]
            )
        db.close()
    speedup = seconds[OracleExecutor] / seconds[PlanExecutor]
    print(f"batch kernels vs tuple oracle: {speedup:.2f}x")
    assert speedup >= 1.2, f"batch kernels only {speedup:.2f}x faster than the tuple oracle"


# --------------------------------------------------------------------------- #
# prepared vs re-planned queries: > 1x
# --------------------------------------------------------------------------- #
def test_prepared_queries_pay_off():
    config = RewritingConfig(
        max_rewritings=1, max_plan_size=4, enable_unions=False, time_budget_seconds=10.0
    )
    document = generate_xmark_document(scale=0.4, seed=548, name="xmark-session")
    database = Database(document, config=config)
    for index, pattern in enumerate(seed_tag_views(database.summary)):
        database.create_view(pattern, name=f"seed{index}_{pattern.name}")
    prepared = []
    for _, pattern in sorted(xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])):
        try:
            prepared.append((pattern, database.prepare(pattern)))
        except RewritingError:
            continue  # not answerable from the seed tag views alone
        if len(prepared) >= 6:
            break
    assert prepared, "no fig13 query is answerable over the seed views"

    clear_containment_cache()
    start = time.perf_counter()
    unprepared_rows = [
        len(database.query(pattern)) for pattern, _ in prepared for _ in range(5)
    ]
    unprepared_seconds = time.perf_counter() - start
    start = time.perf_counter()
    prepared_rows = [len(query.run()) for _, query in prepared for _ in range(5)]
    prepared_seconds = time.perf_counter() - start
    assert prepared_rows == unprepared_rows
    print(f"prepared vs unprepared: {unprepared_seconds / prepared_seconds:.2f}x")
    assert unprepared_seconds / prepared_seconds > 1.0
