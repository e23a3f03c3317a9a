"""Lifetime of the executor's one memo (``PlanExecutor._kept``).

Entries live on plan nodes and hold only index vectors and weak references
to the extents they were computed over, so:

* a flushed session is honestly cold — after ``clear_containment_cache()``
  and ``db.plan_cache.clear()`` (what the bench's ``xmark_cold`` does per
  block) a re-planned query starts with no entry and computes its kernels
  again;
* a write that replaces an extent lets the old relation die, even with the
  collector off, while the plan that read it stays cached;
* entries die with their plan: after 1 000 distinct plans over fixed
  extents, only plans the plan cache still holds keep entries.
"""

from __future__ import annotations

import gc
import weakref

from repro import (
    Database,
    XMLNode,
    clear_containment_cache,
    evaluate_pattern,
    parse_parenthesized,
    parse_pattern,
)
from repro.algebra import kernels
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import IndexScan, PlanOperator
from repro.rewriting import RewritingConfig
from repro.workloads.xmark import generate_xmark_document

from support.memo_oracle import assert_plan_cache_derived, cached_plans, plan_nodes
from support.paper_workloads import seed_view_session

DOC_TEXT = (
    'site(regions(asia(item(name="pen" quantity=2) item(name="ink")))'
    '     people(person(name="bob")))'
)
ITEM_QUERY = "site(//item[ID](/name[V]))"


def _kept_nodes(plans) -> list[PlanOperator]:
    return [node for node in plan_nodes(plans) if node._kept is not None]


def test_a_flushed_session_replans_with_no_memo_hit(monkeypatch):
    document = generate_xmark_document(scale=1.0, seed=548, name="xmark-cold")
    db, queries = seed_view_session(document, ("Q1", "Q2", "Q4", "Q19"))
    with db:
        for query in queries:
            db.query(query)
        assert _kept_nodes(cached_plans(db))
        clear_containment_cache()
        db.plan_cache.clear()
        plans = [db.plan_query(query).best.plan_operator for query in queries]
        assert _kept_nodes(plans) == [], "a re-planned query found a memo entry"
        paired = []
        pairs = kernels.StructuralLinks.pairs

        def counted(self, *args):
            paired.append(self)
            return pairs(self, *args)

        monkeypatch.setattr(kernels.StructuralLinks, "pairs", counted)
        for query in queries:
            assert db.query(query).same_contents(evaluate_pattern(query, document))
        joins = [node for node in plan_nodes(plans) if "StructuralJoin" in type(node).__name__]
        assert len(paired) == len(joins) > 0  # every join paired again
        assert assert_plan_cache_derived(db) >= len(joins)


def test_a_replaced_extent_dies_while_its_plan_stays_cached():
    db = Database(parse_parenthesized(DOC_TEXT, name="lifetime"))
    db.create_view("site(//item[ID])", name="items")
    db.create_view("site(//name[ID,V])", name="names")
    assert db.query(ITEM_QUERY)
    plan = db.plan_query(ITEM_QUERY).best.plan_operator
    assert _kept_nodes([plan])
    old = weakref.ref(db.views["names"].extent)
    asia = db.document.nodes_on_path("/site/regions/asia")[0]
    gc.collect()
    gc.disable()
    try:
        db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "new")]))
        assert db.views["names"].extent is not old()
        # nothing points back at an extent: reference counting frees it
        assert old() is None
        assert any(cached is plan for cached in cached_plans(db))
        assert _kept_nodes([plan])
    finally:
        gc.enable()
    query = parse_pattern(ITEM_QUERY)
    assert db.query(ITEM_QUERY).same_contents(evaluate_pattern(query, db.document))
    db.close()


def test_entries_die_with_their_plans():
    document = parse_parenthesized(
        "site(" + " ".join(f'item(name="n{index % 50}")' for index in range(200)) + ")"
    )
    # one cheap search per query: the plans, not the search, are under test
    db = Database(
        document,
        config=RewritingConfig(max_rewritings=1, max_plan_size=1, enable_unions=False),
    )
    db.create_view("site(/item(/name[ID,V]))", name="names")
    for index in range(1_000):
        assert len(db.query(f'site(/item(/name[ID,V]{{v="n{index}"}}))')) == (index < 50) * 4
    gc.collect()
    extent = db.views["names"].relation
    held = [
        node
        for node in gc.get_objects()
        if isinstance(node, PlanOperator)
        and node._kept is not None
        and any(reference() is extent for reference in node._kept[0])
    ]
    cached = cached_plans(db)
    assert {id(node) for node in held} <= {id(node) for node in plan_nodes(cached)}
    owners = [plan for plan in cached if _kept_nodes([plan])]
    assert 0 < len(owners) <= db.plan_cache.maxsize
    db.close()


def test_a_rerank_keeps_the_operators_of_a_plan_it_rebuilds_equal(monkeypatch):
    document = generate_xmark_document(scale=1.0, seed=548, name="xmark-rerank")
    db, (q5,) = seed_view_session(document, ("Q5",))
    with db:
        db.query(q5)
        before = db.plan_query(q5)
        plan = before.best.plan_operator
        assert any(isinstance(node, IndexScan) for node in plan_nodes([plan]))
        assert _kept_nodes([plan])
        asia = db.document.nodes_on_path("/site/regions/asia")[0]
        version = db.views.version
        db.insert_subtree(asia, asia.children[0].copy())  # a data-only write
        assert db.views.version == version
        computed = []
        kept = PlanExecutor._kept

        def counted(self, node, compute):
            return kept(self, node, lambda: computed.append(node) or compute())

        monkeypatch.setattr(PlanExecutor, "_kept", counted)
        assert db.query(q5).same_contents(evaluate_pattern(q5, db.document))
        assert computed == [], "an item write left Q5's extents: its entries are read"
        after = db.plan_query(q5)
        assert after is not before and after.data_version == db.views.data_version
        assert after.best.plan_operator is plan
        # the same plans and costs as a full re-rank, which rebuilds every operator
        fresh = db.planner.plan(q5)
        assert [planned.plan_operator for planned in after] == [
            planned.plan_operator for planned in fresh
        ]
        assert after.alternative_costs == fresh.alternative_costs
        assert fresh.best.plan_operator is not plan
