"""The A/B identity harness: production executor vs. every oracle, one pass.

Every rewriting the search finds for the two paper workloads
(``support.paper_workloads``: fig13 XMark, fig14 DBLP; unions off and on)
is executed by the production :class:`~repro.algebra.execution.PlanExecutor`
and by the reference interpreters of ``support.oracle_executor``, and three
contracts are checked on each plan:

* **exact identity vs. the tuple-merge oracle** — same column names, same
  rows *in the same order*, ``⋈=`` and ``∪`` plans included.  Not just set-equal: the stream codec and ``EXPLAIN``
  row counts depend on physical order;
* **same contents vs. the seed algorithms** — the ``O(l × r)`` nested-loop
  structural joins (nested loops emit left-major order, so this one is a
  set comparison);
* **pushdown preserves identity** — the plan with its selections fused
  into :class:`~repro.algebra.operators.IndexScan` probes returns exactly
  the rows of the untransformed plan, under the production executor
  (index probe) and under the oracle (literal scan-then-filter, never
  touches an index), so the two also cross-check each other.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from repro import Database
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import IdEqualityJoin, NestedStructuralJoin, StructuralJoin
from repro.algebra.tuples import _hashable
from repro.planning.cost import CostModel
from repro.planning.pushdown import push_selections
from repro.views.catalog import ViewCatalog

from support.memo_oracle import assert_memo_derived, plan_nodes
from support.oracle_executor import OracleExecutor
from support.paper_workloads import HARNESS_CONFIGS


def _assert_identical(result, oracle, what):
    assert result.column_names == oracle.column_names, f"schema diverges: {what}"
    assert [_hashable(row) for row in result.rows] == [
        _hashable(row) for row in oracle.rows
    ], f"rows diverge: {what}"


def _check_every_plan(workload, config_name):
    """Run the three contracts on every rewriting; return how many plans
    ran, in total and per operator type they contain."""
    views = workload.view_set
    model = CostModel(ViewCatalog(workload.summary, views).statistics())
    executed = Counter()
    for query, rewriting in workload.rewritings(config_name):
        label = f"{query.name!r} via views {rewriting.views_used} ({config_name})"
        production = PlanExecutor(views).execute(rewriting.plan)
        tuple_merge = OracleExecutor(views).execute(rewriting.plan)
        _assert_identical(production, tuple_merge, f"production vs tuple oracle on {label}")

        seed = OracleExecutor(
            views, structural_join_strategy="nested-loop"
        ).execute(rewriting.plan)
        assert production.same_contents(seed), (
            f"production diverges from the nested-loop + hash oracle on {label}"
        )

        transformed = push_selections(rewriting.plan, model)
        _assert_identical(
            PlanExecutor(views).execute(transformed),
            tuple_merge,
            f"index probes vs the scan oracle on {label}",
        )
        _assert_identical(
            OracleExecutor(views).execute(transformed),
            tuple_merge,
            f"scan-then-filter IndexScan vs the scan oracle on {label}",
        )
        executed["plans"] += 1
        executed.update({type(node) for node in plan_nodes([rewriting.plan])})
    return executed


@pytest.mark.parametrize("config_name", sorted(HARNESS_CONFIGS))
def test_fig13_xmark_every_plan_matches_every_oracle(xmark_workload, config_name):
    executed = _check_every_plan(xmark_workload, config_name)
    # with the 1 s search budget the rewritable XMark queries yield ≥ 12
    # plans on this fixture; 8 keeps headroom for slow CI hosts where the
    # budget truncates more searches
    assert executed["plans"] >= 8, (
        "the A/B harness must actually execute a meaningful share of plans"
    )
    # no fixture search here returns a union rewriting; test_union_merge.py
    # runs one against the oracle
    assert executed[IdEqualityJoin], "no ⋈= plan was checked against the oracle"


@pytest.mark.parametrize("config_name", sorted(HARNESS_CONFIGS))
def test_fig14_dblp_every_plan_matches_every_oracle(dblp_workload, config_name):
    executed = _check_every_plan(dblp_workload, config_name)
    assert executed["plans"] >= 1, "no plan was executed — the workload is degenerate"


def test_the_session_answers_through_the_production_path(xmark_workload):
    """``Database.query`` (the production path) agrees with a from-scratch
    seed-algorithm execution of the plan it chose."""
    db = Database(
        xmark_workload.document,
        views=xmark_workload.views,
        config=HARNESS_CONFIGS["unions-off"],
    )
    query = next(query for query, _ in xmark_workload.rewritings("unions-off"))
    choice = db.plan_query(query)
    oracle = OracleExecutor(
        db.views, structural_join_strategy="nested-loop"
    ).execute(choice.best.rewriting.plan)
    assert db.query(query).same_contents(oracle)
    db.close()


def _kept_entries(plans, joins_only=False) -> dict:
    """Every memo entry on the plans' nodes: ``id(node)`` → ``(node, the
    entry, a copy of its vectors as lists)``."""
    kept = {}
    for node in plan_nodes(plans):
        if node._kept is None:
            continue
        if joins_only and not isinstance(node, (StructuralJoin, NestedStructuralJoin)):
            continue
        value = node._kept[1]
        vectors = value if isinstance(value, tuple) else (value,)
        kept[id(node)] = (node, node._kept, [None if v is None else list(v) for v in vectors])
    return kept


def _assert_read_unchanged(before: dict, after: dict) -> None:
    assert after.keys() == before.keys()
    for key, (node, entry, vectors) in before.items():
        assert after[key][1] is entry, f"re-stored: {node._describe_self()}"
        assert after[key][2] == vectors, f"mutated: {node._describe_self()}"


@pytest.mark.parametrize("workload_name", ["xmark_workload", "dblp_workload"])
def test_every_plan_run_twice_reads_the_same_kept_pair_vectors(request, workload_name):
    """Every kernel operator keeps its output vectors on its plan node; a
    second run of every fig13 / fig14 plan returns identical rows, reads
    the very entries the first run left and leaves their vectors as they
    were — no operator mutates what later runs share — and every entry
    equals a fresh run."""
    workload = request.getfixturevalue(workload_name)
    plans = [
        rewriting.plan
        for config_name in sorted(HARNESS_CONFIGS)
        for _, rewriting in workload.rewritings(config_name)
    ]
    first = [PlanExecutor(workload.view_set).execute(plan) for plan in plans]
    kept = _kept_entries(plans)
    assert _kept_entries(plans, joins_only=True), "no plan kept a join's pairs"
    second = [PlanExecutor(workload.view_set).execute(plan) for plan in plans]
    for plan, before, again in zip(plans, first, second):
        _assert_identical(again, before, f"second run of {plan!r}")
    _assert_read_unchanged(kept, _kept_entries(plans))
    assert assert_memo_derived(plans, workload.view_set) == len(kept)


@pytest.mark.parametrize("workload_name", ["xmark_workload", "dblp_workload"])
def test_every_plan_run_twice_reads_the_same_chained_vectors(request, workload_name):
    """A join whose ancestor side is a join output keeps its pairs like any
    other: every fig13 / fig14 plan run twice in a row (each on its own,
    from fresh copies) returns identical rows, and the second run reads the
    join entries the first one left — the very same objects, still equal
    to what they held."""
    workload = request.getfixturevalue(workload_name)
    plans = [
        copy.deepcopy(rewriting.plan)
        for config_name in sorted(HARNESS_CONFIGS)
        for _, rewriting in workload.rewritings(config_name)
    ]
    chains = 0
    for plan in plans:
        first = PlanExecutor(workload.view_set).execute(plan)
        kept = _kept_entries([plan], joins_only=True)
        again = PlanExecutor(workload.view_set).execute(plan)
        _assert_identical(again, first, f"second run of {plan!r}")
        _assert_read_unchanged(kept, _kept_entries([plan], joins_only=True))
        chains += sum(
            isinstance(node.left, (StructuralJoin, NestedStructuralJoin))
            for node, _, _ in kept.values()
        )
    if workload_name == "xmark_workload":
        assert chains, "no plan chained a join over a join output"
