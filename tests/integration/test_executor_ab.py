"""The A/B identity harness: production executor vs. every oracle, one pass.

Every rewriting the search finds for the two paper workloads
(``support.paper_workloads``: fig13 XMark, fig14 DBLP; unions off and on)
is executed by the production :class:`~repro.algebra.execution.PlanExecutor`
and by the reference interpreters of ``support.oracle_executor``, and three
contracts are checked on each plan:

* **exact identity vs. the tuple-merge oracle** — same column names, same
  ``sorted_by`` annotation, same rows *in the same order*.  Not just
  set-equal: the stream codec, ordered unions and ``EXPLAIN`` row counts all
  depend on physical order;
* **same contents vs. the seed algorithms** — the ``O(l × r)`` nested-loop
  structural joins and the forced hash ``⋈=`` (nested loops emit left-major
  order, so this one is a set comparison);
* **pushdown preserves identity** — the plan with its selections fused
  into :class:`~repro.algebra.operators.IndexScan` probes returns exactly
  the rows of the untransformed plan, under the production executor
  (index probe) and under the oracle (literal scan-then-filter, never
  touches an index), so the two also cross-check each other.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.algebra.columnar import ColumnBatch
from repro.algebra.execution import PlanExecutor
from repro.algebra.tuples import _hashable
from repro.planning.cost import CostModel
from repro.planning.pushdown import push_selections
from repro.summary.statistics import Statistics

from support.oracle_executor import OracleExecutor
from support.paper_workloads import HARNESS_CONFIGS


def _assert_identical(result, oracle, what):
    assert result.column_names == oracle.column_names, f"schema diverges: {what}"
    assert result.sorted_by == oracle.sorted_by, f"sort annotation diverges: {what}"
    assert [_hashable(row) for row in result.rows] == [
        _hashable(row) for row in oracle.rows
    ], f"rows diverge: {what}"


def _check_every_plan(workload, config_name):
    """Run the three contracts on every rewriting; return the plan count."""
    views = workload.view_set
    model = CostModel(Statistics(workload.summary, views))
    executed = 0
    for query, rewriting in workload.rewritings(config_name):
        label = f"{query.name!r} via views {rewriting.views_used} ({config_name})"
        production = PlanExecutor(views).execute(rewriting.plan)
        tuple_merge = OracleExecutor(views).execute(rewriting.plan)
        _assert_identical(production, tuple_merge, f"production vs tuple oracle on {label}")

        seed = OracleExecutor(
            views, structural_join_strategy="nested-loop", id_join_strategy="hash"
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
        executed += 1
    return executed


@pytest.mark.parametrize("config_name", sorted(HARNESS_CONFIGS))
def test_fig13_xmark_every_plan_matches_every_oracle(xmark_workload, config_name):
    executed = _check_every_plan(xmark_workload, config_name)
    # with the 1 s search budget the rewritable XMark queries yield ≥ 12
    # plans on this fixture; 8 keeps headroom for slow CI hosts where the
    # budget truncates more searches
    assert executed >= 8, (
        "the A/B harness must actually execute a meaningful share of plans"
    )


@pytest.mark.parametrize("config_name", sorted(HARNESS_CONFIGS))
def test_fig14_dblp_every_plan_matches_every_oracle(dblp_workload, config_name):
    executed = _check_every_plan(dblp_workload, config_name)
    assert executed >= 1, "no plan was executed — the workload is degenerate"


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
        db.views, structural_join_strategy="nested-loop", id_join_strategy="hash"
    ).execute(choice.best.rewriting.plan)
    assert db.query(query).same_contents(oracle)
    db.close()


def _kept_pair_vectors(views) -> dict:
    """Every pair-vector tuple kept on the links between two extents:
    ``id(links)`` → ``(links, the kept vectors, a copy of them as lists)``.

    Links keyed on a query's own direct sources (a union's output, say)
    live until the collector takes that source; they are left out."""
    sources = [
        batch.source(position)
        for batch in (ColumnBatch.from_relation(view.relation) for view in views)
        for position in range(len(batch.columns))
    ]
    extents = {id(source) for source in sources}
    kept = {}
    for source in sources:
        for ancestor, by_axis in (source.links or {}).items():
            for links in by_axis.values():
                if id(ancestor) in extents and links.paired is not None:
                    kept[id(links)] = (links, links.paired, [list(v) for v in links.paired])
    return kept


@pytest.mark.parametrize("workload_name", ["xmark_workload", "dblp_workload"])
def test_every_plan_run_twice_reads_the_same_kept_pair_vectors(request, workload_name):
    """A join of two whole extents keeps its pair vectors on the links; a
    second run of every fig13 / fig14 plan returns identical rows and
    leaves those vectors as the first run left them — no operator mutates
    what the links share between queries."""
    workload = request.getfixturevalue(workload_name)
    plans = [
        rewriting.plan
        for config_name in sorted(HARNESS_CONFIGS)
        for _, rewriting in workload.rewritings(config_name)
    ]
    first = [PlanExecutor(workload.view_set).execute(plan) for plan in plans]
    kept = _kept_pair_vectors(workload.views)
    assert kept, "no plan joined two whole extents"
    second = [PlanExecutor(workload.view_set).execute(plan) for plan in plans]
    for plan, before, again in zip(plans, first, second):
        _assert_identical(again, before, f"second run of {plan!r}")
    after = _kept_pair_vectors(workload.views)
    assert after.keys() == kept.keys()
    for key, (_, vectors, copy) in kept.items():
        assert after[key][1] is vectors
        assert [list(vector) for vector in vectors] == copy
