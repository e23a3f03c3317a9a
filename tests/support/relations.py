"""Small builders for hand-made relations, view stores and plans.

Tests that build relations by hand hand them to an executor as a view with
:func:`stored_view`; the executor reads their row order off the data, as
it does an extent's.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.algebra.columnar import ColumnBatch
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import IndexScan, PlanOperator, ViewScan
from repro.algebra.tuples import Relation
from repro.patterns.pattern import TreePattern

__all__ = ["cheapest_answer", "stored_view", "view_scan_count"]


def cheapest_answer(planner, query: TreePattern) -> Relation:
    """``query``'s cheapest plan run over the planner's views: the
    layer-level twin of ``Database.query``, with no plan cache (raises
    :class:`~repro.errors.RewritingError` when no rewriting exists)."""
    return PlanExecutor(planner.rewriter.views).execute(planner.plan(query).best.plan_operator)


def stored_view(relation: Relation) -> SimpleNamespace:
    """A view-store entry over a hand-made extent.

    ``extent`` is what :class:`~repro.algebra.execution.PlanExecutor` scans
    (the relation transposed into columns); ``relation`` is what the
    row-at-a-time oracle scans, the very relation the extent was built
    from (``extent.to_relation() is relation``).
    """
    return SimpleNamespace(extent=ColumnBatch.from_relation(relation), relation=relation)


def view_scan_count(plan: PlanOperator) -> int:
    """View occurrences in a plan: its *size* in the sense of Prop. 3.6."""
    if isinstance(plan, (ViewScan, IndexScan)):
        return 1
    return sum(view_scan_count(child) for child in plan.children())
