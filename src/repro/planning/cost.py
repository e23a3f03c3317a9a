"""The cost model: pricing algebra operators from summary statistics.

The model implements the *cardinality context* protocol declared on
:class:`~repro.algebra.operators.PlanOperator` (each operator's
``estimate_rows`` hook calls back into it for every database-dependent
number) and adds a per-operator *work* function reflecting what the
executor in :mod:`repro.algebra.execution` actually does:

* scans stream their extent (cost ∝ rows),
* ``⋈=`` builds a hash table on one side and probes with the other
  (cost ∝ left + right + output),
* structural joins chain cached structural links over the descendant
  rows in document order (cost ∝ left + right + output; the executor reads
  that order off the data, and the descendant side of every workload plan
  is a scan of an extent already in it, so no sort is priced),
* ``∪`` touches every branch row once (cost ∝ branch rows + output),
* unary operators stream their input once,
* operators priced as batch kernels (:data:`CostModel._KERNEL_OPERATORS`)
  are discounted by :data:`CostModel.vectorized_batch_factor`; ``∪`` and
  the other row-wise operators keep full price.

Costs are cumulative over the plan *DAG*: a sub-plan shared by two parents
is charged once, matching the executor's per-object result memo.  Every
operator contributes at least :data:`CostModel.minimum_operator_cost`, so a
plan is always strictly costlier than any of its sub-plans — the
monotonicity the planner's ranking (and its tests) rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.algebra.operators import (
    ContentNavigation,
    IdEqualityJoin,
    IndexScan,
    NestedStructuralJoin,
    PlanOperator,
    Projection,
    Selection,
    StructuralJoin,
    UnionPlan,
    ViewScan,
)
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.summary.statistics import Statistics

__all__ = ["CostModel", "OperatorEstimate"]


@dataclass(frozen=True)
class OperatorEstimate:
    """Cardinality and cost annotations for one operator occurrence."""

    rows: float
    """Estimated output rows."""

    operator_cost: float
    """Work done by this operator alone (excluding its inputs)."""

    cumulative_cost: float
    """Work done by the whole sub-DAG rooted here (shared inputs counted once)."""


class CostModel:
    """Prices plans from a :class:`~repro.summary.statistics.Statistics`.

    Parameters
    ----------
    statistics:
        The cardinality statistics to read (a view catalog's
        :meth:`~repro.views.catalog.ViewCatalog.statistics`).
    """

    minimum_operator_cost = 1.0
    """Floor on per-operator work; keeps cost strictly DAG-monotone."""

    equality_selectivity = 0.5
    """Fraction of the smaller input surviving an ID-equality join."""

    default_selection_selectivity = 0.3
    """Selectivity of a range selection (equality uses a tighter one)."""

    equality_selection_selectivity = 0.1
    """Selectivity of an equality selection ``σ v=c``."""

    vectorized_batch_factor = 0.5
    """Per-row work discount of the batch kernels relative to row-wise
    execution.  Applies exactly to :data:`_KERNEL_OPERATORS` — scans,
    ``σ``, ``π``, ``⋈=`` and the flat ``⋈≺``/``⋈≺≺``; row-wise operators
    (``∪`` among them: its one pass reads rows) keep full price, tilting
    mixed plans toward the kernels.  ``NestedStructuralJoin`` builds one
    nested relation per output row, so it stays at full price too."""

    _KERNEL_OPERATORS = (
        ViewScan,
        IndexScan,
        Selection,
        Projection,
        IdEqualityJoin,
        StructuralJoin,
    )

    def __init__(self, statistics: Statistics):
        self.statistics = statistics

    # ------------------------------------------------------------------ #
    # cardinality-context protocol (called from operator estimate_rows hooks)
    # ------------------------------------------------------------------ #
    def view_rows(self, view_name: str) -> float:
        return self.statistics.view_rows(view_name)

    def equality_join_rows(self, left: float, right: float) -> float:
        # IDs are node identifiers: the join pairs each shared node once,
        # so the output is bounded by the smaller side
        return max(min(left, right) * self.equality_selectivity, 1.0)

    def structural_join_rows(self, left: float, right: float, axis: Axis) -> float:
        # each lower (right) row matches at most its ancestors present on
        # the left: one for a parent join, ~average depth for ancestor joins
        if axis is Axis.CHILD:
            per_row = 1.0
        else:
            per_row = self.statistics.average_depth
        return max(min(left * right, right * per_row), 1.0)

    def selection_selectivity(
        self,
        formula: ValueFormula,
        view_name: Optional[str] = None,
        column: Optional[str] = None,
    ) -> float:
        """Fraction of rows a ``σ formula`` keeps.

        When the caller names the (view, column) the formula applies to —
        :class:`~repro.algebra.operators.IndexScan` and the pushdown pass
        do — and per-column statistics exist for it, the estimate comes
        from the observed value distribution (exact common-value counts or
        an equi-width histogram); otherwise the uncalibrated constants
        stand in, exactly as before.
        """
        if formula.is_true():
            return 1.0
        if view_name is not None and column is not None:
            estimated = self.statistics.column_selectivity(view_name, column, formula)
            if estimated is not None:
                return estimated
        if formula.is_point():
            return self.equality_selection_selectivity
        return self.default_selection_selectivity

    def navigation_matches(self, steps: Sequence[tuple[Axis, str]]) -> float:
        return self.statistics.navigation_fanout(label for _, label in steps)

    def unnest_fanout(self) -> float:
        return max(self.statistics.average_fanout, 1.0)

    def group_reduction(self) -> float:
        return self.unnest_fanout()

    # ------------------------------------------------------------------ #
    # operator work
    # ------------------------------------------------------------------ #
    def index_probe_cost(self, rows: float, output_rows: float) -> float:
        """Work of an index probe over a ``rows``-row extent.

        A bisection of the sorted index locates the matches in ``log₂`` of
        the extent, then every matched position is gathered — sub-linear
        for selective predicates, degrading gracefully toward the scan as
        the output approaches the extent.
        """
        return math.log2(rows + 2.0) + output_rows

    def prefers_index_scan(
        self, view_name: str, column: str, formula: ValueFormula
    ) -> bool:
        """Should ``σ formula`` over a scan of ``view_name`` become an
        :class:`~repro.algebra.operators.IndexScan` on ``column``?

        Requires exact per-view statistics (the materialized-extent case —
        indexes live on extents) *and* per-column value statistics for the
        probed column: their absence means the column was never observed or
        holds values an index cannot order, so the scan stays.  Past the
        eligibility gate the access paths compete on cost: the probe must
        beat filtering every extent row.
        """
        if formula.is_true() or not formula.is_satisfiable():
            return False
        if not self.statistics.view_rows_exact(view_name):
            return False
        if self.statistics.view_column_stats(view_name, column) is None:
            return False
        rows = self.view_rows(view_name)
        output = rows * self.selection_selectivity(formula, view_name, column)
        # the competing scan-and-filter pass touches every row twice (filter
        # + gather); charging it 2·rows keeps the decision scale-free
        return self.index_probe_cost(rows, output) < 2.0 * rows

    def operator_cost(
        self,
        operator: PlanOperator,
        child_rows: Sequence[float],
        output_rows: float,
    ) -> float:
        """Work of one operator given input and output cardinalities."""
        if isinstance(operator, IndexScan):
            work = self.index_probe_cost(
                self.view_rows(operator.view_name), output_rows
            )
        elif isinstance(operator, (IdEqualityJoin, StructuralJoin, NestedStructuralJoin)):
            # one pass over each input plus the output
            work = child_rows[0] + child_rows[1] + output_rows
        elif isinstance(operator, ContentNavigation):
            # navigating inside stored content walks the fragment per row
            work = child_rows[0] * (1.0 + len(operator.steps)) + output_rows
        elif isinstance(operator, UnionPlan):
            # duplicate elimination touches every branch row
            work = sum(child_rows) + output_rows
        else:
            # scans and streaming unary operators: one pass over the output
            # (or the input, whichever is larger)
            work = max([output_rows, *child_rows]) if child_rows else output_rows
        if isinstance(operator, self._KERNEL_OPERATORS):
            work *= self.vectorized_batch_factor
        return max(work, self.minimum_operator_cost)

    def __repr__(self) -> str:
        return f"<CostModel statistics={self.statistics!r}>"
