"""The cost model: pricing algebra operators from summary statistics.

The model implements the *cardinality context* protocol declared on
:class:`~repro.algebra.operators.PlanOperator` (each operator's
``estimate_rows`` hook calls back into it for every database-dependent
number) and adds a per-operator *work* function reflecting what the
executor in :mod:`repro.algebra.execution` actually does:

* scans stream their extent (cost ∝ rows),
* ``⋈=`` builds a hash table on one side and probes with the other
  (cost ∝ left + right + output),
* structural joins run as the staircase sort-merge on Dewey order
  (cost ∝ left + right + output when both inputs arrive Dewey-sorted on
  their join columns; an explicit ``n·log₂ n`` sort term is charged per
  unsorted input — :func:`plan_sorted_on` mirrors the executor's
  order-propagation rules to decide which inputs those are),
* unary operators stream their input once,
* operators priced as batch kernels (:data:`CostModel._KERNEL_OPERATORS`)
  are discounted by :data:`CostModel.vectorized_batch_factor`.

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
    GroupBy,
    IdEqualityJoin,
    IndexScan,
    NestedProjection,
    NestedStructuralJoin,
    ParentIdDerivation,
    PlanOperator,
    Projection,
    Selection,
    StructuralJoin,
    UnionPlan,
    Unnest,
    ViewScan,
)
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.summary.statistics import Statistics

__all__ = ["CostModel", "OperatorEstimate", "plan_sorted_on", "sort_merge_decision"]


def sort_merge_decision(
    operator: PlanOperator, statistics: Optional[Statistics] = None
) -> Optional[str]:
    """The order-based algorithm choice for a join operator, as a label.

    ``EXPLAIN`` reports surface this next to each join: structural joins
    run as a pure ``"merge"`` when the static order analysis
    (:func:`plan_sorted_on`) proves both inputs Dewey-sorted on their join
    columns, and as ``"sort+merge(<sides>)"`` naming the inputs that need
    an explicit sort otherwise; ID-equality joins report ``"merge"`` or
    ``"hash"`` under the same analysis.  Non-join operators return ``None``.

    The analysis mirrors the executor's dynamic ``Relation.sorted_by``
    checks but can only under-claim (a run-time annotation the static
    rules cannot prove), so a reported sort may turn out to be a no-op —
    never the other way round.
    """
    if isinstance(operator, (StructuralJoin, NestedStructuralJoin)):
        unsorted = [
            side
            for side, child, column in (
                ("left", operator.left, operator.left_column),
                ("right", operator.right, operator.right_column),
            )
            if not plan_sorted_on(child, column, statistics)
        ]
        if not unsorted:
            return "merge"
        return f"sort+merge({','.join(unsorted)})"
    if isinstance(operator, IdEqualityJoin):
        if plan_sorted_on(
            operator.left, operator.left_column, statistics
        ) and plan_sorted_on(operator.right, operator.right_column, statistics):
            return "merge"
        return "hash"
    return None


def plan_sorted_on(
    operator: PlanOperator,
    column: str,
    statistics: Optional[Statistics] = None,
) -> bool:
    """Will ``operator``'s output be Dewey-sorted on ``column``?

    A static mirror of the order-propagation rules the executor applies at
    run time (``Relation.sorted_by``), so the cost model can decide which
    staircase inputs need an explicit sort without executing anything:

    * ``ViewScan`` emits its extent in document order of the view's first
      ``ID`` column (the sorted extent guarantee) — the statistics record
      which column that is per view; without statistics the conventional
      first ID column name (``ID1``…) is assumed for ``ID``-prefixed
      columns, which can only mis-price, never mis-execute;
    * ``StructuralJoin`` emits descendant order, ``NestedStructuralJoin``
      and ``IdEqualityJoin`` preserve their left input's order;
    * ``Selection`` / ``Projection`` (column kept) / ``Unnest`` /
      ``ContentNavigation`` / ``ParentIdDerivation`` preserve order;
    * ``UnionPlan`` preserves a column every branch is provably sorted on
      (the executor's ordered k-way merge; the run-time rule also accepts
      same-*position* columns under different names, which the static
      analysis conservatively treats as unsorted);
    * everything else is treated as unsorted.
    """
    if isinstance(operator, (ViewScan, IndexScan)):
        # an IndexScan is scan + σ and probes return ascending positions,
        # so it emits extent document order exactly like the plain scan
        alias_prefix = f"{operator.effective_alias}."
        if not column.startswith(alias_prefix):
            return False
        base = column[len(alias_prefix):]
        if statistics is not None:
            recorded = statistics.view_sorted_column(operator.view_name)
            if recorded is not None:
                return base == recorded
        # statistics-free fallback: only the conventional first-ID-column
        # name — the guarantee covers the *first* ID column only, and
        # under-claiming merely over-prices (a sort term), never the reverse
        return base == "ID1"
    if isinstance(operator, StructuralJoin):
        return column == operator.right_column
    if isinstance(operator, NestedStructuralJoin):
        return column == operator.left_column
    if isinstance(operator, IdEqualityJoin):
        return plan_sorted_on(operator.left, column, statistics)
    if isinstance(operator, Selection):
        return plan_sorted_on(operator.child, column, statistics)
    if isinstance(operator, Projection):
        renames = dict(operator.renames or {})
        original = next(
            (old for old, new in renames.items() if new == column), column
        )
        if original not in operator.columns:
            return False
        return plan_sorted_on(operator.child, original, statistics)
    if isinstance(operator, (Unnest, NestedProjection)):
        if column == operator.nested_column:
            return False
        return plan_sorted_on(operator.child, column, statistics)
    if isinstance(operator, GroupBy):
        if column not in operator.key_columns:
            return False
        return plan_sorted_on(operator.child, column, statistics)
    if isinstance(operator, (ContentNavigation, ParentIdDerivation)):
        if column == operator.new_column:
            return False
        return plan_sorted_on(operator.child, column, statistics)
    if isinstance(operator, UnionPlan):
        # the executor's ordered k-way merge keeps the annotation when every
        # branch is sorted on the same column *position*; statically only
        # the same-name case is provable (branches scanning different views
        # qualify different alias prefixes), so this under-claims — a
        # run-time annotation the analysis cannot see only over-prices
        return bool(operator.plans) and all(
            plan_sorted_on(branch, column, statistics)
            for branch in operator.plans
        )
    return False


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
        The cardinality statistics to read.  ``None`` falls back to a
        statistics-free model (every view extent counts 1 row), which still
        ranks plans by shape — more joins cost more.
    """

    minimum_operator_cost = 1.0
    """Floor on per-operator work; keeps cost strictly DAG-monotone."""

    equality_selectivity = 0.5
    """Fraction of the smaller input surviving an ID-equality join."""

    default_selection_selectivity = 0.3
    """Selectivity of a range selection (equality uses a tighter one)."""

    equality_selection_selectivity = 0.1
    """Selectivity of an equality selection ``σ v=c``."""

    sort_cost_factor = 1.0
    """Per-comparison weight of the ``n·log₂(n)`` sort charged on each
    structural-join input that does not arrive Dewey-sorted."""

    vectorized_batch_factor = 0.5
    """Per-row work discount of the batch kernels relative to row-wise
    execution.  Applies exactly to :data:`_KERNEL_OPERATORS` — scans,
    ``σ``, ``π``, ``⋈=``, the flat staircase ``⋈≺``/``⋈≺≺`` and the
    ``∪``-merge; row-wise operators keep full price, tilting mixed plans
    toward the kernels.  ``NestedStructuralJoin`` builds one nested
    relation per output row, so it stays at full price too."""

    _KERNEL_OPERATORS = (
        ViewScan,
        IndexScan,
        Selection,
        Projection,
        IdEqualityJoin,
        StructuralJoin,
        UnionPlan,
    )

    def __init__(self, statistics: Optional[Statistics] = None):
        self.statistics = statistics

    # ------------------------------------------------------------------ #
    # cardinality-context protocol (called from operator estimate_rows hooks)
    # ------------------------------------------------------------------ #
    def view_rows(self, view_name: str) -> float:
        if self.statistics is None:
            return 1.0
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
            per_row = self.statistics.average_depth if self.statistics else 2.0
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
        if view_name is not None and column is not None and self.statistics is not None:
            estimated = self.statistics.column_selectivity(view_name, column, formula)
            if estimated is not None:
                return estimated
        if formula.is_point():
            return self.equality_selection_selectivity
        return self.default_selection_selectivity

    def navigation_matches(self, steps: Sequence[tuple[Axis, str]]) -> float:
        if self.statistics is None:
            return 1.0
        return self.statistics.navigation_fanout(label for _, label in steps)

    def unnest_fanout(self) -> float:
        if self.statistics is None:
            return 1.0
        return max(self.statistics.average_fanout, 1.0)

    def group_reduction(self) -> float:
        return self.unnest_fanout()

    # ------------------------------------------------------------------ #
    # operator work
    # ------------------------------------------------------------------ #
    def sort_cost(self, rows: float) -> float:
        """Cost of Dewey-sorting ``rows`` rows (the merge-join fallback)."""
        return self.sort_cost_factor * rows * math.log2(rows + 2.0)

    def index_probe_cost(self, rows: float, output_rows: float) -> float:
        """Work of an index probe over a ``rows``-row extent.

        A bisection (or per-distinct-value bitmap OR) locates the matches in
        ``log₂`` of the extent, then every matched position is gathered —
        sub-linear for selective predicates, degrading gracefully toward the
        scan as the output approaches the extent.
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
        if self.statistics is None or not self.statistics.view_rows_exact(view_name):
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
        elif isinstance(operator, IdEqualityJoin):
            work = child_rows[0] + child_rows[1] + output_rows
        elif isinstance(operator, (StructuralJoin, NestedStructuralJoin)):
            # the staircase merge join: one pass over both sorted inputs
            # plus the output, with an explicit sort charged per input the
            # static order analysis cannot prove Dewey-sorted
            work = child_rows[0] + child_rows[1] + output_rows
            if not plan_sorted_on(operator.left, operator.left_column, self.statistics):
                work += self.sort_cost(child_rows[0])
            if not plan_sorted_on(
                operator.right, operator.right_column, self.statistics
            ):
                work += self.sort_cost(child_rows[1])
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
