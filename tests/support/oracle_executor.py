"""Reference executor: the row-at-a-time interpreter the identity suites trust.

:class:`OracleExecutor` evaluates every kernel-backed operator of
:class:`repro.algebra.execution.PlanExecutor` with an independent, tuple-at-
a-time implementation — the code that *was* the production interpreter
before the batch kernels replaced it, moved here verbatim:

* ``ViewScan`` copies the extent rows; ``IndexScan`` is the literal
  scan-then-filter composition and never touches an index;
* ``⋈=`` hashes on ``str(id)``, probing in left-row order;
* ``⋈≺`` / ``⋈≺≺``, flat and nested, run ``_staircase_sweep`` on
  :class:`~repro.xmltree.ids.DeweyID` objects — both inputs always sorted
  first, stably, whatever order they arrive in — or the ``O(l × r)``
  nested loop under ``structural_join_strategy="nested-loop"``;
* ``π`` / ``σ`` / ``∪`` go through :class:`~repro.algebra.tuples.Relation`
  methods (``∪`` as the order-blind chain of pairwise unions plus
  ``distinct``).

The five row-wise operators (nested projection, unnest, group-by, content
navigation, parent-ID derivation) have a single implementation; the oracle
inherits it and feeds it oracle-computed children.

Two configurations are in use:

* ``OracleExecutor(views)`` — tuple interpreter with staircase merge
  joins.  The production executor must match it *exactly*: column names
  and row order.
* ``OracleExecutor(views, structural_join_strategy="nested-loop")`` — the
  seed algorithms.  Nested loops emit left-major order, so the comparison
  is ``Relation.same_contents``.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.columnar import ColumnBatch
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import (
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
from repro.algebra.tuples import Column, Relation
from repro.errors import AlgebraError, PlanExecutionError
from repro.patterns.pattern import Axis
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

__all__ = ["OracleExecutor", "STRUCTURAL_JOIN_STRATEGIES"]

STRUCTURAL_JOIN_STRATEGIES = ("merge", "nested-loop")


def _concat(left: Relation, right: Relation) -> Relation:
    """An empty relation over both schemas (columns must be disjoint)."""
    overlap = set(left.column_names) & set(right.column_names)
    if overlap:
        raise AlgebraError(f"overlapping columns in concatenation: {overlap}")
    return Relation(list(left.columns) + list(right.columns))


class OracleExecutor(PlanExecutor):
    """The tuple-at-a-time reference interpreter (see the module notes)."""

    def __init__(
        self,
        views: Mapping[str, object],
        structural_join_strategy: str = "merge",
    ):
        if structural_join_strategy not in STRUCTURAL_JOIN_STRATEGIES:
            raise PlanExecutionError(
                f"unknown structural join strategy {structural_join_strategy!r}; "
                f"expected one of {STRUCTURAL_JOIN_STRATEGIES}"
            )
        super().__init__(views)
        self._merge_joins = structural_join_strategy == "merge"
        # id() -> (operator, result); the operator reference keeps the id alive
        self._relations: dict[int, tuple[PlanOperator, Relation]] = {}

    # ------------------------------------------------------------------ #
    def execute(self, plan: PlanOperator) -> Relation:
        """Evaluate ``plan`` row by row (memoised per operator object)."""
        cached = self._relations.get(id(plan))
        if cached is not None:
            return cached[1]
        twin = self._TWINS.get(type(plan))
        if twin is not None:
            result = twin(self, plan)
        else:
            shared = PlanExecutor._OPERATORS.get(type(plan))
            if shared is None:
                raise PlanExecutionError(
                    f"unknown plan operator {type(plan).__name__}"
                )
            # a row-wise operator: one implementation, oracle-computed child
            result = shared(self, plan).to_relation()
        self._relations[id(plan)] = (plan, result)
        return result

    def execute_batch(self, plan: PlanOperator) -> ColumnBatch:
        return ColumnBatch.from_relation(self.execute(plan))

    # ------------------------------------------------------------------ #
    # everything below is the parent commit's tuple interpreter, verbatim
    # ------------------------------------------------------------------ #
    # leaves
    # ------------------------------------------------------------------ #
    def _execute_scan(self, plan: ViewScan) -> Relation:
        try:
            view = self._views[plan.view_name]
        except KeyError as exc:
            raise PlanExecutionError(f"unknown view {plan.view_name!r}") from exc
        relation: Relation = view.relation
        alias = plan.effective_alias
        qualified = Relation(
            [column.renamed(f"{alias}.{column.name}") for column in relation.columns]
        )
        qualified.rows = list(relation.rows)
        return qualified

    def _execute_index_scan(self, plan: IndexScan) -> Relation:
        """The tuple oracle for :class:`IndexScan`: scan, then filter.

        Deliberately *never* touches an index — it is the literal
        composition of :meth:`_execute_scan` and :meth:`_execute_selection`,
        so A/B suites can assert exact row identity between the index path
        and the semantics it claims to implement.
        """
        try:
            view = self._views[plan.view_name]
        except KeyError as exc:
            raise PlanExecutionError(f"unknown view {plan.view_name!r}") from exc
        relation: Relation = view.relation
        alias = plan.effective_alias
        result = Relation(
            [column.renamed(f"{alias}.{column.name}") for column in relation.columns]
        )
        index = relation.column_index(plan.base_column)
        for row in relation.rows:
            value = row[index]
            if isinstance(value, XMLNode):
                value = value.value
            if plan.formula.evaluate(value):
                result.rows.append(row)
        return result

    # ------------------------------------------------------------------ #
    # joins
    # ------------------------------------------------------------------ #
    def _execute_id_join(self, plan: IdEqualityJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        left_index = left.column_index(plan.left_column)
        right_index = right.column_index(plan.right_column)
        result = _concat(left, right)
        by_id: dict[str, list[tuple]] = {}
        for row in right.rows:
            identifier = self._as_dewey(row[right_index])
            if identifier is not None:
                by_id.setdefault(str(identifier), []).append(row)
        for left_row in left.rows:
            identifier = self._as_dewey(left_row[left_index])
            if identifier is None:
                continue
            for right_row in by_id.get(str(identifier), ()):
                result.rows.append(left_row + right_row)
        return result

    def _structural_match(self, upper, lower, axis: Axis) -> bool:
        upper_id = self._as_dewey(upper)
        lower_id = self._as_dewey(lower)
        if upper_id is None or lower_id is None:
            return False
        if axis is Axis.CHILD:
            return upper_id.is_ancestor_of(lower_id) and len(lower_id) == len(upper_id) + 1
        return upper_id.is_ancestor_of(lower_id)

    # -------------------------- staircase machinery -------------------- #
    def _dewey_sorted(
        self, relation: Relation, column: str
    ) -> list[tuple[DeweyID, tuple]]:
        """``(identifier, row)`` pairs in document order, nulls dropped.

        Rows whose join value is ``⊥`` can never satisfy a structural
        predicate (the nested-loop oracle rejects them row by row); the
        merge drops them up front.  The pairs are always sorted here,
        stably: the oracle trusts no order it did not make.
        """
        index = relation.column_index(column)
        pairs = []
        for row in relation.rows:
            identifier = self._as_dewey(row[index])
            if identifier is not None:
                pairs.append((identifier, row))
        pairs.sort(key=lambda pair: pair[0].components)
        return pairs

    @staticmethod
    def _group_by_id(
        pairs: list[tuple[DeweyID, tuple]]
    ) -> list[tuple[DeweyID, list[tuple]]]:
        """Collapse document-ordered pairs into per-identifier row groups."""
        groups: list[tuple[DeweyID, list[tuple]]] = []
        for identifier, row in pairs:
            if groups and groups[-1][0] == identifier:
                groups[-1][1].append(row)
            else:
                groups.append((identifier, [row]))
        return groups

    def _staircase_sweep(
        self,
        ancestors: list[tuple[DeweyID, list[tuple]]],
        descendants: list[tuple[DeweyID, tuple]],
        axis: Axis,
        emit,
    ) -> None:
        """One merge pass over both document-ordered inputs.

        ``ancestors`` holds the upper side grouped by identifier,
        ``descendants`` the lower side row by row.  For every descendant,
        ``emit(group_index, descendant_row)`` is called once per matching
        ancestor group.  The stack holds the currently *open* ancestor
        groups — those whose subtree interval contains the sweep position —
        as ``(identifier, group_index)``; Dewey order equals document order
        and subtrees are contiguous intervals, so a group popped because the
        sweep left its subtree can never match a later descendant.
        """
        stack: list[tuple[DeweyID, int]] = []
        next_group = 0
        for lower_id, lower_row in descendants:
            while next_group < len(ancestors) and not (
                lower_id < ancestors[next_group][0]
            ):
                upper_id = ancestors[next_group][0]
                while stack and not stack[-1][0].is_ancestor_of(upper_id):
                    stack.pop()
                stack.append((upper_id, next_group))
                next_group += 1
            while stack and not stack[-1][0].is_ancestor_or_self_of(lower_id):
                stack.pop()
            if not stack:
                continue
            # every open group strictly above an equal top matches; an equal
            # top itself never does (ancestry is strict)
            top = len(stack) - (1 if stack[-1][0] == lower_id else 0)
            if axis is Axis.CHILD:
                target_depth = lower_id.depth - 1
                for position in range(top - 1, -1, -1):
                    upper_id, group_index = stack[position]
                    if upper_id.depth == target_depth:
                        emit(group_index, lower_row)
                        break
                    if upper_id.depth < target_depth:
                        break
            else:
                for position in range(top):
                    emit(stack[position][1], lower_row)

    def _execute_structural_join(self, plan: StructuralJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        left_index = left.column_index(plan.left_column)
        right_index = right.column_index(plan.right_column)
        result = _concat(left, right)
        if not self._merge_joins:
            for left_row in left.rows:
                for right_row in right.rows:
                    if self._structural_match(
                        left_row[left_index], right_row[right_index], plan.axis
                    ):
                        result.rows.append(left_row + right_row)
            return result
        ancestors = self._group_by_id(self._dewey_sorted(left, plan.left_column))
        descendants = self._dewey_sorted(right, plan.right_column)
        rows = result.rows

        def emit(group_index: int, lower_row: tuple) -> None:
            for upper_row in ancestors[group_index][1]:
                rows.append(upper_row + lower_row)

        self._staircase_sweep(ancestors, descendants, plan.axis, emit)
        return result

    def _execute_nested_structural_join(self, plan: NestedStructuralJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        left_index = left.column_index(plan.left_column)
        right_index = right.column_index(plan.right_column)
        nested_schema = list(right.columns)
        result = Relation(list(left.columns) + [Column(plan.group_column, kind="NESTED")])
        if not self._merge_joins:
            for left_row in left.rows:
                matches = [
                    right_row
                    for right_row in right.rows
                    if self._structural_match(
                        left_row[left_index], right_row[right_index], plan.axis
                    )
                ]
                if not matches and not plan.keep_unmatched:
                    continue
                nested = Relation(nested_schema, rows=matches)
                result.rows.append(left_row + (nested,))
            return result
        ancestors = self._group_by_id(self._dewey_sorted(left, plan.left_column))
        descendants = self._dewey_sorted(right, plan.right_column)
        matches_per_group: list[list[tuple]] = [[] for _ in ancestors]

        def emit(group_index: int, lower_row: tuple) -> None:
            matches_per_group[group_index].append(lower_row)

        self._staircase_sweep(ancestors, descendants, plan.axis, emit)
        for (_identifier, upper_rows), matches in zip(ancestors, matches_per_group):
            if not matches and not plan.keep_unmatched:
                continue
            for upper_row in upper_rows:
                nested = Relation(nested_schema, rows=matches)
                result.rows.append(upper_row + (nested,))
        if plan.keep_unmatched:
            # left rows with a ⊥ join value never match anything; the oracle
            # keeps them with an empty group, so the merge does too
            for left_row in left.rows:
                if self._as_dewey(left_row[left_index]) is None:
                    result.rows.append(left_row + (Relation(nested_schema),))
        return result

    # ------------------------------------------------------------------ #
    # unary operators
    # ------------------------------------------------------------------ #
    def _execute_projection(self, plan: Projection) -> Relation:
        child = self.execute(plan.child)
        projected = child.project(list(plan.columns))
        if plan.renames:
            projected = projected.rename(dict(plan.renames))
        return projected

    def _execute_selection(self, plan: Selection) -> Relation:
        child = self.execute(plan.child)
        index = child.column_index(plan.column)
        result = Relation(child.columns)
        for row in child.rows:
            value = row[index]
            if isinstance(value, XMLNode):
                value = value.value
            if plan.formula.evaluate(value):
                result.rows.append(row)
        return result

    def _execute_union(self, plan: UnionPlan) -> Relation:
        if not plan.plans:
            raise PlanExecutionError("a union plan needs at least one branch")
        relations = [self.execute(branch) for branch in plan.plans]
        result = relations[0]
        for relation in relations[1:]:
            result = result.union(relation)
        return result.distinct()

    _TWINS = {
        ViewScan: _execute_scan,
        IndexScan: _execute_index_scan,
        IdEqualityJoin: _execute_id_join,
        StructuralJoin: _execute_structural_join,
        NestedStructuralJoin: _execute_nested_structural_join,
        Projection: _execute_projection,
        Selection: _execute_selection,
        UnionPlan: _execute_union,
    }
