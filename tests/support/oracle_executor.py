"""Reference executor: the row-at-a-time interpreter the identity suites trust.

:class:`OracleExecutor` evaluates every kernel-backed operator of
:class:`repro.algebra.execution.PlanExecutor` with an independent, tuple-at-
a-time implementation — the code that *was* the production interpreter
before the batch kernels replaced it, moved here verbatim:

* ``ViewScan`` copies the extent rows; ``IndexScan`` is the literal
  scan-then-filter composition and never touches an index;
* ``⋈=`` merges two Dewey-sorted inputs or hashes on ``str(id)``
  (``id_join_strategy="hash"`` forces the hash join);
* ``⋈≺`` / ``⋈≺≺``, flat and nested, run ``_staircase_sweep`` on
  :class:`~repro.xmltree.ids.DeweyID` objects, or the ``O(l × r)`` nested
  loop under ``structural_join_strategy="nested-loop"``;
* ``π`` / ``σ`` / ``∪`` go through :class:`~repro.algebra.tuples.Relation`
  methods and the tuple ``_merge_union``.

The five row-wise operators (nested projection, unnest, group-by, content
navigation, parent-ID derivation) have a single implementation; the oracle
inherits it and feeds it oracle-computed children.

Two configurations are in use:

* ``OracleExecutor(views)`` — tuple interpreter with merge joins.  The
  production executor must match it *exactly*: column names, ``sorted_by``
  and row order.
* ``OracleExecutor(views, structural_join_strategy="nested-loop",
  id_join_strategy="hash")`` — the seed algorithms.  Nested loops emit
  left-major order, so the comparison is ``Relation.same_contents``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.algebra import kernels
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
from repro.algebra.tuples import Column, Relation, as_dewey
from repro.errors import PlanExecutionError, ReproError
from repro.patterns.pattern import Axis
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

__all__ = ["OracleExecutor", "STRUCTURAL_JOIN_STRATEGIES", "ID_JOIN_STRATEGIES"]

STRUCTURAL_JOIN_STRATEGIES = ("merge", "nested-loop")
ID_JOIN_STRATEGIES = ("merge", "hash")


class OracleExecutor(PlanExecutor):
    """The tuple-at-a-time reference interpreter (see the module notes)."""

    def __init__(
        self,
        views: Mapping[str, object],
        structural_join_strategy: str = "merge",
        id_join_strategy: str = "merge",
    ):
        if structural_join_strategy not in STRUCTURAL_JOIN_STRATEGIES:
            raise PlanExecutionError(
                f"unknown structural join strategy {structural_join_strategy!r}; "
                f"expected one of {STRUCTURAL_JOIN_STRATEGIES}"
            )
        if id_join_strategy not in ID_JOIN_STRATEGIES:
            raise PlanExecutionError(
                f"unknown id join strategy {id_join_strategy!r}; "
                f"expected one of {ID_JOIN_STRATEGIES}"
            )
        super().__init__(views)
        self._merge_joins = structural_join_strategy == "merge"
        self._merge_id_joins = id_join_strategy == "merge"
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
        if relation.sorted_by is not None:
            # extents are materialised in document order; the annotation
            # survives qualification so downstream merges skip their sort
            qualified.sorted_by = f"{alias}.{relation.sorted_by}"
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
        if relation.sorted_by is not None:
            result.sorted_by = f"{alias}.{relation.sorted_by}"
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
        result = left.natural_concat(right)
        if (
            self._merge_id_joins
            and left.is_sorted_by(plan.left_column)
            and right.is_sorted_by(plan.right_column)
        ):
            self._merge_id_join(plan, left, right, left_index, right_index, result)
        else:
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
        result.sorted_by = left.sorted_by  # probe order is left order
        return result

    def _merge_id_join(
        self,
        plan: IdEqualityJoin,
        left: Relation,
        right: Relation,
        left_index: int,
        right_index: int,
        result: Relation,
    ) -> None:
        """``⋈=`` as a single merge pass over two Dewey-sorted inputs.

        Equal identifiers are adjacent on both sides, so the right side
        collapses into per-identifier groups and one non-retreating cursor
        pairs them with the (non-decreasing) left identifiers.  Rows with a
        ``⊥`` join value can never match and are skipped — exactly what the
        hash join does — and output rows come out in left-row order, so the
        two strategies produce *identical* row lists, not just equal sets.
        """
        groups: list[tuple[tuple, list[tuple]]] = []
        for row in right.rows:
            identifier = self._as_dewey(row[right_index])
            if identifier is None:
                continue
            key = identifier.components
            if groups and groups[-1][0] == key:
                groups[-1][1].append(row)
            else:
                groups.append((key, [row]))
        position = 0
        for left_row in left.rows:
            identifier = self._as_dewey(left_row[left_index])
            if identifier is None:
                continue
            key = identifier.components
            while position < len(groups) and groups[position][0] < key:
                position += 1
            if position < len(groups) and groups[position][0] == key:
                for right_row in groups[position][1]:
                    result.rows.append(left_row + right_row)

    def _structural_match(self, upper, lower, axis: Axis) -> bool:
        upper_id = self._as_dewey(upper)
        lower_id = self._as_dewey(lower)
        if upper_id is None or lower_id is None:
            return False
        if axis is Axis.CHILD:
            return upper_id.is_parent_of(lower_id)
        return upper_id.is_ancestor_of(lower_id)

    # -------------------------- staircase machinery -------------------- #
    def _dewey_sorted(
        self, relation: Relation, column: str
    ) -> list[tuple[DeweyID, tuple]]:
        """``(identifier, row)`` pairs in document order, nulls dropped.

        Rows whose join value is ``⊥`` can never satisfy a structural
        predicate (the nested-loop oracle rejects them row by row); the
        merge drops them up front.  When the relation is not annotated as
        sorted on ``column``, the pairs are sorted here — the sort-then-
        merge fallback the cost model charges for.
        """
        index = relation.column_index(column)
        pairs = []
        for row in relation.rows:
            identifier = self._as_dewey(row[index])
            if identifier is not None:
                pairs.append((identifier, row))
        if not relation.is_sorted_by(column):
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
        result = left.natural_concat(right)
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
        # output is produced in descendant document order
        result.sorted_by = plan.right_column
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
        # output is produced in ancestor document order (the annotation only
        # speaks about non-null identifiers, so trailing ⊥ rows are fine)
        result.sorted_by = plan.left_column
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
        result.sorted_by = child.sorted_by  # a subset in order stays in order
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
        merged = self._merge_union(relations)
        if merged is not None:
            return merged
        result = relations[0]
        for relation in relations[1:]:
            result = result.union(relation)
        return result.distinct()

    def _merge_union(self, relations: list[Relation]) -> Optional[Relation]:
        """Ordered k-way union merge, when every branch shares the sort column.

        Union set semantics never needed order, so ``UnionPlan`` used to drop
        the ``sorted_by`` annotation unconditionally — forcing a re-sort on
        any staircase merge join consuming the union.  When every branch
        arrives Dewey-sorted on the same column *position*, a
        :func:`heapq.merge` over the branches produces the union already in
        document order, so the annotation survives.  Duplicate elimination
        stays exact with bounded memory: duplicate rows carry equal sort
        identifiers, so they always land inside the same identifier run and
        a per-run seen-set suffices.  Rows with a ``⊥`` sort value (which
        the annotation says nothing about) are emitted first, deduplicated
        globally — the same null placement ``sorted_in_dewey_order`` uses.
        Returns ``None`` when the branches do not share a sort column (or a
        sort value refuses Dewey coercion): the caller falls back to the
        order-blind union, results identical.
        """
        first = relations[0]
        if first.sorted_by is None:
            return None
        sort_index = first.column_index(first.sorted_by)
        arity = first.arity
        for relation in relations:
            if (
                relation.arity != arity
                or relation.sorted_by is None
                or relation.column_index(relation.sorted_by) != sort_index
            ):
                return None
        null_rows: list[tuple] = []
        keyed_streams: list[list[tuple[tuple, tuple]]] = []
        try:
            for relation in relations:
                keyed = []
                for row in relation.rows:
                    identifier = as_dewey(row[sort_index])
                    if identifier is None:
                        # ⊥, or a node with no assigned identifier — both
                        # are nulls to sorted_in_dewey_order, so both sort
                        # ahead of every real identifier here too
                        null_rows.append(row)
                    else:
                        keyed.append((identifier.components, row))
                keyed_streams.append(keyed)
        except ReproError:
            # a mis-annotated branch (non-Dewey sort values, AlgebraError or
            # a malformed identifier string): fall back, order-blind
            return None
        result = Relation(first.columns)
        result.sorted_by = first.sorted_by
        result.rows = kernels.ordered_union_rows(null_rows, keyed_streams)
        return result

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
