"""Execution of logical plans over materialised views.

The :class:`PlanExecutor` evaluates a DAG of
:class:`~repro.algebra.operators.PlanOperator` against a view store (any
mapping-like object resolving view names to objects exposing ``extent``,
the view's materialised :class:`~repro.algebra.columnar.ColumnBatch`).

There is exactly one executor and every operator has exactly one
implementation.  Plans evaluate as
:class:`~repro.algebra.columnar.ColumnBatch` pipelines:

* **kernel operators** — scan, index scan, ``σ``, ``π``, ``⋈=`` and the
  structural joins ``⋈≺`` / ``⋈≺≺`` (flat and nested) — run the batch
  kernels of :mod:`repro.algebra.kernels` over cached column vectors, Dewey
  component keys, structural links and dedup row keys and emit index
  vectors, so a column nobody reads is never copied;
* **row-wise operators** — ``∪`` (one first-occurrence pass over the
  branches), nested projection, unnest, group-by, content navigation and
  parent-ID derivation — build, merge or take apart relations and document
  nodes cell by cell; they read their child as rows (over a scan, a fresh
  transpose of the extent, which keeps no rows) and hand the result back to
  the batch spine transposed.

Structural joins compare Dewey identifiers, so they work on any view whose
ID columns were materialised with the default structural ``fID``
(Section 1, "Exploiting ID properties").  An ancestor's identifier is a
strict prefix of its descendants', so the per-descendant-row ancestor rows
(:class:`~repro.algebra.kernels.StructuralLinks`) are found once per pair
of extents — ancestor rows grouped by component key, one key-prefix look-up
per distinct ancestor depth — and cached on the descendant extent's column
source, weakly keyed on the ancestor's.  A query only chains the cached
link tuples of its descendant rows, walked in document order, and remaps a
gathered ancestor side through the inverse of its gather: no ancestor-side
sort, and no key slice or hash once the links exist.  Order is read off the
data, never carried as an annotation: a descendant column (and the nested
join's ancestor column) is sorted, stably, unless it proves itself in
document order — a strictly ascending extent column read through a gather
that never steps back
(:meth:`~repro.algebra.columnar._ColumnSource.in_document_order`), as every
scan of a structural extent is.  A write splices fresh sources into the
extents it touches and carries the links it can across.  ``π``
deduplicates on cached row keys, or not at all when a projected column
proves its rows distinct (a strictly ascending extent column, read through
a gather that repeats no row), a fact cached on the extent and carried by
its splices.  ``⋈=`` always builds on its right input and probes in
left-row order: on Dewey component keys the hash join beat a merge over
sorted inputs at every measured size.

A kernel operator's output index vectors — σ and probe keep vectors, the
``π`` dedup vector, join pairs — are kept on its plan node
(:meth:`PlanExecutor._kept`), weakly keyed on the extents its subtree
scans: a warm read of an unchanged plan over unchanged extents is a memo
read, and the first read after a write to one of them computes again.  A
vector that reads every input row in place is kept as ``range(n)``, and
the operator hands its input's column sources through.
:meth:`PlanExecutor.execute` returns a relation backed by the result batch:
its rows are built only when read.

The reference implementations the identity suites compare against (the
row-at-a-time interpreter with its staircase sweep and ``str``-keyed hash
``⋈=``, the ``O(l × r)`` nested-loop joins) live in
``tests/support/oracle_executor.py``, not here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence
from weakref import WeakKeyDictionary, ref

from repro.algebra import kernels
from repro.algebra.columnar import ColumnBatch, in_place, joined_batch, projected_batch
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
from repro.algebra.tuples import Column, Relation, as_dewey
from repro.errors import AlgebraError, PlanExecutionError
from repro.patterns.pattern import Axis
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

__all__ = ["OperatorRunStats", "PlanExecutor"]


@dataclass
class OperatorRunStats:
    """Measured execution statistics for one distinct plan operator.

    Collected by a profiling executor (``PlanExecutor(..., profile=True)``)
    and consumed by ``EXPLAIN ANALYZE`` reports: the *actual* counterpart of
    the planner's :class:`~repro.planning.cost.OperatorEstimate`.
    """

    operator: PlanOperator
    rows: int
    """Rows in the operator's output relation."""

    seconds: float
    """Wall time spent in this operator alone (children excluded)."""

    inclusive_seconds: float
    """Wall time of the whole sub-plan rooted here (children included,
    shared sub-plans charged to their first caller — like the memo)."""


class PlanExecutor:
    """Evaluate logical plans against a store of materialised views.

    Plans produced by the rewriting search are DAGs, not strict trees: the
    search shares sub-plans between candidates (``ensure_column`` wraps a
    shared plan rather than copying it), so e.g. both inputs of a self-join
    may be the very same ``ViewScan`` object.  The executor memoises results
    per operator *object* for its own lifetime, so shared sub-plans are
    evaluated once — which is also what the planner's DAG cost model
    charges.  Operators never mutate their inputs (every operator builds a
    fresh output), so sharing results is safe; create a fresh executor
    after re-materialising views.

    Parameters
    ----------
    views:
        Mapping from view name to an object exposing ``extent``.
    executor:
        Accepts only ``"vectorized"`` — there is one executor.
    profile:
        When True, the executor records an :class:`OperatorRunStats` per
        distinct operator (rows produced, own and inclusive wall time),
        retrievable via :meth:`run_stats` — the measurement side of
        ``EXPLAIN ANALYZE``.

    Example
    -------
    >>> from repro import MaterializedView, parse_parenthesized, parse_pattern
    >>> from repro.algebra.operators import ViewScan
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> view = MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)
    >>> executor = PlanExecutor({"v": view})
    >>> result = executor.execute(ViewScan("v"))
    >>> result.column_names
    ['v.ID1', 'v.V1']
    >>> len(result)
    2
    """

    def __init__(
        self,
        views: Mapping[str, object],
        # kept for the frozen caller bench/layers.py (executor=db.executor)
        executor: str = "vectorized",
        profile: bool = False,
    ):
        if executor != "vectorized":
            raise PlanExecutionError(
                f"unknown executor {executor!r}; the only executor is 'vectorized'"
            )
        self._views = views
        self.profile = profile
        # id() -> (operator, result); the operator reference keeps the id alive
        self._memo: dict[int, tuple[PlanOperator, ColumnBatch]] = {}
        # id() -> (operator, weak references to the extents it scans)
        self._scanned: dict[int, tuple[PlanOperator, Optional[tuple]]] = {}
        self._run_stats: dict[int, OperatorRunStats] = {}
        self._child_seconds: list[float] = []

    # ------------------------------------------------------------------ #
    def execute(self, plan: PlanOperator) -> Relation:
        """Evaluate ``plan`` and return its result relation."""
        return self.execute_batch(plan).to_relation()

    def execute_batch(self, plan: PlanOperator) -> ColumnBatch:
        """Evaluate ``plan`` as a columnar batch (what streaming callers use).

        Memoised per operator object (plans are DAGs); under ``profile`` the
        own/inclusive wall time of every distinct operator is recorded.
        """
        cached = self._memo.get(id(plan))
        if cached is not None:
            return cached[1]
        operator = self._OPERATORS.get(type(plan))
        if operator is None:
            raise PlanExecutionError(f"unknown plan operator {type(plan).__name__}")
        if not self.profile:
            result = operator(self, plan)
        else:
            start = time.perf_counter()
            self._child_seconds.append(0.0)
            result = operator(self, plan)
            children = self._child_seconds.pop()
            elapsed = time.perf_counter() - start
            if self._child_seconds:
                self._child_seconds[-1] += elapsed
            self._run_stats[id(plan)] = OperatorRunStats(
                operator=plan,
                rows=result.row_count,
                seconds=max(elapsed - children, 0.0),
                inclusive_seconds=elapsed,
            )
        self._memo[id(plan)] = (plan, result)
        return result

    def run_stats(self, plan: PlanOperator) -> Optional[OperatorRunStats]:
        """The measured statistics for one operator object, if profiled.

        Shared sub-plans execute once (the memo), so repeated occurrences of
        the same operator object report the same measurement; operators whose
        result came back entirely from the memo of a previous :meth:`execute`
        call keep the stats of the run that actually computed them.
        """
        return self._run_stats.get(id(plan))

    # ------------------------------------------------------------------ #
    # kernel operators
    # ------------------------------------------------------------------ #
    def _kept(self, plan: PlanOperator, compute: Callable[[], Any]) -> Any:
        """``compute()``, or what it returned on an earlier run of ``plan``.

        The one memo of operator output: a kernel operator's index vectors
        are a function of the extents its subtree scans, so they are kept
        on the plan node (``plan._kept``), keyed on weak references to those
        extents, and read back while each is still the one the view store
        holds — a write replaces every extent it changes.  The entry holds
        no row, relation or source and dies with its plan.  A content
        navigation reads live nodes, which a write can change under an
        extent it hands back unchanged: nothing above one is kept.
        """
        scans = self._scans(plan)
        if scans is None:
            return compute()
        entry = plan._kept
        if entry is not None and entry[0] == scans:
            return entry[1]
        value = compute()
        plan._kept = (scans, value)
        return value

    def _scans(self, plan: PlanOperator) -> Optional[tuple]:
        """Weak references to the extents ``plan``'s subtree scans, in scan
        order — ``None`` under a content navigation.  Worked out once per
        operator object and executor."""
        cached = self._scanned.get(id(plan))
        if cached is None:
            if isinstance(plan, (ViewScan, IndexScan)):
                scans = (ref(self._extent(plan.view_name)),)
            elif isinstance(plan, ContentNavigation):
                scans = None
            else:
                below = [self._scans(child) for child in plan.children()]
                scans = None if None in below else sum(below, ())
            cached = self._scanned[id(plan)] = (plan, scans)
        return cached[1]

    def _extent(self, view_name: str) -> ColumnBatch:
        try:
            return self._views[view_name].extent
        except KeyError as exc:
            raise PlanExecutionError(f"unknown view {view_name!r}") from exc

    @staticmethod
    def _qualified(base: ColumnBatch, alias: str) -> ColumnBatch:
        columns = [column.renamed(f"{alias}.{column.name}") for column in base.columns]
        return base.with_schema(columns)

    def _scan_batch(self, plan: ViewScan) -> ColumnBatch:
        return self._qualified(self._extent(plan.view_name), plan.effective_alias)

    def _index_scan_batch(self, plan: IndexScan) -> ColumnBatch:
        """Scan + pushed σ: probe the column's value index, gather positions.

        The index is cached on the extent's column source (shared by every
        query that scans it), built lazily on this first probe.  An
        unindexable column falls back to the selection kernel over the same
        source — identical rows either way.  Probe positions come back
        ascending, so a column in document order stays so, exactly as it
        does under a filter.
        """
        base = self._extent(plan.view_name)
        source = base.source(base.column_index(plan.base_column))

        def probe() -> Sequence[int]:
            from repro.views.indexes import index_for_source

            index = index_for_source(source)
            if index is not None:
                keep = index.probe(plan.formula)
            else:
                keep = kernels.selection_indices(source.values(), plan.formula)
            return in_place(keep, base.row_count)

        qualified = self._qualified(base, plan.effective_alias)
        return qualified.gather(self._kept(plan, probe))

    def _batch_keys(self, batch: ColumnBatch, index: int) -> list:
        """Cached Dewey component keys, error-wrapped like :meth:`_as_dewey`."""
        try:
            return batch.dewey_keys(index)
        except AlgebraError as exc:
            raise PlanExecutionError(str(exc)) from exc

    @staticmethod
    def _concat_schema(left: ColumnBatch, right: ColumnBatch) -> list[Column]:
        overlap = {column.name for column in left.columns} & {
            column.name for column in right.columns
        }
        if overlap:
            raise AlgebraError(f"overlapping columns in concatenation: {overlap}")
        return list(left.columns) + list(right.columns)

    def _selection_batch(self, plan: Selection) -> ColumnBatch:
        child = self.execute_batch(plan.child)
        keep = self._kept(
            plan,
            lambda: in_place(
                kernels.selection_indices(
                    child.values(child.column_index(plan.column)), plan.formula
                ),
                child.row_count,
            ),
        )
        return child.gather(keep)

    def _projection_batch(self, plan: Projection) -> ColumnBatch:
        """``π`` with first-occurrence dedup — or none at all when a
        projected column proves its rows distinct
        (:meth:`~repro.algebra.columnar._ColumnSource.distinct`).  A dedup
        that keeps every row is ``range(n)``, like an undeduplicated π: the
        child's sources are the result."""
        child = self.execute_batch(plan.child)
        names = list(plan.columns)
        indexes = [child.column_index(name) for name in names]
        columns = [child.columns[index] for index in indexes]
        if plan.renames:
            mapping = dict(plan.renames)
            columns = [
                column.renamed(mapping.get(column.name, column.name))
                for column in columns
            ]
        sources = [child.source(index) for index in indexes]

        def dedup() -> Sequence[int]:
            if any(source.distinct() for source in sources):
                return range(child.row_count)
            return in_place(
                kernels.distinct_indices(
                    [child.row_keys(index) for index in indexes], child.row_count
                ),
                child.row_count,
            )

        return projected_batch(child, indexes, columns, self._kept(plan, dedup))

    def _id_join_batch(self, plan: IdEqualityJoin) -> ColumnBatch:
        left = self.execute_batch(plan.left)
        right = self.execute_batch(plan.right)
        columns = self._concat_schema(left, right)

        def pair() -> tuple[Sequence[int], Sequence[int]]:
            left_keys = self._batch_keys(left, left.column_index(plan.left_column))
            right_keys = self._batch_keys(right, right.column_index(plan.right_column))
            left_out, right_out = kernels.hash_id_join_pairs(left_keys, right_keys)
            return in_place(left_out, left.row_count), in_place(right_out, right.row_count)

        left_out, right_out = self._kept(plan, pair)
        return joined_batch(left, right, columns, left_out, right_out)

    def _structural_pairs(
        self, plan: StructuralJoin | NestedStructuralJoin
    ) -> tuple[ColumnBatch, ColumnBatch, Sequence[int], Sequence[int]]:
        """Both inputs and the matching index pairs (kept, see :meth:`_kept`).

        The one structural join in production.  Both join columns resolve
        to their direct source plus the gather over it; the
        :class:`~repro.algebra.kernels.StructuralLinks` between the two
        direct sources are built once and cached on the descendant one,
        weakly keyed on the ancestor one, so a join of two extents nobody
        wrote to re-reads its links instead of slicing and hashing keys.
        Rows with a ``⊥`` join value never match, only the descendant side
        needs document order (a stable sort, unless the column proves itself
        in order: :meth:`~repro.algebra.columnar._ColumnSource.in_document_order`),
        and pairs come out as ``(ancestor row, descendant row)`` in
        descendant document order.
        """
        left = self.execute_batch(plan.left)
        right = self.execute_batch(plan.right)

        def pair() -> tuple[list[int], list[int]]:
            right_index = right.column_index(plan.right_column)
            ancestor, ancestor_rows = left.source(left.column_index(plan.left_column)).resolve()
            column = right.source(right_index)
            descendant, descendant_rows = column.resolve()
            links = self._links(ancestor, descendant, plan.axis)
            if not column.in_document_order():
                keys = self._batch_keys(right, right_index)
                positions = [index for index, _ in kernels.dewey_ordered(keys, False)]
                descendant_rows = (
                    positions
                    if descendant_rows is None
                    else list(map(descendant_rows.__getitem__, positions))
                )
            else:
                positions = range(right.row_count)
            left_out, right_out = links.pairs(descendant_rows, positions, ancestor_rows)
            return in_place(left_out, left.row_count), in_place(right_out, right.row_count)

        return (left, right, *self._kept(plan, pair))

    @staticmethod
    def _links(ancestor, descendant, axis: Axis) -> kernels.StructuralLinks:
        """The cached links from ``descendant``'s rows to ``ancestor``'s.

        One entry per (ancestor source, axis), marked ``read`` when it
        serves a join: a write moves the read entries onto the sources its
        splices made (:func:`repro.views.delta.follow_links`) and drops the
        rest, and the entry of an ancestor source that is gone goes with it
        (weak key).
        """
        cache = descendant.links
        if cache is None:
            cache = descendant.links = WeakKeyDictionary()
        by_axis = cache.setdefault(ancestor, {})
        links = by_axis.get(axis)
        if links is None:
            try:
                links = kernels.StructuralLinks(
                    ancestor.dewey_keys(), descendant.dewey_keys(), axis
                )
            except AlgebraError as exc:
                raise PlanExecutionError(str(exc)) from exc
            by_axis[axis] = links
        links.read = True
        return links

    def _structural_join_batch(self, plan: StructuralJoin) -> ColumnBatch:
        left, right, left_out, right_out = self._structural_pairs(plan)
        columns = self._concat_schema(left, right)
        return joined_batch(left, right, columns, left_out, right_out)

    def _nested_structural_join_batch(self, plan: NestedStructuralJoin) -> ColumnBatch:
        left, right, left_out, right_out = self._structural_pairs(plan)
        left_rows = left.to_relation().rows
        right_rows = right.to_relation().rows
        nested_schema = list(right.columns)
        # per left row, its matching right rows in descendant document order
        matches: list[list[tuple]] = [[] for _ in left_rows]
        for left_index, right_index in zip(left_out, right_out):
            matches[left_index].append(right_rows[right_index])
        result = Relation(list(left.columns) + [Column(plan.group_column, kind="NESTED")])
        # left rows in document order, ⊥ join values dropped
        column = left.column_index(plan.left_column)
        left_keys = left.dewey_keys(column)
        left_sorted = left.source(column).in_document_order()
        for left_index, _key in kernels.dewey_ordered(left_keys, left_sorted):
            if matches[left_index] or plan.keep_unmatched:
                nested = Relation(nested_schema, rows=matches[left_index])
                result.rows.append(left_rows[left_index] + (nested,))
        if plan.keep_unmatched:
            # left rows with a ⊥ join value never match anything; they keep
            # an empty group, after every identified row
            for left_index, key in enumerate(left_keys):
                if key is None:
                    result.rows.append(left_rows[left_index] + (Relation(nested_schema),))
        return ColumnBatch.from_relation(result)

    def _union_batch(self, plan: UnionPlan) -> ColumnBatch:
        """``∪`` as one first-occurrence pass over the branches, in branch
        order (:meth:`~repro.algebra.tuples.Relation.union`)."""
        if not plan.plans:
            raise PlanExecutionError("a union plan needs at least one branch")
        first, *rest = [self.execute_batch(branch).to_relation() for branch in plan.plans]
        return ColumnBatch.from_relation(first.union(*rest))

    # ------------------------------------------------------------------ #
    # row-wise operators (nested relations and document nodes, cell by cell)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_dewey(value) -> Optional[DeweyID]:
        try:
            return as_dewey(value)
        except AlgebraError as exc:
            raise PlanExecutionError(str(exc)) from exc

    def _execute_nested_projection(self, plan: NestedProjection) -> ColumnBatch:
        child = self.execute(plan.child)
        index = child.column_index(plan.nested_column)
        result = Relation(child.columns)
        for row in child.rows:
            value = row[index]
            if isinstance(value, Relation):
                projected = value.project(list(plan.columns))
                if plan.renames:
                    projected = projected.rename(dict(plan.renames))
                value = projected
            result.rows.append(row[:index] + (value,) + row[index + 1 :])
        return ColumnBatch.from_relation(result)

    def _execute_unnest(self, plan: Unnest) -> ColumnBatch:
        child = self.execute(plan.child)
        index = child.column_index(plan.nested_column)
        nested_columns: Optional[list[Column]] = None
        for row in child.rows:
            value = row[index]
            if isinstance(value, Relation):
                nested_columns = value.columns
                break
        if nested_columns is None:
            nested_columns = []
        outer_columns = [c for i, c in enumerate(child.columns) if i != index]
        result = Relation(outer_columns + nested_columns)
        for row in child.rows:
            outer = tuple(v for i, v in enumerate(row) if i != index)
            nested = row[index]
            if not isinstance(nested, Relation) or not nested.rows:
                if plan.keep_empty:
                    result.rows.append(outer + tuple([None] * len(nested_columns)))
                continue
            for nested_row in nested.rows:
                result.rows.append(outer + tuple(nested_row))
        return ColumnBatch.from_relation(result)

    def _execute_group_by(self, plan: GroupBy) -> ColumnBatch:
        child = self.execute(plan.child)
        key_indexes = [child.column_index(name) for name in plan.key_columns]
        nested_indexes = [child.column_index(name) for name in plan.nested_columns]
        nested_schema = [child.columns[i] for i in nested_indexes]
        result = Relation(
            [child.columns[i] for i in key_indexes]
            + [Column(plan.group_column, kind="NESTED")]
        )
        groups: dict[tuple, list[tuple]] = {}
        order: list[tuple] = []
        for row in child.rows:
            key = tuple(_group_key(row[i]) for i in key_indexes)
            if key not in groups:
                groups[key] = []
                order.append(tuple(row[i] for i in key_indexes))
            inner = tuple(row[i] for i in nested_indexes)
            if not all(value is None for value in inner):
                groups[key].append(inner)
        for key_values in order:
            key = tuple(_group_key(value) for value in key_values)
            nested = Relation(nested_schema, rows=groups[key]).distinct()
            result.rows.append(tuple(key_values) + (nested,))
        return ColumnBatch.from_relation(result)

    def _execute_content_navigation(self, plan: ContentNavigation) -> ColumnBatch:
        child = self.execute(plan.child)
        index = child.column_index(plan.content_column)
        result = Relation(
            list(child.columns) + [Column(plan.new_column, kind=plan.attribute)]
        )
        for row in child.rows:
            content = row[index]
            matches = self._navigate(content, list(plan.steps))
            if not matches:
                if plan.optional:
                    result.rows.append(row + (None,))
                continue
            for node in matches:
                result.rows.append(row + (self._extract(node, plan.attribute),))
        return ColumnBatch.from_relation(result)

    def _navigate(self, content, steps: list[tuple[Axis, str]]) -> list[XMLNode]:
        if not isinstance(content, XMLNode):
            return []
        frontier = [content]
        for axis, label in steps:
            next_frontier: list[XMLNode] = []
            for node in frontier:
                if axis is Axis.CHILD:
                    next_frontier.extend(node.children_with_label(label))
                else:
                    next_frontier.extend(node.descendants_with_label(label))
            frontier = next_frontier
        return frontier

    @staticmethod
    def _extract(node: XMLNode, attribute: str):
        if attribute == "ID":
            return node.dewey
        if attribute == "L":
            return node.label
        if attribute == "V":
            return node.value
        return node

    def _execute_parent_derivation(self, plan: ParentIdDerivation) -> ColumnBatch:
        child = self.execute(plan.child)
        index = child.column_index(plan.id_column)
        result = Relation(list(child.columns) + [Column(plan.new_column, kind="ID")])
        for row in child.rows:
            identifier = self._as_dewey(row[index])
            derived = None
            if identifier is not None and identifier.depth > plan.levels_up:
                derived = identifier.ancestor(plan.levels_up)
            result.rows.append(row + (derived,))
        return ColumnBatch.from_relation(result)

    _OPERATORS = {
        ViewScan: _scan_batch,
        IndexScan: _index_scan_batch,
        Selection: _selection_batch,
        Projection: _projection_batch,
        IdEqualityJoin: _id_join_batch,
        StructuralJoin: _structural_join_batch,
        NestedStructuralJoin: _nested_structural_join_batch,
        UnionPlan: _union_batch,
        NestedProjection: _execute_nested_projection,
        Unnest: _execute_unnest,
        GroupBy: _execute_group_by,
        ContentNavigation: _execute_content_navigation,
        ParentIdDerivation: _execute_parent_derivation,
    }
    """The one dispatch: operator type → its single implementation."""


def _group_key(value):
    if isinstance(value, DeweyID):
        return str(value)
    if isinstance(value, XMLNode):
        dewey = value.dewey
        return ("node", str(dewey) if dewey else id(value))
    return value
