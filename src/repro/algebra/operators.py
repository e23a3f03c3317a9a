"""Logical plan operators (Section 3.2 and Section 4.6).

Plans are trees of :class:`PlanOperator` instances.  Operators are pure
descriptions — they carry no data and no evaluation logic; the executor in
:mod:`repro.algebra.execution` interprets them over a set of materialised
views.

The operator set is exactly the one the paper's rewriting algorithm needs:

========================  ====================================================
``ViewScan``              read one materialised view (a tree-pattern view)
``IdEqualityJoin``        ``⋈=`` — join on equal structural identifiers
``StructuralJoin``        ``⋈≺`` / ``⋈≺≺`` — parent / ancestor joins on IDs
``NestedStructuralJoin``  structural join followed by grouping (Section 4.6)
``Projection``            ``π``
``Selection``             ``σ`` on labels or values (Section 4.6)
``Unnest``                flatten one nested attribute (Section 4.6)
``GroupBy``               re-create a nesting level from an ID (Section 4.6)
``ContentNavigation``     navigate inside a stored ``C`` attribute (unfolding)
``ParentIdDerivation``    ``navfID`` — derive an ancestor's structural ID
``UnionPlan``             ``∪``
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula

__all__ = [
    "PlanOperator",
    "ViewScan",
    "IndexScan",
    "IdEqualityJoin",
    "StructuralJoin",
    "NestedStructuralJoin",
    "Projection",
    "NestedProjection",
    "Selection",
    "Unnest",
    "GroupBy",
    "ContentNavigation",
    "ParentIdDerivation",
    "UnionPlan",
]


@dataclass
class PlanOperator:
    """Base class for all logical operators.

    Besides describing themselves, operators expose one *cardinality hook*:
    :meth:`estimate_rows` combines the estimated row counts of the children
    into an estimate for the operator's own output, asking a *context*
    object for every statistic that depends on the database rather than on
    the plan shape.  The context (see
    :class:`repro.planning.cost.CostModel`, the canonical implementation)
    must provide::

        view_rows(view_name) -> float            # extent size of a view
        equality_join_rows(left, right) -> float # |l ⋈= r| from |l|, |r|
        structural_join_rows(left, right, axis) -> float
        selection_selectivity(formula, view_name=None, column=None) -> float
                                                 # fraction kept by σ; the
                                                 # optional (view, column)
                                                 # pair unlocks per-column
                                                 # histogram estimates
        navigation_matches(steps) -> float       # matches per row of nav
        unnest_fanout() -> float                 # rows per nested group
        group_reduction() -> float               # input rows per group

    Keeping the hook on the operator and the statistics behind the context
    lets the algebra stay free of any dependency on summaries or planning.

    ``_kept`` is the executor's memo of this node's output index vectors
    (:meth:`~repro.algebra.execution.PlanExecutor._kept`): no part of the
    description, so left out of ``==``, ``repr`` and copies.
    """

    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_kept"}

    def children(self) -> list["PlanOperator"]:
        """Child operators (empty for leaves)."""
        return []

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        """Estimated output rows given the children's estimated rows."""
        return child_rows[0] if child_rows else 1.0

    def describe(self, indent: int = 0) -> str:
        """Multi-line, indented rendering of the plan."""
        pad = "  " * indent
        lines = [pad + self._describe_self()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _describe_self(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__

    def __str__(self) -> str:
        return self.describe()


@dataclass
class ViewScan(PlanOperator):
    """Scan one materialised view.

    Output columns are qualified as ``<alias>.<column>`` so several scans of
    the same view (or of views sharing column names) never collide.
    """

    view_name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        """Alias used to qualify output column names."""
        return self.alias or self.view_name

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return context.view_rows(self.view_name)

    def _describe_self(self) -> str:
        alias = f" as {self.alias}" if self.alias else ""
        return f"ViewScan({self.view_name}{alias})"


@dataclass
class IndexScan(PlanOperator):
    """``σ`` pushed below a scan: probe a view's value index directly.

    Semantically equivalent to ``Selection(column, formula)`` over
    ``ViewScan(view_name, alias)`` — the planner's pushdown pass
    (:mod:`repro.planning.pushdown`) only emits it when the cost model
    prefers an index probe over the scan-and-filter pair.  The vectorized
    executor serves it with a positional gather driven by the view's
    per-column secondary index (:mod:`repro.views.indexes`); the tuple
    interpreter deliberately keeps scanning and filtering so it stays an
    exact row-identity oracle for the index path.
    """

    view_name: str
    column: str  # qualified as <alias>.<base>, like every plan column
    formula: ValueFormula = field(default_factory=ValueFormula.true)
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        """Alias used to qualify output column names."""
        return self.alias or self.view_name

    @property
    def base_column(self) -> str:
        """The probed column's name inside the view (alias prefix stripped)."""
        prefix = f"{self.effective_alias}."
        if self.column.startswith(prefix):
            return self.column[len(prefix):]
        return self.column

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return context.view_rows(self.view_name) * context.selection_selectivity(
            self.formula, self.view_name, self.base_column
        )

    def _describe_self(self) -> str:
        alias = f" as {self.alias}" if self.alias else ""
        return (
            f"IndexScan({self.view_name}{alias}:"
            f" {self.column} {self.formula.to_text()})"
        )


@dataclass
class IdEqualityJoin(PlanOperator):
    """``⋈=`` — pair rows whose two ID columns denote the same node."""

    left: PlanOperator
    right: PlanOperator
    left_column: str
    right_column: str

    def children(self) -> list[PlanOperator]:
        return [self.left, self.right]

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return context.equality_join_rows(child_rows[0], child_rows[1])

    def _describe_self(self) -> str:
        return f"IdEqualityJoin({self.left_column} = {self.right_column})"


@dataclass
class StructuralJoin(PlanOperator):
    """``⋈≺`` / ``⋈≺≺`` — parent or ancestor join on structural IDs."""

    left: PlanOperator
    right: PlanOperator
    left_column: str
    right_column: str
    axis: Axis = Axis.DESCENDANT  # DESCENDANT = ancestor join, CHILD = parent join

    def children(self) -> list[PlanOperator]:
        return [self.left, self.right]

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return context.structural_join_rows(child_rows[0], child_rows[1], self.axis)

    def _describe_self(self) -> str:
        symbol = "≺" if self.axis is Axis.CHILD else "≺≺"
        return f"StructuralJoin({self.left_column} {symbol} {self.right_column})"


@dataclass
class NestedStructuralJoin(PlanOperator):
    """Structural join whose right-hand matches are grouped per left row.

    Produces one output row per left row; the matching right rows appear as a
    nested relation in ``group_column``.  ``keep_unmatched`` controls whether
    left rows without matches survive (with an empty nested relation), which
    is the behaviour required by optional nested edges.
    """

    left: PlanOperator
    right: PlanOperator
    left_column: str
    right_column: str
    group_column: str
    axis: Axis = Axis.DESCENDANT
    keep_unmatched: bool = True

    def children(self) -> list[PlanOperator]:
        return [self.left, self.right]

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        # one output row per left row (unmatched rows kept with an empty
        # group by default; dropping them only shrinks the estimate)
        return child_rows[0]

    def _describe_self(self) -> str:
        symbol = "≺" if self.axis is Axis.CHILD else "≺≺"
        return (
            f"NestedStructuralJoin({self.left_column} {symbol} {self.right_column}"
            f" -> {self.group_column})"
        )


@dataclass
class Projection(PlanOperator):
    """``π`` — keep (and reorder) the named columns, removing duplicates."""

    child: PlanOperator
    columns: Sequence[str] = field(default_factory=tuple)
    renames: dict[str, str] = field(default_factory=dict)

    def children(self) -> list[PlanOperator]:
        return [self.child]

    def _describe_self(self) -> str:
        return f"Projection({', '.join(self.columns)})"


@dataclass
class NestedProjection(PlanOperator):
    """Project (and rename) columns *inside* one nested column.

    Needed when a view's nested group stores more attributes than the query
    asks for: the outer tuple is kept as-is, but the nested relation is
    projected onto the requested inner columns.
    """

    child: PlanOperator
    nested_column: str
    columns: Sequence[str] = field(default_factory=tuple)
    renames: dict[str, str] = field(default_factory=dict)

    def children(self) -> list[PlanOperator]:
        return [self.child]

    def _describe_self(self) -> str:
        return f"NestedProjection({self.nested_column}: {', '.join(self.columns)})"


@dataclass
class Selection(PlanOperator):
    """``σ`` — keep rows whose column value satisfies a formula.

    Used both for value selections (``σ_{φ(v)}``) and, with an equality
    formula over a label column, for the ``σ_{n.L = l}`` selections of
    Section 4.6.
    """

    child: PlanOperator
    column: str
    formula: ValueFormula = field(default_factory=ValueFormula.true)

    def children(self) -> list[PlanOperator]:
        return [self.child]

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return child_rows[0] * context.selection_selectivity(self.formula)

    def _describe_self(self) -> str:
        return f"Selection({self.column}: {self.formula.to_text()})"


@dataclass
class Unnest(PlanOperator):
    """Flatten one nested column into the outer tuple."""

    child: PlanOperator
    nested_column: str
    keep_empty: bool = False

    def children(self) -> list[PlanOperator]:
        return [self.child]

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return child_rows[0] * context.unnest_fanout()

    def _describe_self(self) -> str:
        return f"Unnest({self.nested_column})"


@dataclass
class GroupBy(PlanOperator):
    """Group rows on key columns, nesting the remaining columns."""

    child: PlanOperator
    key_columns: Sequence[str]
    nested_columns: Sequence[str]
    group_column: str

    def children(self) -> list[PlanOperator]:
        return [self.child]

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return max(child_rows[0] / context.group_reduction(), 1.0)

    def _describe_self(self) -> str:
        return (
            f"GroupBy(keys={', '.join(self.key_columns)}"
            f" -> {self.group_column}[{', '.join(self.nested_columns)}])"
        )


@dataclass
class ContentNavigation(PlanOperator):
    """Navigate inside a stored ``C`` attribute (Section 4.6 unfolding).

    For every input row the operator evaluates a downward path (a sequence of
    ``(axis, label)`` steps) inside the XML fragment stored in
    ``content_column``, and emits one output row per match carrying the
    requested attribute of the reached node in ``new_column``.  When
    ``optional`` is set, rows without any match survive with a null.
    """

    child: PlanOperator
    content_column: str
    steps: Sequence[tuple[Axis, str]] = field(default_factory=tuple)
    new_column: str = "nav"
    attribute: str = "V"
    optional: bool = True

    def children(self) -> list[PlanOperator]:
        return [self.child]

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        matches = context.navigation_matches(self.steps)
        if self.optional:
            matches = max(matches, 1.0)
        return child_rows[0] * matches

    def _describe_self(self) -> str:
        path = "".join(f"{axis.value}{label}" for axis, label in self.steps)
        return (
            f"ContentNavigation({self.content_column}{path}"
            f" -> {self.new_column}.{self.attribute})"
        )


@dataclass
class ParentIdDerivation(PlanOperator):
    """``navfID`` — derive an ancestor's ID from a node's structural ID."""

    child: PlanOperator
    id_column: str
    levels_up: int
    new_column: str

    def children(self) -> list[PlanOperator]:
        return [self.child]

    def _describe_self(self) -> str:
        return (
            f"ParentIdDerivation({self.id_column} ^{self.levels_up}"
            f" -> {self.new_column})"
        )


@dataclass
class UnionPlan(PlanOperator):
    """``∪`` — set union of same-arity sub-plans (columns from the first)."""

    plans: Sequence[PlanOperator] = field(default_factory=tuple)

    def children(self) -> list[PlanOperator]:
        return list(self.plans)

    def estimate_rows(self, child_rows: Sequence[float], context) -> float:
        return sum(child_rows) if child_rows else 1.0

    def _describe_self(self) -> str:
        return f"UnionPlan({len(self.plans)} branches)"
