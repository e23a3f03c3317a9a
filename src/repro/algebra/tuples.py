"""The nested-relation data model.

Materialised views, pattern evaluation results and intermediate plan results
are all :class:`Relation` instances: a schema (ordered list of
:class:`Column`) plus a list of rows.  Cell values are

* atomic values (numbers / strings),
* structural identifiers (:class:`~repro.xmltree.ids.DeweyID`),
* content references (an :class:`~repro.xmltree.node.XMLNode`, for ``C``
  attributes),
* ``None``, the null constant ``⊥`` produced by optional edges, or
* a nested :class:`Relation` (produced by nested edges).

Relations compare *as sets*: pattern semantics is set-based, and the paper's
equivalence notion (``≡S``) ignores duplicates and row order.

Row order is nevertheless tracked as a *physical* property: a relation may
carry a ``sorted_by`` annotation naming one ID column whose values appear in
document order (Dewey order, which for :class:`~repro.xmltree.ids.DeweyID`
is plain tuple order).  Materialised view extents are produced with this
guarantee, and the structural and ID-equality joins in
:mod:`repro.algebra.execution` consume it to join in a single pass without
sorting first.  The annotation never affects comparisons (``to_set`` /
``same_contents`` stay order-blind); it only tells the executor which sorts
it may skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import AlgebraError
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

__all__ = ["Column", "Relation", "as_dewey"]


def as_dewey(value) -> Optional[DeweyID]:
    """Coerce a cell value to a :class:`DeweyID` (``None`` stays ``None``).

    ID columns may physically hold :class:`DeweyID` objects, whole
    :class:`~repro.xmltree.node.XMLNode` references (whose identifier is
    taken) or dotted strings such as ``"1.3.2"`` — all three occur in
    materialised extents depending on the ``fID`` used.  Anything else is
    not a structural identifier and raises :class:`AlgebraError`.
    """
    if value is None:
        return None
    if isinstance(value, DeweyID):
        return value
    if isinstance(value, XMLNode):
        return value.dewey
    if isinstance(value, str):
        return DeweyID.from_string(value)
    raise AlgebraError(f"value {value!r} is not a structural identifier")


@dataclass(frozen=True)
class Column:
    """One attribute of a relation.

    Attributes
    ----------
    name:
        Unique column name inside its relation, e.g. ``"ID2"`` or ``"A3"``.
    kind:
        What the column stores: ``"ID"``, ``"L"``, ``"V"``, ``"C"``,
        ``"NODE"`` (a bare node, used by conjunctive semantics) or
        ``"NESTED"`` (a nested relation).
    paths:
        The summary paths the producing pattern node may bind to, when known.
        Used by the rewriting algorithm to align view columns with query
        columns; purely informational for execution.
    """

    name: str
    kind: str = "V"
    paths: tuple[str, ...] = ()

    def renamed(self, name: str) -> "Column":
        """A copy of this column under a different name."""
        return Column(name=name, kind=self.kind, paths=self.paths)


class Relation:
    """An in-memory (possibly nested) relation."""

    def __init__(self, columns: Sequence[Column | str], rows: Optional[Iterable[Sequence]] = None):
        self.columns: list[Column] = [
            column if isinstance(column, Column) else Column(column) for column in columns
        ]
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate column names: {names}")
        self.rows: list[tuple] = []
        self.sorted_by: Optional[str] = None
        """Name of the ID column the rows are Dewey-sorted on, if any.

        The contract covers *non-null* identifiers only: reading just the
        rows whose value in this column is not ``⊥`` yields identifiers in
        non-decreasing document order (nulls may sit anywhere).  Purely
        physical: set by document-order producers (view extents, the merge
        join) and consumed by the merge join to skip its sort phase.
        Operators that cannot cheaply prove order preservation drop it —
        a missing annotation is always safe, a wrong one never is.
        """
        if rows is not None:
            for row in rows:
                self.append(row)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> list[str]:
        """Names of all columns, in order."""
        return [c.name for c in self.columns]

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def column_index(self, name: str) -> int:
        """Index of the column named ``name``."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise AlgebraError(f"no column named {name!r}; have {self.column_names}")

    def column(self, name: str) -> Column:
        """The :class:`Column` object named ``name``."""
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        """True iff a column with this name exists."""
        return any(column.name == name for column in self.columns)

    def value(self, row: Sequence, name: str):
        """Value of column ``name`` in ``row``."""
        return row[self.column_index(name)]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def append(self, row: Sequence) -> None:
        """Append one row (validated for arity)."""
        row = tuple(row)
        if len(row) != len(self.columns):
            raise AlgebraError(
                f"row arity {len(row)} does not match schema arity {len(self.columns)}"
            )
        self.rows.append(row)

    def extend(self, rows: Iterable[Sequence]) -> None:
        """Append several rows."""
        for row in rows:
            self.append(row)

    # ------------------------------------------------------------------ #
    # document order
    # ------------------------------------------------------------------ #
    def is_sorted_by(self, name: str) -> bool:
        """True iff the rows are known to be Dewey-sorted on column ``name``."""
        return self.sorted_by == name

    def mark_sorted_by(self, name: Optional[str]) -> "Relation":
        """Record (or clear, with ``None``) the Dewey-sort annotation.

        The caller asserts the physical order; the column must exist.
        Returns ``self`` for chaining.
        """
        if name is not None:
            self.column_index(name)  # raises on unknown columns
        self.sorted_by = name
        return self

    def sorted_in_dewey_order(self, name: str) -> "Relation":
        """A copy of this relation sorted in document order on column ``name``.

        Rows are ordered by the column's Dewey identifier (tuple order ==
        document order); rows whose identifier is null (``⊥``) sort first,
        before every real identifier.  The copy carries the ``sorted_by``
        annotation.  Already-sorted relations return themselves unchanged.
        """
        if self.is_sorted_by(name):
            return self
        index = self.column_index(name)

        def key(row):
            identifier = as_dewey(row[index])
            return (0, ()) if identifier is None else (1, identifier.components)

        result = Relation(self.columns)
        result.rows = sorted(self.rows, key=key)
        result.sorted_by = name
        return result

    # ------------------------------------------------------------------ #
    # relational operations (used by the executor)
    # ------------------------------------------------------------------ #
    def project(self, names: Sequence[str]) -> "Relation":
        """Projection onto the named columns (kept in the given order)."""
        indexes = [self.column_index(name) for name in names]
        result = Relation([self.columns[i] for i in indexes])
        seen = set()
        for row in self.rows:
            projected = tuple(row[i] for i in indexes)
            key = _hashable(projected)
            if key not in seen:
                seen.add(key)
                result.rows.append(projected)
        if self.sorted_by in names:
            # duplicate elimination keeps first occurrences in order, so a
            # surviving sort column stays sorted
            result.sorted_by = self.sorted_by
        return result

    def select(self, predicate: Callable[[dict], bool]) -> "Relation":
        """Selection; the predicate receives a ``{column name: value}`` dict."""
        result = Relation(self.columns)
        for row in self.rows:
            if predicate(dict(zip(self.column_names, row))):
                result.rows.append(row)
        result.sorted_by = self.sorted_by  # a subset in order stays in order
        return result

    def rename(self, mapping: dict[str, str]) -> "Relation":
        """Rename columns according to ``mapping`` (missing names unchanged)."""
        new_columns = [
            column.renamed(mapping.get(column.name, column.name))
            for column in self.columns
        ]
        result = Relation(new_columns)
        result.rows = list(self.rows)
        if self.sorted_by is not None:
            result.sorted_by = mapping.get(self.sorted_by, self.sorted_by)
        return result

    def natural_concat(self, other: "Relation") -> "Relation":
        """Schema concatenation (columns must be disjoint)."""
        overlap = set(self.column_names) & set(other.column_names)
        if overlap:
            raise AlgebraError(f"overlapping columns in concatenation: {overlap}")
        return Relation(list(self.columns) + list(other.columns))

    def join(
        self,
        other: "Relation",
        condition: Callable[[dict, dict], bool],
    ) -> "Relation":
        """Theta-join; the condition receives both rows as dicts."""
        result = self.natural_concat(other)
        left_names, right_names = self.column_names, other.column_names
        for left in self.rows:
            left_dict = dict(zip(left_names, left))
            for right in other.rows:
                if condition(left_dict, dict(zip(right_names, right))):
                    result.rows.append(left + right)
        return result

    def union(self, other: "Relation") -> "Relation":
        """Set union (schemas must have the same arity; names from self)."""
        if self.arity != other.arity:
            raise AlgebraError("union of relations with different arities")
        result = Relation(self.columns)
        seen = set()
        for row in list(self.rows) + list(other.rows):
            key = _hashable(row)
            if key not in seen:
                seen.add(key)
                result.rows.append(row)
        return result

    def distinct(self) -> "Relation":
        """Duplicate elimination (keeps first occurrences, preserving order)."""
        result = Relation(self.columns)
        seen = set()
        for row in self.rows:
            key = _hashable(row)
            if key not in seen:
                seen.add(key)
                result.rows.append(row)
        result.sorted_by = self.sorted_by
        return result

    # ------------------------------------------------------------------ #
    # comparison helpers
    # ------------------------------------------------------------------ #
    def to_set(self) -> frozenset:
        """Set-of-rows form with nested relations converted recursively.

        Content references (``XMLNode``) are compared by their structural
        identifier when available, otherwise by their serialised form, so two
        evaluations of the same data compare equal.
        """
        return frozenset(_hashable(row) for row in self.rows)

    def same_contents(self, other: "Relation") -> bool:
        """Set equality of the two relations, ignoring column names."""
        return self.to_set() == other.to_set()

    # ------------------------------------------------------------------ #
    # display
    # ------------------------------------------------------------------ #
    def to_table(self, max_rows: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        headers = self.column_names
        rendered_rows = [
            [_render(value) for value in row] for row in self.rows[:max_rows]
        ]
        widths = [
            max(len(header), *(len(r[i]) for r in rendered_rows)) if rendered_rows else len(header)
            for i, header in enumerate(headers)
        ]
        lines = [
            " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rendered_rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Relation {self.column_names} rows={len(self.rows)}>"


def _hashable(value):
    """Convert a cell (or row tuple) into a hashable canonical form."""
    if isinstance(value, tuple):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, Relation):
        return ("<rel>", value.to_set())
    if isinstance(value, XMLNode):
        # a node is identified by its structural ID, so a column holding the
        # node itself and a column holding its ID compare equal — exactly the
        # equivalence the rewriting relies on
        if value.dewey is not None:
            return ("<id>", value.dewey.components)
        from repro.xmltree.serializer import to_parenthesized

        return ("<node>", to_parenthesized(value))
    if isinstance(value, DeweyID):
        return ("<id>", value.components)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _render(value) -> str:
    if value is None:
        return "⊥"
    if isinstance(value, Relation):
        inner = "; ".join(
            ",".join(_render(v) for v in row) for row in value.rows[:3]
        )
        suffix = "..." if len(value.rows) > 3 else ""
        return "{" + inner + suffix + "}"
    if isinstance(value, XMLNode):
        from repro.xmltree.serializer import to_parenthesized

        text = to_parenthesized(value)
        return text if len(text) <= 30 else text[:27] + "..."
    return str(value)
