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

A query's answer is a relation *backed by* the executor's
:class:`~repro.algebra.columnar.ColumnBatch`: the columns are the result,
and rows are one way to look at them.  Its length and schema read no value;
its rows are built once, on their first read, and the batch is dropped then.

Row order is nevertheless physical: materialised view extents are stored
in document order of their first ID column (Dewey order, which for
:class:`~repro.xmltree.ids.DeweyID` is plain tuple order,
:meth:`Relation.sorted_in_dewey_order`), and the executor reads that order
off the data when a join needs it — a relation carries no annotation of
it.  Comparisons (``to_set`` / ``same_contents``) stay order-blind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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
    """An in-memory (possibly nested) relation.

    A relation either holds its rows or is *backed by* a
    :class:`~repro.algebra.columnar.ColumnBatch` (what
    :meth:`ColumnBatch.to_relation` hands out): then ``len``, the schema
    and ``repr`` answer from the batch without reading a value, and the
    first read of :attr:`rows` builds the row list once, keeps it and
    drops the batch.  The relation points at its batch; the batch never
    points back.
    """

    __slots__ = ("columns", "_rows", "_batch", "__weakref__")

    def __init__(self, columns: Sequence[Column | str], rows: Optional[Iterable[Sequence]] = None):
        self.columns: list[Column] = [
            column if isinstance(column, Column) else Column(column) for column in columns
        ]
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate column names: {names}")
        self._rows: Optional[list[tuple]] = []
        self._batch = None
        if rows is not None:
            for row in rows:
                self.append(row)

    @classmethod
    def _backed_by(cls, batch) -> "Relation":
        """A relation over ``batch``'s schema whose rows are built from its
        columns on their first read (:meth:`ColumnBatch.row_tuples`)."""
        relation = cls(batch.columns)
        relation._rows = None
        relation._batch = batch
        return relation

    @property
    def rows(self) -> list[tuple]:
        """The rows, built from the backing batch on the first read."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._batch.row_tuples()
            self._batch = None
        return rows

    @rows.setter
    def rows(self, rows: list[tuple]) -> None:
        self._rows = rows
        self._batch = None

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
        if self._rows is None:
            return self._batch.row_count
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def column_index(self, name: str) -> int:
        """Index of the column named ``name``."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise AlgebraError(f"no column named {name!r}; have {self.column_names}")

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

    # ------------------------------------------------------------------ #
    # document order
    # ------------------------------------------------------------------ #
    def sorted_in_dewey_order(self, name: str) -> "Relation":
        """A copy of this relation sorted in document order on column ``name``.

        Rows are ordered by the column's Dewey identifier (tuple order ==
        document order); rows whose identifier is null (``⊥``) sort first,
        before every real identifier; the sort is stable.
        """
        index = self.column_index(name)

        def key(row):
            identifier = as_dewey(row[index])
            return (0, ()) if identifier is None else (1, identifier.components)

        result = Relation(self.columns)
        result.rows = sorted(self.rows, key=key)
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
        return result

    def rename(self, mapping: dict[str, str]) -> "Relation":
        """Rename columns according to ``mapping`` (missing names unchanged)."""
        new_columns = [
            column.renamed(mapping.get(column.name, column.name))
            for column in self.columns
        ]
        result = Relation(new_columns)
        result.rows = list(self.rows)
        return result

    def union(self, *others: "Relation") -> "Relation":
        """Set union in one pass: the first occurrence of every row, ``self``'s
        rows first, then each of ``others`` in turn (schemas must have the
        same arity; names from self)."""
        if any(other.arity != self.arity for other in others):
            raise AlgebraError("union of relations with different arities")
        result = Relation(self.columns)
        seen = set()
        for relation in (self, *others):
            for row in relation.rows:
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
        if len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Relation {self.column_names} rows={len(self)}>"


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
        key = value.dewey_key
        if key is not None:
            return ("<id>", key)
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
