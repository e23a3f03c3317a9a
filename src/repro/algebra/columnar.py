"""Columnar batches: the executor's in-memory relation.

:class:`ColumnBatch` is the executor's unit of work: a schema plus one
:class:`_ColumnSource` per column.  Sources are direct value lists or
gathers over a parent source, so selections, projections and joins emit
index vectors and never copy a column nobody reads.  Dewey component keys
and their dotted text are cached per source and *shared through gathers*: a
view extent's sort keys, and the identifier text the service writes for
them, are computed once and reused by every query that scans it.
"""

from __future__ import annotations

from itertools import islice
from operator import lt
from typing import Optional, Sequence
from weakref import WeakKeyDictionary

from repro.algebra.kernels import _fitted_ranges
from repro.algebra.tuples import Column, Relation, _hashable, as_dewey
from repro.xmltree.ids import DeweyID

__all__ = [
    "ColumnBatch",
    "joined_batch",
    "projected_batch",
    "splice_runs",
]

_ID_CELLS = {DeweyID, type(None)}
# ``_hashable`` maps 1.0 to 1, which a dict key does by itself
_ATOM_CELLS = {str, int, bool, float, type(None)}


def splice_runs(old: list, splices: Sequence[tuple[int, int, list]]) -> list:
    """``old`` with each ``[lo, hi)`` replaced by its run, in one pass.

    ``splices`` are disjoint ``(lo, hi, run)`` triples in ascending order,
    positions counted on ``old`` — the shape incremental extent
    maintenance (:mod:`repro.views.delta`) computes once and applies to
    the row list and to every cached column vector alike.
    """
    patched: list = []
    cursor = 0
    for lo, hi, run in splices:
        patched += old[cursor:lo]
        patched += run
        cursor = hi
    patched += old[cursor:]
    return patched


class _ColumnSource:
    """One column's values, materialised lazily and cached.

    A source is *direct* (``values`` given) or a *gather* over a parent
    source (``parent`` + ``indices`` — what selection and join kernels
    emit, so a column nobody reads is never copied).  Dewey
    component keys and dedup row keys are cached per source, and a gather
    reuses its parent's key caches, so renaming, slicing and joining share
    one key computation per underlying column.  A direct source also holds
    the structural links joins found for its rows (``links``, see
    :meth:`~repro.algebra.execution.PlanExecutor._structural_pairs`), which
    a write moves onto the source its splice makes
    (:func:`repro.views.delta.follow_links`), and whether its row keys
    strictly ascend (:meth:`ascending`), which the splice carries too.
    """

    __slots__ = (
        "_values",
        "_keys",
        "_row_keys",
        "_text",
        "_ascending",
        "_parent",
        "_indices",
        "index",
        "links",
        "__weakref__",
    )

    def __init__(
        self,
        values: Optional[list] = None,
        parent: Optional["_ColumnSource"] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> None:
        self._values = values
        self._parent = parent
        self._indices = indices
        self._keys: Optional[list] = None
        self._row_keys: Optional[list] = None
        self._text: Optional[list] = None
        # a direct source's proof that its rows are distinct: True / False
        # once :meth:`ascending` has read the row keys, None while unknown
        self._ascending: Optional[bool] = None
        # value-index cache (repro.views.indexes): the built index, or the
        # UNINDEXABLE sentinel.  Deliberately NOT propagated through
        # gathers — a gather's row positions differ from its parent's.
        self.index = None
        # structural links with this source's rows as descendants: ancestor
        # source (weakly) -> {axis: StructuralLinks}.  Positional like the
        # value index, so never gathered or pickled; a write's splice
        # carries the entries read since the previous write onto the new
        # source (repro.views.delta.follow_links) and drops the rest.
        self.links: Optional[WeakKeyDictionary] = None

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("links", "__weakref__")
        }

    def __setstate__(self, state: dict) -> None:
        # a state pickled before a slot existed leaves it unknown
        self._ascending = None
        for name, value in state.items():
            setattr(self, name, value)
        self.links = None

    def resolve(self) -> tuple["_ColumnSource", Optional[Sequence[int]]]:
        """The direct source under this one, and which of its rows each of
        ours reads (``None`` when this source is itself direct)."""
        source, rows = self, None
        while source._parent is not None:
            indices = source._indices
            rows = indices if rows is None else list(map(indices.__getitem__, rows))
            source = source._parent
        return source, rows

    def ascending(self) -> bool:
        """Whether this direct source's row keys strictly ascend — cached.

        Computed once, on the first read, with one C-level comparison pass
        over :meth:`row_keys`.  Only an all-identifier column (component
        tuples) or an all-atom one (its own strings and numbers) can pass:
        strict ``<`` between those keys implies ``_hashable``-inequality,
        and a total order makes every pair of rows, not just neighbours,
        distinct.  ⊥, NaN and cells that do not compare fail the check.
        """
        if self._ascending is None:
            keys = self.row_keys()
            try:
                self._ascending = (keys is self._keys or keys is self._values) and all(
                    map(lt, keys, islice(keys, 1, None))
                )
            except TypeError:
                self._ascending = False
        return self._ascending

    def distinct(self) -> bool:
        """Whether no two rows of this column have equal row keys, proven
        without hashing a key: its direct source strictly ascends
        (:meth:`ascending`, rejected in O(1) once cached) and the composed
        gather reads no row of it twice."""
        source = self
        while source._parent is not None:
            source = source._parent
        if not source.ascending():
            return False
        _, rows = self.resolve()
        return rows is None or len(set(rows)) == len(rows)

    def values(self) -> list:
        if self._values is None:
            parent_values = self._parent.values()
            self._values = [parent_values[i] for i in self._indices]
        return self._values

    def dewey_keys(self) -> list:
        """Per-row Dewey component tuples (``None`` for ⊥) — cached.

        Raises like :func:`~repro.algebra.tuples.as_dewey` on values that
        are not structural identifiers; nothing is cached then.
        """
        if self._keys is None:
            if self._parent is not None:
                parent_keys = self._parent.dewey_keys()
                keys = [parent_keys[i] for i in self._indices]
            else:
                keys = []
                for value in self.values():
                    identifier = as_dewey(value)
                    keys.append(None if identifier is None else identifier.components)
            self._keys = keys
        return self._keys

    def dewey_text(self) -> list:
        """Per-row dotted Dewey text (``None`` for ⊥) — cached like the keys.

        Derived from :meth:`dewey_keys` and gathered through gathers, so an
        extent's identifier text is written once for every query that
        scans it (the service's ``"dewey"`` columns are this list).
        """
        if self._text is None:
            if self._parent is not None:
                parent_text = self._parent.dewey_text()
                self._text = [parent_text[i] for i in self._indices]
            else:
                self._text = [
                    None if key is None else ".".join(map(str, key))
                    for key in self.dewey_keys()
                ]
        return self._text

    def row_keys(self) -> list:
        """Per-row dedup keys, equal exactly where ``_hashable`` cells are — cached.

        No second copy of the column where an existing list already is
        that key: a column of nothing but ``DeweyID`` / ⊥ answers with its
        component keys, one of nothing but strings / numbers / ⊥ with its
        own values.  Anything else (nodes, nested relations, columns mixing
        identifiers with atoms) is made hashable once per cell.
        """
        if self._row_keys is None:
            parent = self._parent
            if parent is not None:
                keys = parent.row_keys()
                # the parent's keys alias one of its own lists: so do ours
                if keys is parent._keys:
                    keys = self.dewey_keys()
                elif keys is parent._values:
                    keys = self.values()
                else:
                    keys = [keys[i] for i in self._indices]
            else:
                values = self.values()
                kinds = set(map(type, values))
                if kinds <= _ID_CELLS:
                    keys = self.dewey_keys()
                elif kinds <= _ATOM_CELLS:
                    keys = values
                else:
                    keys = [_hashable(value) for value in values]
            self._row_keys = keys
        return self._row_keys

    def spliced(self, splices: Sequence[tuple[int, int, list]]) -> "_ColumnSource":
        """A direct source: this column with ``splices`` applied (see
        :func:`splice_runs`), carrying over whatever key vectors are cached.

        Keys are computed for the replacement cells only, under the rule
        the cached vector was built by — component tuples (and dotted
        text) for an all-ID column, the values themselves for an all-atom
        one (both kept as
        *aliases*, like :meth:`row_keys` makes them), ``_hashable``
        otherwise.  A replacement cell the rule does not cover drops that
        cache, and the next reader rebuilds it from the values.  The value
        index is positional and is not carried over.  A strictly ascending
        column stays proven so when every run's new keys, with one
        neighbour on each side, strictly ascend (removing rows cannot break
        it); anything else leaves :meth:`ascending` to read the data again.
        """
        fresh = _ColumnSource(values=splice_runs(self.values(), splices))
        kinds = {type(cell) for _, _, run in splices for cell in run}
        if self._keys is not None and kinds <= _ID_CELLS:
            fresh._keys = splice_runs(
                self._keys,
                [
                    (lo, hi, [None if cell is None else cell.components for cell in run])
                    for lo, hi, run in splices
                ],
            )
        if self._text is not None and kinds <= _ID_CELLS:
            fresh._text = splice_runs(
                self._text,
                [
                    (lo, hi, [None if cell is None else str(cell) for cell in run])
                    for lo, hi, run in splices
                ],
            )
        if self._row_keys is None:
            pass
        elif self._row_keys is self._keys:
            fresh._row_keys = fresh._keys
        elif self._row_keys is self._values:
            if kinds <= _ATOM_CELLS:
                fresh._row_keys = fresh._values
        else:
            fresh._row_keys = splice_runs(
                self._row_keys,
                [(lo, hi, [_hashable(cell) for cell in run]) for lo, hi, run in splices],
            )
        if self._ascending and fresh._row_keys is not None:
            runs = [(lo, hi, len(run)) for lo, hi, run in splices]
            try:
                if _fitted_ranges(fresh._row_keys, runs, strict=True) is not None:
                    fresh._ascending = True
            except TypeError:
                pass  # a new cell does not compare with its neighbour
        return fresh


class ColumnBatch:
    """A column-major relation: schema plus one lazy source per column.

    The vectorized executor's unit of work.  Construction never touches
    cell values — sources materialise on first read — and
    :meth:`to_relation` round-trips back to the tuple representation the
    rest of the library speaks.  ``sorted_by`` carries the same physical
    Dewey-order annotation as :class:`~repro.algebra.tuples.Relation`.

    >>> relation = Relation(["ID", "V"], rows=[(DeweyID((1, 1)), "pen"),
    ...                                        (DeweyID((1, 2)), "ink")])
    >>> batch = ColumnBatch.from_relation(relation.mark_sorted_by("ID"))
    >>> batch.row_count, batch.sorted_by
    (2, 'ID')
    >>> batch.values(1)
    ['pen', 'ink']
    >>> batch.gather([1], sorted_by=batch.sorted_by).to_relation().rows
    [(DeweyID(1.2), 'ink')]
    """

    __slots__ = ("columns", "row_count", "sorted_by", "_sources", "_relation", "_row_twin")

    def __init__(
        self,
        columns: Sequence[Column | str],
        sources: Sequence[_ColumnSource],
        row_count: int,
        sorted_by: Optional[str] = None,
    ) -> None:
        self.columns = [
            column if isinstance(column, Column) else Column(column)
            for column in columns
        ]
        self._sources = list(sources)
        self.row_count = row_count
        self.sorted_by = sorted_by
        self._relation: Optional[Relation] = None
        # a schema-sharing parent whose materialised rows equal ours — lets
        # to_relation() reuse the parent's row tuples instead of re-zipping
        self._row_twin: Optional[ColumnBatch] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnBatch":
        """Wrap a relation (transposed once, cached on the relation).

        The cache makes repeated scans of one extent free: the second query
        over a materialised view reuses the first one's column vectors and
        Dewey key caches.
        """
        cached = getattr(relation, "_column_batch", None)
        if cached is not None:
            return cached
        count = len(relation.rows)
        if count:
            sources = [
                _ColumnSource(values=list(column_values))
                for column_values in zip(*relation.rows)
            ]
        else:
            sources = [_ColumnSource(values=[]) for _ in relation.columns]
        batch = cls(relation.columns, sources, count, relation.sorted_by)
        batch._relation = relation
        relation._column_batch = batch
        return batch

    def spliced(
        self, splices: Sequence[tuple[int, int, list[tuple]]], relation: Relation
    ) -> "ColumnBatch":
        """The cached batch of ``relation``, derived from this one by splicing.

        ``relation`` is this batch's relation after ``splices`` — disjoint,
        ascending ``(lo, hi, replacement rows)`` — were applied to its rows
        (:func:`splice_runs`).  Every column is re-sliced at the same
        offsets and keeps its cached key vectors
        (:meth:`_ColumnSource.spliced`), so a scan of the patched extent
        starts as warm as a scan of the old one; the result is installed as
        ``relation``'s batch exactly as :meth:`from_relation` would.
        """
        sources = [
            source.spliced(
                [(lo, hi, [row[position] for row in rows]) for lo, hi, rows in splices]
            )
            for position, source in enumerate(self._sources)
        ]
        batch = ColumnBatch(relation.columns, sources, len(relation.rows), relation.sorted_by)
        batch._relation = relation
        relation._column_batch = batch
        return batch

    def to_relation(self) -> Relation:
        """Materialise as a row-major :class:`Relation` (cached)."""
        if self._relation is None:
            relation = Relation(self.columns)
            twin = self._row_twin
            if twin is not None and twin._relation is not None:
                relation.rows = list(twin._relation.rows)
            elif not self._sources:
                relation.rows = [()] * self.row_count  # zip() of no column is empty
            elif self.row_count:
                relation.rows = list(zip(*(source.values() for source in self._sources)))
            relation.sorted_by = self.sorted_by
            self._relation = relation
        return self._relation

    # ------------------------------------------------------------------ #
    def column_index(self, name: str) -> int:
        """Index of the column named ``name`` (raises like Relation's)."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise _column_error(name, [column.name for column in self.columns])

    def source(self, index: int) -> _ColumnSource:
        return self._sources[index]

    def values(self, index: int) -> list:
        """The materialised value list of column ``index``."""
        return self._sources[index].values()

    def dewey_keys(self, index: int) -> list:
        """Cached Dewey component keys of column ``index`` (None for ⊥)."""
        return self._sources[index].dewey_keys()

    def row_keys(self, index: int) -> list:
        """Cached dedup keys of column ``index`` (``_hashable``'s equivalence)."""
        return self._sources[index].row_keys()

    # ------------------------------------------------------------------ #
    def with_schema(
        self, columns: Sequence[Column], sorted_by: Optional[str]
    ) -> "ColumnBatch":
        """The same rows under different column names (scan qualification).

        Sources are shared, so value and key caches carry over; the result
        also reuses this batch's materialised rows on ``to_relation``.
        """
        batch = ColumnBatch(columns, self._sources, self.row_count, sorted_by)
        batch._row_twin = self._row_twin if self._row_twin is not None else self
        return batch

    def gather(
        self, indices: Sequence[int], sorted_by: Optional[str] = None
    ) -> "ColumnBatch":
        """Select rows by index vector; every column becomes a lazy gather."""
        sources = [
            _ColumnSource(parent=source, indices=indices) for source in self._sources
        ]
        return ColumnBatch(self.columns, sources, len(indices), sorted_by)

    def __repr__(self) -> str:
        names = ", ".join(column.name for column in self.columns)
        return f"<ColumnBatch [{names}] rows={self.row_count} sorted_by={self.sorted_by}>"


def _column_error(name, names):
    from repro.errors import AlgebraError

    return AlgebraError(f"no column named {name!r}; have {names}")


def projected_batch(
    batch: ColumnBatch,
    column_indexes: Sequence[int],
    columns: Sequence[Column],
    row_indices: Sequence[int],
    sorted_by: Optional[str] = None,
) -> ColumnBatch:
    """Project + gather in one step (what the Project kernel emits)."""
    sources = [
        _ColumnSource(parent=batch.source(i), indices=row_indices)
        for i in column_indexes
    ]
    return ColumnBatch(columns, sources, len(row_indices), sorted_by)


def joined_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    columns: Sequence[Column],
    left_indices: Sequence[int],
    right_indices: Sequence[int],
    sorted_by: Optional[str] = None,
) -> ColumnBatch:
    """The concatenated-schema batch a pair-producing join kernel emits.

    Every output column is a lazy gather over one input, so a joined
    column nobody projects afterwards is never copied.
    """
    sources = [
        _ColumnSource(parent=source, indices=left_indices)
        for source in left._sources
    ]
    sources += [
        _ColumnSource(parent=source, indices=right_indices)
        for source in right._sources
    ]
    return ColumnBatch(columns, sources, len(left_indices), sorted_by)
