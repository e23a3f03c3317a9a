"""Columnar batches and the shared-extent codec.

The extent store serialises relations into a self-describing byte layout so
worker processes can map them from shared memory without pickle.  The byte
layout is columnar (magic ``RXC1``) and the executor gets a column-major
in-memory representation to match:

* :func:`encode_columnar` writes schema + row count + a per-column block
  directory, then one contiguous cell block per column.  A reader that only
  needs two of seven columns decodes two blocks; the directory makes every
  block independently addressable.
* :class:`ColumnarPayload` is the lazy reader: the header is parsed eagerly
  (it is tiny and carries the schema), column blocks decode on first touch
  and are cached, and :attr:`ColumnarPayload.bytes_touched` reports how many
  payload bytes were actually read — the observable for "scans touch only
  the columns a plan reads".
* :class:`ColumnBatch` is the executor's unit of work: a schema plus one
  :class:`_ColumnSource` per column.  Sources are lazy (payload-backed) or
  gathers over a parent source, so selections, projections and joins emit
  index vectors and never copy a column nobody reads.  Dewey component keys
  are cached per source and *shared through gathers*: a view extent's sort
  keys are computed once and reused by every query that scans it.

The cell codec itself (tags ``_T_NONE`` .. ``_T_NESTED``) moved here
verbatim from :mod:`repro.views.extent_store`, which now re-exports the
public pair :func:`encode_relation` / :func:`decode_relation`.  Nested
relation *cells* are written row-major inside their block — they are small
and always materialised whole.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Sequence

from repro.algebra.tuples import Column, Relation, _hashable, as_dewey
from repro.errors import ExtentStoreError
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

__all__ = [
    "COLUMNAR_MAGIC",
    "ColumnBatch",
    "ColumnarPayload",
    "concat_batches",
    "decode_columnar",
    "decode_payload",
    "encode_columnar",
    "joined_batch",
    "projected_batch",
    "splice_runs",
]


# --------------------------------------------------------------------------- #
# cell codec (moved from repro.views.extent_store)
# --------------------------------------------------------------------------- #
COLUMNAR_MAGIC = b"RXC1"

_T_NONE = 0
_T_INT = 1
_T_BIGINT = 2
_T_FLOAT = 3
_T_STR = 4
_T_DEWEY = 5
_T_NODE = 6
_T_NESTED = 7

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class _Writer:
    """Append-only little-endian byte builder."""

    __slots__ = ("buffer",)

    def __init__(self) -> None:
        self.buffer = bytearray()

    def u8(self, value: int) -> None:
        self.buffer.append(value)

    def u32(self, value: int) -> None:
        self.buffer += struct.pack("<I", value)

    def i64(self, value: int) -> None:
        self.buffer += struct.pack("<q", value)

    def f64(self, value: float) -> None:
        self.buffer += struct.pack("<d", value)

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self.buffer += raw

    def optional_text(self, value: Optional[str]) -> None:
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            self.text(value)


class _Reader:
    """Sequential reader over the writer's layout."""

    __slots__ = ("view", "offset")

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.offset = 0

    def u8(self) -> int:
        value = self.view[self.offset]
        self.offset += 1
        return value

    def u32(self) -> int:
        (value,) = struct.unpack_from("<I", self.view, self.offset)
        self.offset += 4
        return value

    def i64(self) -> int:
        (value,) = struct.unpack_from("<q", self.view, self.offset)
        self.offset += 8
        return value

    def f64(self) -> float:
        (value,) = struct.unpack_from("<d", self.view, self.offset)
        self.offset += 8
        return value

    def text(self) -> str:
        length = self.u32()
        raw = bytes(self.view[self.offset : self.offset + length])
        self.offset += length
        return raw.decode("utf-8")

    def optional_text(self) -> Optional[str]:
        return self.text() if self.u8() else None


def _write_dewey(writer: _Writer, identifier: DeweyID) -> None:
    components = identifier.components
    writer.u32(len(components))
    for component in components:
        writer.u32(component)


def _read_dewey(reader: _Reader) -> DeweyID:
    depth = reader.u32()
    return DeweyID(tuple(reader.u32() for _ in range(depth)))


def _write_node_tree(writer: _Writer, node: XMLNode) -> None:
    writer.text(node.label)
    _write_cell(writer, node.value)
    writer.u32(len(node.children))
    for child in node.children:
        _write_node_tree(writer, child)


def _read_node_tree(reader: _Reader) -> XMLNode:
    label = reader.text()
    value = _read_cell(reader)
    node = XMLNode(label, value)
    for _ in range(reader.u32()):
        node.append(_read_node_tree(reader))
    return node


def _derive_ids(node: XMLNode, dewey: Optional[DeweyID], path: Optional[str]) -> None:
    """Re-derive subtree identifiers and paths from the encoded root's.

    A content reference points at a *complete* document node, so its
    children carry consecutive sibling ordinals starting at 1 — deriving
    child IDs via :meth:`DeweyID.child` reproduces the original document's
    identifiers exactly.
    """
    node.dewey = dewey
    node.path = path
    for ordinal, child in enumerate(node.children, start=1):
        _derive_ids(
            child,
            dewey.child(ordinal) if dewey is not None else None,
            f"{path}/{child.label}" if path is not None else None,
        )


def _write_cell(writer: _Writer, value) -> None:
    if value is None:
        writer.u8(_T_NONE)
    elif isinstance(value, bool):
        # bools ride the int lane; True == 1 under relation set semantics
        writer.u8(_T_INT)
        writer.i64(int(value))
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            writer.u8(_T_INT)
            writer.i64(value)
        else:
            writer.u8(_T_BIGINT)
            writer.text(str(value))
    elif isinstance(value, float):
        writer.u8(_T_FLOAT)
        writer.f64(value)
    elif isinstance(value, str):
        writer.u8(_T_STR)
        writer.text(value)
    elif isinstance(value, DeweyID):
        writer.u8(_T_DEWEY)
        _write_dewey(writer, value)
    elif isinstance(value, XMLNode):
        writer.u8(_T_NODE)
        if value.dewey is None:
            writer.u8(0)
        else:
            writer.u8(1)
            _write_dewey(writer, value.dewey)
        writer.optional_text(value.path)
        _write_node_tree(writer, value)
    elif isinstance(value, Relation):
        writer.u8(_T_NESTED)
        _write_relation(writer, value)
    else:
        raise ExtentStoreError(
            f"cell value {value!r} of type {type(value).__name__} cannot be "
            f"encoded into a shared extent"
        )


def _read_cell(reader: _Reader):
    tag = reader.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_INT:
        return reader.i64()
    if tag == _T_BIGINT:
        return int(reader.text())
    if tag == _T_FLOAT:
        return reader.f64()
    if tag == _T_STR:
        return reader.text()
    if tag == _T_DEWEY:
        return _read_dewey(reader)
    if tag == _T_NODE:
        dewey = _read_dewey(reader) if reader.u8() else None
        path = reader.optional_text()
        node = _read_node_tree(reader)
        _derive_ids(node, dewey, path)
        return node
    if tag == _T_NESTED:
        return _read_relation(reader)
    raise ExtentStoreError(f"corrupt shared extent: unknown cell tag {tag}")


def _write_schema(writer: _Writer, columns: Sequence[Column]) -> None:
    writer.u32(len(columns))
    for column in columns:
        writer.text(column.name)
        writer.text(column.kind)
        writer.u32(len(column.paths))
        for path in column.paths:
            writer.text(path)


def _read_schema(reader: _Reader) -> list[Column]:
    columns = []
    for _ in range(reader.u32()):
        name = reader.text()
        kind = reader.text()
        paths = tuple(reader.text() for _ in range(reader.u32()))
        columns.append(Column(name=name, kind=kind, paths=paths))
    return columns


def _write_relation(writer: _Writer, relation: Relation) -> None:
    """Row-major relation body — still used for nested-relation cells."""
    _write_schema(writer, relation.columns)
    writer.optional_text(relation.sorted_by)
    writer.u32(len(relation.rows))
    for row in relation.rows:
        for value in row:
            _write_cell(writer, value)


def _read_relation(reader: _Reader) -> Relation:
    columns = _read_schema(reader)
    sorted_by = reader.optional_text()
    row_count = reader.u32()
    arity = len(columns)
    relation = Relation(columns)
    relation.rows = [
        tuple(_read_cell(reader) for _ in range(arity)) for _ in range(row_count)
    ]
    relation.sorted_by = sorted_by
    return relation


# --------------------------------------------------------------------------- #
# column sources and batches
# --------------------------------------------------------------------------- #
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

    A source is *direct* (``values`` given), *lazy* (a ``loader`` producing
    the value list on first touch — the extent-payload path) or a *gather*
    over a parent source (``parent`` + ``indices`` — what selection and
    join kernels emit, so a column nobody reads is never copied).  Dewey
    component keys and dedup row keys are cached per source, and a gather
    reuses its parent's key caches, so renaming, slicing and joining share
    one key computation per underlying column.
    """

    __slots__ = (
        "_values",
        "_keys",
        "_row_keys",
        "_loader",
        "_parent",
        "_indices",
        "index",
        "index_blob",
    )

    def __init__(
        self,
        values: Optional[list] = None,
        loader: Optional[Callable[[], list]] = None,
        parent: Optional["_ColumnSource"] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> None:
        self._values = values
        self._loader = loader
        self._parent = parent
        self._indices = indices
        self._keys: Optional[list] = None
        self._row_keys: Optional[list] = None
        # value-index cache (repro.views.indexes): the built/attached index,
        # or the UNINDEXABLE sentinel, or an encoded blob awaiting its first
        # probe.  Deliberately NOT propagated through gathers — a gather's
        # row positions differ from its parent's.
        self.index = None
        self.index_blob = None

    def values(self) -> list:
        if self._values is None:
            if self._parent is not None:
                parent_values = self._parent.values()
                self._values = [parent_values[i] for i in self._indices]
            else:
                self._values = list(self._loader())
                self._loader = None
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
        the cached vector was built by — component tuples for an all-ID
        column, the values themselves for an all-atom one (both kept as
        *aliases*, like :meth:`row_keys` makes them), ``_hashable``
        otherwise.  A replacement cell the rule does not cover drops that
        cache, and the next reader rebuilds it from the values.  The value
        index is positional and is not carried over.
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
    >>> batch.slice(1, 2).to_relation().rows  # sorted_by survives slicing
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
        """Wrap a relation (transposed lazily, cached on the relation).

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

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A contiguous row window (the shard result-stream unit).

        ``sorted_by`` survives: a contiguous subsequence of a Dewey-ordered
        column is still Dewey-ordered.
        """
        indices = range(*slice(start, stop).indices(self.row_count))
        return self.gather(indices, sorted_by=self.sorted_by)

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


def concat_batches(batches: Sequence[ColumnBatch]) -> ColumnBatch:
    """Re-assemble consecutive slices of one result (the stream-decode path).

    Schema comes from the first batch; ``sorted_by`` is kept only when every
    piece agrees (in-order windows of one sorted result stay sorted —
    anything else must not claim the annotation).
    """
    if not batches:
        raise ExtentStoreError("cannot concatenate an empty batch stream")
    first = batches[0]
    if len(batches) == 1:
        return first
    sorted_by = first.sorted_by
    if any(batch.sorted_by != sorted_by for batch in batches):
        sorted_by = None
    sources = []
    for index in range(len(first.columns)):
        def loader(column: int = index) -> list:
            merged: list = []
            for piece in batches:
                merged.extend(piece.values(column))
            return merged

        sources.append(_ColumnSource(loader=loader))
    total = sum(batch.row_count for batch in batches)
    return ColumnBatch(first.columns, sources, total, sorted_by)


# --------------------------------------------------------------------------- #
# columnar payload codec
# --------------------------------------------------------------------------- #
def encode_columnar(source: Relation | ColumnBatch) -> bytes:
    """Encode a relation or batch into the columnar byte layout (``RXC1``).

    Layout: magic, schema, ``sorted_by``, row count, a u32 block-length
    directory (one entry per column), then the concatenated cell blocks.
    The directory makes every column block independently addressable, so
    :class:`ColumnarPayload` can decode exactly the columns a plan reads.
    """
    batch = source if isinstance(source, ColumnBatch) else ColumnBatch.from_relation(source)
    writer = _Writer()
    writer.buffer += COLUMNAR_MAGIC
    _write_schema(writer, batch.columns)
    writer.optional_text(batch.sorted_by)
    writer.u32(batch.row_count)
    blocks = []
    for index in range(len(batch.columns)):
        block = _Writer()
        for value in batch.values(index):
            _write_cell(block, value)
        blocks.append(block.buffer)
    for block in blocks:
        writer.u32(len(block))
    for block in blocks:
        writer.buffer += block
    return bytes(writer.buffer)


class ColumnarPayload:
    """A lazy reader over :func:`encode_columnar` output.

    The header (schema, row count, block directory) is parsed eagerly;
    column blocks decode on first touch and stay cached.
    ``bytes_touched`` counts header plus decoded blocks — the per-extent
    observable behind ``AttachedExtents.decode_bytes_touched``.

    :meth:`release` drops the underlying memoryview (mandatory before
    closing a shared-memory segment the payload was built over); columns
    decoded before the release stay readable from cache.
    """

    __slots__ = (
        "_view",
        "columns",
        "row_count",
        "sorted_by",
        "_offsets",
        "_lengths",
        "_cache",
        "bytes_touched",
        "body_end",
    )

    def __init__(self, payload) -> None:
        view = memoryview(payload)
        if bytes(view[:4]) != COLUMNAR_MAGIC:
            view.release()
            raise ExtentStoreError("not a shared extent payload (bad magic)")
        reader = _Reader(view)
        reader.offset = 4
        self.columns = _read_schema(reader)
        self.sorted_by = reader.optional_text()
        self.row_count = reader.u32()
        lengths = [reader.u32() for _ in range(len(self.columns))]
        offsets = []
        position = reader.offset
        for length in lengths:
            offsets.append(position)
            position += length
        self._view = view
        self._offsets = offsets
        self._lengths = lengths
        self._cache: dict[int, list] = {}
        self.bytes_touched = reader.offset
        # first byte past the last column block: anything after it in the
        # buffer is a trailer (e.g. the extent store's value-index section),
        # invisible to this parser
        self.body_end = position

    def column_values(self, index: int) -> list:
        """Decode (once) and return one column's cell block."""
        values = self._cache.get(index)
        if values is None:
            if self._view is None:
                raise ExtentStoreError(
                    "columnar payload was released before this column was decoded"
                )
            reader = _Reader(self._view)
            reader.offset = self._offsets[index]
            values = [_read_cell(reader) for _ in range(self.row_count)]
            self._cache[index] = values
            self.bytes_touched += self._lengths[index]
        return values

    def batch(self) -> ColumnBatch:
        """The payload as a batch of lazily-decoding column sources."""
        sources = [
            _ColumnSource(loader=lambda column=index: self.column_values(column))
            for index in range(len(self.columns))
        ]
        return ColumnBatch(self.columns, sources, self.row_count, self.sorted_by)

    def release(self) -> None:
        """Release the underlying buffer (decoded column caches survive)."""
        if self._view is not None:
            self._view.release()
            self._view = None

    def __repr__(self) -> str:
        return (
            f"<ColumnarPayload columns={len(self.columns)} rows={self.row_count} "
            f"bytes_touched={self.bytes_touched}>"
        )


def decode_columnar(payload) -> ColumnBatch:
    """Decode a columnar payload into a (lazy) :class:`ColumnBatch`."""
    return ColumnarPayload(payload).batch()


def decode_payload(payload) -> Relation:
    """Decode a columnar payload into a fully materialised relation."""
    return ColumnarPayload(payload).batch().to_relation()
