"""Per-column secondary indexes over materialised extents.

Content selections used to scan an extent column linearly —
fine for the paper's analytical workloads, wrong for selective point
lookups.  This module gives every extent column a sub-linear access path:

* :class:`OrderedIndex` — a sorted array of ``(value key, row position)``
  pairs; equality and range probes are bisections returning the matching
  row positions.  The B-tree-shaped choice for high-cardinality and range
  predicates.
* :class:`BitmapIndex` — one row bitmap per distinct value; a probe
  evaluates the predicate once per *distinct value* and ORs the matching
  bitmaps.  Chosen automatically when the observed cardinality stays at or
  below :data:`BITMAP_CARDINALITY_THRESHOLD` — the classic
  B-tree-vs-bitmap decision rule.

Both kinds replicate the executor's selection semantics *exactly*: content
references unwrap to their node value, ``⊥`` rows match only the ``true``
formula, and probes return **ascending** row positions, so gathering them
preserves document order (and the ``sorted_by`` annotation) just like a
filter would.  Columns holding values the probes cannot order (structural
IDs, nested relations) are *unindexable*: :func:`build_index` returns
``None`` and the executor falls back to the scan-and-filter kernel —
correctness never depends on indexability.

Indexes are built lazily, on the first eligible probe of a ``(view,
column)`` pair, and cached on the column's
:class:`~repro.algebra.columnar._ColumnSource` — the object whose lifetime
*is* the extent's lifetime (re-materialising or splicing a view creates
fresh sources, so stale indexes simply become unreachable).
:func:`index_for_source` is the one entry point the executor calls; the
module-level :data:`INDEX_STATS` counters make build-once observable for
tests and benchmarks.

>>> from repro.patterns.predicates import ValueFormula
>>> index = build_index(["pen", "ink", None, "pen", "pad"])
>>> type(index).__name__  # 3 distinct values: below the bitmap threshold
'BitmapIndex'
>>> index.probe(ValueFormula.eq("pen"))
[0, 3]
>>> ordered = build_index(list(range(100)), bitmap_threshold=16)
>>> type(ordered).__name__
'OrderedIndex'
>>> ordered.probe(ValueFormula.parse("v >= 97"))
[97, 98, 99]
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from repro.patterns.predicates import ValueFormula, value_order_key
from repro.xmltree.node import XMLNode

__all__ = [
    "BITMAP_CARDINALITY_THRESHOLD",
    "BitmapIndex",
    "INDEX_STATS",
    "OrderedIndex",
    "UNINDEXABLE",
    "build_index",
    "index_for_source",
]

BITMAP_CARDINALITY_THRESHOLD = 64
"""Observed distinct-value count at or below which :func:`build_index`
prefers a :class:`BitmapIndex` over an :class:`OrderedIndex`."""

UNINDEXABLE = object()
"""Cached on a column source whose values refuse indexing (non-atom cell
types), so the build is attempted at most once per source."""


class _IndexStats:
    """Process-wide index lifecycle counters (test / bench observables)."""

    __slots__ = ("builds", "probes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.builds = 0
        """Indexes constructed from column values in this process."""
        self.probes = 0
        """Predicate probes served by any index."""

    def info(self) -> dict:
        return {
            "builds": self.builds,
            "probes": self.probes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IndexStats {self.info()}>"


INDEX_STATS = _IndexStats()


# --------------------------------------------------------------------------- #
# index kinds
# --------------------------------------------------------------------------- #
class OrderedIndex:
    """Sorted-array index: bisect range/point probes over value keys.

    ``keys`` holds the total-order key of every indexed (non-``⊥``) value,
    ascending; ``positions`` the parallel row positions.  Probes bisect per
    predicate interval and return the union of the matched positions in
    ascending row order.
    """

    __slots__ = ("keys", "positions", "row_count")
    kind = "ordered"

    def __init__(self, keys: list, positions: list[int], row_count: int):
        self.keys = keys
        self.positions = positions
        self.row_count = row_count

    @property
    def cardinality(self) -> int:
        """Distinct indexed values (adjacent equal keys collapse)."""
        distinct = 0
        previous = None
        for key in self.keys:
            if distinct == 0 or key != previous:
                distinct += 1
                previous = key
        return distinct

    def probe(self, formula: ValueFormula) -> list[int]:
        """Ascending row positions whose value satisfies ``formula``.

        Row-identical to filtering: ``⊥`` rows (never indexed) match only
        the ``true`` formula, which short-circuits to every row.
        """
        INDEX_STATS.probes += 1
        if formula.is_true():
            return list(range(self.row_count))
        matched: list[int] = []
        for low_key, low_closed, high_key, high_closed in formula.interval_bounds():
            if low_key is None:
                start = 0
            elif low_closed:
                start = bisect_left(self.keys, low_key)
            else:
                start = bisect_right(self.keys, low_key)
            if high_key is None:
                stop = len(self.keys)
            elif high_closed:
                stop = bisect_right(self.keys, high_key)
            else:
                stop = bisect_left(self.keys, high_key)
            if stop > start:
                matched.extend(self.positions[start:stop])
        matched.sort()
        return matched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OrderedIndex entries={len(self.keys)} rows={self.row_count}>"


class BitmapIndex:
    """Value-to-row-bitmap index for low-cardinality columns.

    ``bitmaps`` maps each distinct indexed value to an arbitrary-precision
    int whose set bits are the value's row positions.  A probe evaluates
    the formula once per distinct value (cardinality, not rows) and ORs
    the matching bitmaps.
    """

    __slots__ = ("bitmaps", "row_count")
    kind = "bitmap"

    def __init__(self, bitmaps: dict, row_count: int):
        self.bitmaps = bitmaps
        self.row_count = row_count

    @property
    def cardinality(self) -> int:
        return len(self.bitmaps)

    def probe(self, formula: ValueFormula) -> list[int]:
        """Ascending row positions whose value satisfies ``formula``."""
        INDEX_STATS.probes += 1
        if formula.is_true():
            return list(range(self.row_count))
        combined = 0
        for value, bitmap in self.bitmaps.items():
            if formula.evaluate(value):
                combined |= bitmap
        matched: list[int] = []
        while combined:
            lowest = combined & -combined
            matched.append(lowest.bit_length() - 1)
            combined ^= lowest
        return matched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BitmapIndex cardinality={len(self.bitmaps)} rows={self.row_count}>"


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #
def build_index(
    values: Sequence, bitmap_threshold: int = BITMAP_CARDINALITY_THRESHOLD
) -> Optional[OrderedIndex | BitmapIndex]:
    """Build the best index for one column's values, or ``None``.

    Content references unwrap to their node value (exactly what the
    selection kernel compares); ``⊥`` rows are skipped (they satisfy only
    the ``true`` formula, which every probe special-cases).  Any value
    outside the orderable atom types — bool, int, float, str — makes the
    whole column unindexable: the caller keeps the scan-and-filter path.

    The kind decision is the B-tree-vs-bitmap rule: at or below
    ``bitmap_threshold`` distinct values a :class:`BitmapIndex` wins
    (probes cost O(cardinality), storage is dense); above it the
    :class:`OrderedIndex` bisection wins.
    """
    bitmaps: dict = {}
    row_count = len(values)
    for position, value in enumerate(values):
        if isinstance(value, XMLNode):
            value = value.value
        if value is None:
            continue
        if not isinstance(value, (bool, int, float, str)):
            return None
        bitmaps[value] = bitmaps.get(value, 0) | (1 << position)
    if len(bitmaps) <= bitmap_threshold:
        return BitmapIndex(bitmaps, row_count)
    entries: list[tuple] = []
    for value, bitmap in bitmaps.items():
        key = value_order_key(value)
        while bitmap:
            lowest = bitmap & -bitmap
            entries.append((key, lowest.bit_length() - 1))
            bitmap ^= lowest
    entries.sort()
    return OrderedIndex(
        [key for key, _ in entries], [position for _, position in entries], row_count
    )


def index_for_source(source) -> Optional[OrderedIndex | BitmapIndex]:
    """The (lazily built) index cached on one column source.

    Built from the column's values on first use (:data:`INDEX_STATS`
    counts a *build*); values that refuse indexing cache
    :data:`UNINDEXABLE`, and ``None`` is returned forever after (the
    caller scans).
    """
    index = source.index
    if index is None:
        index = build_index(source.values())
        if index is None:
            index = UNINDEXABLE
        else:
            INDEX_STATS.builds += 1
        source.index = index
    return None if index is UNINDEXABLE else index
