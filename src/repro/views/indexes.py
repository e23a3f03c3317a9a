"""Per-column secondary indexes over materialised extents.

Content selections used to scan an extent column linearly —
fine for the paper's analytical workloads, wrong for selective point
lookups.  This module gives every extent column a sub-linear access path,
one kind for every column: :class:`OrderedIndex`, a sorted array of
``(value key, row position)`` pairs whose equality and range probes are
bisections returning the matching row positions.  (A per-value bitmap kind
for low-cardinality columns was measured and removed: decoding a Python
int bit by bit lost to the bisection on every probe, by up to 45× on a
half-selective range.)

The index replicates the executor's selection semantics *exactly*: content
references unwrap to their node value, ``⊥`` rows match only the ``true``
formula, and probes return **ascending** row positions, so gathering them
preserves document order just like a filter would.  Columns holding values the probes cannot order (structural
IDs, nested relations, NaN) are *unindexable*: :func:`build_index` returns
``None`` and the executor falls back to the scan-and-filter kernel —
correctness never depends on indexability.

Indexes are built lazily, on the first eligible probe of a ``(view,
column)`` pair, and cached on the column's
:class:`~repro.algebra.columnar._ColumnSource` — the object whose lifetime
*is* the extent's lifetime (re-materialising or splicing a view creates
fresh sources, so stale indexes simply become unreachable).
:func:`index_for_source` is the one entry point the executor calls.  What
is built is read off the extents themselves: ``Database.stats()["indexes"]``
counts the column sources that hold an :class:`OrderedIndex`.

>>> from repro.patterns.predicates import ValueFormula
>>> index = build_index(["pen", "ink", None, "pen", "pad"])
>>> index.probe(ValueFormula.eq("pen"))
[0, 3]
>>> build_index(list(range(100))).probe(ValueFormula.parse("v >= 97"))
[97, 98, 99]
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from repro.patterns.predicates import ValueFormula, value_order_key
from repro.xmltree.node import XMLNode

__all__ = [
    "OrderedIndex",
    "UNINDEXABLE",
    "build_index",
    "index_for_source",
]

UNINDEXABLE = object()
"""Cached on a column source whose values refuse indexing (non-atom cell
types, NaN), so the build is attempted at most once per source."""


# --------------------------------------------------------------------------- #
# the index
# --------------------------------------------------------------------------- #
class OrderedIndex:
    """Sorted-array index: bisect range/point probes over value keys.

    ``keys`` holds the total-order key of every indexed (non-``⊥``) value,
    ascending; ``positions`` the parallel row positions.  Probes bisect per
    predicate interval and return the union of the matched positions in
    ascending row order.
    """

    __slots__ = ("keys", "positions", "row_count")

    def __init__(self, keys: list, positions: list[int], row_count: int):
        self.keys = keys
        self.positions = positions
        self.row_count = row_count

    def probe(self, formula: ValueFormula) -> list[int]:
        """Ascending row positions whose value satisfies ``formula``.

        Row-identical to filtering: ``⊥`` rows (never indexed) match only
        the ``true`` formula, which short-circuits to every row.
        """
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


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #
def build_index(values: Sequence) -> Optional[OrderedIndex]:
    """The index over one column's values, or ``None``.

    Content references unwrap to their node value (exactly what the
    selection kernel compares); ``⊥`` rows are skipped (they satisfy only
    the ``true`` formula, which every probe special-cases).  Any value
    outside the orderable atom types — bool, int, float, str — or a NaN,
    which no order places, makes the whole column unindexable: the caller
    keeps the scan-and-filter path.  One stable sort of the indexed rows by
    :func:`value_order_key`, so equal keys keep their row order.
    """
    keys: list = []
    positions: list[int] = []
    for position, value in enumerate(values):
        if isinstance(value, XMLNode):
            value = value.value
        if value is None:
            continue
        if not isinstance(value, (bool, int, float, str)) or value != value:
            return None
        keys.append(value_order_key(value))
        positions.append(position)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return OrderedIndex(
        [keys[i] for i in order], [positions[i] for i in order], len(values)
    )


def index_for_source(source) -> Optional[OrderedIndex]:
    """The (lazily built) index cached on one column source.

    Built from the column's values on first use; values that refuse
    indexing cache :data:`UNINDEXABLE`, and ``None`` is returned forever
    after (the caller scans).
    """
    index = source.index
    if index is None:
        index = source.index = build_index(source.values()) or UNINDEXABLE
    return None if index is UNINDEXABLE else index
