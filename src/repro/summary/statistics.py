"""Summary statistics: the paper's Table 1 plus planner cardinalities.

Two layers live here:

* :class:`SummaryStatistics` / :func:`summarize` — one row of the paper's
  Table 1 (document size, ``|S|``, ``ns``, ``n1``),
* :class:`Statistics` — the cardinality statistics the cost-based planner
  reads: per-summary-path instance counts, structural-join fan-out between
  paths, label frequencies, navigation fan-out along label chains, and view
  extent sizes (exact for materialised views, estimated from the summary's
  instance counts otherwise).

The summary already counts document instances per path while it is built
(:func:`~repro.summary.dataguide.build_summary`), so :class:`Statistics` is a
pure re-indexing of numbers that exist anyway — building one never touches
the document.  Summaries written down by hand
(:func:`~repro.summary.dataguide.summary_from_paths`) carry no counts; every
estimator degrades to a floor of one instance per path so costing stays
defined (and still ranks plans by shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.summary.dataguide import Summary, build_summary
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLDocument, XMLNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.algebra.columnar import ColumnBatch
    from repro.patterns.pattern import TreePattern
    from repro.patterns.predicates import ValueFormula
    from repro.summary.dataguide import SummaryDelta
    from repro.views.delta import ExtentChange, Splice
    from repro.views.view import MaterializedView

__all__ = ["SummaryStatistics", "Statistics", "summarize"]

# per-column value statistics (observe_view on materialised extents): the
# equi-width histogram resolution, and the distinct count below which exact
# per-value frequencies are kept instead
_HISTOGRAM_BUCKETS = 16
_COMMON_VALUE_LIMIT = 64
_ATOMS = (bool, int, float, str)
_ATOM_CLASSES = frozenset(_ATOMS)


@dataclass(frozen=True)
class SummaryStatistics:
    """One row of Table 1."""

    document_name: str
    document_size: int
    summary_size: int
    strong_edges: int
    one_to_one_edges: int
    max_depth: int


def summarize(doc: XMLDocument, summary: Summary | None = None) -> SummaryStatistics:
    """Compute the Table 1 statistics for a document.

    An existing summary may be supplied to avoid rebuilding it.
    """
    if summary is None:
        summary = build_summary(doc)
    return SummaryStatistics(
        document_name=doc.name,
        document_size=doc.size,
        summary_size=summary.size,
        strong_edges=summary.strong_edge_count,
        one_to_one_edges=summary.one_to_one_edge_count,
        max_depth=summary.max_depth,
    )


# --------------------------------------------------------------------------- #
# planner cardinalities
# --------------------------------------------------------------------------- #
class Statistics:
    """Cardinality statistics over one summary, consumed by the cost model.

    The count-shaped estimators (:meth:`instance_count`,
    :meth:`path_set_instances`, :meth:`view_rows`) are floored at 1.0 so
    row estimates never collapse to zero; ratio-shaped ones
    (:meth:`label_frequency`, :meth:`navigation_fanout`) legitimately
    return fractions below 1 — strict cost positivity is guaranteed by the
    cost model's per-operator floor, not here.  Instances are plain
    dictionaries of numbers, derived from the summary and the extents: a
    loaded session observes them again.
    """

    def __init__(self, summary: Summary):
        self.summary_name = summary.name
        # kept for counts that follow writes
        self._summary = summary
        self._count_summary()
        self._view_rows: dict[str, float] = {}
        self._view_exact: dict[str, bool] = {}
        self._view_columns: dict[str, dict[str, dict]] = {}
        # per materialised view, one _ColumnCounts per column: the exact
        # counters its _view_columns entries are a function of
        self._view_counts: dict[str, list[_ColumnCounts]] = {}

    def _count_summary(self) -> None:
        """Derive the per-path / per-label counts from the summary.

        Construction only: a live write moves them by difference
        (:meth:`follow_write`).
        """
        summary = self._summary
        self._instances = {}
        self._depths = {}
        self._label_instances = {}
        self._total = 0
        self._weighted_depth = 0
        self._internal = 0
        for node in summary.iter_nodes():
            count = node.instance_count
            depth = node.depth
            self._instances[node.number] = count
            self._depths[node.number] = depth
            self._label_instances[node.label] = (
                self._label_instances.get(node.label, 0) + count
            )
            self._total += count
            self._weighted_depth += count * depth
            if node.children:
                self._internal += count
        self._derive_averages()

    def _derive_averages(self) -> None:
        total = self._total
        self.total_instances = max(total, 1)
        self.average_depth = (
            self._weighted_depth / total if total else float(self._summary.max_depth)
        )
        # average number of children per *internal* instance: every non-root
        # instance is the child of an instance on a summary path that has
        # children, so this is (non-root instances) / (internal instances)
        root_count = self._summary.root.instance_count or 1
        self.average_fanout = max(
            1.0, (self.total_instances - root_count) / max(self._internal, 1)
        )

    def follow_write(
        self, delta: "SummaryDelta", changed: Iterable["ExtentChange"] = ()
    ) -> tuple[int, int]:
        """Update in place after a count-only live write.

        ``delta`` is what the in-place summary maintenance returned; it must
        preserve annotations (no path appeared or vanished, so every stored
        path number, depth and has-children fact still holds).  Each touched
        path's count moves by the difference between the summary node's new
        count and the stored one, and the integer sums behind the averages
        move with it — the result is identical to a fresh build, with no
        summary walk.  ``changed`` lists the extents the write touched:
        spliced ones update their column counters from the rows the splice
        removed and added; a rematerialised one (``splices`` is ``None``),
        or one observed without counters, is observed in full.  Returns
        ``(spliced, reobserved)`` view counts.
        """
        summary = self._summary
        for path in delta.touched_paths:
            node = summary.node_by_path(path)
            number = node.number
            difference = node.instance_count - self._instances[number]
            if not difference:
                continue
            self._instances[number] += difference
            self._label_instances[node.label] += difference
            self._total += difference
            self._weighted_depth += difference * self._depths[number]
            if node.children:
                self._internal += difference
        self._derive_averages()
        spliced = reobserved = 0
        for view, before, splices in changed:
            if splices is None or view.name not in self._view_counts:
                self.observe_view(view)
                reobserved += 1
            else:
                self._splice_columns(view, before, splices)
                spliced += 1
        return spliced, reobserved

    # ------------------------------------------------------------------ #
    # base statistics
    # ------------------------------------------------------------------ #
    def instance_count(self, number: int) -> float:
        """Document instances on summary path ``number`` (floored at 1)."""
        return float(max(self._instances.get(number, 0), 1))

    def path_set_instances(self, numbers: Iterable[int]) -> float:
        """Total instances over a set of summary paths (floored at 1)."""
        total = sum(self._instances.get(number, 0) for number in numbers)
        return float(max(total, 1))

    def label_frequency(self, label: str) -> float:
        """Fraction of all document instances carrying ``label``.

        Genuinely absent labels report 0.0 (not a floored minimum), so a
        navigation step towards a label the document never contains prices
        near-zero output — :meth:`navigation_fanout` applies its own small
        floor to keep products well-defined."""
        return self._label_instances.get(label, 0) / self.total_instances

    def navigation_fanout(self, labels: Iterable[str]) -> float:
        """Estimated matches of a downward label chain per starting node.

        Each step multiplies by the average per-instance frequency of the
        step's label — the selectivity a ``ContentNavigation`` operator
        pays per input row.
        """
        estimate = 1.0
        for label in labels:
            estimate *= max(
                self.label_frequency(label) * self.average_depth, 1e-3
            )
        return max(estimate, 1e-3)

    # ------------------------------------------------------------------ #
    # view extents
    # ------------------------------------------------------------------ #
    def observe_annotated(
        self, view: "MaterializedView", pattern: "TreePattern"
    ) -> None:
        """Record one view using its already-annotated pattern.

        Exact counts for a materialised view (:meth:`observe_view`); an
        unmaterialised one is estimated from the summary's instance counts
        along the pattern's associated paths.  The catalog observes every
        view this way, with its pre-annotated prototype patterns.
        """
        if view.is_materialized:
            self.observe_view(view)
        else:
            self.set_view_rows(
                view.name, self.estimate_pattern_rows(pattern), exact=False
            )

    def forget_view(self, name: str) -> None:
        """Drop every recorded fact about the named view (missing is fine).

        The removal counterpart of :meth:`observe_view` /
        :meth:`observe_annotated` — incremental catalog maintenance patches
        a dropped view out of the statistics instead of rebuilding them.
        """
        self._view_rows.pop(name, None)
        self._view_exact.pop(name, None)
        self._view_columns.pop(name, None)
        self._view_counts.pop(name, None)

    def observe_view(self, view: "MaterializedView") -> None:
        """Record a materialised view's exact extent statistics.

        Every column's counters start from its whole vector — then the
        routine that later follows the view's writes derives the entries
        from them, with no splice to apply."""
        extent = view.extent
        counts = [_ColumnCounts() for _ in extent.columns]
        for position, column in enumerate(counts):
            column.count(extent.values(position), +1)
        self._view_exact[view.name] = True
        self._view_counts[view.name] = counts
        self._splice_columns(view, extent, ())

    def _splice_columns(
        self, view: "MaterializedView", before: "ColumnBatch", splices: Iterable["Splice"]
    ) -> None:
        """Move a materialised view's statistics along an extent splice.

        ``before`` is the extent before the write and each splice
        ``(lo, hi, replacement)`` replaced its rows ``[lo, hi)``; every
        column's counters lose the removed cells and gain the
        replacement's, and the column entries are re-derived from the
        counters.  For each column holding orderable atoms (bool/int/
        float/str after content-reference unwrapping) the entry has the
        exact distinct count, plus either exact per-value frequencies
        (distinct ≤ :data:`_COMMON_VALUE_LIMIT`) or, for all-numeric
        columns, an equi-width histogram with :data:`_HISTOGRAM_BUCKETS`
        buckets.  A column with any non-atom value (structural IDs, nested
        relations, content subtrees) gets no entry at all — its absence
        doubles as the cost model's indexability gate.
        """
        counts = self._view_counts[view.name]
        for lo, hi, replacement in splices:
            for position, column in enumerate(counts):
                if hi > lo:
                    column.count(before.values(position)[lo:hi], -1)
                column.count([row[position] for row in replacement], +1)
        extent = view.extent
        entries: dict[str, dict] = {}
        for column, column_counts in zip(extent.columns, counts):
            entry = column_counts.entry()
            if entry is not None:
                entries[column.name] = entry
        self._view_rows[view.name] = float(max(extent.row_count, 1))
        self._view_columns[view.name] = entries

    def view_column_stats(self, view: str, column: str) -> Optional[dict]:
        """The recorded value statistics of one extent column, if any.

        ``None`` means the column was never observed or holds values the
        order-based estimators (and value indexes) cannot handle.
        """
        return self._view_columns.get(view, {}).get(column)

    def column_selectivity(
        self, view: str, column: str, formula: "ValueFormula"
    ) -> Optional[float]:
        """Estimated fraction of extent rows satisfying ``formula``.

        Exact over the common-value table when the column is
        low-cardinality; a uniform-per-distinct-value estimate for point
        predicates; fractional bucket overlap over the equi-width histogram
        for ranges on numeric columns.  ``None`` when no per-column
        statistics can answer — the caller falls back to its constants.
        Never returns 0: a predicate the statistics say matches nothing
        still prices at half a row, so plans stay strictly cost-positive.
        """
        entry = self.view_column_stats(view, column)
        if entry is None or not entry["sampled"]:
            return None
        sampled = entry["sampled"]
        common = entry.get("common")
        if common is not None:
            matched = sum(
                count for value, count in common.items() if formula.evaluate(value)
            )
            return matched / sampled if matched else 0.5 / sampled
        if formula.is_point():
            return (entry["non_null"] / max(entry["distinct"], 1)) / sampled
        numeric = entry.get("numeric")
        if numeric is not None:
            matched = _histogram_matches(numeric, formula)
            if matched is not None:
                return min(max(matched / sampled, 0.5 / sampled), 1.0)
        return None

    def view_rows(self, name: str) -> float:
        """Extent size of the named view (1.0 when entirely unknown)."""
        return self._view_rows.get(name, 1.0)

    def view_rows_exact(self, name: str) -> bool:
        """True iff :meth:`view_rows` reports a materialised row count."""
        return self._view_exact.get(name, False)

    def set_view_rows(self, name: str, rows: float, exact: bool = True) -> None:
        """Override the recorded extent size (used by writes / tests)."""
        self._view_rows[name] = float(max(rows, 1.0))
        self._view_exact[name] = exact

    def estimate_pattern_rows(self, pattern: "TreePattern") -> float:
        """Estimated result size of a tree pattern from its associated paths.

        The dominant term of a tree-pattern result is the most numerous
        return node: every output tuple binds it to a distinct document
        node (up to multiplicities introduced by sibling return nodes,
        ignored here).  Patterns that were never annotated fall back to the
        floor of one row.
        """
        best = 1.0
        for node in pattern.return_nodes():
            paths = node.annotated_paths
            if paths:
                best = max(best, self.path_set_instances(paths))
        return best

    def __repr__(self) -> str:
        return (
            f"<Statistics summary={self.summary_name!r} "
            f"instances={self.total_instances} views={len(self._view_rows)}>"
        )


class _ColumnCounts:
    """Exact counters of one extent column, moved by every splice.

    The column's statistics entry is a pure function of these (see
    :meth:`entry`), so a counter updated by the rows a write removed and
    added yields exactly the entry a fresh count of the whole column would.
    Equal atoms of different types (``1``, ``1.0``, ``True``) share one
    value slot, whichever object a splice left as its key: the formula
    domain orders them identically, so every selectivity answer is the
    same either way.

    ``rows``       cells counted (nulls included)
    ``non_null``   atom cells (bool/int/float/str after content unwrapping)
    ``foreign``    non-atom cells (IDs, nested relations): no entry while > 0
    ``strings``    string cells: no histogram while > 0
    ``values``     atom → count, the exact multiset
    ``histogram``  ``[min, max, bucket counts]`` while the column is
                   histogrammed, kept by bucket while no edge moves; ``None``
                   means "derive from ``values`` when next needed"
    """

    __slots__ = ("rows", "non_null", "foreign", "strings", "values", "histogram")

    def __init__(self):
        self.rows = 0
        self.non_null = 0
        self.foreign = 0
        self.strings = 0
        self.values: dict = {}
        self.histogram: Optional[list] = None

    def count(self, cells: list, sign: int) -> None:
        """Add (``sign`` +1) or remove (-1) one batch of column cells.

        The histogram edge rule: a bucket count moves only while the value
        lies inside ``[min, max]`` and, on removal, does not take away the
        last copy of an edge value; otherwise the histogram is dropped and
        re-derived from the multiset in O(distinct).  Either way it equals
        the histogram of a fresh count.
        """
        # classify, then count the atoms; exact classes decide the common
        # cells (Dewey IDs, content nodes, atoms), isinstance the rest
        atoms: list = []
        append = atoms.append
        foreign = strings = 0
        for cell in cells:
            kind = cell.__class__
            if kind is DeweyID:
                foreign += 1
                continue
            if kind is XMLNode:
                cell = cell.value
                kind = cell.__class__
            if kind not in _ATOM_CLASSES:
                if isinstance(cell, XMLNode):
                    cell = cell.value
                if cell is None:
                    continue
                if not isinstance(cell, _ATOMS):
                    foreign += 1
                    continue
            append(cell)
            if isinstance(cell, str):
                strings += 1
        self.rows += sign * len(cells)
        self.non_null += sign * len(atoms)
        self.foreign += sign * foreign
        self.strings += sign * strings
        values = self.values
        if strings:
            self.histogram = None
        histogram = self.histogram
        if sign > 0 and histogram is None:
            get = values.get
            for cell in atoms:
                values[cell] = get(cell, 0) + 1
            return
        for cell in atoms:
            left = values.get(cell, 0) + sign
            if left:
                values[cell] = left
            else:
                del values[cell]
            if histogram is not None:
                number = float(cell)
                low, high, buckets = histogram
                if number < low or number > high or (
                    not left and (number == low or number == high)
                ):
                    histogram = None
                else:
                    buckets[_bucket(number, low, high)] += sign
        self.histogram = histogram

    def entry(self) -> Optional[dict]:
        """The column's statistics entry, or ``None`` if unobservable.

        A plain dict of numbers and atoms:

        ``sampled``    rows counted (nulls included) — every row
        ``non_null``   rows with a real value
        ``distinct``   distinct non-null values
        ``common``     value → count, present when distinct ≤ the common limit
        ``numeric``    ``{"min", "max", "counts"}`` equi-width histogram,
                       present otherwise when every non-null value is numeric
        """
        if self.foreign:
            return None
        values = self.values
        entry: dict = {
            "sampled": self.rows,
            "non_null": self.non_null,
            "distinct": len(values),
        }
        if len(values) <= _COMMON_VALUE_LIMIT:
            entry["common"] = dict(values)
            self.histogram = None
        elif self.strings:
            self.histogram = None
        else:
            if self.histogram is None:
                self.histogram = _histogram(values)
            low, high, buckets = self.histogram
            entry["numeric"] = {"min": low, "max": high, "counts": list(buckets)}
        return entry


def _bucket(number: float, low: float, high: float) -> int:
    """The equi-width bucket of ``number`` in a ``[low, high]`` histogram."""
    if high > low:
        width = (high - low) / _HISTOGRAM_BUCKETS
        return min(int((number - low) / width), _HISTOGRAM_BUCKETS - 1)
    return 0


def _histogram(values: dict) -> list:
    """``[min, max, bucket counts]`` of a numeric value multiset."""
    numbers = [(float(value), count) for value, count in values.items()]
    low = min(number for number, _ in numbers)
    high = max(number for number, _ in numbers)
    buckets = [0] * _HISTOGRAM_BUCKETS
    for number, count in numbers:
        buckets[_bucket(number, low, high)] += count
    return [low, high, buckets]


def _histogram_matches(numeric: dict, formula: "ValueFormula") -> Optional[float]:
    """Estimated matching rows from an equi-width histogram.

    Sums, over the formula's normal-form intervals, each bucket's count
    scaled by its fractional overlap with the interval — the textbook
    equi-width estimate under a dense-domain assumption (open/closed
    endpoint flags are ignored; at histogram resolution they are noise).
    String intervals contribute nothing (every histogrammed value is
    numeric, and numbers sort before strings in the formula domain).
    Returns ``None`` if the formula has no intervals a histogram can speak
    about (pure string predicates over a numeric column estimate at zero —
    a 0.0 return, not ``None``).
    """
    low, high = numeric["min"], numeric["max"]
    counts = numeric["counts"]
    total = sum(counts)
    if high <= low:
        # degenerate single-value histogram
        return float(total) if formula.evaluate(low) else 0.0
    width = (high - low) / len(counts)
    matched = 0.0
    for low_key, _low_closed, high_key, high_closed in formula.interval_bounds():
        if low_key is not None and low_key[0] == 1:
            # interval lies entirely in string space
            continue
        start = low if low_key is None else float(low_key[1])
        if high_key is None or high_key[0] == 1:
            stop = high
            stop_closed = True
        else:
            stop = float(high_key[1])
            stop_closed = high_closed
        start = max(start, low)
        stop = min(stop, high)
        if stop < start or (stop == start and not stop_closed and start != low):
            continue
        for position, count in enumerate(counts):
            bucket_low = low + position * width
            bucket_high = bucket_low + width
            overlap = min(stop, bucket_high) - max(start, bucket_low)
            if overlap > 0:
                matched += count * min(overlap / width, 1.0)
            elif overlap == 0 and start == stop and bucket_low <= start <= bucket_high:
                # a point probe inside this bucket: assume uniform spread
                matched += count / max(width * len(counts), 1.0)
    return matched
