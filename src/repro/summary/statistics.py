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
from repro.xmltree.node import XMLDocument, XMLNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.patterns.pattern import TreePattern
    from repro.patterns.predicates import ValueFormula
    from repro.views.view import MaterializedView

__all__ = ["SummaryStatistics", "Statistics", "summarize"]

# per-column value statistics (observe_view on materialised extents): cap
# the sampled rows, the equi-width histogram resolution, and the distinct
# count below which exact per-value frequencies are kept instead
_COLUMN_SAMPLE_LIMIT = 4096
_HISTOGRAM_BUCKETS = 16
_COMMON_VALUE_LIMIT = 64


@dataclass(frozen=True)
class SummaryStatistics:
    """One row of Table 1."""

    document_name: str
    document_size: int
    summary_size: int
    strong_edges: int
    one_to_one_edges: int
    max_depth: int

    def as_row(self) -> dict[str, object]:
        """Dictionary form, convenient for tabular printing."""
        return {
            "Doc.": self.document_name,
            "Size (nodes)": self.document_size,
            "|S|": self.summary_size,
            "nS": self.strong_edges,
            "n1": self.one_to_one_edges,
            "depth": self.max_depth,
        }


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
    dictionaries of numbers: picklable, so a catalog snapshot persists
    them with the session.
    """

    def __init__(
        self,
        summary: Summary,
        views: Iterable["MaterializedView"] = (),
    ):
        self.summary_name = summary.name
        # kept for lazy pattern annotation in observe_view; snapshots that
        # already contain the summary object share it through pickle's memo
        self._summary = summary
        self._resync_base_statistics()
        self._view_rows: dict[str, float] = {}
        self._view_exact: dict[str, bool] = {}
        self._view_sorted: dict[str, Optional[str]] = {}
        self._view_columns: dict[str, dict[str, dict]] = {}
        for view in views:
            self.observe_view(view)

    def _resync_base_statistics(self) -> None:
        """(Re)derive the per-path / per-label counts from the summary."""
        summary = self._summary
        self._instances = {}
        self._depths = {}
        self._label_instances = {}
        total = 0
        weighted_depth = 0
        internal = 0
        for node in summary.iter_nodes():
            self._instances[node.number] = node.instance_count
            self._depths[node.number] = node.depth
            self._label_instances[node.label] = (
                self._label_instances.get(node.label, 0) + node.instance_count
            )
            total += node.instance_count
            weighted_depth += node.instance_count * node.depth
            if node.children:
                internal += node.instance_count
        self.total_instances = max(total, 1)
        self.average_depth = (
            weighted_depth / total if total else float(summary.max_depth)
        )
        # average number of children per *internal* instance: every non-root
        # instance is the child of an instance on a summary path that has
        # children, so this is (non-root instances) / (internal instances)
        root_count = summary.root.instance_count or 1
        self.average_fanout = max(
            1.0, (self.total_instances - root_count) / max(internal, 1)
        )

    def resync_summary(
        self, changed_views: Iterable["MaterializedView"] = ()
    ) -> None:
        """Refresh the base statistics after a live document mutation.

        The incremental-maintenance hook the session layer calls instead of
        rebuilding the whole statistics object: the summary has already
        been updated in place (:meth:`Summary.observe_insert` /
        ``observe_delete``), so the per-path counts are re-indexed from it
        — O(|S|), no document pass — and the maintained extents whose rows
        changed are re-observed for exact sizes.  Everything recorded about
        *unchanged* views stays as is.
        """
        self._resync_base_statistics()
        for view in changed_views:
            self.observe_view(view)

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
    @classmethod
    def with_annotated_views(
        cls,
        summary: Summary,
        pairs: Iterable[tuple["MaterializedView", "TreePattern"]],
    ) -> "Statistics":
        """Build statistics over (view, annotated pattern) pairs.

        Same extent policy as :meth:`observe_view` — exact counts for
        materialised views, path-based estimates otherwise — but taking
        *pre-annotated* patterns, so callers that already hold them (the
        catalog's prototype entries) skip the per-view annotation copy.
        """
        statistics = cls(summary)
        for view, pattern in pairs:
            statistics.observe_annotated(view, pattern)
        return statistics

    def observe_annotated(
        self, view: "MaterializedView", pattern: "TreePattern"
    ) -> None:
        """Record one view using its already-annotated pattern.

        The single-view form of :meth:`with_annotated_views`, used by the
        incremental catalog maintenance path: adding a view to a built
        catalog updates the cached statistics in place instead of
        rebuilding the whole snapshot.
        """
        if view.is_materialized:
            self.observe_view(view)
        else:
            self.set_view_rows(
                view.name, self.estimate_pattern_rows(pattern), exact=False
            )
            self._view_sorted[view.name] = view.dewey_sort_column()

    def forget_view(self, name: str) -> None:
        """Drop every recorded fact about the named view (missing is fine).

        The removal counterpart of :meth:`observe_view` /
        :meth:`observe_annotated` — incremental catalog maintenance patches
        a dropped view out of the statistics instead of rebuilding them.
        """
        self._view_rows.pop(name, None)
        self._view_exact.pop(name, None)
        self._view_sorted.pop(name, None)
        getattr(self, "_view_columns", {}).pop(name, None)

    def observe_view(self, view: "MaterializedView") -> None:
        """Record a view's extent size (exact when materialised).

        Unmaterialised views are estimated from associated summary paths;
        raw view patterns are never annotated, so a throwaway copy is
        annotated here — without this, every unmaterialised view would
        silently price at the 1-row floor."""
        if view.is_materialized:
            self._view_rows[view.name] = float(max(len(view.relation), 1))
            self._view_exact[view.name] = True
            self._view_sorted[view.name] = view.relation.sorted_by
            self._observe_columns(view)
        else:
            from repro.canonical.model import annotate_paths

            pattern = annotate_paths(view.pattern.copy(), self._summary)
            self._view_rows[view.name] = self.estimate_pattern_rows(pattern)
            self._view_exact[view.name] = False
            self._view_sorted[view.name] = view.dewey_sort_column()

    def _observe_columns(self, view: "MaterializedView") -> None:
        """Record per-column value statistics of a materialised extent.

        For each column holding orderable atoms (bool/int/float/str after
        content-reference unwrapping) a bounded sample — every row up to
        :data:`_COLUMN_SAMPLE_LIMIT`, a fixed stride beyond — yields a
        distinct count, plus either exact per-value frequencies (distinct ≤
        :data:`_COMMON_VALUE_LIMIT`) or, for all-numeric columns, an
        equi-width histogram with :data:`_HISTOGRAM_BUCKETS` buckets.  A
        column with any non-atom value (structural IDs, nested relations,
        content subtrees) gets no entry at all — its absence doubles as the
        cost model's indexability gate.
        """
        relation = view.relation
        rows = relation.rows
        stride = max(1, len(rows) // _COLUMN_SAMPLE_LIMIT)
        sample = rows if stride == 1 else rows[::stride]
        columns: dict[str, dict] = {}
        for position, column in enumerate(relation.columns):
            entry = _observe_column_values(row[position] for row in sample)
            if entry is not None:
                columns[column.name] = entry
        self._view_columns[view.name] = columns

    def view_column_stats(self, view: str, column: str) -> Optional[dict]:
        """The recorded value statistics of one extent column, if any.

        ``None`` means the column was never observed or holds values the
        order-based estimators (and value indexes) cannot handle.
        ``getattr`` guards statistics unpickled from older snapshots.
        """
        return getattr(self, "_view_columns", {}).get(view, {}).get(column)

    def column_selectivity(
        self, view: str, column: str, formula: "ValueFormula"
    ) -> Optional[float]:
        """Estimated fraction of extent rows satisfying ``formula``.

        Exact (up to sampling) over the common-value table when the column
        is low-cardinality; a uniform-per-distinct-value estimate for point
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

    def view_sorted_column(self, name: str) -> Optional[str]:
        """The column the named view's extent is Dewey-sorted on, if any.

        Exact for observed views (materialised extents report their actual
        ``sorted_by`` annotation; unmaterialised ones their declared
        :meth:`~repro.views.view.MaterializedView.dewey_sort_column`);
        ``None`` for unknown views — the cost model then falls back to the
        first-ID-column naming convention.  ``getattr`` guards statistics
        unpickled from snapshots written before this field existed.
        """
        return getattr(self, "_view_sorted", {}).get(name)

    def view_rows_exact(self, name: str) -> bool:
        """True iff :meth:`view_rows` reports a materialised row count."""
        return self._view_exact.get(name, False)

    def set_view_rows(self, name: str, rows: float, exact: bool = True) -> None:
        """Override the recorded extent size (used by snapshots / tests)."""
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


def _observe_column_values(values) -> Optional[dict]:
    """One column's value statistics, or ``None`` if unobservable.

    The returned entry is a plain dict of numbers and atoms (picklable, so
    catalog snapshots persist it):

    ``sampled``    rows examined (nulls included)
    ``non_null``   rows with a real value
    ``distinct``   distinct non-null values in the sample
    ``common``     value → count, present when distinct ≤ the common limit
    ``numeric``    ``{"min", "max", "counts"}`` equi-width histogram,
                   present when every non-null value is numeric
    """
    sampled = 0
    counts: dict = {}
    numeric_values: Optional[list[float]] = []
    for value in values:
        sampled += 1
        if isinstance(value, XMLNode):
            value = value.value
        if value is None:
            continue
        if not isinstance(value, (bool, int, float, str)):
            return None
        counts[value] = counts.get(value, 0) + 1
        if numeric_values is not None:
            if isinstance(value, (bool, int, float)):
                numeric_values.append(float(value))
            else:
                numeric_values = None
    entry: dict = {
        "sampled": sampled,
        "non_null": sum(counts.values()),
        "distinct": len(counts),
    }
    if len(counts) <= _COMMON_VALUE_LIMIT:
        entry["common"] = counts
    elif numeric_values:
        low, high = min(numeric_values), max(numeric_values)
        buckets = [0] * _HISTOGRAM_BUCKETS
        if high > low:
            width = (high - low) / _HISTOGRAM_BUCKETS
            for number in numeric_values:
                position = min(int((number - low) / width), _HISTOGRAM_BUCKETS - 1)
                buckets[position] += 1
        else:
            buckets[0] = len(numeric_values)
        entry["numeric"] = {"min": low, "max": high, "counts": buckets}
    return entry


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
