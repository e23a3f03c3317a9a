"""An indexed catalog of materialised views for workload-scale rewriting.

The seed rewriting search treats the view set as an opaque list: for every
query it re-copies every view pattern, re-computes its associated summary
paths (an ``O(|p| * |S|^2)`` dynamic program) and only then applies the
Prop. 3.4 usefulness test.  Over a workload of hundreds of queries against
hundreds of views, that per-pair work dominates everything else.

A :class:`ViewCatalog` does the query-independent part of that work exactly
once per view and keeps one index over the results: an inverted index from
every summary node number to the views with a path-related (equal /
ancestor / descendant) non-root node.  A lookup over the query's target
paths yields precisely the views Proposition 3.4 would keep, without
touching the others (:meth:`candidate_positions`).

For every surviving view, :meth:`initial_candidates` hands the search a
fresh :class:`~repro.rewriting.candidates.RewriteCandidate` cloned from a
pre-annotated prototype, so no per-query path annotation is needed for the
views themselves.  The query-*dependent* pre-processing (targeted C-attribute
unfolding, virtual IDs and the attribute-feasibility check of Prop. 3.7)
stays in the search: it depends on the query's paths, and only the unfolded
candidates show every attribute a view can supply.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.canonical.model import annotate_paths
from repro.errors import ReproError
from repro.patterns.pattern import TreePattern
from repro.rewriting.candidates import RewriteCandidate, initial_candidate
from repro.summary.dataguide import Summary, SummaryDelta
from repro.summary.index import SummaryIndex
from repro.summary.statistics import Statistics
from repro.views.delta import ExtentChange
from repro.views.view import MaterializedView

__all__ = ["ViewCatalog"]


class _ViewEntry:
    """One catalogued view: its pre-annotated prototype candidate and the
    summary nodes its Prop. 3.4 postings go to."""

    __slots__ = ("view", "candidate", "related_hits")

    def __init__(
        self, view: MaterializedView, candidate: RewriteCandidate, index: SummaryIndex
    ):
        self.view = view
        self.candidate = candidate
        hits: set[int] = set()
        for node in candidate.pattern.nodes():
            if node.parent is not None and node.annotated_paths:
                hits |= node.annotated_paths
        related: set[int] = set(hits)
        for number in hits:
            related |= index.ancestors(number)
            related |= index.descendants(number)
        self.related_hits = frozenset(related)


class ViewCatalog:
    """The query-independent Prop. 3.4 index over a view set and summary.

    Parameters
    ----------
    summary:
        The structural summary the views and queries are interpreted under.
    views:
        The available views (any iterable of :class:`MaterializedView`).

    Example
    -------
    >>> from repro import MaterializedView, build_summary, parse_parenthesized
    >>> from repro import parse_pattern
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> summary = build_summary(doc)
    >>> views = [MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)]
    >>> catalog = ViewCatalog(summary, views)
    >>> len(catalog)
    1
    >>> catalog.statistics().view_rows("v")
    2.0
    """

    def __init__(self, summary: Summary, views: Iterable[MaterializedView]):
        self.summary = summary
        self.views: list[MaterializedView] = list(views)
        self._entries: list[_ViewEntry] = []
        self._statistics: Optional[Statistics] = None
        self.entry_build_count = 0
        """How many per-view entries (prototype candidate + annotation +
        postings) this catalog has built over its lifetime.  The
        incremental-maintenance contract is observable here: adding one
        view among N bumps this by one and removing one leaves it flat —
        the other entries are kept, never rebuilt."""
        for view in self.views:
            self._entries.append(self._build_entry(view))
        self._reindex()

    @property
    def index(self) -> SummaryIndex:
        """The summary's shared :class:`SummaryIndex`."""
        return self.summary.index

    def _build_entry(self, view: MaterializedView) -> _ViewEntry:
        """The query-independent per-view work: prototype + annotation."""
        candidate = initial_candidate(view)
        annotate_paths(candidate.pattern, self.summary)
        self.entry_build_count += 1
        return _ViewEntry(view, candidate, self.index)

    def _reindex(self) -> None:
        """(Re)build the name map and the Prop. 3.4 postings from the entry list."""
        self._by_related_path: dict[int, list[int]] = {}
        self._by_name: dict[str, int] = {}
        for position, entry in enumerate(self._entries):
            self._by_name.setdefault(entry.view.name, position)
            self._post(entry, position)

    def _post(self, entry: _ViewEntry, position: int) -> None:
        """Add the Prop. 3.4 postings of the entry at ``position``."""
        for number in entry.related_hits:
            self._by_related_path.setdefault(number, []).append(position)

    # ------------------------------------------------------------------ #
    # incremental maintenance (view DDL)
    # ------------------------------------------------------------------ #
    def add_view(self, view: MaterializedView) -> None:
        """Catalogue one more view.

        Only the new view's entry is built (one prototype annotation) and
        its postings appended; the existing entries are untouched.  The
        cached statistics snapshot, when already built, is extended with
        the new view instead of being recomputed.
        """
        if view.name in self._by_name:
            raise ReproError(f"a view named {view.name!r} is already catalogued")
        entry = self._build_entry(view)
        position = len(self._entries)
        self.views.append(view)
        self._entries.append(entry)
        self._by_name[view.name] = position
        self._post(entry, position)
        if self._statistics is not None:
            self._statistics.observe_annotated(view, entry.candidate.pattern)

    def remove_view(self, name: str) -> None:
        """De-catalogue a view.

        The entry is dropped and the postings are re-derived from the
        remaining entries (which keep their order), so the catalog is what
        a from-scratch build over the remaining views would produce —
        without re-annotating a single surviving entry.
        """
        try:
            position = self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown view {name!r}") from None
        del self.views[position]
        del self._entries[position]
        self._reindex()
        if self._statistics is not None:
            self._statistics.forget_view(name)

    def __len__(self) -> int:
        return len(self.views)

    def follow_write(
        self, delta: SummaryDelta, changed: Iterable[ExtentChange] = ()
    ) -> tuple[int, int]:
        """Move the cached statistics along a live document mutation.

        Only valid when the mutation preserved every entry's annotation
        (no summary-shape or edge-flag change — the caller,
        :meth:`~repro.rewriting.rewriter.Rewriter.notify_document_changed`,
        checks); see :meth:`Statistics.follow_write`, whose
        ``(spliced, reobserved)`` view counts are returned.  No-op when
        the statistics were never built.
        """
        if self._statistics is None:
            return 0, 0
        return self._statistics.follow_write(delta, changed)

    # ------------------------------------------------------------------ #
    # statistics snapshot
    # ------------------------------------------------------------------ #
    def statistics(self) -> Statistics:
        """A cardinality snapshot for the cost model (built once, cached).

        Materialised views report exact extent sizes; unmaterialised views
        are estimated from the summary's instance counts through their
        pre-annotated prototype patterns.  Derived state: a loaded session
        observes the same extents and prices plans identically.
        """
        if self._statistics is None:
            self._statistics = Statistics(self.summary)
            for entry in self._entries:
                self._statistics.observe_annotated(entry.view, entry.candidate.pattern)
        return self._statistics

    # ------------------------------------------------------------------ #
    # candidate generation
    # ------------------------------------------------------------------ #
    def candidate_positions(self, query: TreePattern) -> list[int]:
        """Positions of the views Prop. 3.4 keeps for ``query``.

        ``query`` must already be annotated with its associated paths.  The
        result is exactly the set the seed per-view scan computes (kept as
        the test reference ``tests/support/naive_pruning.py``) — a single-node query keeps every view, and otherwise a view
        survives iff one of its non-root paths is equal to, an ancestor of,
        or a descendant of one of the query's non-root paths — but it is
        found through the inverted index in ``O(|query paths|)`` instead of
        ``O(|views| * |pairs|)``.
        """
        if len(query.nodes()) == 1:
            return list(range(len(self.views)))
        targets: set[int] = set()
        for node in query.nodes():
            if node.parent is not None and node.annotated_paths:
                targets |= node.annotated_paths
        positions: set[int] = set()
        for number in targets:
            positions.update(self._by_related_path.get(number, ()))
        return sorted(positions)

    def initial_candidates(
        self, query: TreePattern
    ) -> Iterator[tuple[MaterializedView, RewriteCandidate]]:
        """Fresh, pre-annotated initial candidates for the surviving views."""
        for position in self.candidate_positions(query):
            entry = self._entries[position]
            yield entry.view, entry.candidate.clone()

    def __repr__(self) -> str:
        return (
            f"<ViewCatalog views={len(self.views)} "
            f"indexed_paths={len(self._by_related_path)}>"
        )
