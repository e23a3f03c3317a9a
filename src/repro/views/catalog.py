"""An indexed catalog of materialised views for workload-scale rewriting.

The seed rewriting search treats the view set as an opaque list: for every
query it re-copies every view pattern, re-computes its associated summary
paths (an ``O(|p| * |S|^2)`` dynamic program) and only then applies the
Prop. 3.4 usefulness test.  Over a workload of hundreds of queries against
hundreds of views, that per-pair work dominates everything else.

A :class:`ViewCatalog` does the query-independent part of that work exactly
once per view and indexes the results two ways:

* **summary-node hit sets** — an inverted index from every summary node
  number to the views with a path-related (equal / ancestor / descendant)
  non-root node; a lookup over the query's target paths yields precisely the
  views Proposition 3.4 would keep, without touching the others
  (:meth:`candidate_positions`),
* **offered attributes** — which views can supply a given attribute on a
  given summary path, counting both materialised and lazily derivable
  columns (:meth:`views_with_attribute`).

For every surviving view, :meth:`initial_candidates` hands the search a
fresh :class:`~repro.rewriting.candidates.RewriteCandidate` cloned from a
pre-annotated prototype, so no per-query path annotation is needed for the
views themselves.  The query-*dependent* pre-processing (targeted C-attribute
unfolding and the attribute-feasibility check of Prop. 3.7) intentionally
stays in the search: it depends on the query's paths and cannot be hoisted
into the catalog without changing results.
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
    """One catalogued view: its pre-annotated prototype candidate and keys."""

    __slots__ = (
        "view",
        "candidate",
        "hits",
        "related_hits",
        "attributes_by_path",
        "node_offers",
    )

    def __init__(
        self, view: MaterializedView, candidate: RewriteCandidate, index: SummaryIndex
    ):
        self.view = view
        self.candidate = candidate
        hits: set[int] = set()
        attributes_by_path: dict[int, set[str]] = {}
        node_offers: list[tuple[frozenset[int], frozenset[str]]] = []
        for node in candidate.pattern.nodes():
            paths = node.annotated_paths or frozenset()
            if not paths:
                continue
            if node.parent is not None:
                hits |= paths
            available = candidate.available_attributes(node)
            if available:
                for number in paths:
                    attributes_by_path.setdefault(number, set()).update(available)
                node_offers.append((frozenset(paths), frozenset(available)))
        related: set[int] = set(hits)
        for number in hits:
            related |= index.ancestors(number)
            related |= index.descendants(number)
        self.hits = frozenset(hits)
        self.related_hits = frozenset(related)
        self.attributes_by_path = {
            number: frozenset(attrs) for number, attrs in attributes_by_path.items()
        }
        # per-node (paths, attributes) pairs: unlike attributes_by_path this
        # keeps same-node correlation, which Prop. 3.7 needs (the attributes
        # must all come from ONE pattern node on a compatible path)
        self.node_offers = tuple(node_offers)

    def instantiate(self) -> RewriteCandidate:
        """A fresh candidate clone the search may annotate and transform."""
        return self.candidate.clone()


class ViewCatalog:
    """Query-independent indexes over a fixed view set and summary.

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
        index keys) this catalog has built over its lifetime.  The
        incremental-maintenance contract is observable here: adding or
        removing one view among N must bump this by at most one, never N —
        the other entries are patched around, not rebuilt."""
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
        """(Re)build the inverted indexes from the entry list."""
        self._by_related_path: dict[int, list[int]] = {}
        self._by_name: dict[str, int] = {}
        self._by_path_attribute: dict[tuple[int, str], list[int]] = {}
        for position, entry in enumerate(self._entries):
            self._by_name.setdefault(entry.view.name, position)
            for number in entry.related_hits:
                self._by_related_path.setdefault(number, []).append(position)
            for number, attributes in entry.attributes_by_path.items():
                for attribute in attributes:
                    self._by_path_attribute.setdefault(
                        (number, attribute), []
                    ).append(position)

    # ------------------------------------------------------------------ #
    # incremental maintenance (view DDL)
    # ------------------------------------------------------------------ #
    def add_view(self, view: MaterializedView) -> None:
        """Catalogue one more view by patching the indexes in place.

        Only the new view's entry is built (one prototype annotation); the
        existing entries and their index postings are untouched.  The cached
        statistics snapshot, when already built, is extended with the new
        view instead of being recomputed.
        """
        if view.name in self._by_name:
            raise ReproError(f"a view named {view.name!r} is already catalogued")
        entry = self._build_entry(view)
        position = len(self._entries)
        self.views.append(view)
        self._entries.append(entry)
        self._by_name[view.name] = position
        for number in entry.related_hits:
            self._by_related_path.setdefault(number, []).append(position)
        for number, attributes in entry.attributes_by_path.items():
            for attribute in attributes:
                self._by_path_attribute.setdefault((number, attribute), []).append(
                    position
                )
        if self._statistics is not None:
            self._statistics.observe_annotated(view, entry.candidate.pattern)

    def remove_view(self, name: str) -> None:
        """De-catalogue a view by patching the indexes in place.

        The view's postings are dropped and later positions shifted down —
        pure index surgery, identical to what a from-scratch rebuild over
        the remaining views would produce (the entry list keeps its order),
        but without re-annotating a single surviving entry.
        """
        try:
            position = self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown view {name!r}") from None
        del self.views[position]
        del self._entries[position]
        for postings_by_key in (self._by_related_path, self._by_path_attribute):
            empty = []
            for key, postings in postings_by_key.items():
                postings[:] = [
                    p - 1 if p > position else p for p in postings if p != position
                ]
                if not postings:
                    empty.append(key)
            for key in empty:
                del postings_by_key[key]
        del self._by_name[name]
        for other, p in self._by_name.items():
            if p > position:
                self._by_name[other] = p - 1
        if self._statistics is not None:
            self._statistics.forget_view(name)

    # ------------------------------------------------------------------ #
    # indexed lookups
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.views)

    def views_with_attribute(self, number: int, attribute: str) -> list[MaterializedView]:
        """Views offering ``attribute`` (materialised or derivable) on summary
        node ``number`` — before any query-directed content unfolding."""
        return [
            self.views[position]
            for position in self._by_path_attribute.get((number, attribute), ())
        ]

    def views_supplying(
        self, numbers: Iterable[int], attributes: Iterable[str]
    ) -> set[str]:
        """Names of views with one prototype node offering *all* of
        ``attributes`` on a summary path in ``numbers`` (Prop. 3.7).

        The inverted ``views_with_attribute`` index narrows the candidates
        (a view must offer every attribute somewhere on a compatible path)
        and the per-node offers then enforce that the attributes come from
        a single pattern node — the condition a rewriting's output column
        actually needs.  Content unfolding and virtual IDs can only *add*
        derivable attributes later, so membership here is a sound
        fast-accept, never a rejection oracle on its own.
        """
        numbers = frozenset(numbers)
        required = frozenset(attributes) or frozenset({"ID"})
        positions: Optional[set[int]] = None
        for attribute in required:
            offering: set[int] = set()
            for number in numbers:
                offering.update(self._by_path_attribute.get((number, attribute), ()))
            positions = offering if positions is None else positions & offering
            if not positions:
                return set()
        names: set[str] = set()
        for position in positions or ():
            entry = self._entries[position]
            for paths, available in entry.node_offers:
                if paths & numbers and required <= available:
                    names.add(entry.view.name)
                    break
        return names

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
            yield entry.view, entry.instantiate()

    def __repr__(self) -> str:
        return (
            f"<ViewCatalog views={len(self.views)} "
            f"indexed_paths={len(self._by_related_path)}>"
        )
