"""Public facade of the rewriting subsystem.

For application code, :class:`repro.Database` is the canonical entry point
these days — it owns the summary, the view catalog, the planner and the
executor, and adds prepared queries, ``EXPLAIN`` and incremental view DDL
on top of the machinery here.  ``Rewriter`` remains fully supported as the
rewriting-layer internal (and for code that genuinely only rewrites, never
executes); to rewrite, pick the cheapest plan and run it in one call, use
``Database.query`` or :meth:`repro.planning.Planner.answer`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Optional

from repro.algebra.execution import PlanExecutor
from repro.algebra.tuples import Relation
from repro.errors import RewritingError
from repro.patterns.pattern import TreePattern
from repro.rewriting.algorithm import (
    Rewriting,
    RewritingConfig,
    RewritingSearch,
    RewritingStatistics,
)
from repro.summary.dataguide import Summary
from repro.views.store import ViewSet
from repro.views.view import MaterializedView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.views.catalog import ViewCatalog

__all__ = ["Rewriter", "RewriteOutcome"]


class RewriteOutcome:
    """All rewritings found for one query, plus the search statistics."""

    def __init__(
        self,
        query: TreePattern,
        rewritings: list[Rewriting],
        statistics: RewritingStatistics,
    ):
        self.query = query
        self.rewritings = rewritings
        self.statistics = statistics

    @property
    def found(self) -> bool:
        """True iff at least one equivalent rewriting was found."""
        return bool(self.rewritings)

    @property
    def best(self) -> Rewriting:
        """The smallest rewriting found (fewest views, non-union preferred)."""
        if not self.rewritings:
            raise RewritingError(f"no rewriting found for {self.query.name!r}")
        return min(self.rewritings, key=lambda r: (r.is_union, len(r.views_used)))

    def __iter__(self):
        return iter(self.rewritings)

    def __len__(self) -> int:
        return len(self.rewritings)

    def __repr__(self) -> str:
        return (
            f"<RewriteOutcome query={self.query.name!r} "
            f"rewritings={len(self.rewritings)}>"
        )


class Rewriter:
    """Rewrites tree-pattern queries over a set of materialised views.

    Parameters
    ----------
    summary:
        The (enhanced) structural summary of the database.
    views:
        The available materialised views (a :class:`ViewSet` or any iterable
        of :class:`MaterializedView`).
    config:
        Optional :class:`RewritingConfig` tuning the search.
    use_catalog:
        When True (the default), searches run through a shared
        :class:`~repro.views.catalog.ViewCatalog`: views are pre-filtered by
        the catalog's inverted summary-path index and their annotated
        candidate prototypes are built once and reused across queries.  Set
        to False to force the per-query scan (used by the scaling benchmark
        as the naive baseline).  Results are identical either way.

    Example
    -------
    >>> from repro import MaterializedView, build_summary, parse_parenthesized
    >>> from repro import parse_pattern
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> summary = build_summary(doc)
    >>> views = [MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)]
    >>> rewriter = Rewriter(summary, views)
    >>> outcome = rewriter.rewrite(parse_pattern("site(//item[ID,V])", name="q"))
    >>> outcome.found
    True
    >>> sorted(outcome.best.views_used)
    ['v']
    >>> len(rewriter.execute(outcome.best))
    2
    """

    def __init__(
        self,
        summary: Summary,
        views: ViewSet | Iterable[MaterializedView],
        config: Optional[RewritingConfig] = None,
        use_catalog: bool = True,
    ):
        self.summary = summary
        self.views = views if isinstance(views, ViewSet) else ViewSet(views)
        self.config = config or RewritingConfig()
        self.use_catalog = use_catalog
        self._catalog: Optional["ViewCatalog"] = None
        self._catalog_version: Optional[int] = None
        self.search_totals = {"searches": 0, **RewritingStatistics().search_counters()}
        """Search-space counters summed over every :meth:`rewrite`
        (``Database.stats()["rewriting"]``)."""

    # ------------------------------------------------------------------ #
    @property
    def catalog(self) -> Optional["ViewCatalog"]:
        """The shared view catalog (built on first use, None when disabled).

        Rebuilt automatically when the underlying :class:`ViewSet`'s
        *definition* version moved since the catalog was built or last
        patched (``views.version``: view DDL, or a document mutation that
        changed the summary's shape or flags)."""
        if not self.use_catalog:
            return None
        if self._catalog is not None and self._catalog_version != self.views.version:
            self._catalog = None
        if self._catalog is None:
            from repro.views.catalog import ViewCatalog

            self._catalog_version = self.views.version
            self._catalog = ViewCatalog(self.summary, list(self.views))
        return self._catalog

    def invalidate_catalog(self) -> None:
        """Drop the cached catalog (it is also rebuilt automatically when
        views are added to / removed from the set)."""
        self._catalog = None

    def notify_view_added(self, view: MaterializedView) -> None:
        """Patch the cached catalog for a view just added to the view set.

        The incremental-maintenance hook :class:`repro.Database` calls from
        ``create_view``: instead of letting the version check drop and
        rebuild the whole catalog (the pre-session behaviour, O(all views)),
        the one new entry is built and the inverted indexes are patched in
        place (:meth:`ViewCatalog.add_view`).  Derived consumers — the
        planner's cost model (``views.data_version``) — refresh themselves
        from the *patched* catalog.
        No-op when the catalog was never built (nothing to patch).
        """
        if self._catalog is not None:
            self._catalog.add_view(view)
            self._catalog_version = self.views.version

    def notify_view_removed(self, name: str) -> None:
        """Patch the cached catalog for a view just removed from the set.

        Counterpart of :meth:`notify_view_added`, backed by
        :meth:`ViewCatalog.remove_view`.
        """
        if self._catalog is not None:
            self._catalog.remove_view(name)
            self._catalog_version = self.views.version

    def notify_document_changed(self, delta, changed=()) -> tuple[int, int]:
        """Refresh derived state after a live document mutation.

        ``delta`` is the :class:`~repro.summary.dataguide.SummaryDelta` the
        summary's own incremental maintenance returned, ``changed`` the
        :class:`~repro.views.delta.ExtentChange` of every materialised
        view whose extent the mutation touched.  Two regimes:

        * the mutation only moved instance counts
          (``delta.preserves_annotations``): every catalog entry — the
          annotated prototypes, the inverted summary-path indexes — is
          still exact and ``views.version`` did not move, so only the
          cached statistics follow the write, in place
          (``entry_build_count`` stays flat);
        * the mutation changed the summary's shape or edge flags: entry
          annotations and the summary index may now be wrong, so the whole
          cached catalog is dropped and rebuilt on next use (over the same
          in-place-maintained summary object).

        Returns the statistics' ``(spliced, reobserved)`` view counts.
        """
        if self._catalog is None:
            return 0, 0
        if delta is not None and delta.preserves_annotations:
            return self._catalog.follow_write(delta, changed)
        self.invalidate_catalog()
        return 0, 0

    @classmethod
    def from_catalog(
        cls, catalog: "ViewCatalog", config: Optional[RewritingConfig] = None
    ) -> "Rewriter":
        """Build a rewriter around an existing (e.g. loaded) catalog.

        The catalog's summary, views and pre-annotated prototypes are
        adopted as-is — nothing is re-derived.  ``Database.load`` rebuilds
        its rewriter from the saved catalog this way.
        """
        rewriter = cls(catalog.summary, catalog.views, config, use_catalog=True)
        rewriter._catalog = catalog
        rewriter._catalog_version = rewriter.views.version
        return rewriter

    # ------------------------------------------------------------------ #
    def rewrite(
        self, query: TreePattern, config: Optional[RewritingConfig] = None
    ) -> RewriteOutcome:
        """Search for S-equivalent rewritings of ``query``."""
        search = RewritingSearch(
            query,
            self.summary,
            list(self.views),
            config or self.config,
            catalog=self.catalog,
        )
        rewritings = search.run()
        self.search_totals["searches"] += 1
        for name, count in search.statistics.search_counters().items():
            self.search_totals[name] += count
        return RewriteOutcome(query, rewritings, search.statistics)

    def rewrite_many(
        self,
        queries: Iterable[TreePattern],
        config: Optional[RewritingConfig] = None,
    ) -> list[RewriteOutcome]:
        """Rewrite a whole workload, sharing preprocessing across queries.

        The catalog (summary index, per-view annotated candidate prototypes,
        Prop. 3.4 path index) is built once for the first query and reused by
        every subsequent one, and the process-wide containment memo turns
        repeated containment questions into cache hits.  The outcomes are
        exactly the outcomes :meth:`rewrite` produces query by query, in
        input order, all searched in the calling process.
        """
        return [self.rewrite(query, config) for query in queries]

    def rewrite_first(
        self, query: TreePattern
    ) -> Optional[Rewriting]:
        """Return the first rewriting found, or None."""
        outcome = self.rewrite(query, replace(self.config, stop_at_first=True))
        return outcome.rewritings[0] if outcome.found else None

    # ------------------------------------------------------------------ #
    def execute(self, rewriting: Rewriting) -> Relation:
        """Execute a rewriting's plan over the materialised views."""
        return PlanExecutor(self.views).execute(rewriting.plan)
