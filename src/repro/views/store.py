"""A named collection of materialised views."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import ReproError
from repro.views.view import MaterializedView
from repro.xmltree.node import XMLDocument

__all__ = ["ViewSet"]


class ViewSet:
    """A mapping-like store of materialised views.

    The store is handed directly to :class:`~repro.algebra.execution.PlanExecutor`
    (it resolves view names used by ``ViewScan`` operators) and to the
    rewriting algorithm (which iterates over the view definitions).

    Two counters tell consumers of derived state what went stale.  A
    rewriting is a function of the query, the view *definitions* and the
    summary — never of the instance counts — so what is derived from
    definitions (the catalog, cached plans, prepared queries) watches
    :attr:`version`, and what
    is derived from the stored rows (the planner's cost model, the rank of
    a cached plan) watches :attr:`data_version`.
    """

    def __init__(self, views: Iterable[MaterializedView] = ()):
        self._views: dict[str, MaterializedView] = {}
        self._version = 0
        self._data_version = 0
        for view in views:
            self.add(view)

    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """The *definition* version: which rewritings exist may have changed.

        Moves on every add / remove and on a document mutation that
        changed the summary's shape or edge flags
        (``touch(definitions_changed=True)``); stays put across a write
        that only moved instance counts.  The
        :class:`~repro.views.catalog.ViewCatalog` cached by ``Rewriter``,
        the plan cache and prepared queries compare it to detect that their
        state is stale."""
        return self._version

    @property
    def data_version(self) -> int:
        """The *data* version: some extent, count or statistic may have changed.

        Moves on every add / remove / :meth:`touch` — so it moves whenever
        :attr:`version` does.  The planner's cost model keys on it."""
        return self._data_version

    def add(self, view: MaterializedView) -> MaterializedView:
        """Add a view; names must be unique within the set."""
        if view.name in self._views:
            raise ReproError(f"a view named {view.name!r} already exists")
        self._views[view.name] = view
        self._version += 1
        self._data_version += 1
        return view

    def remove(self, name: str) -> None:
        """Remove a view by name."""
        if self._views.pop(name, None) is not None:
            self._version += 1
            self._data_version += 1

    def touch(self, definitions_changed: bool = False) -> int:
        """Record a document mutation; returns the new :attr:`data_version`.

        The live-document hook: a subtree insert or delete changes view
        *extents* (not the view set), so :attr:`data_version` always
        moves.  :attr:`version` moves with it only when the caller says
        the mutation could have changed which rewritings exist — the
        summary gained or lost a path, an edge flag flipped, or the
        summary had to be rebuilt; a count-only write leaves every cached
        plan in place.
        """
        self._data_version += 1
        if definitions_changed:
            self._version += 1
        return self._data_version

    def materialize_all(self, document: XMLDocument) -> None:
        """Materialise every view in the set over ``document``.

        Every extent comes back with the *sorted extent guarantee* of
        :meth:`~repro.views.view.MaterializedView.materialize`: views with a
        structural identifier scheme are stored in document order of their
        first ``ID`` column and annotated as such, which is what lets
        ``ViewScan`` feed the staircase merge join sort-free.
        """
        for view in self._views.values():
            view.materialize(document)

    def dewey_sort_columns(self) -> dict[str, Optional[str]]:
        """The sorted-extent guarantee, per view: name -> Dewey-sort column.

        ``None`` marks views whose extents carry no document order (opaque
        identifier schemes, or patterns without an ``ID`` column).
        """
        return {name: view.dewey_sort_column() for name, view in self._views.items()}

    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError as exc:
            raise KeyError(f"unknown view {name!r}") from exc

    def get(self, name: str, default: Optional[MaterializedView] = None):
        """Dictionary-style lookup."""
        return self._views.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __iter__(self) -> Iterator[MaterializedView]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    @property
    def names(self) -> list[str]:
        """All view names, in insertion order."""
        return list(self._views)

    def __repr__(self) -> str:
        return f"<ViewSet {self.names}>"
