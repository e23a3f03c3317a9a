"""The path-partitioned document store: rooted path → its nodes.

Every node of a document lies on exactly one *rooted simple path* (the
``/``-joined labels from the root, Section 2.3) — the summary is a strong
DataGuide over exactly these paths.  A :class:`PathStore` keeps, per path,
the nodes on it in document order: the paper's two-node seed tag views at
their finest grain, held as node references only.  It is an access path
bought with memory so that work follows the answer and not the data: a
``//tag`` step from the document root reads the few lists whose path ends
in ``tag`` instead of walking the whole tree.

The store is *derived*: :class:`~repro.xmltree.node.XMLDocument` fills it
in the pass that hands out Dewey IDs, splices it on every subtree insert /
delete, never pickles or logs it, and rebuilds it on first use after a
load.  Its keys double as the nodes' ``path`` strings — one string per
distinct path, shared by every node on it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xmltree.node import XMLNode

__all__ = ["PathStore"]

_document_order = attrgetter("dewey._components")


class PathStore:
    """Rooted path → the nodes on it, in document order; no empty lists."""

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: dict[str, list["XMLNode"]] = {}

    @classmethod
    def scan(cls, root: "XMLNode") -> "PathStore":
        """Rebuild the store of an already identified tree in one pass.

        Nodes are re-pointed at the store's key string for their path, so
        a document whose nodes each carried a private copy (an old pickle)
        shares one string per path afterwards.
        """
        store = cls()
        runs = store._runs
        for node in root.iter_subtree():
            run = runs.get(node.path)
            if run is None:
                runs[node.path] = [node]
            else:
                node.path = run[0].path
                run.append(node)
        return store

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def paths(self) -> list[str]:
        """Every path some node lies on, in first-appearance order."""
        return list(self._runs)

    def key(self, path: str) -> str:
        """The store's own string for ``path`` (``path`` itself if unknown)."""
        run = self._runs.get(path)
        return run[0].path if run else path

    def nodes(self, path: str) -> list["XMLNode"]:
        """The nodes on ``path`` in document order (a copy; ``[]`` if none)."""
        return list(self._runs.get(path, ()))

    def labelled(self, label: str) -> list["XMLNode"]:
        """Every node whose path ends in ``label``, merged in document order."""
        suffix = "/" + label
        runs = [run for path, run in self._runs.items() if path.endswith(suffix)]
        if len(runs) == 1:
            return list(runs[0])
        # the runs are sorted already: timsort merges them, it does not re-sort
        return sorted(chain.from_iterable(runs), key=_document_order)

    # ------------------------------------------------------------------ #
    # maintenance (XMLDocument only)
    # ------------------------------------------------------------------ #
    def splice_in(self, runs: dict[str, list["XMLNode"]]) -> None:
        """Add the nodes of one freshly identified subtree.

        ``runs`` maps each path of the subtree to its nodes there, in
        document order.  A subtree is one contiguous interval of document
        order, so each run goes in whole at one position: a single bisect
        per distinct path, whatever the document's size.
        """
        for path, new in runs.items():
            run = self._runs.get(path)
            if run is None:
                self._runs[path] = new
            else:
                at = bisect_left(run, _document_order(new[0]), key=_document_order)
                run[at:at] = new

    def splice_out(self, root: "XMLNode", counts: dict[str, int]) -> None:
        """Forget the subtree under ``root``: ``counts[path]`` nodes per path."""
        first = _document_order(root)
        for path, count in counts.items():
            run = self._runs[path]
            at = bisect_left(run, first, key=_document_order)
            del run[at : at + count]
            if not run:
                del self._runs[path]
