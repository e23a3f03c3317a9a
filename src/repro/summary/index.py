"""Fast relationship queries between summary nodes.

The rewriting algorithm constantly asks "can these two pattern nodes denote
the same document node / a parent / an ancestor?", which reduces to
relationships between their associated summary nodes (Definition 2.1).  A
:class:`SummaryIndex` pre-computes the ancestor sets of every summary node so
these questions are O(1) per pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Iterable, Optional

from repro.summary.node import SummaryNode

if TYPE_CHECKING:  # pragma: no cover - dataguide imports this module
    from repro.summary.dataguide import Summary

__all__ = ["SummaryIndex"]

_EMPTY: frozenset[int] = frozenset()


class SummaryIndex:
    """Ancestor / descendant / depth / label index over a summary's node numbers.

    An index describes one summary *shape*; :attr:`Summary.index` hands out
    the shared instance and drops it when a mutation adds or removes a node.
    """

    def __init__(self, summary: "Summary"):
        self.summary = summary
        self._ancestors: dict[int, frozenset[int]] = {}
        self._parent: dict[int, Optional[int]] = {}
        self._children: dict[int, frozenset[int]] = {}
        by_label: dict[str, set[int]] = {}
        below: dict[int, set[int]] = {}
        for node in summary.iter_nodes():  # pre-order: ancestors come first
            ancestors = frozenset(a.number for a in node.iter_ancestors())
            self._ancestors[node.number] = ancestors
            self._parent[node.number] = node.parent.number if node.parent else None
            self._children[node.number] = frozenset(c.number for c in node.children)
            by_label.setdefault(node.label, set()).add(node.number)
            below[node.number] = set()
            for ancestor in ancestors:
                below[ancestor].add(node.number)
        self._descendants = {number: frozenset(ns) for number, ns in below.items()}
        self._by_label = {label: frozenset(ns) for label, ns in by_label.items()}
        self._all = frozenset(self._ancestors)

    # ------------------------------------------------------------------ #
    def node(self, number: int) -> SummaryNode:
        """The summary node with this number."""
        return self.summary.node_by_number(number)

    def depth(self, number: int) -> int:
        """Depth of the summary node (root has depth 1)."""
        return len(self._ancestors[number]) + 1

    def parent(self, number: int) -> Optional[int]:
        """Number of the parent summary node, or None for the root."""
        return self._parent[number]

    def children(self, number: int) -> frozenset[int]:
        """Numbers of the children of the summary node."""
        return self._children[number]

    def ancestors(self, number: int) -> frozenset[int]:
        """Numbers of all strict ancestors of the summary node."""
        return self._ancestors[number]

    def descendants(self, number: int) -> frozenset[int]:
        """Numbers of all strict descendants of the summary node."""
        return self._descendants[number]

    def numbers_with_label(self, label: str) -> frozenset[int]:
        """Numbers of all summary nodes carrying ``label`` (empty if none).

        The label→nodes map lets catalog and rewriting code resolve a
        pattern-node label to candidate summary nodes without scanning the
        whole summary (``'*'`` matches every node)."""
        if label == "*":
            return self._all
        return self._by_label.get(label, _EMPTY)

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """True iff ``ancestor`` is a strict ancestor of ``descendant``."""
        return ancestor in self._ancestors[descendant]

    # ------------------------------------------------------------------ #
    # set-level helpers used during rewriting
    # ------------------------------------------------------------------ #
    # (arguments are path *sets* — annotations are frozensets already, so
    # none of these copies its input)
    def any_equal(self, left: AbstractSet[int], right: AbstractSet[int]) -> bool:
        """True iff the two path sets intersect."""
        return not left.isdisjoint(right)

    def any_parent(self, uppers: AbstractSet[int], lowers: Iterable[int]) -> bool:
        """True iff some upper path is the parent of some lower path."""
        parent = self._parent
        return any(parent[low] in uppers for low in lowers)

    def any_ancestor(self, uppers: AbstractSet[int], lowers: Iterable[int]) -> bool:
        """True iff some upper path is a strict ancestor of some lower path."""
        ancestors = self._ancestors
        return any(not uppers.isdisjoint(ancestors[low]) for low in lowers)

    def constant_depth_difference(
        self, upper_paths: Iterable[int], lower_paths: Iterable[int]
    ) -> Optional[int]:
        """The unique depth difference between related (upper, lower) path
        pairs, or None when the pairs disagree or none are related.

        This is the "same vertical distance" condition of the virtual-ID
        pre-processing (Section 4.6).
        """
        differences: set[int] = set()
        upper_set = set(upper_paths)
        for low in lower_paths:
            for up in upper_set & self._ancestors[low]:
                differences.add(len(self._ancestors[low]) - len(self._ancestors[up]))
        if len(differences) == 1:
            return differences.pop()
        return None

    def chain_labels(self, ancestor: int, descendant: int) -> list[str]:
        """Labels strictly between ``ancestor`` and ``descendant`` plus the
        descendant's own label (top-down); used to build navigation steps."""
        labels: list[str] = []
        node = self.node(descendant)
        while node is not None and node.number != ancestor:
            labels.append(node.label)
            node = node.parent
        if node is None:
            raise ValueError(f"{ancestor} is not an ancestor of {descendant}")
        labels.reverse()
        return labels
