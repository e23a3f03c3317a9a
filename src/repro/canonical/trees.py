"""Canonical tree data structures.

A canonical tree is a labelled tree whose nodes each reference the summary
node they were derived from and carry a value formula (Section 4.2: regular
labelled trees are the special case where the formula is ``v = value``).
Canonical trees expose the same navigation interface as document and summary
nodes, so pattern evaluation works on them unchanged.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.patterns.predicates import ValueFormula
from repro.patterns.semantics import TreeIndex
from repro.summary.node import SummaryNode

__all__ = ["CanonicalNode", "CanonicalTree"]


class CanonicalNode:
    """One node of a canonical tree.

    Attributes
    ----------
    label:
        Element label (copied from the summary node).
    summary_node:
        The summary node this canonical node is derived from.
    formula:
        The value formula decorating the node (``true`` unless the pattern
        node mapped here carried a predicate).
    pattern_node_ids:
        ``id()`` values of the pattern nodes whose embedding image this node
        is (empty for chain / strong-closure filler nodes).
    """

    __slots__ = (
        "label", "summary_node", "formula", "children", "parent",
        "pattern_node_ids", "value", "frozen_key",
    )

    def __init__(
        self,
        summary_node: SummaryNode,
        formula: Optional[ValueFormula] = None,
    ):
        self.label = summary_node.label
        self.summary_node = summary_node
        self.formula = formula if formula is not None else ValueFormula.true()
        self.children: list[CanonicalNode] = []
        self.parent: Optional[CanonicalNode] = None
        self.pattern_node_ids: set[int] = set()
        # canonical nodes carry no concrete value; the attribute exists so the
        # generic evaluation code can read it safely.
        self.value = None
        # set on subtrees that are never modified again (shared strong
        # closures), so de-duplicating a tree does not re-derive their keys
        self.frozen_key: Optional[tuple] = None

    def add_child(self, child: "CanonicalNode") -> "CanonicalNode":
        """Attach ``child`` as the last child and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def iter_descendants(self) -> Iterator["CanonicalNode"]:
        """Yield strict descendants in pre-order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_subtree(self) -> Iterator["CanonicalNode"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        yield from self.iter_descendants()

    def structure_key(self) -> tuple:
        """Hashable structural key (summary number, formula, children keys)."""
        return self.frozen_key or (
            self.summary_node.number,
            self.formula.to_text(),
            tuple(child.structure_key() for child in self.children),
        )

    def __repr__(self) -> str:
        formula_text = self.formula.to_text()
        suffix = "" if formula_text == "true" else f"{{{formula_text}}}"
        return f"<CanonicalNode {self.label}#{self.summary_node.number}{suffix}>"


class CanonicalTree:
    """A canonical tree together with its (ordered) return nodes.

    ``return_nodes[i]`` is the canonical node playing the role of the
    pattern's ``i``-th return node, or ``None`` when the corresponding
    optional branch was erased (Section 4.3).
    """

    def __init__(
        self,
        root: CanonicalNode,
        return_nodes: Sequence[Optional[CanonicalNode]],
    ):
        self.root = root
        self.return_nodes: tuple[Optional[CanonicalNode], ...] = tuple(return_nodes)
        self._index: Optional[TreeIndex] = None

    @property
    def index(self) -> TreeIndex:
        """The pre-order index pattern evaluation on this tree reads.

        Built once and kept with the tree, so it lives exactly as long as the
        canonical-model memo holds the tree: ``clear_containment_cache()``
        flushes both."""
        if self._index is None:
            self._index = TreeIndex(self.root)
        return self._index

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of nodes in the canonical tree."""
        return sum(1 for _ in self.root.iter_subtree())

    def return_paths(self) -> tuple[Optional[int], ...]:
        """Summary numbers of the return nodes (``None`` for erased ones)."""
        return tuple(
            node.summary_node.number if node is not None else None
            for node in self.return_nodes
        )

    def nodes(self) -> list[CanonicalNode]:
        """All nodes in pre-order."""
        return list(self.root.iter_subtree())

    def key(self) -> tuple:
        """Hashable key used to de-duplicate canonical trees.

        Two embeddings yielding the same tree shape, formulas and return
        positions are considered the same canonical tree (Section 2.4 notes
        distinct embeddings may yield identical trees).
        """
        return (self.root.structure_key(), self._return_key())

    def _return_key(self) -> tuple:
        nodes = self.nodes()
        positions = []
        for return_node in self.return_nodes:
            positions.append(None if return_node is None else nodes.index(return_node))
        return tuple(positions)

    def __repr__(self) -> str:
        return f"<CanonicalTree size={self.size} returns={self.return_paths()}>"
