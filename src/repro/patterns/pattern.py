"""The extended tree-pattern AST.

A :class:`TreePattern` is a tree of :class:`PatternNode`.  Every non-root
node carries the *edge* connecting it to its parent: the axis (``/`` child or
``//`` descendant), an *optional* flag (dashed edges, Section 4.3) and a
*nested* flag (``n`` edges, Section 4.5).  Every node may carry

* a label from the document alphabet or ``*``,
* a value-predicate formula (Section 4.2),
* a set of stored attributes among ``ID``, ``L``, ``V``, ``C`` (Section 4.4),
* a plain *return* marker, used by purely conjunctive patterns whose output
  is a tuple of nodes rather than of stored attributes.

Return nodes are ordered in pattern pre-order, which fixes the arity and the
column order of the pattern's result.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import PatternError
from repro.patterns.predicates import ValueFormula

__all__ = ["Axis", "PatternNode", "TreePattern", "ATTRIBUTES"]

ATTRIBUTES = ("ID", "L", "V", "C")


class Axis(enum.Enum):
    """Edge axis: parent-child (``/``) or ancestor-descendant (``//``)."""

    CHILD = "/"
    DESCENDANT = "//"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class PatternNode:
    """One node of a tree pattern.

    Parameters
    ----------
    label:
        Element label or ``"*"``.
    axis:
        Axis of the edge from the parent (ignored / must be None on roots).
    optional:
        True iff the edge from the parent is optional (dashed).
    nested:
        True iff the edge from the parent is nested (``n``-labelled).
    attributes:
        Iterable of stored attributes among ``ID``, ``L``, ``V``, ``C``.
    predicate:
        Value-predicate formula; ``None`` means *true*.
    is_return:
        Marks a plain (conjunctive) return node.  Nodes with attributes are
        always return nodes, regardless of this flag.
    """

    __slots__ = (
        "label",
        "axis",
        "optional",
        "nested",
        "attributes",
        "predicate",
        "_return_flag",
        "children",
        "parent",
        "annotated_paths",
    )

    def __init__(
        self,
        label: str,
        axis: Optional[Axis] = None,
        optional: bool = False,
        nested: bool = False,
        attributes: Iterable[str] = (),
        predicate: Optional[ValueFormula] = None,
        is_return: bool = False,
    ):
        if not label:
            raise PatternError("pattern node labels must be non-empty")
        attrs = tuple(dict.fromkeys(a.upper() for a in attributes))
        for attr in attrs:
            if attr not in ATTRIBUTES:
                raise PatternError(
                    f"unknown attribute {attr!r}; expected one of {ATTRIBUTES}"
                )
        self.label = label
        self.axis = axis
        self.optional = bool(optional)
        self.nested = bool(nested)
        self.attributes: tuple[str, ...] = attrs
        self.predicate = predicate
        self._return_flag = bool(is_return)
        self.children: list[PatternNode] = []
        self.parent: Optional[PatternNode] = None
        # Set of summary node numbers this node may embed into; filled in by
        # repro.canonical.annotate_paths (Definition 2.1).
        self.annotated_paths: Optional[frozenset[int]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_child(
        self,
        label: str,
        axis: Axis = Axis.CHILD,
        optional: bool = False,
        nested: bool = False,
        attributes: Iterable[str] = (),
        predicate: Optional[ValueFormula] = None,
        is_return: bool = False,
    ) -> "PatternNode":
        """Create a child node, attach it, and return it."""
        child = PatternNode(
            label,
            axis=axis,
            optional=optional,
            nested=nested,
            attributes=attributes,
            predicate=predicate,
            is_return=is_return,
        )
        return self.attach(child)

    def attach(self, child: "PatternNode") -> "PatternNode":
        """Attach an existing (parent-less) node as the last child."""
        if child.parent is not None:
            raise PatternError("pattern node already has a parent")
        if child.axis is None:
            child.axis = Axis.CHILD
        child.parent = self
        self.children.append(child)
        return child

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def is_return(self) -> bool:
        """True iff this node contributes to the pattern's output."""
        return self._return_flag or bool(self.attributes)

    @is_return.setter
    def is_return(self, flag: bool) -> None:
        self._return_flag = bool(flag)

    @property
    def is_root(self) -> bool:
        """True iff the node has no parent."""
        return self.parent is None

    @property
    def effective_predicate(self) -> ValueFormula:
        """The node's predicate, defaulting to *true*."""
        return self.predicate if self.predicate is not None else ValueFormula.true()

    def iter_subtree(self) -> Iterator["PatternNode"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def iter_ancestors(self) -> Iterator["PatternNode"]:
        """Yield strict ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def nesting_depth(self) -> int:
        """Number of nested edges on the path from the root to this node."""
        depth = 1 if (self.parent is not None and self.nested) else 0
        return depth + sum(
            1 for anc in self.iter_ancestors() if anc.parent is not None and anc.nested
        )

    def matches_label(self, label: str) -> bool:
        """Wildcard-aware label test."""
        return self.label == "*" or self.label == label

    def copy(self) -> "PatternNode":
        """Deep-copy the subtree rooted at this node (detached)."""
        clone = PatternNode(
            self.label,
            axis=self.axis,
            optional=self.optional,
            nested=self.nested,
            attributes=self.attributes,
            predicate=self.predicate,
            is_return=self._return_flag,
        )
        clone.annotated_paths = self.annotated_paths
        for child in self.children:
            copied = child.copy()
            copied.parent = clone
            clone.children.append(copied)
        return clone

    # ------------------------------------------------------------------ #
    # structural signature (used for pattern equality, Prop. 3.5)
    # ------------------------------------------------------------------ #
    def signature(self, include_paths: bool = False) -> tuple:
        """A hashable structural signature of the subtree rooted here."""
        own = node_signature(
            self.label,
            self.axis,
            self.optional,
            self.nested,
            self.attributes,
            self._return_flag,
            self.predicate,
            self.annotated_paths if include_paths else None,
        )
        return own + tuple(
            child.signature(include_paths=include_paths) for child in self.children
        )

    def __repr__(self) -> str:
        marks = []
        if self.optional:
            marks.append("?")
        if self.nested:
            marks.append("n")
        if self.attributes:
            marks.append(",".join(self.attributes))
        mark_text = f" [{' '.join(marks)}]" if marks else ""
        return f"<PatternNode {self.label}{mark_text}>"


class TreePattern:
    """A complete tree pattern with a distinguished set of return nodes."""

    def __init__(self, root: PatternNode, name: str = "pattern"):
        if root.parent is not None:
            raise PatternError("the pattern root must not have a parent")
        if root.optional or root.nested:
            raise PatternError("the pattern root cannot hang from an optional/nested edge")
        self.root = root
        self.name = name
        # Optional explicit ordering of the return nodes.  By default return
        # nodes are ordered in pre-order; the rewriting algorithm overrides
        # the order so a candidate's output columns line up positionally with
        # the query's return nodes.
        self._return_order: Optional[list[PatternNode]] = None

    # ------------------------------------------------------------------ #
    # node access
    # ------------------------------------------------------------------ #
    def nodes(self) -> list[PatternNode]:
        """All pattern nodes in pre-order."""
        return list(self.root.iter_subtree())

    def return_nodes(self) -> list[PatternNode]:
        """Return nodes, in pre-order unless an explicit order was set."""
        if self._return_order is not None:
            return list(self._return_order)
        return [n for n in self.root.iter_subtree() if n.is_return]

    def set_return_order(self, nodes: Sequence[PatternNode]) -> None:
        """Fix the order (and selection) of the pattern's return nodes.

        Every node must belong to this pattern and be a return node; nodes
        not listed are still returned by default ordering only if the list is
        cleared again (pass ``None``-like empty by calling with all nodes).
        """
        own = set(map(id, self.root.iter_subtree()))
        for node in nodes:
            if id(node) not in own:
                raise PatternError("return-order node does not belong to this pattern")
            if not node.is_return:
                raise PatternError("return-order nodes must be return nodes")
        self._return_order = list(nodes)

    @property
    def size(self) -> int:
        """Number of pattern nodes (``|p|`` in the paper)."""
        return sum(1 for _ in self.root.iter_subtree())

    @property
    def arity(self) -> int:
        """Number of return nodes (``k`` in the paper)."""
        return len(self.return_nodes())

    def has_optional_edges(self) -> bool:
        """True iff at least one edge is optional."""
        return any(n.optional for n in self.root.iter_subtree() if n.parent is not None)

    def has_nested_edges(self) -> bool:
        """True iff at least one edge is nested."""
        return any(n.nested for n in self.root.iter_subtree() if n.parent is not None)

    def has_predicates(self) -> bool:
        """True iff at least one node carries a non-trivial value predicate."""
        return any(
            n.predicate is not None and not n.predicate.is_true()
            for n in self.root.iter_subtree()
        )

    def stored_attributes(self) -> list[tuple[PatternNode, str]]:
        """Flat list of ``(node, attribute)`` pairs in column order."""
        pairs = []
        for node in self.return_nodes():
            if node.attributes:
                for attr in node.attributes:
                    pairs.append((node, attr))
            else:
                pairs.append((node, "NODE"))
        return pairs

    # ------------------------------------------------------------------ #
    # transformation helpers
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "TreePattern":
        """Deep copy of the pattern (preserving any explicit return order)."""
        clone = TreePattern(self.root.copy(), name=name or self.name)
        if self._return_order is not None:
            originals = self.nodes()
            positions = [originals.index(node) for node in self._return_order]
            clone_nodes = clone.nodes()
            clone._return_order = [clone_nodes[position] for position in positions]
        return clone

    def strict_version(self, name: Optional[str] = None) -> "TreePattern":
        """The pattern with every optional edge made non-optional (``p0``)."""
        clone = self.copy(name=name or f"{self.name}-strict")
        for node in clone.root.iter_subtree():
            node.optional = False
        return clone

    def unnested_version(self, name: Optional[str] = None) -> "TreePattern":
        """The pattern with every nested edge made plain (Prop. 4.2 cond. 1)."""
        clone = self.copy(name=name or f"{self.name}-unnested")
        for node in clone.root.iter_subtree():
            node.nested = False
        return clone

    def conjunctive_core(self, name: Optional[str] = None) -> "TreePattern":
        """Strip optionality, nesting, attributes and predicates.

        The result is the plain conjunctive pattern with the same shape and
        the same return positions — useful when only tree structure matters.
        """
        clone = self.copy(name=name or f"{self.name}-core")
        for node in clone.root.iter_subtree():
            node.optional = False
            node.nested = False
            node.predicate = None
            if node.attributes:
                node.is_return = True
                node.attributes = ()
        return clone

    def with_return_nodes(
        self, keep: Sequence[PatternNode], name: Optional[str] = None
    ) -> "TreePattern":
        """A copy in which exactly the nodes matching ``keep`` are returning.

        ``keep`` contains nodes *of this pattern*; positions are mapped onto
        the copy.  Used by the rewriting algorithm when it must select ``k``
        return nodes of a candidate pattern before a containment test.
        """
        original = self.nodes()
        indexes = set()
        for node in keep:
            try:
                indexes.add(original.index(node))
            except ValueError as exc:
                raise PatternError("return node does not belong to this pattern") from exc
        clone = self.copy(name=name)
        clone._return_order = None
        for position, node in enumerate(clone.nodes()):
            selected = position in indexes
            node.is_return = selected
            if not selected:
                node.attributes = ()
        return clone

    # ------------------------------------------------------------------ #
    # equality / rendering
    # ------------------------------------------------------------------ #
    def structurally_equal(self, other: "TreePattern", include_paths: bool = False) -> bool:
        """Structural equality (labels, edges, predicates, attributes).

        With ``include_paths`` the comparison also requires identical
        annotated path sets — the notion of equality used by Prop. 3.5.
        """
        return self.root.signature(include_paths=include_paths) == other.root.signature(
            include_paths=include_paths
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePattern):
            return NotImplemented
        return self.structurally_equal(other)

    def __hash__(self) -> int:
        return hash(self.root.signature())

    def to_text(self) -> str:
        """Render the pattern in the DSL accepted by :func:`parse_pattern`."""
        return _render_node(self.root)

    def __repr__(self) -> str:
        return f"<TreePattern {self.name!r} {self.to_text()}>"

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_path(
        cls,
        labels: Sequence[str],
        axes: Optional[Sequence[Axis]] = None,
        return_last: bool = True,
        attributes: Iterable[str] = (),
        name: str = "pattern",
    ) -> "TreePattern":
        """Build a linear (chain) pattern from a label sequence."""
        if not labels:
            raise PatternError("need at least one label")
        if axes is not None and len(axes) != len(labels) - 1:
            raise PatternError("need exactly len(labels) - 1 axes")
        root = PatternNode(labels[0])
        node = root
        for position, label in enumerate(labels[1:]):
            axis = axes[position] if axes is not None else Axis.CHILD
            node = node.add_child(label, axis=axis)
        if return_last:
            if attributes:
                node.attributes = tuple(a.upper() for a in attributes)
            else:
                node.is_return = True
        return cls(root, name=name)


def node_signature(
    label: str,
    axis: Optional[Axis],
    optional: bool,
    nested: bool,
    attributes: tuple[str, ...],
    return_flag: bool,
    predicate: Optional[ValueFormula],
    paths: Optional[frozenset[int]] = None,
) -> tuple:
    """The node's own part of :meth:`PatternNode.signature`, from its fields
    (the subtree signature appends its children's)."""
    formula = predicate if predicate is not None else ValueFormula.true()
    edge = (axis.value if axis is not None else None, optional, nested)
    return (label, edge, attributes, return_flag, formula.to_text(), paths)


def _render_node(node: PatternNode) -> str:
    text = ""
    if node.parent is not None:
        text += node.axis.value if node.axis is not None else "/"
        if node.optional:
            text += "?"
        if node.nested:
            text += "~"
    text += node.label
    marks = list(node.attributes)
    if node._return_flag and not node.attributes:
        marks.append("R")
    if marks:
        text += "[" + ",".join(marks) + "]"
    if node.predicate is not None and not node.predicate.is_true():
        text += "{" + node.predicate.to_text() + "}"
    if node.children:
        text += "(" + ", ".join(_render_node(c) for c in node.children) + ")"
    return text


def cartesian_product(iterables: Sequence[Sequence]) -> Iterator[tuple]:
    """Tiny wrapper around :func:`itertools.product` kept for readability."""
    return itertools.product(*iterables)
