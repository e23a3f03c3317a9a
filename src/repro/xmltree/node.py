"""Ordered labelled tree nodes and documents (the data model of Section 2.1).

Every :class:`XMLNode` carries a tag (``label``), an optional atomic value,
an ordered list of children (a leaf shares the empty tuple) and — once
attached to an :class:`XMLDocument` — a Dewey structural identifier and its
*rooted simple path* (the ``/``-joined sequence of labels from the root,
Section 2.3).

A node does not hold its identifier.  It holds its *place*: its sibling
ordinal (an ``int``) when it is an identified non-root node of a tree, or a
:class:`~repro.xmltree.ids.DeweyID` *anchor* when it is a document root, the
root of a deleted (detached) subtree, or a node whose ``dewey`` was
assigned — pattern evaluation's default ``fID`` assigns the identifier it
puts in an answer, so the answer's cell and the node share one object.
``node.dewey`` is derived: walk ``parent`` up to the nearest anchor and
append the ordinals met on the way (Section 4.6's parent derivation, run
the other way).  So an identifier costs one small int per node, or
nothing beyond the cell an extent already holds, and the document keeps
no identifier → node map: :meth:`XMLDocument.node_by_id` walks down from
the root, one ordinal per level.  What the document does keep is one list
of its nodes in document order (:meth:`XMLDocument.iter_nodes`, 8 bytes a
node); it also hands CPython's cyclic collector every node in the order
they were allocated, where the child lists alone would have it rediscover
the tree breadth-first.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional

from repro.errors import XMLError
from repro.xmltree.ids import DeweyID
from repro.xmltree.paths import PathStore, _document_order

__all__ = ["XMLNode", "XMLDocument"]

Atomic = int | float | str


class XMLNode:
    """A single node of an XML tree.

    Parameters
    ----------
    label:
        Element (or attribute) name.
    value:
        Optional atomic value attached to the node.  In real XML this is the
        concatenated text content; the paper's model allows any atomic value.
    children:
        Optional iterable of child nodes (appended in order).
    """

    __slots__ = ("label", "value", "children", "parent", "_place", "path")

    def __init__(
        self,
        label: str,
        value: Optional[Atomic] = None,
        children: Optional[Iterable["XMLNode"]] = None,
    ):
        if not label:
            raise XMLError("node labels must be non-empty strings")
        self.label = label
        self.value = value
        # a leaf shares the empty tuple: most nodes of a document are leaves
        self.children: list[XMLNode] | tuple[()] = ()
        self.parent: Optional[XMLNode] = None
        # sibling ordinal (int), DeweyID anchor, or None: see the module notes
        self._place: int | DeweyID | None = None
        self.path: Optional[str] = None
        if children is not None:
            for child in children:
                self.append(child)

    # ------------------------------------------------------------------ #
    # tree construction
    # ------------------------------------------------------------------ #
    def append(self, child: "XMLNode") -> "XMLNode":
        """Append ``child`` as the last child of this node and return it."""
        if child.parent is not None:
            raise XMLError(
                f"node <{child.label}> already has a parent <{child.parent.label}>"
            )
        child.parent = self
        if self.children:
            self.children.append(child)
        else:
            self.children = [child]
        return child

    def detach(self) -> "XMLNode":
        """Remove this node from its parent (if any) and return it.

        The node and its subtree keep their identifiers: an ordinal becomes
        an anchor before the parent it was relative to goes.
        """
        if self.parent is not None:
            self._place = self.dewey
            self.parent.children.remove(self)
            self.parent = None
        return self

    # ------------------------------------------------------------------ #
    # navigation
    # ------------------------------------------------------------------ #
    def iter_descendants(self) -> Iterator["XMLNode"]:
        """Yield all strict descendants in document (pre-) order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_subtree(self) -> Iterator["XMLNode"]:
        """Yield this node followed by all descendants in document order."""
        yield self
        yield from self.iter_descendants()

    def iter_ancestors(self) -> Iterator["XMLNode"]:
        """Yield strict ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def children_with_label(self, label: str) -> list["XMLNode"]:
        """Children whose label equals ``label`` (or all children for ``*``)."""
        if label == "*":
            return list(self.children)
        return [c for c in self.children if c.label == label]

    def descendants_with_label(self, label: str) -> list["XMLNode"]:
        """Strict descendants whose label equals ``label`` (or all for ``*``)."""
        if label == "*":
            return list(self.iter_descendants())
        return [d for d in self.iter_descendants() if d.label == label]

    # ------------------------------------------------------------------ #
    # structural identifier (derived from the parent chain)
    # ------------------------------------------------------------------ #
    @property
    def dewey(self) -> Optional[DeweyID]:
        """The node's Dewey identifier, or ``None`` if it was never identified."""
        place = self._place
        if place.__class__ is not int:
            return place
        anchor, ordinals = self._anchored()
        return None if anchor is None else anchor.descendant(ordinals)

    @dewey.setter
    def dewey(self, dewey: Optional[DeweyID]) -> None:
        # an anchor: the subtree's ordinals now count from it
        self._place = dewey

    @property
    def dewey_key(self) -> Optional[tuple[int, ...]]:
        """``dewey.components`` without building the :class:`DeweyID`.

        Tuples compare in document order, so this is the sort and bisect
        key of the nodes of one document.
        """
        place = self._place
        if place.__class__ is not int:
            return None if place is None else place.components
        anchor, ordinals = self._anchored()
        return None if anchor is None else anchor.components + tuple(ordinals)

    @property
    def ordinal(self) -> Optional[int]:
        """The node's 1-based position among its siblings (``None`` if unidentified)."""
        place = self._place
        if place.__class__ is int or place is None:
            return place
        return place.ordinal

    def _anchored(self) -> tuple[Optional[DeweyID], list[int]]:
        """For a node placed by ordinal: the nearest anchor above it, and
        the ordinals from just below that anchor down to this node."""
        ordinals = [self._place]
        node = self.parent
        place = node._place
        while place.__class__ is int:
            ordinals.append(place)
            node = node.parent
            place = node._place
        ordinals.reverse()
        return place, ordinals

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Depth of the node; a root has depth 1."""
        return 1 + sum(1 for _ in self.iter_ancestors())

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted at this node."""
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def copy(self) -> "XMLNode":
        """Deep-copy the subtree rooted at this node (detached, no IDs)."""
        clone = XMLNode(self.label, self.value)
        for child in self.children:
            clone.append(child.copy())
        return clone

    def __repr__(self) -> str:
        ident = f" id={self.dewey}" if self.dewey is not None else ""
        val = f" value={self.value!r}" if self.value is not None else ""
        return f"<XMLNode {self.label}{ident}{val} children={len(self.children)}>"


class XMLDocument:
    """A rooted XML document.

    Creating a document identifies every node of the tree — the root gets
    the anchor ``DeweyID.root()``, every other node its sibling ordinal —
    and assigns rooted paths, so structural joins and summary construction
    can use them directly.
    """

    def __init__(
        self,
        root: XMLNode,
        name: str = "doc",
        ordinals: Optional[dict[DeweyID, list[int]]] = None,
    ):
        if root.parent is not None:
            raise XMLError("the document root must not have a parent")
        self.root = root
        self.name = name
        self.reindex(ordinals)

    # ------------------------------------------------------------------ #
    # identifier / path maintenance
    # ------------------------------------------------------------------ #
    def reindex(self, ordinals: Optional[dict[DeweyID, list[int]]] = None) -> None:
        """(Re)number the tree's nodes and assign their rooted paths.

        The root is anchored at ``DeweyID.root()`` and every other node
        stores its sibling ordinal; identifiers are derived from those.
        Only valid on a pristine tree: renumbering compacts sibling
        ordinals, which would retroactively change the identifiers of
        nodes that survived an earlier :meth:`delete_subtree`.  Live
        documents therefore never call this after a mutation — inserts
        take fresh ordinals past the highest ever used (ORDPATH-style
        gaps are legal Dewey IDs) and deletes leave the survivors alone.
        ``ordinals`` restores such a numbering: what :meth:`ordinal_gaps`
        returned for the document this tree was copied from.
        """
        # parent -> an ordinal it handed out that may lie above its live
        # children: written by inserts and deletes, read by inserts
        self._max_child_ordinal: dict[DeweyID, int] = {}
        self._path_store = PathStore()
        self._nodes: list[XMLNode] = []
        self.root.dewey = DeweyID.root()
        runs = self._assign(self.root, "/" + self.root.label, self._nodes)
        # parents before their children, so each lookup below walks
        # ordinals that are already final; document order stays as it was
        for dewey, numbers in sorted((ordinals or {}).items()):
            parent = self._find(dewey)
            if parent is not None:
                for ordinal, child in zip(numbers[:-1], parent.children, strict=True):
                    child._place = ordinal
            self._max_child_ordinal[dewey] = numbers[-1]
        self._path_store.splice_in(runs)

    def ordinal_gaps(self) -> dict[DeweyID, list[int]]:
        """Per parent whose children are not numbered ``1..n``: the
        children's ordinals, then the highest ordinal it ever handed out
        (only that, for a parent whose children were all deleted)."""
        gaps = {}
        for dewey, mark in self._max_child_ordinal.items():
            parent = self._find(dewey)
            if parent is None:
                continue
            numbers = [child.ordinal for child in parent.children]
            high = max(numbers[-1] if numbers else 0, mark)
            if high != len(numbers):
                gaps[dewey] = numbers + [high]
        return gaps

    def _assign(
        self, root: XMLNode, path: str, order: list[XMLNode]
    ) -> dict[str, list[XMLNode]]:
        """Number the subtree under ``root``; return its nodes by path.

        ``root``'s own place is the caller's (an anchor or an ordinal).  One
        pre-order pass gives every other node its sibling ordinal, appends
        the subtree's nodes to ``order`` in document order and collects
        them per rooted path — what :meth:`PathStore.splice_in` takes.  A
        node's ``path`` is the store's key string for that path (the one
        already in the store, if the path is known), never a fresh string
        per node.
        """
        store = self.path_store
        path = store.key(path)
        root.path = path
        runs: dict[str, list[XMLNode]] = {path: [root]}
        # parent path -> child label -> (child path, run of that path)
        steps: dict[str, dict[str, tuple[str, list[XMLNode]]]] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            children = node.children
            if not children:
                continue
            labels = steps.get(node.path)
            if labels is None:
                labels = steps[node.path] = {}
            for ordinal, child in enumerate(children, start=1):
                step = labels.get(child.label)
                if step is None:
                    child_path = store.key(f"{node.path}/{child.label}")
                    step = labels[child.label] = (
                        child_path,
                        runs.setdefault(child_path, []),
                    )
                child.path, run = step
                run.append(child)
                child._place = ordinal
            stack.extend(reversed(children))
        return runs

    @property
    def path_store(self) -> PathStore:
        """Rooted path → its nodes in document order (derived, never persisted)."""
        return self._path_store

    # ------------------------------------------------------------------ #
    # live mutations (gap-safe: existing identifiers never change)
    # ------------------------------------------------------------------ #
    def insert_subtree(self, parent: XMLNode, subtree: XMLNode) -> XMLNode:
        """Attach ``subtree`` as the last child of ``parent`` and number it.

        The new node takes the sibling ordinal *after the highest one in
        use* (not ``len(children) + 1``), so identifiers freed by earlier
        deletes are never reused — every identifier ever handed out stays
        unique for the document's lifetime, which is what lets change-log
        replay and delta maintenance refer to nodes by ID.  The subtree
        root stores that ordinal and its descendants ``1..n`` below it;
        their identifiers derive from ``parent``'s.  Returns the attached
        subtree root (now carrying its Dewey ID and path).
        """
        if not self._holds(parent):
            raise XMLError(
                f"insert target <{parent.label}> is not part of document "
                f"{self.name!r}"
            )
        if subtree.parent is not None:
            raise XMLError(
                f"subtree root <{subtree.label}> already has a parent; "
                f"detach (or copy) it first"
            )
        # children sit in ordinal order: the last identified one is the
        # highest live ordinal, and the record covers deleted ones
        live = next(
            (child.ordinal for child in reversed(parent.children) if child.ordinal),
            0,
        )
        parent_id = parent.dewey
        ordinal = max(live, self._max_child_ordinal.get(parent_id, 0)) + 1
        self._max_child_ordinal[parent_id] = ordinal
        parent.append(subtree)
        subtree._place = ordinal
        added: list[XMLNode] = []
        self._path_store.splice_in(
            self._assign(subtree, f"{parent.path}/{subtree.label}", added)
        )
        # the subtree follows everything under ``parent`` in document order
        at = bisect_left(self._nodes, subtree.dewey_key, key=_document_order)
        self._nodes[at:at] = added
        return subtree

    def delete_subtree(self, node: XMLNode) -> XMLNode:
        """Detach ``node`` (and its whole subtree) from the document.

        The root cannot be deleted.  The detached subtree keeps its Dewey
        IDs and paths (callers use them for summary accounting and change
        logging): its root's ordinal becomes an anchor.  Sibling
        identifiers are *not* compacted — see :meth:`insert_subtree`.
        """
        if node is self.root:
            raise XMLError(f"cannot delete the root of document {self.name!r}")
        if not self._holds(node):
            raise XMLError(
                f"delete target <{node.label}> is not part of document "
                f"{self.name!r}"
            )
        counts: dict[str, int] = {}
        for member in node.iter_subtree():
            counts[member.path] = counts.get(member.path, 0) + 1
        at = bisect_left(self._nodes, node.dewey_key, key=_document_order)
        del self._nodes[at : at + sum(counts.values())]
        self.path_store.splice_out(node, counts)
        # the deleted ordinal may have been the parent's highest
        marks, parent = self._max_child_ordinal, node.parent.dewey
        marks[parent] = max(marks.get(parent, 0), node.ordinal)
        return node.detach()

    def _holds(self, node: XMLNode) -> bool:
        """True iff ``node`` is an identified node of this document's tree."""
        if node._place is None:
            return False
        while node.parent is not None:
            node = node.parent
        return node is self.root

    # ------------------------------------------------------------------ #
    # lookup helpers
    # ------------------------------------------------------------------ #
    def _find(self, dewey: DeweyID) -> Optional[XMLNode]:
        """The node identified by ``dewey``, walked down from the root."""
        node = self.root
        anchor = node.dewey.components
        components = dewey.components
        if components[: len(anchor)] != anchor:
            return None
        for ordinal in components[len(anchor) :]:
            children = node.children
            # gap-free siblings: the ordinal is the position
            if ordinal <= len(children) and children[ordinal - 1].ordinal == ordinal:
                node = children[ordinal - 1]
                continue
            at = bisect_left(children, ordinal, key=_sibling_order)
            if at == len(children) or children[at].ordinal != ordinal:
                return None
            node = children[at]
        return node

    def node_by_id(self, dewey: DeweyID) -> XMLNode:
        """Return the node with the given Dewey identifier."""
        node = self._find(dewey)
        if node is None:
            raise XMLError(f"no node with identifier {dewey} in {self.name}")
        return node

    def iter_nodes(self) -> Iterator[XMLNode]:
        """Yield every node of the document in document order."""
        return iter(self._nodes)

    def nodes_on_path(self, path: str) -> list[XMLNode]:
        """All nodes whose rooted simple path equals ``path``."""
        return self.path_store.nodes(path)

    @property
    def size(self) -> int:
        """Number of nodes in the document."""
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"<XMLDocument {self.name!r} root={self.root.label} size={self.size}>"


def _sibling_order(node: XMLNode) -> int:
    """A bisect key over one child list, which sits in ordinal order."""
    return node.ordinal or 0
