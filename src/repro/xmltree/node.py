"""Ordered labelled tree nodes and documents (the data model of Section 2.1).

Every :class:`XMLNode` carries a tag (``label``), an optional atomic value,
an ordered list of children and — once attached to an :class:`XMLDocument` —
a Dewey structural identifier and its *rooted simple path* (the ``/``-joined
sequence of labels from the root, Section 2.3).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.errors import XMLError
from repro.xmltree.ids import DeweyID
from repro.xmltree.paths import PathStore

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

    __slots__ = ("label", "value", "children", "parent", "dewey", "path")

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
        self.children: list[XMLNode] = []
        self.parent: Optional[XMLNode] = None
        self.dewey: Optional[DeweyID] = None
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
        self.children.append(child)
        return child

    def append_new(self, label: str, value: Optional[Atomic] = None) -> "XMLNode":
        """Create a new node, append it as the last child, and return it."""
        return self.append(XMLNode(label, value))

    def detach(self) -> "XMLNode":
        """Remove this node from its parent (if any) and return it."""
        if self.parent is not None:
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

    def find_first(self, predicate: Callable[["XMLNode"], bool]) -> Optional["XMLNode"]:
        """Return the first subtree node satisfying ``predicate``, if any."""
        for node in self.iter_subtree():
            if predicate(node):
                return node
        return None

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #
    @property
    def is_leaf(self) -> bool:
        """True iff the node has no children."""
        return not self.children

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

    def text_content(self) -> str:
        """Concatenation of all values in the subtree, in document order."""
        parts = [
            str(node.value)
            for node in self.iter_subtree()
            if node.value is not None
        ]
        return " ".join(parts)

    def rooted_path(self) -> str:
        """The rooted simple path of this node, e.g. ``/site/regions/item``."""
        labels = [self.label]
        labels.extend(anc.label for anc in self.iter_ancestors())
        return "/" + "/".join(reversed(labels))

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

    Creating a document assigns Dewey identifiers and rooted paths to every
    node of the tree, so structural joins and summary construction can use
    them directly.
    """

    def __init__(self, root: XMLNode, name: str = "doc"):
        if root.parent is not None:
            raise XMLError("the document root must not have a parent")
        self.root = root
        self.name = name
        self._nodes_by_id: dict[DeweyID, XMLNode] = {}
        self.reindex()

    # ------------------------------------------------------------------ #
    # identifier / path maintenance
    # ------------------------------------------------------------------ #
    def reindex(self) -> None:
        """(Re)assign Dewey IDs and rooted paths to every node of the tree.

        Only valid on a pristine tree: renumbering compacts sibling
        ordinals, which would retroactively change the identifiers of
        nodes that survived an earlier :meth:`delete_subtree`.  Live
        documents therefore never call this after a mutation — inserts
        take fresh ordinals past the highest ever used (ORDPATH-style
        gaps are legal Dewey IDs) and deletes leave the survivors alone.
        """
        self._nodes_by_id.clear()
        self._max_child_ordinal: dict[DeweyID, int] = {}
        self._path_store: Optional[PathStore] = PathStore()
        self._path_store.splice_in(
            self._assign(self.root, DeweyID.root(), "/" + self.root.label)
        )

    def _assign(
        self, root: XMLNode, dewey: DeweyID, path: str
    ) -> dict[str, list[XMLNode]]:
        """Identify the subtree under ``root``; return its nodes by path.

        One pre-order pass hands out Dewey IDs and rooted paths and
        collects, per path, the subtree's nodes in document order — what
        :meth:`PathStore.splice_in` takes.  A node's ``path`` is the
        store's key string for that path (the one already in the store, if
        the path is known), never a fresh string per node.
        """
        by_id = self._nodes_by_id
        max_ordinal = self._max_child_ordinal
        store = self.path_store
        path = store.key(path)
        root.dewey = dewey
        root.path = path
        by_id[dewey] = root
        runs: dict[str, list[XMLNode]] = {path: [root]}
        # parent path -> child label -> (child path, run of that path)
        steps: dict[str, dict[str, tuple[str, list[XMLNode]]]] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            children = node.children
            if not children:
                continue
            dewey = node.dewey
            max_ordinal[dewey] = len(children)
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
                child.dewey = child_id = dewey.child(ordinal)
                by_id[child_id] = child
            stack.extend(reversed(children))
        return runs

    @property
    def path_store(self) -> PathStore:
        """Rooted path → its nodes in document order (derived, never persisted)."""
        if self._path_store is None:  # unpickled: rebuilt on first use
            self._path_store = PathStore.scan(self.root)
        return self._path_store

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_path_store"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # pickles written before the store (or before gap-safe inserts)
        # lack these entries; both are derived
        state.setdefault("_path_store", None)
        state.setdefault("_max_child_ordinal", {})
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # live mutations (gap-safe: existing identifiers never change)
    # ------------------------------------------------------------------ #
    def insert_subtree(self, parent: XMLNode, subtree: XMLNode) -> XMLNode:
        """Attach ``subtree`` as the last child of ``parent`` and ID it.

        The new node takes the sibling ordinal *after the highest one in
        use* (not ``len(children) + 1``), so identifiers freed by earlier
        deletes are never reused — every identifier ever handed out stays
        unique for the document's lifetime, which is what lets change-log
        replay and delta maintenance refer to nodes by ID.  Returns the
        attached subtree root (now carrying its Dewey ID and path).
        """
        if parent.dewey is None or parent.dewey not in self._nodes_by_id:
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
            (child.dewey.ordinal for child in reversed(parent.children) if child.dewey),
            0,
        )
        ordinal = max(live, self._max_child_ordinal.get(parent.dewey, 0)) + 1
        self._max_child_ordinal[parent.dewey] = ordinal
        store = self.path_store  # (re)built, if need be, before the tree grows
        parent.append(subtree)
        store.splice_in(
            self._assign(
                subtree,
                parent.dewey.child(ordinal),
                f"{parent.path}/{subtree.label}",
            )
        )
        return subtree

    def delete_subtree(self, node: XMLNode) -> XMLNode:
        """Detach ``node`` (and its whole subtree) from the document.

        The root cannot be deleted.  The detached subtree keeps its Dewey
        IDs and paths (callers use them for summary accounting and change
        logging); the document forgets them, and sibling identifiers are
        *not* compacted — see :meth:`insert_subtree`.
        """
        if node is self.root:
            raise XMLError(f"cannot delete the root of document {self.name!r}")
        if node.dewey is None or self._nodes_by_id.get(node.dewey) is not node:
            raise XMLError(
                f"delete target <{node.label}> is not part of document "
                f"{self.name!r}"
            )
        counts: dict[str, int] = {}
        for member in node.iter_subtree():
            self._nodes_by_id.pop(member.dewey, None)
            counts[member.path] = counts.get(member.path, 0) + 1
        self.path_store.splice_out(node, counts)
        return node.detach()

    # ------------------------------------------------------------------ #
    # lookup helpers
    # ------------------------------------------------------------------ #
    def node_by_id(self, dewey: DeweyID) -> XMLNode:
        """Return the node with the given Dewey identifier."""
        try:
            return self._nodes_by_id[dewey]
        except KeyError as exc:
            raise XMLError(f"no node with identifier {dewey} in {self.name}") from exc

    def has_id(self, dewey: DeweyID) -> bool:
        """True iff a node with this identifier exists in the document."""
        return dewey in self._nodes_by_id

    def iter_nodes(self) -> Iterator[XMLNode]:
        """Yield every node of the document in document order."""
        return self.root.iter_subtree()

    def nodes_on_path(self, path: str) -> list[XMLNode]:
        """All nodes whose rooted simple path equals ``path``."""
        return self.path_store.nodes(path)

    @property
    def size(self) -> int:
        """Number of nodes in the document."""
        return len(self._nodes_by_id)

    def __repr__(self) -> str:
        return f"<XMLDocument {self.name!r} root={self.root.label} size={self.size}>"
