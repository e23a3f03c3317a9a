"""Strong Dataguide (structural summary) construction.

:func:`build_summary` builds the summary of a document in a single pass,
counting instances along the way so that **strong** and **one-to-one** edges
of the *enhanced summary* (Section 4.1) are detected for free.

:func:`summary_from_paths` builds a summary directly from a list of rooted
paths (optionally flagged strong / one-to-one); this is how the paper's
hand-drawn example summaries and the synthetic workloads are written down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import SummaryError
from repro.summary.index import SummaryIndex
from repro.summary.node import SummaryNode
from repro.xmltree.node import XMLDocument, XMLNode

__all__ = ["Summary", "SummaryDelta", "build_summary", "summary_from_paths"]


@dataclass
class SummaryDelta:
    """What one :meth:`Summary.observe_insert` / ``observe_delete`` changed.

    Consumers use this to pick the cheapest safe reaction: when neither the
    node set nor any strong / one-to-one flag moved
    (:attr:`preserves_annotations`), every pattern annotation and
    containment result computed under the old summary is still valid and
    derived state can be patched in place; otherwise caches keyed on the
    summary's structure must be dropped.  :attr:`touched_paths` names every
    path whose instance count may have moved, so count consumers (the
    planner's :class:`~repro.summary.statistics.Statistics`) can update by
    difference instead of re-walking the summary.
    """

    added_paths: list[str] = field(default_factory=list)
    removed_paths: list[str] = field(default_factory=list)
    flags_changed: bool = False
    touched_paths: set[str] = field(default_factory=set)

    @property
    def structure_changed(self) -> bool:
        """True iff summary nodes were created or removed."""
        return bool(self.added_paths or self.removed_paths)

    @property
    def preserves_annotations(self) -> bool:
        """True iff annotations/containment under the old summary still hold."""
        return not self.structure_changed and not self.flags_changed


class Summary:
    """A structural summary (strong Dataguide) of one document.

    The summary is itself a tree of :class:`SummaryNode`.  Nodes can be
    looked up by rooted path or by their pre-order number (the numbering
    used in the paper's figures).
    """

    def __init__(self, root: SummaryNode, name: str = "summary"):
        self.root = root
        self.name = name
        self._by_path: dict[str, SummaryNode] = {}
        self._by_number: dict[int, SummaryNode] = {}
        # retained per-path / per-edge counters (filled by build_summary);
        # None means the summary cannot be maintained incrementally
        self._instance_counts: Optional[dict[str, int]] = None
        self._with_child: Optional[dict[tuple[str, str], int]] = None
        self._with_exactly_one: Optional[dict[tuple[str, str], int]] = None
        self._renumber()

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def _renumber(self) -> None:
        self._by_path.clear()
        self._by_number.clear()
        for number, node in enumerate(self.root.iter_subtree(), start=1):
            node.number = number
            if node.path in self._by_path:
                raise SummaryError(f"duplicate summary path {node.path!r}")
            self._by_path[node.path] = node
            self._by_number[number] = node
        # append-only numbering for incrementally added nodes: existing
        # numbers never move (annotated patterns and statistics hold them),
        # retired numbers are never reused
        self._next_number = len(self._by_number) + 1

    @property
    def index(self) -> SummaryIndex:
        """The :class:`SummaryIndex` of the current shape (built on first use).

        Path annotation, the view catalog and every rewriting search share
        this one instance; :meth:`observe_insert` / :meth:`observe_delete`
        drop it when they add or remove a summary node.
        """
        index = self.__dict__.get("_index")
        if index is None:
            index = self._index = SummaryIndex(self)
        return index

    def _retire_derived_state(self, delta: SummaryDelta) -> None:
        """Retire what was derived from the old structure / edge flags."""
        if delta.structure_changed:
            self.__dict__.pop("_index", None)
        if not delta.preserves_annotations:
            # containment answers memoised under the old structure/flags no
            # longer apply; dropping the token retires them wholesale
            self.__dict__.pop("_containment_token", None)

    @property
    def supports_incremental_maintenance(self) -> bool:
        """True iff the summary retained the counters mutation upkeep needs.

        :func:`build_summary` retains them; hand-written summaries
        (:func:`summary_from_paths`) and direct constructions do not — they
        summarise no concrete document, so there is nothing to maintain.
        """
        return getattr(self, "_instance_counts", None) is not None

    def _require_counters(self) -> None:
        if not self.supports_incremental_maintenance:
            raise SummaryError(
                f"summary {self.name!r} was not built by build_summary and "
                f"carries no retained instance counters; it cannot be "
                f"maintained incrementally under document mutations"
            )

    def _refresh_edge_flags(self, parent_node: SummaryNode) -> bool:
        """Recompute strong / one-to-one flags of every edge under one node."""
        changed = False
        parents = self._instance_counts.get(parent_node.path, 0)
        for child in parent_node.children:
            key = (parent_node.path, child.label)
            strong = parents > 0 and self._with_child.get(key, 0) == parents
            one = parents > 0 and self._with_exactly_one.get(key, 0) == parents
            if strong != child.strong or one != child.one_to_one:
                changed = True
            child.strong = strong
            child.one_to_one = one
        return changed

    def _count_subtree(self, subtree: XMLNode, sign: int) -> list[XMLNode]:
        """Apply one subtree's contribution to the retained counters.

        ``sign`` is +1 for an insert, -1 for a delete.  Covers the per-path
        instance counts and the per-edge counters *internal* to the subtree;
        the edge from the insertion/deletion parent to the subtree root is
        the caller's business (that parent instance is not part of the
        subtree).  Returns the subtree nodes in document order.
        """
        members = list(subtree.iter_subtree())
        for node in members:
            self._instance_counts[node.path] = (
                self._instance_counts.get(node.path, 0) + sign
            )
            label_counts: dict[str, int] = {}
            for child in node.children:
                label_counts[child.label] = label_counts.get(child.label, 0) + 1
            for label, count in label_counts.items():
                key = (node.path, label)
                self._with_child[key] = self._with_child.get(key, 0) + sign
                if count == 1:
                    self._with_exactly_one[key] = (
                        self._with_exactly_one.get(key, 0) + sign
                    )
        return members

    def observe_insert(self, parent: XMLNode, subtree: XMLNode) -> SummaryDelta:
        """Fold a just-inserted subtree into the summary, incrementally.

        Call after :meth:`~repro.xmltree.node.XMLDocument.insert_subtree`:
        ``subtree`` is attached under ``parent`` and carries its paths.
        New paths get fresh summary nodes with *append* numbers (existing
        numbers never move), instance counts and the retained per-edge
        counters are updated for the touched paths only, and the strong /
        one-to-one flags of every affected edge are recomputed.  The
        returned :class:`SummaryDelta` says whether anything annotation-
        relevant moved.
        """
        self._require_counters()
        delta = SummaryDelta()
        members = self._count_subtree(subtree, +1)
        # the edge entering the subtree root: parent gained one child with
        # this label (k -> k+1 children of that label)
        k = sum(1 for c in parent.children if c.label == subtree.label) - 1
        key = (parent.path, subtree.label)
        if k == 0:
            self._with_child[key] = self._with_child.get(key, 0) + 1
            self._with_exactly_one[key] = self._with_exactly_one.get(key, 0) + 1
        elif k == 1:
            self._with_exactly_one[key] = self._with_exactly_one.get(key, 0) - 1
        # create summary nodes for never-before-seen paths (document order,
        # so a new node's summary parent always exists by the time we need it)
        for node in members:
            if node.path not in self._by_path:
                summary_parent = self._by_path[node.parent.path]
                created = SummaryNode(node.label, node.path, parent=summary_parent)
                summary_parent.children.append(created)
                created.number = self._next_number
                self._next_number += 1
                self._by_path[node.path] = created
                self._by_number[created.number] = created
                delta.added_paths.append(node.path)
        # refresh instance counts + edge flags on every touched path
        touched = delta.touched_paths
        touched.update(node.path for node in members)
        touched.add(parent.path)
        for path in touched:
            summary_node = self._by_path[path]
            summary_node.instance_count = self._instance_counts.get(path, 0)
            if self._refresh_edge_flags(summary_node):
                delta.flags_changed = True
        self._retire_derived_state(delta)
        return delta

    def observe_delete(self, parent: XMLNode, subtree: XMLNode) -> SummaryDelta:
        """Fold a just-deleted subtree out of the summary, incrementally.

        Call after :meth:`~repro.xmltree.node.XMLDocument.delete_subtree`
        with the *detached* subtree (it keeps its paths) and its former
        parent.  Paths whose instance count reaches zero lose their summary
        nodes (their numbers are retired, not reused); affected edge flags
        are recomputed.
        """
        self._require_counters()
        delta = SummaryDelta()
        members = self._count_subtree(subtree, -1)
        # the edge entering the subtree root: parent lost one child with
        # this label (k -> k-1 children of that label)
        k = sum(1 for c in parent.children if c.label == subtree.label) + 1
        key = (parent.path, subtree.label)
        if k == 1:
            self._with_child[key] = self._with_child.get(key, 0) - 1
            self._with_exactly_one[key] = self._with_exactly_one.get(key, 0) - 1
        elif k == 2:
            self._with_exactly_one[key] = self._with_exactly_one.get(key, 0) + 1
        # retire summary nodes for paths that no longer occur (deepest
        # first, so children detach before their parents)
        for node in sorted(members, key=lambda n: -n.depth):
            path = node.path
            if path in self._by_path and self._instance_counts.get(path, 0) <= 0:
                summary_node = self._by_path.pop(path)
                self._by_number.pop(summary_node.number, None)
                if summary_node.parent is not None:
                    summary_node.parent.children.remove(summary_node)
                    summary_node.parent = None
                self._instance_counts.pop(path, None)
                delta.removed_paths.append(path)
        # refresh instance counts + edge flags on every surviving touched path
        touched = delta.touched_paths
        touched.update(node.path for node in members)
        touched.add(parent.path)
        for path in touched:
            summary_node = self._by_path.get(path)
            if summary_node is None:
                continue
            summary_node.instance_count = self._instance_counts.get(path, 0)
            if self._refresh_edge_flags(summary_node):
                delta.flags_changed = True
        self._retire_derived_state(delta)
        return delta

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def node_by_path(self, path: str) -> SummaryNode:
        """Return the summary node for a rooted path such as ``/a/b/c``."""
        try:
            return self._by_path[path]
        except KeyError as exc:
            raise SummaryError(f"path {path!r} does not occur in {self.name}") from exc

    def has_path(self, path: str) -> bool:
        """True iff ``path`` occurs in the summarised document."""
        return path in self._by_path

    def node_by_number(self, number: int) -> SummaryNode:
        """Return the summary node with the given pre-order number."""
        try:
            return self._by_number[number]
        except KeyError as exc:
            raise SummaryError(f"no summary node numbered {number}") from exc

    def iter_nodes(self) -> Iterator[SummaryNode]:
        """Yield all summary nodes in pre-order."""
        return self.root.iter_subtree()

    def nodes_with_label(self, label: str) -> list[SummaryNode]:
        """All summary nodes carrying ``label`` (all nodes for ``'*'``)."""
        if label == "*":
            return list(self.iter_nodes())
        return [n for n in self.iter_nodes() if n.label == label]

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of summary nodes, written ``|S|`` in the paper."""
        return len(self._by_path)

    @property
    def strong_edge_count(self) -> int:
        """Number of strong edges (``ns`` in Table 1)."""
        return sum(1 for n in self.iter_nodes() if n.parent is not None and n.strong)

    @property
    def one_to_one_edge_count(self) -> int:
        """Number of one-to-one edges (``n1`` in Table 1)."""
        return sum(
            1 for n in self.iter_nodes() if n.parent is not None and n.one_to_one
        )

    @property
    def max_depth(self) -> int:
        """Depth of the deepest summary node."""
        return max(n.depth for n in self.iter_nodes())

    # ------------------------------------------------------------------ #
    # conformance
    # ------------------------------------------------------------------ #
    def conforms(self, doc: XMLDocument, check_constraints: bool = True) -> bool:
        """Check ``S |= d``: every document path occurs in the summary.

        With ``check_constraints`` the strong-edge integrity constraints of
        the enhanced summary are verified as well.
        """
        for node in doc.iter_nodes():
            if node.path not in self._by_path:
                return False
        if not check_constraints:
            return True
        for node in doc.iter_nodes():
            summary_node = self._by_path[node.path]
            for child in summary_node.children:
                if child.strong and not any(
                    c.label == child.label for c in node.children
                ):
                    return False
                if child.one_to_one and sum(
                    1 for c in node.children if c.label == child.label
                ) != 1:
                    return False
        return True

    def __getstate__(self):
        # the containment-memo token is process-local identity: letting it
        # travel through pickle would make two different summaries loaded
        # from files share cache keys
        state = self.__dict__.copy()
        state.pop("_containment_token", None)
        return state

    def __repr__(self) -> str:
        return f"<Summary {self.name!r} size={self.size}>"


def build_summary(doc: XMLDocument, name: Optional[str] = None) -> Summary:
    """Build the enhanced structural summary of ``doc`` in one linear pass.

    The per-path instance counts and per-edge counters computed along the
    way are retained on the summary — they are exactly the state
    :meth:`Summary.observe_insert` / :meth:`Summary.observe_delete` need to
    keep the summary (and its strong / one-to-one flags) correct under
    live document mutations without another document pass.
    """
    root = SummaryNode(doc.root.label, "/" + doc.root.label)
    root.instance_count = 1
    root.strong = True
    root.one_to_one = True
    _summarize_children(doc.root, root)
    counters = _walk_counts(doc.root, root)
    summary = Summary(root, name=name or f"summary({doc.name})")
    summary._instance_counts, summary._with_child, summary._with_exactly_one = counters
    return summary


def _summarize_children(doc_node: XMLNode, summary_node: SummaryNode) -> None:
    """Create summary children for every distinct child label, recursively."""
    for child in doc_node.children:
        target = summary_node.child_with_label(child.label)
        if target is None:
            target = SummaryNode(
                child.label, f"{summary_node.path}/{child.label}", parent=summary_node
            )
            summary_node.children.append(target)
        _summarize_children(child, target)


def _walk_counts(
    doc_root: XMLNode, summary_root: SummaryNode
) -> tuple[dict[str, int], dict[tuple[str, str], int], dict[tuple[str, str], int]]:
    """Compute instance counts plus strong / one-to-one edge flags.

    Returns the three counter maps so :func:`build_summary` can retain them
    for incremental maintenance."""
    # per summary path: number of document instances
    instance_counts: dict[str, int] = {}
    # per (parent path, child label): number of parent instances with >=1 /
    # exactly-1 such child
    with_child: dict[tuple[str, str], int] = {}
    with_exactly_one: dict[tuple[str, str], int] = {}

    def visit(node: XMLNode) -> None:
        instance_counts[node.path] = instance_counts.get(node.path, 0) + 1
        label_counts: dict[str, int] = {}
        for child in node.children:
            label_counts[child.label] = label_counts.get(child.label, 0) + 1
            visit(child)
        for label, count in label_counts.items():
            key = (node.path, label)
            with_child[key] = with_child.get(key, 0) + 1
            if count == 1:
                with_exactly_one[key] = with_exactly_one.get(key, 0) + 1

    visit(doc_root)

    for summary_node in summary_root.iter_subtree():
        summary_node.instance_count = instance_counts.get(summary_node.path, 0)
        parent = summary_node.parent
        if parent is None:
            continue
        key = (parent.path, summary_node.label)
        parents = instance_counts.get(parent.path, 0)
        summary_node.strong = parents > 0 and with_child.get(key, 0) == parents
        summary_node.one_to_one = (
            parents > 0 and with_exactly_one.get(key, 0) == parents
        )
    return instance_counts, with_child, with_exactly_one


def summary_from_paths(
    paths: Iterable[str | Sequence[object]],
    name: str = "summary",
) -> Summary:
    """Build a summary from explicit rooted paths.

    Each entry is either a path string (``"/a/b/c"``) or a tuple
    ``(path, strong)`` or ``(path, strong, one_to_one)``.  Ancestor paths are
    created implicitly (as non-strong) when missing.  The edge flags apply to
    the edge *entering* the last node of the path.

    Example::

        summary_from_paths(["/a", ("/a/b", True), "/a/b/c", ("/a/d", True, True)])
    """
    entries: list[tuple[str, bool, bool]] = []
    for item in paths:
        if isinstance(item, str):
            entries.append((item, False, False))
        else:
            seq = list(item)
            path = str(seq[0])
            strong = bool(seq[1]) if len(seq) > 1 else False
            one_to_one = bool(seq[2]) if len(seq) > 2 else False
            entries.append((path, strong, one_to_one or False))

    if not entries:
        raise SummaryError("cannot build a summary from an empty path list")

    root_label = entries[0][0].strip("/").split("/")[0]
    root = SummaryNode(root_label, "/" + root_label)
    root.strong = True
    root.one_to_one = True

    def ensure(path: str) -> SummaryNode:
        labels = [p for p in path.split("/") if p]
        if not labels or labels[0] != root_label:
            raise SummaryError(
                f"path {path!r} does not start at the root /{root_label}"
            )
        node = root
        current = "/" + root_label
        for label in labels[1:]:
            current = f"{current}/{label}"
            child = node.child_with_label(label)
            if child is None:
                child = SummaryNode(label, current, parent=node)
                node.children.append(child)
            node = child
        return node

    for path, strong, one_to_one in entries:
        node = ensure(path)
        if strong:
            node.strong = True
        if one_to_one:
            node.one_to_one = True
            node.strong = True
    return Summary(root, name=name)
