"""Pattern fusion: the pattern side of a join of two plan/pattern pairs.

Joining two candidates at a pair of nodes must produce a pattern that is
S-equivalent to the join result (Section 3.2).  Two fusions are implemented:

* **equality fusion** (``⋈=``) — the two joined nodes denote the *same*
  document node; the right node is unified into the left node and the right
  node's subtree is grafted under it,
* **structural fusion** (``⋈≺`` / ``⋈≺≺``) — the right node denotes a child /
  descendant of the left node; the right node's subtree is grafted below the
  left node with the corresponding edge.

In both cases the part of the right pattern *above* the joined node is
dropped.  This is exact only when (a) that part is a bare chain — no stored
attributes, no predicates, no side branches — and (b) the chain's structural
constraint is implied by the summary for every path the joined node can take
in the merged pattern.  When either condition fails the fusion is rejected;
this trades a small amount of completeness (the union-producing joins of
Figure 5, which the paper notes are rare in practice) for guaranteed
soundness of every produced rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.canonical.model import annotate_paths
from repro.patterns.pattern import Axis, PatternNode, TreePattern, node_signature
from repro.summary.dataguide import Summary
from repro.summary.index import SummaryIndex

__all__ = [
    "FusionResult",
    "bare_chain",
    "copied_signatures",
    "copy_with_map",
    "equality_shape",
    "fuse_equality",
    "fuse_structural",
    "structural_shape",
]


@dataclass
class FusionResult:
    """Outcome of a pattern fusion."""

    pattern: TreePattern
    left_map: dict[int, PatternNode]
    right_map: dict[int, PatternNode]


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def copy_with_map(pattern: TreePattern) -> tuple[TreePattern, dict[int, PatternNode]]:
    """Deep-copy a pattern, returning the copy and an old-id → new-node map."""
    mapping: dict[int, PatternNode] = {}

    def copy_node(node: PatternNode) -> PatternNode:
        clone = PatternNode(
            node.label,
            axis=node.axis,
            optional=node.optional,
            nested=node.nested,
            attributes=node.attributes,
            predicate=node.predicate,
            is_return=node.is_return and not node.attributes,
        )
        clone.annotated_paths = node.annotated_paths
        mapping[id(node)] = clone
        for child in node.children:
            copied_child = copy_node(child)
            copied_child.parent = clone
            clone.children.append(copied_child)
        return clone

    new_root = copy_node(pattern.root)
    return TreePattern(new_root, name=pattern.name), mapping


def bare_chain(node: PatternNode) -> Optional[list[PatternNode]]:
    """The strict ancestors of ``node`` when they form a *bare* chain.

    Bare means: no stored attributes, no return marker, no value predicates
    and no side branches (each ancestor's only child is the next chain node).
    Returns the ancestors bottom-up, or None when the chain is not bare.
    """
    chain: list[PatternNode] = []
    current = node
    while current.parent is not None:
        parent = current.parent
        if parent.attributes or parent.is_return:
            return None
        if parent.predicate is not None and not parent.predicate.is_true():
            return None
        if len(parent.children) != 1:
            return None
        chain.append(parent)
        current = parent
    return chain


def _chain_implied(
    node: PatternNode, target_numbers: frozenset[int], index: SummaryIndex
) -> bool:
    """Check that the bare chain above ``node`` is implied by the summary for
    every target summary number the node may take in the merged pattern."""
    chain = bare_chain(node)
    if chain is None:
        return False
    if not chain:
        return True
    # chain is bottom-up; collect (label, axis-below) pairs: the axis stored on
    # a node is the axis of the edge from its parent, so the edge above the
    # joined node is node.axis, the edge above chain[0] is chain[0].axis, etc.
    requirements: list[tuple[str, Axis]] = []
    below_axis = node.axis or Axis.DESCENDANT
    for ancestor in chain:
        requirements.append((ancestor.label, below_axis))
        below_axis = ancestor.axis or Axis.DESCENDANT

    for target in target_numbers:
        summary_node = index.node(target)
        ancestors = list(summary_node.iter_ancestors())  # nearest first
        if not _match_chain(requirements, ancestors, 0, 0):
            return False
    return True


def _match_chain(requirements, ancestors, req_index, anc_index) -> bool:
    """Match the (label, axis) requirements bottom-up against summary ancestors."""
    if req_index == len(requirements):
        return True
    if anc_index >= len(ancestors):
        return False
    label, axis = requirements[req_index]
    last_requirement = req_index == len(requirements) - 1
    if axis is Axis.CHILD:
        candidate = ancestors[anc_index]
        if label not in ("*", candidate.label):
            return False
        if last_requirement and candidate.parent is not None:
            # the chain top must be the document root
            return False
        return _match_chain(requirements, ancestors, req_index + 1, anc_index + 1)
    for position in range(anc_index, len(ancestors)):
        candidate = ancestors[position]
        if label not in ("*", candidate.label):
            continue
        if last_requirement and candidate.parent is not None:
            continue
        if _match_chain(requirements, ancestors, req_index + 1, position + 1):
            return True
    return False


def _labels_compatible(left: str, right: str) -> Optional[str]:
    """Unified label of two nodes denoting the same document node, or None."""
    if left == right:
        return left
    if left == "*":
        return right
    if right == "*":
        return left
    return None


def _make_required(node: PatternNode) -> None:
    """Clear the optional flag on ``node`` and all its ancestors.

    A join on a node's identifier discards null bindings, which makes the
    whole path from the root to that node mandatory in the merged pattern.
    """
    current = node
    while current is not None:
        current.optional = False
        current = current.parent


def _paths_ok(pattern: TreePattern) -> bool:
    """Every node not under an optional edge must have at least one path."""
    for node in pattern.nodes():
        under_optional = node.optional or any(
            ancestor.optional for ancestor in node.iter_ancestors()
        )
        if under_optional:
            continue
        if not node.annotated_paths:
            return False
    return True


# --------------------------------------------------------------------------- #
# the shape of a fusion, before it is built
# --------------------------------------------------------------------------- #
# annotate_paths reads only labels, edges and optional flags, so the
# annotated signature Prop. 3.5 compares is a function of the unannotated
# one: two fusions with the same shape are the same candidate.
def copied_signatures(pattern: TreePattern) -> dict[int, tuple]:
    """Node id → the unannotated signature of its subtree as
    :func:`copy_with_map` copies it (a node with stored attributes loses its
    plain return marker)."""
    signatures: dict[int, tuple] = {}
    for node in reversed(pattern.nodes()):
        signatures[id(node)] = _copied_own(node, node.optional) + tuple(
            signatures[id(child)] for child in node.children
        )
    return signatures


def _copied_own(node: PatternNode, optional: bool) -> tuple:
    return node_signature(
        node.label,
        node.axis,
        optional,
        node.nested,
        node.attributes,
        node._return_flag and not node.attributes,
        node.predicate,
    )


def _required_up(anchor: PatternNode, own: tuple, below: tuple, signatures) -> tuple:
    """The shape of the whole pattern once ``anchor`` has own part ``own``
    and children ``below``, with :func:`_make_required`'s clears on the path
    from the root."""
    current = own + below
    child, node = anchor, anchor.parent
    while node is not None:
        current = _copied_own(node, False) + tuple(
            current if other is child else signatures[id(other)]
            for other in node.children
        )
        child, node = node, node.parent
    return current


def structural_shape(
    upper_node: PatternNode,
    upper_signatures: dict[int, tuple],
    lower_node: PatternNode,
    lower_signatures: dict[int, tuple],
    axis: Axis,
) -> tuple:
    """The unannotated signature :func:`fuse_structural` would produce."""
    grafted = node_signature(
        lower_node.label,
        axis,
        False,
        False,
        lower_node.attributes,
        lower_node._return_flag and not lower_node.attributes,
        lower_node.predicate,
    ) + tuple(lower_signatures[id(child)] for child in lower_node.children)
    below = tuple(upper_signatures[id(child)] for child in upper_node.children)
    return _required_up(
        upper_node, _copied_own(upper_node, False), below + (grafted,), upper_signatures
    )


def equality_shape(
    left_node: PatternNode,
    left_signatures: dict[int, tuple],
    right_node: PatternNode,
    right_signatures: dict[int, tuple],
) -> Optional[tuple]:
    """The unannotated signature :func:`fuse_equality` would produce, or
    None when the labels cannot be unified."""
    label = _labels_compatible(left_node.label, right_node.label)
    if label is None:
        return None
    predicate = left_node.predicate
    if right_node.predicate is not None:
        predicate = (
            right_node.predicate
            if predicate is None
            else predicate.and_(right_node.predicate)
        )
    own = node_signature(
        label,
        left_node.axis,
        False,
        left_node.nested,
        tuple(dict.fromkeys(left_node.attributes + right_node.attributes)),
        right_node.is_return or (left_node._return_flag and not left_node.attributes),
        predicate,
    )
    below = tuple(left_signatures[id(child)] for child in left_node.children) + tuple(
        right_signatures[id(child)] for child in right_node.children
    )
    return _required_up(left_node, own, below, left_signatures)


# --------------------------------------------------------------------------- #
# fusions
# --------------------------------------------------------------------------- #
def fuse_equality(
    left_pattern: TreePattern,
    left_node: PatternNode,
    right_pattern: TreePattern,
    right_node: PatternNode,
    summary: Summary,
    index: SummaryIndex,
) -> Optional[FusionResult]:
    """Merge two patterns joined by ``⋈=`` on (left_node, right_node)."""
    unified_label = _labels_compatible(left_node.label, right_node.label)
    if unified_label is None:
        return None
    if bare_chain(right_node) is None:
        return None

    new_pattern, left_map = copy_with_map(left_pattern)
    right_copy, right_map = copy_with_map(right_pattern)
    unified = left_map[id(left_node)]
    right_joined = right_map[id(right_node)]

    unified.label = unified_label
    if right_joined.predicate is not None:
        unified.predicate = (
            right_joined.predicate
            if unified.predicate is None
            else unified.predicate.and_(right_joined.predicate)
        )
    unified.attributes = tuple(
        dict.fromkeys(unified.attributes + right_joined.attributes)
    )
    if right_joined.is_return:
        unified.is_return = True
    for child in list(right_joined.children):
        child.parent = None
        right_joined.children.remove(child)
        child.parent = unified
        unified.children.append(child)
    _make_required(unified)

    # every right node above the join point is dropped; below it, nodes map to
    # the grafted copies; the joined node itself maps to the unified node
    final_right_map: dict[int, PatternNode] = {}
    for old_id, copied in right_map.items():
        if copied is right_joined:
            final_right_map[old_id] = unified
        else:
            final_right_map[old_id] = copied

    annotate_paths(new_pattern, summary)
    if not unified.annotated_paths:
        return None
    if not _chain_implied(right_node, unified.annotated_paths, index):
        return None
    if not _paths_ok(new_pattern):
        return None
    return FusionResult(new_pattern, left_map, final_right_map)


def fuse_structural(
    upper_pattern: TreePattern,
    upper_node: PatternNode,
    lower_pattern: TreePattern,
    lower_node: PatternNode,
    axis: Axis,
    summary: Summary,
    index: SummaryIndex,
) -> Optional[FusionResult]:
    """Merge two patterns joined by a structural join.

    ``upper_node`` (kept with its whole pattern) becomes the parent
    (``axis = CHILD``) or an ancestor (``axis = DESCENDANT``) of
    ``lower_node``, whose subtree is grafted below it.
    """
    if bare_chain(lower_node) is None:
        return None

    new_pattern, upper_map = copy_with_map(upper_pattern)
    lower_copy_pattern, lower_map = copy_with_map(lower_pattern)
    anchor = upper_map[id(upper_node)]
    grafted = lower_map[id(lower_node)]

    grafted.parent = None
    grafted.axis = axis
    grafted.optional = False
    grafted.nested = False
    anchor.attach(grafted)
    _make_required(anchor)

    annotate_paths(new_pattern, summary)
    if not grafted.annotated_paths:
        return None
    if not _chain_implied(lower_node, grafted.annotated_paths, index):
        return None
    if not _paths_ok(new_pattern):
        return None
    return FusionResult(new_pattern, upper_map, lower_map)
