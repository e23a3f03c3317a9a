"""The from-scratch path annotator, kept as the reference.

``repro.canonical.annotate_paths`` computes Definition 2.1 by set algebra
over the summary's ``SummaryIndex``.  This is the node-by-node
``O(|p| * |S|^2)`` dynamic program it replaced — it walks ``SummaryNode``
objects and touches no index, so it cannot share a bug (or a stale index)
with the production annotator.  ``tests/property/test_annotation_identity.py``
requires set-identical annotations; ``tests/integration/test_speed_floors.py``
times the two against each other.
"""

from __future__ import annotations

from repro.patterns.pattern import Axis, TreePattern
from repro.summary.dataguide import Summary
from repro.summary.node import SummaryNode

__all__ = ["associated_paths", "oracle_annotate_paths", "oracle_annotations"]


def associated_paths(
    pattern: TreePattern, summary: Summary
) -> dict[int, set[SummaryNode]]:
    """Compute the set of summary nodes associated to every pattern node.

    The result maps ``id(pattern_node)`` to the set of summary nodes ``s``
    such that some embedding ``e : p → S`` has ``e(n) = s``.  Optional edges
    are treated as required for the node itself but never prevent the rest of
    the pattern from embedding (nodes of optional branches without any image
    simply get an empty path set).  Value predicates are ignored (summary
    nodes carry no values).
    """
    nodes = pattern.nodes()
    summary_nodes = list(summary.iter_nodes())

    # bottom-up feasibility: can the subtree rooted at pattern node n embed
    # with n mapped onto summary node s?  Children below optional edges that
    # cannot embed anywhere do not make their parent infeasible.
    feasible: dict[int, set[int]] = {}
    for node in reversed(nodes):
        images: set[int] = set()
        for s in summary_nodes:
            if not node.matches_label(s.label):
                continue
            ok = True
            for child in node.children:
                candidates = (
                    s.children if child.axis is Axis.CHILD else list(s.iter_descendants())
                )
                child_ok = any(
                    c.number in feasible.get(id(child), set()) for c in candidates
                )
                if not child_ok and not child.optional:
                    ok = False
                    break
            if ok:
                images.add(s.number)
        feasible[id(node)] = images

    # top-down restriction to images reachable from the root
    result: dict[int, set[SummaryNode]] = {id(n): set() for n in nodes}
    root_summary = summary.root
    if root_summary.number in feasible[id(pattern.root)]:
        result[id(pattern.root)].add(root_summary)

    for node in nodes:
        parent_images = result[id(node)]
        if not parent_images:
            continue
        for child in node.children:
            child_feasible = feasible[id(child)]
            allowed: set[SummaryNode] = set()
            for parent_image in parent_images:
                candidates = (
                    parent_image.children
                    if child.axis is Axis.CHILD
                    else list(parent_image.iter_descendants())
                )
                for candidate in candidates:
                    if candidate.number in child_feasible:
                        allowed.add(candidate)
            result[id(child)] |= allowed
    return result


def oracle_annotations(pattern: TreePattern, summary: Summary) -> list[frozenset[int]]:
    """The reference annotation of every node, in pattern pre-order."""
    paths = associated_paths(pattern, summary)
    return [
        frozenset(s.number for s in paths[id(node)]) for node in pattern.nodes()
    ]


def oracle_annotate_paths(pattern: TreePattern, summary: Summary) -> TreePattern:
    """Drop-in for ``annotate_paths`` backed by the reference program."""
    for node, numbers in zip(pattern.nodes(), oracle_annotations(pattern, summary)):
        node.annotated_paths = numbers
    return pattern
