"""Pre-processing steps applied to views before the rewriting search.

View pruning (Proposition 3.4) is the view catalog's inverted path index
(:meth:`~repro.views.catalog.ViewCatalog.candidate_positions`).  Two steps
from the paper are implemented here:

* **C-attribute unfolding** (Section 4.6) — a view node storing content can
  serve query nodes *below* it; we materialise this by adding optional child
  chains (labelled from the summary) under the content node, whose attributes
  are derivable by navigating inside the stored content.  The unfolding is
  *targeted*: only summary paths the query actually touches are unfolded,
* **virtual IDs** (Section 4.6) — when the view's identifier scheme derives
  parents (Dewey / ORDPATH) and all paths of a node sit at the same vertical
  distance below it, ancestors of ID-carrying nodes obtain a derivable ID.
"""

from __future__ import annotations

from dataclasses import replace

from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.rewriting.candidates import LazyColumn, RewriteCandidate
from repro.summary.index import SummaryIndex

__all__ = ["unfold_content", "add_virtual_ids", "query_path_targets"]

# Cap on how many summary descendants are unfolded under one C attribute.
_MAX_UNFOLD_TARGETS = 24


def query_path_targets(query: TreePattern) -> set[int]:
    """Summary numbers associated with any (non-root) query node."""
    targets: set[int] = set()
    for node in query.nodes():
        if node.parent is None:
            continue
        if node.annotated_paths:
            targets |= set(node.annotated_paths)
    return targets


# --------------------------------------------------------------------------- #
# C unfolding
# --------------------------------------------------------------------------- #
def unfold_content(
    candidate: RewriteCandidate,
    targets: set[int],
    index: SummaryIndex,
) -> RewriteCandidate:
    """Unfold the ``C`` attributes of a candidate towards the query's paths.

    For every pattern node storing ``C`` and every query-relevant summary
    node strictly below one of its associated paths, an *optional* child
    chain is added to the candidate's pattern; the chain tip's ``ID``, ``V``
    and ``C`` attributes become lazily derivable by content navigation.
    The added branches carry no return attributes, so the pattern's semantics
    is unchanged — they only widen what the rewriting may project or join on.
    """
    lazy = dict(candidate.lazy)
    pattern = candidate.pattern
    for node in list(pattern.nodes()):
        content_column = candidate.columns.get((id(node), "C"))
        if content_column is None:
            continue
        if not node.annotated_paths:
            continue
        added = 0
        for source in sorted(node.annotated_paths):
            for target in sorted(targets):
                if not index.is_ancestor(source, target):
                    continue
                if added >= _MAX_UNFOLD_TARGETS:
                    break
                labels = index.chain_labels(source, target)
                tip = _add_optional_chain(node, labels)
                tip.annotated_paths = frozenset({target})
                steps = tuple((Axis.CHILD, label) for label in labels)
                for attribute in ("ID", "V", "C", "L"):
                    lazy[(id(tip), attribute)] = LazyColumn(
                        kind="content",
                        source_column=content_column,
                        attribute=attribute,
                        steps=steps,
                        optional=True,
                    )
                added += 1
    return replace(candidate, pattern=pattern, lazy=lazy)


def _add_optional_chain(node: PatternNode, labels: list[str]) -> PatternNode:
    """Add (or reuse) an optional ``/``-chain with the given labels below
    ``node`` and return the tip node."""
    current = node
    for label in labels:
        existing = None
        for child in current.children:
            if (
                child.label == label
                and child.axis is Axis.CHILD
                and child.optional
                and not child.attributes
                and child.predicate is None
            ):
                existing = child
                break
        if existing is None:
            existing = current.add_child(label, axis=Axis.CHILD, optional=True)
        current = existing
    return current


# --------------------------------------------------------------------------- #
# virtual IDs
# --------------------------------------------------------------------------- #
def add_virtual_ids(
    candidate: RewriteCandidate,
    index: SummaryIndex,
    derives_parent: bool,
) -> RewriteCandidate:
    """Add lazily derivable ancestor IDs (Section 4.6).

    Starting from every pattern node with a materialised ``ID`` column, walk
    up its ancestors; whenever all associated path pairs sit at the same
    vertical distance, the ancestor gains a lazy ``ID`` derived with
    ``navfID``.  Requires a parent-derivable identifier scheme.
    """
    if not derives_parent:
        return candidate
    lazy = dict(candidate.lazy)
    for node in candidate.pattern.nodes():
        id_column = candidate.columns.get((id(node), "ID"))
        if id_column is None or not node.annotated_paths:
            continue
        ancestor = node.parent
        while ancestor is not None:
            key = (id(ancestor), "ID")
            if key in candidate.columns or key in lazy:
                ancestor = ancestor.parent
                continue
            if not ancestor.annotated_paths:
                break
            distance = index.constant_depth_difference(
                ancestor.annotated_paths, node.annotated_paths
            )
            if distance is None or distance <= 0:
                break
            lazy[key] = LazyColumn(
                kind="parent",
                source_column=id_column,
                attribute="ID",
                levels_up=distance,
            )
            ancestor = ancestor.parent
    return replace(candidate, lazy=lazy)
