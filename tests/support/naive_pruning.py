"""The per-query view pruning the view catalog replaced, kept as the reference.

Before every rewriting search went through a
:class:`~repro.views.catalog.ViewCatalog`, the search could run without one:
it re-derived every view's initial candidate, annotated its pattern against
the summary and applied Proposition 3.4 view by view.  That fallback is kept
here verbatim, with the usefulness test it called; the catalog must keep
exactly the views it keeps, in the same order, with equal annotated
candidates (``tests/integration/test_batch_rewriting.py``).
"""

from __future__ import annotations

from repro.canonical.model import annotate_paths
from repro.patterns.pattern import TreePattern
from repro.rewriting.candidates import initial_candidate
from repro.summary.index import SummaryIndex

__all__ = ["naive_initial_candidates", "view_is_useful"]


def view_is_useful(
    view_pattern: TreePattern, query: TreePattern, index: SummaryIndex
) -> bool:
    """Proposition 3.4: keep a view only if some non-root view node is
    path-related (equal / ancestor / descendant) to some non-root query node."""
    query_paths: list[frozenset[int]] = [
        node.annotated_paths or frozenset()
        for node in query.nodes()
        if node.parent is not None
    ]
    if not query_paths:
        # a single-node query relates to everything through its root
        return True
    for view_node in view_pattern.nodes():
        if view_node.parent is None:
            continue
        view_paths = view_node.annotated_paths or frozenset()
        if not view_paths:
            continue
        for q_paths in query_paths:
            if q_paths and (
                not view_paths.isdisjoint(q_paths)
                or index.any_ancestor(view_paths, q_paths)
                or index.any_ancestor(q_paths, view_paths)
            ):
                return True
    return False


def naive_initial_candidates(query, summary, views):
    """Yield (view, annotated candidate) pairs surviving Prop. 3.4.

    Re-derives and re-annotates every view from scratch and filters per
    pair.  ``query`` must already be annotated."""
    index = summary.index
    for view in views:
        candidate = initial_candidate(view)
        annotate_paths(candidate.pattern, summary)
        if not view_is_useful(candidate.pattern, query, index):
            continue
        yield view, candidate
