"""Property: indexed path annotation is set-identical to the reference.

``repro.canonical.annotate_paths`` computes Definition 2.1 by set algebra
over the summary's shared ``SummaryIndex``; ``support.annotation_oracle``
keeps the node-by-node dynamic program it replaced.  The two must agree

* on every pattern the rewriting search annotates for the paper workloads
  (query, view prototypes, unfolded candidates, every fused join pattern),
* on drawn patterns with wildcards, absent labels, optional and nested
  edges over random-document summaries — and keep agreeing after a live
  insert that adds a summary path (the index must be dropped) and after one
  that does not (the index must be kept).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import XMLNode, build_summary, generate_random_document
from repro.canonical import annotate_paths
from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.rewriting.algorithm import RewritingConfig
from repro.rewriting.rewriter import Rewriter
from repro.xmltree.generator import ChildSpec, RandomDocumentSpec
from support.annotation_oracle import oracle_annotations

# The oracle costs milliseconds per pattern, so each distinct pattern is
# checked once; the budget only cuts short the workloads' unanswerable
# queries (one DBLP pattern searches for minutes without it) — identity is
# asserted on whatever the search got to annotate.
SEARCH_CONFIG = RewritingConfig(
    max_rewritings=2, max_plan_size=3, enable_unions=False, time_budget_seconds=0.5
)


def _annotations(pattern):
    return [node.annotated_paths for node in pattern.nodes()]


@pytest.mark.parametrize("workload_name", ["xmark_workload", "dblp_workload"])
def test_every_search_annotation_matches_the_oracle(workload_name, request, monkeypatch):
    workload = request.getfixturevalue(workload_name)
    checked: set = set()

    def checking_annotate(pattern, summary):
        annotate_paths(pattern, summary)
        signature = pattern.root.signature(include_paths=True)
        if signature not in checked:
            checked.add(signature)
            assert _annotations(pattern) == oracle_annotations(pattern, summary), (
                pattern.to_text()
            )
        return pattern

    for module in ("repro.rewriting.algorithm", "repro.rewriting.fusion", "repro.views.catalog"):
        monkeypatch.setattr(f"{module}.annotate_paths", checking_annotate)
    rewriter = Rewriter(workload.summary, workload.view_set, SEARCH_CONFIG)
    for query in workload.queries:
        rewriter.rewrite(query)
    # view prototypes + queries + fused candidates: far more than the inputs
    assert len(checked) > len(workload.views) + len(workload.queries)


# --------------------------------------------------------------------------- #
# drawn patterns over random-document summaries, before and after live inserts
# --------------------------------------------------------------------------- #
LABELS = ("a", "b", "c", "d", "e")
SPEC = RandomDocumentSpec(
    root="r",
    children={
        "r": [ChildSpec("a", 1, 2), ChildSpec("b", 0, 2, 0.7)],
        "a": [ChildSpec("b", 1, 1), ChildSpec("c", 0, 2, 0.6), ChildSpec("a", 0, 1, 0.5)],
        "b": [ChildSpec("d", 0, 2, 0.5), ChildSpec("e", 1, 1, 0.5)],
        "c": [ChildSpec("d", 1, 2), ChildSpec("b", 0, 1, 0.4)],
    },
    max_depth=6,
    max_recursion=2,
)


@st.composite
def patterns(draw):
    """A pattern rooted at ``r``: labels from the spec, ``*``, one label no
    document has (``zz``) and the one the shape-changing insert adds
    (``new``); every mix of ``/``, ``//``, optional and nested edges."""
    root = PatternNode("r")
    grown = [root]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        parent = grown[draw(st.integers(min_value=0, max_value=len(grown) - 1))]
        grown.append(
            parent.add_child(
                draw(st.sampled_from(LABELS + ("*", "*", "zz", "new"))),
                axis=draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT])),
                optional=draw(st.booleans()),
                nested=draw(st.booleans()),
            )
        )
    grown[-1].is_return = True
    return TreePattern(root, name="drawn")


def _assert_identical(pattern, summary):
    annotate_paths(pattern, summary)
    assert _annotations(pattern) == oracle_annotations(pattern, summary), pattern.to_text()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), pattern=patterns())
def test_drawn_patterns_match_the_oracle_across_live_inserts(seed, pattern):
    document = generate_random_document(SPEC, seed=seed)
    summary = build_summary(document)
    _assert_identical(pattern, summary)

    # an insert that adds no path: a copy of an existing subtree beside it
    index = summary.index
    existing = document.root.children[0]
    twin = document.insert_subtree(document.root, existing.copy())
    delta = summary.observe_insert(document.root, twin)
    assert not delta.structure_changed
    assert summary.index is index
    _assert_identical(pattern, summary)

    # an insert that adds paths (numbered after every existing node): the
    # summary must hand out an index that knows them
    added = XMLNode("new")
    added.append(XMLNode("b")).append(XMLNode("d"))
    parent = document.root.children[-1]
    subtree = document.insert_subtree(parent, added)
    delta = summary.observe_insert(parent, subtree)
    assert delta.structure_changed
    assert summary.index is not index
    _assert_identical(pattern, summary)

    # and deleting it again retires them
    summary.observe_delete(parent, document.delete_subtree(subtree))
    assert not summary.has_path(f"{parent.path}/new")
    _assert_identical(pattern, summary)
