"""The two paper workloads of the A/B identity harness, built once per session.

* **fig13** — the XMark document (``seed=548``, ``scale=0.4`` in tier-1)
  and the 20 XMark query patterns (the workload behind Figures 13 and 15),
  rewritten against the seed tag views plus random 3-node views, all
  materialised;
* **fig14** — the DBLP'05 document with random synthetic query patterns
  (the Figure 14 setup), rewritten against the DBLP seed views.

Scales are small so the harness stays tier-1 material, and the rewriting
search — the slow part, bounded by a 1 s budget per query — runs once per
:data:`HARNESS_CONFIGS` entry, whichever test asks first.  Consumers must
treat a workload as read-only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro import MaterializedView, build_summary
from repro.rewriting.algorithm import Rewriting, RewritingConfig
from repro.rewriting.rewriter import Rewriter
from repro.views.store import ViewSet
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.synthetic import (
    SyntheticPatternConfig,
    generate_random_pattern,
    generate_random_views,
    seed_tag_views,
)
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns

__all__ = [
    "HARNESS_CONFIGS",
    "PaperWorkload",
    "build_dblp_workload",
    "build_xmark_workload",
    "dblp_workload",
    "materialised_views",
    "query_labels",
    "xmark_workload",
]

HARNESS_CONFIGS = {
    # the staircase A/B configuration: joins only
    "unions-off": RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=1.0,
    ),
    # the vectorized / pushdown A/B configuration: the ordered k-way union
    # merge is one of the kernels under test
    "unions-on": RewritingConfig(
        max_rewritings=3, max_plan_size=4, enable_unions=True,
        time_budget_seconds=1.0,
    ),
}


def query_labels(queries):
    """Every label mentioned by any node of any query pattern."""
    labels = set()
    for query in queries:
        for node in query.root.iter_subtree():
            if node.label and node.label != "*":
                labels.add(node.label)
    return labels


def materialised_views(summary, document, labels, random_view_count=8, seed=3):
    """Seed tag views plus a few random 3-node views, all materialised.

    ``labels`` restricts the seed views to the tags the workload's queries
    actually mention — the harness exercises plan execution, not search
    breadth, and a full per-tag view set makes the rewriting search (not the
    executions under test) dominate tier-1 runtime.
    """
    views = []
    for index, pattern in enumerate(seed_tag_views(summary)):
        if pattern.name.removeprefix("seed_") not in labels:
            continue
        views.append(
            MaterializedView(pattern, document, name=f"seed{index}_{pattern.name}")
        )
    for index, pattern in enumerate(
        generate_random_views(summary, count=random_view_count, seed=seed)
    ):
        views.append(MaterializedView(pattern, document, name=f"rand{index}"))
    return views


@dataclass
class PaperWorkload:
    """One document, its materialised views and its query patterns."""

    document: object
    summary: object
    views: list
    queries: list
    _rewritings: dict = field(default_factory=dict)

    def __post_init__(self):
        self.view_set = ViewSet(self.views)

    def rewritings(self, config_name: str) -> list[tuple[object, Rewriting]]:
        """Every ``(query, rewriting)`` the search finds under one config."""
        if config_name not in self._rewritings:
            rewriter = Rewriter(self.summary, self.view_set, HARNESS_CONFIGS[config_name])
            self._rewritings[config_name] = [
                (query, rewriting)
                for query in self.queries
                for rewriting in rewriter.rewrite(query).rewritings
            ]
        return self._rewritings[config_name]


def build_xmark_workload(scale: float) -> PaperWorkload:
    document = generate_xmark_document(scale=scale, seed=548, name="xmark-ab")
    summary = build_summary(document)
    queries = [
        pattern
        for _, pattern in sorted(
            xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
        )
    ]
    views = materialised_views(summary, document, query_labels(queries))
    return PaperWorkload(document, summary, views, queries)


def build_dblp_workload(scale: float) -> PaperWorkload:
    document = generate_dblp_document("2005", scale=scale, seed=5, name="dblp-ab")
    summary = build_summary(document)
    rng = random.Random(17)
    pattern_config = SyntheticPatternConfig(
        size=4,
        optional_probability=0.5,
        return_count=2,
        return_labels=("author", "title", "year"),
    )
    queries = [
        generate_random_pattern(summary, pattern_config, rng=rng, name=f"dblp-q{i}")
        for i in range(8)
    ]
    views = materialised_views(
        summary, document, query_labels(queries), random_view_count=6, seed=11
    )
    return PaperWorkload(document, summary, views, queries)


@pytest.fixture(scope="session")
def xmark_workload() -> PaperWorkload:
    return build_xmark_workload(scale=0.4)


@pytest.fixture(scope="session")
def dblp_workload() -> PaperWorkload:
    return build_dblp_workload(scale=0.6)
