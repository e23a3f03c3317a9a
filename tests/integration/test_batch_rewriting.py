"""Regression guarantees of the catalog rewriting path.

The view catalog and the containment memo change *cost*, never *results*:
these tests pin down plan-for-plan equality with no memo (``support.memo_free``), and
view-for-view equality of the catalog's Prop. 3.4 pruning with the
per-query, scan-everything seed pruning (``support.naive_pruning``).
"""

from __future__ import annotations

import re

import pytest

from repro import MaterializedView, annotate_paths, build_summary
from repro.containment.core import clear_containment_cache
from repro.experiments.fig15 import fig15_views
from repro.rewriting.algorithm import RewritingConfig, RewritingSearch
from repro.rewriting.rewriter import Rewriter
from repro.views.catalog import ViewCatalog
from repro.workloads.synthetic import batch_rewriting_workload
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns
from support.memo_free import memo_free
from support.naive_pruning import naive_initial_candidates

_ALIAS = re.compile(r"[@#]\d+")


def _fingerprint(outcome):
    """Identity of an outcome's rewritings modulo generated alias counters."""
    return [
        (tuple(r.views_used), r.is_union, _ALIAS.sub("@N", r.plan.describe()))
        for r in outcome.rewritings
    ]


@pytest.fixture(scope="module")
def workload():
    summary = build_summary(
        generate_xmark_document(scale=0.4, seed=548, name="xmark-batch")
    )
    view_patterns, queries = batch_rewriting_workload(
        summary, view_count=15, distinct_queries=8, repeat=3
    )
    views = [
        MaterializedView(pattern, name=f"bv{index}")
        for index, pattern in enumerate(view_patterns)
    ]
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=10.0,
    )
    return summary, views, queries, config


def test_catalog_path_equals_naive_path(workload):
    """Searches sharing the containment memo return exactly the plans of
    searches that decide every containment test afresh."""
    summary, views, queries, config = workload
    clear_containment_cache()
    rewriter = Rewriter(summary, views, config)
    fast = [rewriter.rewrite(query) for query in queries]
    with memo_free():
        naive = [Rewriter(summary, views, config).rewrite(query) for query in queries]
    assert [_fingerprint(o) for o in fast] == [_fingerprint(o) for o in naive]
    # the workload is built so a healthy fraction of queries actually rewrite
    assert sum(1 for outcome in fast if outcome.found) >= len(queries) // 2


def _prototype(candidate):
    """An annotated initial candidate modulo its generated scan alias."""
    nodes = candidate.pattern.nodes()
    position = {id(node): index for index, node in enumerate(nodes)}

    def keyed(table):
        return sorted(
            (position[node_id], attribute, _ALIAS.sub("@N", repr(value)))
            for (node_id, attribute), value in table.items()
        )

    return (
        candidate.pattern.root.signature(include_paths=True),
        candidate.views_used,
        candidate.plan.view_name,
        keyed(candidate.columns),
        keyed(candidate.lazy),
        sorted(_ALIAS.sub("@N", name) for name in candidate.unnested_columns),
    )


def _assert_catalog_prunes_like_the_seed(summary, views, queries):
    catalog = ViewCatalog(summary, views)
    for query in queries:
        query = annotate_paths(query.copy(name=query.name), summary)
        fast = list(catalog.initial_candidates(query))
        naive = list(naive_initial_candidates(query, summary, views))
        assert [view.name for view, _ in fast] == [view.name for view, _ in naive], (
            query.name
        )
        for (_, kept), (_, seed) in zip(fast, naive):
            assert _prototype(kept) == _prototype(seed), query.name


def test_catalog_keeps_the_views_the_seed_pruning_keeps(workload):
    """``ViewCatalog.initial_candidates`` yields the views the per-view
    Prop. 3.4 scan keeps, in view order, with equal annotated candidates —
    over the batch workload and the 20 XMark queries against the
    167-view Figure 15 pool."""
    summary, views, queries, _ = workload
    _assert_catalog_prunes_like_the_seed(summary, views, queries)
    xmark = build_summary(generate_xmark_document(scale=1.0, seed=548))
    pool = fig15_views(xmark, 100)
    assert len(pool) == 167
    _assert_catalog_prunes_like_the_seed(
        xmark, pool, list(xmark_query_patterns().values())
    )


def test_batch_statistics_report_catalog_pruning(workload):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    for outcome in map(rewriter.rewrite, queries[:4]):
        stats = outcome.statistics
        assert stats.views_before_pruning == len(views)
        assert 0 <= stats.views_after_pruning <= len(views)


def test_time_budget_bounds_exploding_containment_tests():
    """Join candidates with many optional edges have exponentially many
    canonical variants; the search deadline must interrupt a containment
    test mid-enumeration instead of letting one test outlive the budget.
    (Regression: the catalog+memo fast path reached such candidates within
    the budget and then hung for minutes inside a single test.)"""
    import time

    from repro import parse_pattern, xpath_to_pattern
    from repro.workloads.dblp import generate_dblp_document

    document = generate_dblp_document("2005", scale=1.0, seed=21, name="dblp-budget")
    summary = build_summary(document)
    views = [
        MaterializedView(
            parse_pattern(
                "dblp(//article[ID](/?title[ID,V], /?author[ID,V], "
                "/?journal[ID,V], /?volume[ID,V]))",
                name="v_articles",
            ),
            name="v_articles",
        )
    ]
    query = xpath_to_pattern("/dblp//article[volume > 10]/title")
    config = RewritingConfig(max_rewritings=1, time_budget_seconds=1.0)
    rewriter = Rewriter(summary, views, config)
    start = time.perf_counter()
    rewriter.rewrite(query)
    elapsed = time.perf_counter() - start
    # generous margin over the 1 s budget: the deadline fires at canonical-
    # variant granularity, not instantly
    assert elapsed < 15.0, f"search overran its budget: {elapsed:.1f}s"


# the paper workloads of the A/B harness, searched without a time budget so
# both sides explore the same space: fig13 at plan size 3, fig14 at plan
# size 2 without dblp-q3, whose unbudgeted search alone takes seconds
_PAPER_SEARCHES = {
    "fig13": RewritingConfig(
        max_rewritings=2, max_plan_size=3, enable_unions=False,
        time_budget_seconds=None,
    ),
    "fig14": RewritingConfig(
        max_rewritings=2, max_plan_size=2, enable_unions=False,
        time_budget_seconds=None,
    ),
}


def _paper_searches(xmark_workload, dblp_workload):
    """Rewritings and search counters of every paper-workload search."""
    cases = {
        "fig13": (xmark_workload, xmark_workload.queries),
        "fig14": (
            dblp_workload,
            [query for query in dblp_workload.queries if query.name != "dblp-q3"],
        ),
    }
    searches = {}
    for name, (paper, queries) in cases.items():
        rewriter = Rewriter(paper.summary, paper.view_set, _PAPER_SEARCHES[name])
        for query in queries:
            outcome = rewriter.rewrite(query)
            searches[name, query.name] = (
                _fingerprint(outcome), outcome.statistics.search_counters()
            )
    return searches


@pytest.fixture(scope="module")
def paper_searches(xmark_workload, dblp_workload):
    """The searches with the fast containment deciders in place (module
    scope, so they run before a test's ``canonical_only`` switches them off)."""
    clear_containment_cache()
    return _paper_searches(xmark_workload, dblp_workload)


def test_fast_deciders_leave_paper_rewritings_unchanged(
    paper_searches, xmark_workload, dblp_workload, canonical_only
):
    """The homomorphism and ancestry deciders change cost, never decisions:
    with every containment test on the canonical model, the fig13 / fig14
    searches find the same plans after the same search counts."""
    assert _paper_searches(xmark_workload, dblp_workload) == paper_searches
    assert any(fingerprint for fingerprint, _ in paper_searches.values())


def _without_skips(counters):
    return {name: count for name, count in counters.items() if name != "fusions_skipped"}


def test_pre_fusion_skip_leaves_paper_searches_unchanged(
    paper_searches, xmark_workload, dblp_workload, monkeypatch
):
    """Prop. 3.5 before fusion changes cost, never the search: with the skip
    off, the fig13 / fig14 searches find the same plans after the same
    counts, every fused pattern has the shape composed before fusion, and
    every pair the skip drops is rejected by the fusion or by ``_combine``."""
    skipped = sum(counters["fusions_skipped"] for _, counters in paper_searches.values())
    assert skipped > 0
    flagged, outcomes = [], []
    would_skip = RewritingSearch._skips

    def recording_skips(self, shape):
        if would_skip(self, shape):
            flagged.append(shape)
        return False

    def recorded(method):
        def run(self, *args, **kwargs):
            flagged.clear()
            result = method(self, *args, **kwargs)
            if flagged:
                outcomes.append(result)
            return result
        return run

    combine = RewritingSearch._combine

    def checked_combine(self, left, right, left_map, right_map, pattern, plan, shape):
        assert shape == pattern.root.signature()
        return combine(self, left, right, left_map, right_map, pattern, plan, shape)

    monkeypatch.setattr(RewritingSearch, "_skips", recording_skips)
    monkeypatch.setattr(RewritingSearch, "_combine", checked_combine)
    for name in ("_structural_candidate", "_equality_candidate"):
        monkeypatch.setattr(RewritingSearch, name, recorded(getattr(RewritingSearch, name)))
    clear_containment_cache()
    unskipped = _paper_searches(xmark_workload, dblp_workload)
    assert unskipped.keys() == paper_searches.keys()
    for key, (fingerprint, counters) in paper_searches.items():
        assert unskipped[key][0] == fingerprint, key
        assert unskipped[key][1]["fusions_skipped"] == 0
        assert _without_skips(unskipped[key][1]) == _without_skips(counters), key
    assert len(outcomes) == skipped and set(outcomes) == {None}


def test_catalog_is_built_once_and_invalidates(workload):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    first = rewriter.catalog
    for query in queries[:2]:
        rewriter.rewrite(query)
    assert rewriter.catalog is first
    rewriter.invalidate_catalog()
    assert rewriter.catalog is not first


def test_catalog_rebuilds_after_view_set_mutation():
    """Adding / removing views must not leave the rewriter on a stale
    catalog: a query answerable only by the newly added view rewrites."""
    from repro import parse_parenthesized, parse_pattern

    doc = parse_parenthesized(
        'site(regions(asia(item(name="pen") item(name="ink"))))', name="mut"
    )
    summary = build_summary(doc)
    v_item = MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"))
    v_name = MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"))
    rewriter = Rewriter(summary, [v_item])
    query = parse_pattern("site(//name[ID,V])")
    assert not rewriter.rewrite(query).found
    rewriter.views.add(v_name)
    assert rewriter.rewrite(query).found
    rewriter.views.remove("v_name")
    assert not rewriter.rewrite(query).found
