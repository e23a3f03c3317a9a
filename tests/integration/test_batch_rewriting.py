"""Regression guarantees of the batch / catalog rewriting fast path.

The whole point of ``ViewCatalog`` + ``rewrite_many`` is that they change
*cost*, never *results*: these tests pin down plan-for-plan equality with
the per-query, scan-everything seed path.
"""

from __future__ import annotations

import re

import pytest

from repro import MaterializedView, build_summary
from repro.containment.core import clear_containment_cache, containment_cache_disabled
from repro.rewriting.algorithm import RewritingConfig, RewritingSearch
from repro.rewriting.rewriter import Rewriter
from repro.workloads.synthetic import batch_rewriting_workload
from repro.workloads.xmark import generate_xmark_document

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


def test_rewrite_many_equals_per_query_rewrite(workload):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    batched = rewriter.rewrite_many(queries)
    assert len(batched) == len(queries)
    for query, outcome in zip(queries, batched):
        single = rewriter.rewrite(query)
        assert outcome.query is query
        assert _fingerprint(outcome) == _fingerprint(single)


def test_catalog_path_equals_naive_path(workload):
    """The catalog + memo fast path returns exactly the seed path's plans."""
    summary, views, queries, config = workload
    clear_containment_cache()
    fast = Rewriter(summary, views, config, use_catalog=True).rewrite_many(queries)
    naive_rewriter = Rewriter(summary, views, config, use_catalog=False)
    with containment_cache_disabled():
        naive = [naive_rewriter.rewrite(query) for query in queries]
    assert [_fingerprint(o) for o in fast] == [_fingerprint(o) for o in naive]
    # the workload is built so a healthy fraction of queries actually rewrite
    assert sum(1 for outcome in fast if outcome.found) >= len(queries) // 2


def test_batch_statistics_report_catalog_pruning(workload):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    outcomes = rewriter.rewrite_many(queries[:4])
    for outcome in outcomes:
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
    config = RewritingConfig(stop_at_first=True, time_budget_seconds=1.0)
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
    rewriter.rewrite_many(queries[:2])
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
