"""Benchmark for Figure 15: rewriting the XMark query patterns against the
seed + random view set (setup time, time to first rewriting, total time,
view-pruning ratio)."""

import pytest
from repro.experiments.fig15 import fig15_views, print_fig15, run_fig15
from repro.rewriting.algorithm import RewritingConfig, RewritingSearch
from repro.views.catalog import ViewCatalog

pytestmark = [pytest.mark.bench, pytest.mark.slow]


@pytest.mark.benchmark(group="fig15")
@pytest.mark.parametrize("query_name", ["Q1", "Q5", "Q6", "Q18", "Q19"])
def test_fig15_single_query_rewriting(
    benchmark, xmark_summary_bench, xmark_queries_bench, query_name
):
    """Rewriting time for representative XMark queries."""
    catalog = ViewCatalog(
        xmark_summary_bench, fig15_views(xmark_summary_bench, random_view_count=25)
    )
    config = RewritingConfig(
        time_budget_seconds=3.0, max_rewritings=1, max_plan_size=8, enable_unions=False
    )

    def rewrite_once():
        search = RewritingSearch(xmark_queries_bench[query_name], catalog, config)
        search.run()
        return search.statistics

    stats = benchmark.pedantic(rewrite_once, rounds=1, iterations=1)
    first = (
        f"{stats.first_rewriting_seconds * 1000:.1f} ms"
        if stats.first_rewriting_seconds is not None
        else "none"
    )
    print(
        f"\n{query_name}: setup {stats.setup_seconds * 1000:.1f} ms, first {first}, "
        f"total {stats.total_seconds * 1000:.1f} ms, kept {stats.pruning_ratio:.0%} of views"
    )


@pytest.mark.benchmark(group="fig15")
def test_fig15_full_report(benchmark, xmark_summary_bench):
    """Print the full Figure 15 report (all 20 queries) once."""
    rows = benchmark.pedantic(
        run_fig15,
        kwargs={
            "summary": xmark_summary_bench,
            "random_view_count": 25,
            "time_budget_seconds": 2.0,
            "max_rewritings": 1,
        },
        rounds=1,
        iterations=1,
    )
    assert len(rows) == 20
    print()
    print_fig15(rows)
