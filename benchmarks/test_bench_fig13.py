"""Benchmarks for Figure 13: containment on the XMark summary.

* per-query canonical-model sizes and self-containment (top plot),
* synthetic positive / negative containment by pattern size (bottom plot).
"""

import pytest
from repro.canonical import canonical_model
from repro.containment.core import canonical_containment_decision
from repro.experiments.fig13 import (
    print_fig13,
    run_fig13_query_containment,
    run_fig13_synthetic_containment,
)

pytestmark = [pytest.mark.bench, pytest.mark.slow]


@pytest.mark.benchmark(group="fig13-queries")
@pytest.mark.parametrize("query_name", ["Q1", "Q6", "Q7", "Q10", "Q14", "Q19"])
def test_fig13_query_self_containment(benchmark, xmark_summary_bench, xmark_queries_bench, query_name):
    """Self-containment time for representative XMark queries (Fig. 13 top)."""
    pattern = xmark_queries_bench[query_name]

    decision = benchmark(canonical_containment_decision, pattern, pattern, xmark_summary_bench)

    assert decision.contained
    model_size = len(canonical_model(pattern, xmark_summary_bench, max_trees=5000))
    print(f"\n{query_name}: |modS(p)| = {model_size}, trees checked = {decision.canonical_trees_checked}")


@pytest.mark.benchmark(group="fig13-synthetic")
@pytest.mark.parametrize("size", [3, 5, 7])
def test_fig13_synthetic_containment_by_size(benchmark, xmark_summary_bench, size):
    """Average pairwise containment time for random patterns of a given size."""
    rows = benchmark.pedantic(
        run_fig13_synthetic_containment,
        kwargs={
            "summary": xmark_summary_bench,
            "sizes": (size,),
            "return_counts": (1,),
            "patterns_per_size": 3,
        },
        rounds=1,
        iterations=1,
    )
    assert rows and rows[0].pattern_size == size
    row = rows[0]
    print(
        f"\nsize {size}: positive {row.positive_seconds * 1000:.2f} ms "
        f"({row.positive_tests} tests), negative {row.negative_seconds * 1000:.2f} ms "
        f"({row.negative_tests} tests)"
    )


@pytest.mark.benchmark(group="fig13-report")
def test_fig13_full_report(benchmark, xmark_summary_bench):
    """Print the full Figure 13 report (both series) once."""

    def build_report():
        query_rows = run_fig13_query_containment(xmark_summary_bench)
        synthetic_rows = run_fig13_synthetic_containment(
            xmark_summary_bench, sizes=(3, 5), return_counts=(1, 2), patterns_per_size=3
        )
        return query_rows, synthetic_rows

    query_rows, synthetic_rows = benchmark.pedantic(build_report, rounds=1, iterations=1)
    print()
    print_fig13(query_rows, synthetic_rows)
