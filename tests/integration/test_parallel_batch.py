"""Parallel ``rewrite_many``: plan-identity with the sequential path.

Small workload, two workers — the point is correctness of the sharding,
catalog snapshot sharing and memo merging, not speed (the CPU-gated floor
lives in ``tests/integration/test_speed_floors.py``).
"""

from __future__ import annotations

import re

import pytest

from repro import MaterializedView, build_summary
from repro.containment.core import clear_containment_cache, containment_cache
from repro.rewriting.algorithm import RewritingConfig
from repro.rewriting.batch import BatchEngine, resolve_worker_count
from repro.rewriting.rewriter import Rewriter
from repro.workloads.synthetic import batch_rewriting_workload
from repro.workloads.xmark import generate_xmark_document

_ALIAS = re.compile(r"[@#]\d+")


def _fingerprint(outcome):
    return [
        (tuple(r.views_used), r.is_union, _ALIAS.sub("@N", r.plan.describe()))
        for r in outcome.rewritings
    ]


@pytest.fixture(scope="module")
def workload():
    summary = build_summary(
        generate_xmark_document(scale=0.4, seed=548, name="xmark-parallel-test")
    )
    view_patterns, queries = batch_rewriting_workload(
        summary, view_count=12, distinct_queries=6, repeat=2
    )
    views = [
        MaterializedView(pattern, name=f"pv{index}")
        for index, pattern in enumerate(view_patterns)
    ]
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=10.0,
    )
    return summary, views, queries, config


def test_parallel_outcomes_equal_sequential(workload):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    clear_containment_cache()
    sequential = rewriter.rewrite_many(queries, workers=1)
    clear_containment_cache()
    parallel = rewriter.rewrite_many(queries, workers=2)
    assert [_fingerprint(o) for o in sequential] == [
        _fingerprint(o) for o in parallel
    ]
    # input order and query identity survive the round trip through workers
    assert all(outcome.query is query for outcome, query in zip(parallel, queries))
    assert sum(1 for outcome in parallel if outcome.found) >= len(queries) // 2


def test_worker_memo_deltas_are_merged_back(workload):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    clear_containment_cache()
    rewriter.rewrite_many(queries, workers=2)
    merged = containment_cache()
    # the parent never decided these containments itself, yet it knows them
    assert len(merged) > 0
    assert merged.hits == 0 and merged.misses == 0


def test_explicit_catalog_path_is_reused(workload, tmp_path):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    path = tmp_path / "shared-catalog.pkl"
    engine = BatchEngine(rewriter, workers=2, catalog_path=path)
    outcomes = engine.run(queries[:4])
    assert len(outcomes) == 4
    assert path.exists(), "an explicit snapshot path must be kept for reuse"


def test_snapshot_is_reused_across_runs(workload, monkeypatch):
    """The second batch over an unchanged view set must not re-save."""
    from repro.views.catalog import ViewCatalog

    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    saves = []
    original_save = ViewCatalog.save

    def counting_save(self, path, include_extents=False):
        saves.append(str(path))
        return original_save(self, path, include_extents=include_extents)

    monkeypatch.setattr(ViewCatalog, "save", counting_save)
    first = rewriter.rewrite_many(queries[:4], workers=2)
    assert len(saves) == 1, "the first parallel batch persists the snapshot"
    second = rewriter.rewrite_many(queries[:4], workers=2)
    assert len(saves) == 1, "an unchanged view set must reuse the snapshot"
    assert [_fingerprint(o) for o in first] == [_fingerprint(o) for o in second]
    # mutating the view set bumps the version and forces a fresh snapshot
    extra = MaterializedView(views[0].pattern.copy(), name="extra-view")
    rewriter.views.add(extra)
    rewriter.rewrite_many(queries[:4], workers=2)
    assert len(saves) == 2, "a mutated view set must be re-persisted"


def test_worker_count_resolution():
    import os

    assert resolve_worker_count(3) == 3
    assert resolve_worker_count(None) == max(os.cpu_count() or 1, 1)
    assert resolve_worker_count(0) == max(os.cpu_count() or 1, 1)


def test_single_query_workloads_stay_sequential(workload):
    summary, views, queries, config = workload
    rewriter = Rewriter(summary, views, config)
    outcomes = rewriter.rewrite_many(queries[:1], workers=8)
    assert len(outcomes) == 1
    assert outcomes[0].query is queries[0]
