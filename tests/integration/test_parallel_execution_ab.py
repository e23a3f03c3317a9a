"""Row-identity A/B harness: parallel plan *execution* vs. the sequential path.

``Database.query_many(..., execute=True)`` with ``workers > 1`` answers
queries end to end inside pool workers — rewriting over the shared catalog
snapshot, planning over the snapshot's statistics, executing over extents
attached from the shared-memory :class:`~repro.views.ExtentStore`.  This
harness runs both paper workloads through that path and through the
one-process path and asserts the answers are *row-identical*, not merely
set-equal:

* **fig13 workload** — the XMark document with the XMark query patterns,
  against seed tag views plus random 3-node views, all materialised;
* **fig14 workload** — the DBLP'05 document with random synthetic query
  patterns, against the DBLP seed views.

It also pins the shared-store contract at the session level: extents are
published exactly once per view-set version however many batches run
(``ExtentStore.publish_count``), and a DDL publishes a *diff* under the
new version — only the added view's extent is encoded, while the fresh
guard segment supersedes older manifests (the version-keyed pool
recycles, so stale manifests are unreachable).

The per-search wall-clock budget is generous (10 s) relative to the
observed per-query search time of the *rewritable* queries (well under a
second), so budget-truncation divergence between the modes — the one
documented caveat of the parallel path — cannot realistically trigger;
which queries rewrite at all is decided once, up front, under a short
budget so hopeless searches stay cheap.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, build_summary
from repro.algebra.tuples import _hashable
from repro.rewriting.algorithm import RewritingConfig
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.synthetic import SyntheticPatternConfig, generate_random_pattern
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns

from support.paper_workloads import materialised_views, query_labels

WORKERS = 2

_PROBE_CONFIG = dict(
    max_rewritings=2, max_plan_size=4, enable_unions=False,
    time_budget_seconds=1.0,
)


def _rewritable(db, queries):
    """The queries with a rewriting, probed once under the short budget."""
    probe = RewritingConfig(**_PROBE_CONFIG)
    return [
        outcome.query
        for outcome in db.rewrite_many(queries, config=probe)
        if outcome.found
    ]


def _row_identity(relation):
    """The relation's rows in order, in canonical comparable form."""
    return [_hashable(row) for row in relation.rows]


def _assert_modes_agree(db, queries):
    """Both execute modes answer every query with identical rows."""
    sequential = db.query_many(queries, workers=1, execute=True)
    parallel = db.query_many(queries, workers=WORKERS, execute=True)
    assert len(sequential) == len(parallel) == len(queries)
    for query, seq, par in zip(queries, sequential, parallel):
        assert _row_identity(seq) == _row_identity(par), (
            f"parallel execution diverges from sequential on {query.name!r}"
        )
    return sequential


@pytest.fixture(scope="module")
def xmark_db():
    document = generate_xmark_document(scale=0.4, seed=548, name="xmark-exec-ab")
    summary = build_summary(document)
    queries = [
        pattern
        for _, pattern in sorted(
            xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
        )
    ]
    views = materialised_views(summary, document, query_labels(queries))
    config = RewritingConfig(**{**_PROBE_CONFIG, "time_budget_seconds": 10.0})
    db = Database(document, views=views, config=config)
    rewritable = _rewritable(db, queries)
    assert len(rewritable) >= 4, "the fig13 workload is degenerate"
    yield db, rewritable
    db.close()


def test_fig13_xmark_parallel_execution_is_row_identical(xmark_db):
    db, rewritable = xmark_db
    sequential = _assert_modes_agree(db, rewritable)
    # the one-shot Database.query path (through the plan cache) agrees too
    for query, seq in zip(rewritable[:2], sequential[:2]):
        assert db.query(query).same_contents(seq)


def test_fig13_extents_are_published_once_per_version(xmark_db):
    db, rewritable = xmark_db
    db.query_many(rewritable[:2], workers=WORKERS, execute=True)
    store = db.extent_store
    assert store is not None
    materialised = sum(1 for view in db.views if view.is_materialized)
    assert store.publish_count == materialised
    # a second batch over the unchanged view set republishes nothing
    db.query_many(rewritable[:2], workers=WORKERS, execute=True)
    assert store.publish_count == materialised, (
        "extents must be published to shared memory exactly once per version"
    )
    assert store.manifest.version == db.views.data_version


def test_ddl_between_batches_republishes_and_stays_identical(xmark_db):
    db, rewritable = xmark_db
    targets = rewritable[:2]
    before = db.query_many(targets, workers=WORKERS, execute=True)
    published_before = db.extent_store.publish_count
    db.create_view(next(iter(db.views)).pattern.copy(), name="ddl-extra-view")
    try:
        after = db.query_many(targets, workers=WORKERS, execute=True)
        # the new version publishes a diff: only the added view's extent is
        # encoded (unchanged views keep their segments), yet stale manifests
        # still cannot be attached — every publish replaces the guard
        assert db.extent_store.publish_count == published_before + 1
        for seq, par in zip(before, after):
            assert seq.same_contents(par), "an added view must not change answers"
    finally:
        db.drop_view("ddl-extra-view")


def test_fig14_dblp_parallel_execution_is_row_identical():
    document = generate_dblp_document("2005", scale=0.6, seed=5, name="dblp-exec-ab")
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
        for i in range(6)
    ]
    views = materialised_views(
        summary, document, query_labels(queries), random_view_count=6, seed=11
    )
    config = RewritingConfig(**{**_PROBE_CONFIG, "time_budget_seconds": 10.0})
    with Database(document, views=views, config=config) as db:
        rewritable = _rewritable(db, queries)
        assert rewritable, "the fig14 workload is degenerate"
        _assert_modes_agree(db, rewritable)
