"""Row-identity A/B harness: parallel rewriting vs. the sequential path.

``Database.query_many(..., workers=2)`` shards the rewriting search over
the batch engine's pool and runs every chosen plan in the calling process.
This harness answers both paper workloads through that path and through
``workers=1`` and asserts the answers are *row-identical* — same rows, same
order — not merely set-equal:

* **fig13 workload** — the XMark document with the XMark query patterns,
  against seed tag views plus random 3-node views, all materialised;
* **fig14 workload** — the DBLP'05 document with random synthetic query
  patterns, against the DBLP seed views.

Both come from ``support.paper_workloads``' session fixtures, whose
rewritings (found once under a short budget) decide which queries are
answerable.  Each path then searches under a generous budget (10 s)
relative to the observed per-query search time of those queries (well
under a second), so budget-truncation divergence between the paths — the
one documented caveat of parallel rewriting — cannot realistically
trigger.  The plan cache is emptied before each path, so both search.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.algebra.tuples import _hashable
from repro.rewriting.algorithm import RewritingConfig

from support.paper_workloads import HARNESS_CONFIGS

WORKERS = 2

CONFIG = RewritingConfig(
    **{**HARNESS_CONFIGS["unions-off"].__dict__, "time_budget_seconds": 10.0}
)


def _answerable(workload):
    """The workload's queries with a rewriting, in workload order, once each."""
    queries = []
    for query, _ in workload.rewritings("unions-off"):
        if not any(query is seen for seen in queries):
            queries.append(query)
    return queries


def _session(workload):
    """A session over the workload; its summary keeps the containment memo warm."""
    return Database(
        workload.document, views=workload.views, config=CONFIG, summary=workload.summary
    )


def _row_identity(relation):
    """The relation's rows in order, in canonical comparable form."""
    return [_hashable(row) for row in relation.rows]


def _assert_paths_agree(db, queries):
    """Both worker counts answer every query with identical rows, in order."""
    db.plan_cache.clear()
    sequential = db.query_many(queries, workers=1)
    db.plan_cache.clear()
    parallel = db.query_many(queries, workers=WORKERS)
    assert db.rewriter._batch_engine._pool is not None, "the pool must have searched"
    assert len(sequential) == len(parallel) == len(queries)
    for query, seq, par in zip(queries, sequential, parallel):
        assert _row_identity(seq) == _row_identity(par), (
            f"parallel rewriting diverges from sequential on {query.name!r}"
        )
    return sequential


@pytest.fixture(scope="module")
def xmark_db(xmark_workload):
    queries = _answerable(xmark_workload)
    assert len(queries) >= 4, "the fig13 workload is degenerate"
    db = _session(xmark_workload)
    yield db, queries
    db.close()


def test_fig13_xmark_parallel_execution_is_row_identical(xmark_db):
    db, queries = xmark_db
    sequential = _assert_paths_agree(db, queries)
    # the one-shot Database.query path (through the plan cache) agrees too
    for query, seq in zip(queries[:2], sequential[:2]):
        assert db.query(query).same_contents(seq)


def test_ddl_between_batches_recycles_the_pool_and_stays_identical(xmark_db):
    db, queries = xmark_db
    targets = queries[:2]
    db.plan_cache.clear()
    before = db.query_many(targets, workers=WORKERS)
    pool = db.rewriter._batch_engine._pool
    db.create_view(next(iter(db.views)).pattern.copy(), name="ddl-extra-view")
    try:
        # the definition version moved: every plan misses, and the workers
        # must not search over the catalog they loaded before the DDL
        after = db.query_many(targets, workers=WORKERS)
        assert db.rewriter._batch_engine._pool is not pool
        for seq, par in zip(before, after):
            assert seq.same_contents(par), "an added view must not change answers"
    finally:
        db.drop_view("ddl-extra-view")


def test_fig14_dblp_parallel_execution_is_row_identical(dblp_workload):
    queries = _answerable(dblp_workload)
    assert queries, "the fig14 workload is degenerate"
    with _session(dblp_workload) as db:
        _assert_paths_agree(db, queries)
