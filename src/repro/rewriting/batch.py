"""Parallel batch rewriting: shard a workload across worker processes.

``Rewriter.rewrite_many`` is rebuilt on top of this engine.  The sequential
fast path (catalog + memo, PR 1) stays exactly as it was; with ``workers >
1`` the engine

1. builds the shared :class:`~repro.views.catalog.ViewCatalog` once and
   persists it with :meth:`ViewCatalog.save` (extents stripped — workers
   only rewrite, the parent executes),
2. spawns a *persistent* process pool whose initializer loads the catalog
   exactly once per worker — the same snapshot file every worker maps,
   which is the whole point of the versioned save/load format.  The pool
   survives across :meth:`BatchEngine.run` calls (recycled only when the
   view set or its data — ``views.data_version``: the snapshot carries
   the statistics workers price plans with — the config, the worker count
   or the memo switches change) and
   is released by :meth:`BatchEngine.close` — request-per-batch callers
   such as ``Database.query_many`` pay worker start-up once, not per batch,
3. deals queries round-robin into ``workers`` shards (queries are
   independent; results are re-assembled in input order),
4. merges each worker's containment-memo delta back into the parent
   (:func:`~repro.containment.core.merge_containment_delta`), so a
   follow-up sequential run starts warm.

With ``run(..., execute=True)`` the workers additionally *plan and execute*
the cheapest rewriting: the engine publishes every materialised extent to
shared memory once per ``views.data_version``
(:class:`~repro.views.extent_store.ExtentStore`), workers attach the
segments by manifest — no extent is ever copied per worker or per task —
and each shard streams its result relations back through the same columnar
codec — sliced into :data:`STREAM_BATCH_ROWS`-row windows, so a worker
never materialises a second full copy of a large result just to ship it.
That turns the rewrite-only parallelism of PR 2 into end-to-end parallel
query answering; ``Database.query_many(..., execute=True)`` is the
session-level entry point.  Workers run plans directly on the
lazily-decoded column batches of the attached extents.

Rewriting is pure CPU-bound Python, so processes — not threads — are the
only way to scale it with cores.  Every worker produces the outcomes the
sequential path would (the search is deterministic given query, summary,
views and config; memo state never changes results), so parallel and
sequential runs are plan-for-plan identical *up to generated alias
numbering*: scan aliases come from a per-process counter, so compare
plans with alias-insensitive fingerprints (normalise ``[@#]\\d+``), not
raw ``describe()`` strings.  One genuine caveat: searches are bounded by
``RewritingConfig.time_budget_seconds`` in *wall-clock* terms, so on an
oversubscribed host a worker can run out of budget earlier than the
sequential run would and report fewer rewritings — with the default 20 s
budget this needs per-query searches within ~an order of magnitude of the
budget; raise or disable the budget for strict reproducibility.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.algebra.columnar import (
    ColumnBatch,
    concat_batches,
    decode_columnar,
    encode_columnar,
)
from repro.algebra.tuples import Relation
from repro.containment.core import merge_containment_delta
from repro.errors import ReproError
from repro.patterns.pattern import TreePattern
from repro.rewriting.algorithm import RewritingConfig
from repro.views.extent_store import (
    AttachedExtents,
    ExtentManifest,
    ExtentStore,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rewriting.rewriter import Rewriter, RewriteOutcome

__all__ = [
    "BatchEngine",
    "QueryExecution",
    "STREAM_BATCH_ROWS",
    "resolve_worker_count",
]

STREAM_BATCH_ROWS = 1024
"""Rows per encoded result window a worker streams back to the parent.

Each window is one ``encode_columnar`` payload of a contiguous
:meth:`~repro.algebra.columnar.ColumnBatch.slice`; the parent re-assembles
them with :func:`~repro.algebra.columnar.concat_batches`.  Windowing bounds
a worker's encode-side memory to ``O(batch)`` extra instead of a second
full copy of the result, and empty results still ship one window so the
schema and the ``sorted_by`` annotation survive the trip."""


@dataclass
class QueryExecution:
    """One query answered end to end (rewritten, planned *and* executed).

    What ``run(..., execute=True)`` returns per query, whether the plan ran
    in a pool worker (over :class:`~repro.views.extent_store.AttachedExtents`)
    or sequentially in the parent.  ``result`` is ``None`` when the query has
    no equivalent rewriting (``found`` is False) — callers such as
    ``Database.query_many`` decide whether that is an error.
    """

    query: TreePattern
    found: bool
    result: Optional[Relation]
    plan_description: Optional[str]
    """The chosen plan's cost-annotated rendering (compare across modes with
    alias-insensitive fingerprints — scan aliases are per-process counters)."""

    plan_cost: Optional[float]
    """The chosen plan's estimated cost (identical across execution modes:
    workers price plans from the snapshot's statistics)."""

    views_used: tuple[str, ...]


def _remove_quietly(name: str) -> None:
    """Finalizer for engine-owned snapshot files (missing files are fine)."""
    try:
        os.unlink(name)
    except OSError:
        pass


def _shutdown_quietly(pool: ProcessPoolExecutor) -> None:
    """Finalizer for engine-owned worker pools (already-dead pools are fine)."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter-teardown races
        pass


def _config_fingerprint(config: RewritingConfig) -> str:
    """A stable identity for the config a pool's workers were primed with."""
    return repr(sorted(config.__dict__.items()))


def resolve_worker_count(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument: None / 0 mean one per CPU."""
    if workers is None or workers <= 0:
        return max(os.cpu_count() or 1, 1)
    return workers


# --------------------------------------------------------------------------- #
# worker-process side
# --------------------------------------------------------------------------- #
_WORKER_REWRITER: Optional["Rewriter"] = None
_WORKER_PLANNER = None
_WORKER_MANIFEST: Optional[ExtentManifest] = None
_WORKER_EXTENTS: Optional[AttachedExtents] = None


def _worker_init(
    catalog_path: str,
    config: RewritingConfig,
    decisions_enabled: bool,
    models_enabled: bool,
    manifest: Optional[ExtentManifest] = None,
) -> None:
    """Process-pool initializer: load the shared catalog snapshot once.

    The two flags carry the parent's memo switches into the worker — each
    cache independently, so a parent that disabled only one layer gets the
    same configuration in every worker.  A parallel run inside
    :func:`~repro.containment.core.containment_cache_disabled` must be
    un-memoised in the workers too, or the "honest baseline" context would
    silently measure cache-warm work.

    ``manifest`` (present when the pool will also *execute* plans) names the
    shared-memory extent segments; attaching — and above all decoding — is
    deferred to the first execute task, so rewrite-only batches through an
    execute-capable pool never pay for extents.
    """
    global _WORKER_REWRITER, _WORKER_PLANNER, _WORKER_MANIFEST, _WORKER_EXTENTS
    from repro.canonical.model import canonical_model_cache
    from repro.containment.core import containment_cache
    from repro.rewriting.rewriter import Rewriter
    from repro.views.catalog import ViewCatalog

    containment_cache().enabled = decisions_enabled
    canonical_model_cache().enabled = models_enabled
    catalog = ViewCatalog.load(catalog_path)
    _WORKER_REWRITER = Rewriter.from_catalog(catalog, config)
    _WORKER_PLANNER = None
    _WORKER_MANIFEST = manifest
    if _WORKER_EXTENTS is not None:  # pragma: no cover - re-init safety
        _WORKER_EXTENTS.close()
    _WORKER_EXTENTS = None


def _worker_run(
    indexed_queries: list[tuple[int, TreePattern]],
) -> tuple[list[tuple[int, "RewriteOutcome"]], list]:
    """Rewrite one shard; return indexed outcomes plus the memo delta."""
    from repro.containment.core import export_containment_delta

    assert _WORKER_REWRITER is not None, "worker used before initialisation"
    outcomes = [
        (index, _WORKER_REWRITER.rewrite(query)) for index, query in indexed_queries
    ]
    delta = export_containment_delta(_WORKER_REWRITER.summary)
    return outcomes, delta


def _encode_result_stream(batch: ColumnBatch) -> tuple[bytes, ...]:
    """Slice a result batch into row windows and encode each one.

    Empty results still ship a single window: the payload carries the
    schema and the ``sorted_by`` annotation even with zero rows.
    """
    if batch.row_count == 0:
        return (encode_columnar(batch),)
    return tuple(
        encode_columnar(batch.slice(start, start + STREAM_BATCH_ROWS))
        for start in range(0, batch.row_count, STREAM_BATCH_ROWS)
    )


def _decode_result_stream(payloads: Sequence[bytes]) -> Relation:
    """Re-assemble a worker's encoded windows into one relation."""
    return concat_batches([decode_columnar(payload) for payload in payloads]).to_relation()


def _worker_execute(
    indexed_queries: list[tuple[int, TreePattern]],
) -> tuple[list[tuple[int, Optional[tuple]]], list]:
    """Rewrite, plan and execute one shard over the attached extents.

    Per query the worker returns ``(index, None)`` when no rewriting
    exists, or ``(index, (encoded result windows, plan description, plan
    cost, views used))`` — the result relation travels back through the
    same pickle-free columnar codec the extents arrived through, in
    :data:`STREAM_BATCH_ROWS`-row windows, so a row holding a content
    reference never drags the whole document across the pipe and a large
    result is never materialised twice on the worker side.
    """
    global _WORKER_PLANNER, _WORKER_EXTENTS
    from repro.containment.core import export_containment_delta

    assert _WORKER_REWRITER is not None, "worker used before initialisation"
    if _WORKER_MANIFEST is None:
        raise ReproError("this worker pool was not primed with an extent manifest")
    if _WORKER_EXTENTS is None:
        _WORKER_EXTENTS = AttachedExtents.attach(_WORKER_MANIFEST)
    if _WORKER_PLANNER is None:
        from repro.planning.planner import Planner

        # prices plans from the snapshot's statistics — the identical
        # numbers the parent's planner reads, so the chosen plan matches
        _WORKER_PLANNER = Planner(_WORKER_REWRITER)
    from repro.algebra.execution import PlanExecutor

    results: list[tuple[int, Optional[tuple]]] = []
    for index, query in indexed_queries:
        outcome = _WORKER_REWRITER.rewrite(query)
        if not outcome.found:
            results.append((index, None))
            continue
        planned = _WORKER_PLANNER.rank(outcome)[0]
        batch = PlanExecutor(_WORKER_EXTENTS).execute_batch(planned.plan_operator)
        results.append(
            (
                index,
                (
                    _encode_result_stream(batch),
                    planned.describe(),
                    planned.cost,
                    tuple(planned.rewriting.views_used),
                ),
            )
        )
    delta = export_containment_delta(_WORKER_REWRITER.summary)
    return results, delta


# --------------------------------------------------------------------------- #
# parent-process side
# --------------------------------------------------------------------------- #
class BatchEngine:
    """Shards a rewriting workload over a process pool.

    Parameters
    ----------
    rewriter:
        The configured rewriter whose summary / views / catalog the batch
        uses.  The engine never mutates it (beyond building its catalog).
    workers:
        Worker process count; ``None`` or ``0`` mean one per CPU core.
    catalog_path:
        Where to persist the shared catalog snapshot.  A temporary file
        owned by the engine is used when omitted (removed when the engine is
        garbage-collected); pass an explicit path to keep the snapshot for
        later runs or other processes.

    The snapshot is *reused across runs*: each save is keyed on the view
    set's ``data_version`` counter, so repeated :meth:`run` calls against
    an unchanged view set pay the (potentially large) ``ViewCatalog.save``
    exactly once — the fixed-cost amortisation ``Rewriter.rewrite_many``
    relies on when it caches its engine.  View DDL and document mutations
    bump it (the snapshot holds the statistics plans are priced with, so
    a data-only write outdates it too) and force a fresh snapshot here.

    A rewriter constructed with ``use_catalog=False`` has no snapshot to
    share, so :meth:`run` degrades to the sequential loop regardless of
    ``workers`` (results are identical; only wall-clock differs).

    Example
    -------
    Sequential engines (one worker) skip the snapshot and the pool
    entirely, so this runs everywhere, fast:

    >>> from repro import MaterializedView, build_summary, parse_parenthesized
    >>> from repro import parse_pattern
    >>> from repro.rewriting.rewriter import Rewriter
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> views = [MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)]
    >>> rewriter = Rewriter(build_summary(doc), views)
    >>> engine = BatchEngine(rewriter, workers=1)
    >>> outcomes = engine.run([parse_pattern("site(//item[ID,V])", name="q")])
    >>> [outcome.found for outcome in outcomes]
    [True]
    """

    def __init__(
        self,
        rewriter: "Rewriter",
        workers: Optional[int] = None,
        catalog_path: Optional[str | Path] = None,
    ):
        self.rewriter = rewriter
        self.workers = resolve_worker_count(workers)
        self.catalog_path = Path(catalog_path) if catalog_path is not None else None
        self._owned_path: Optional[Path] = None
        self._snapshot_version: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key: Optional[tuple] = None
        self._pool_finalizer = None
        self._store: Optional[ExtentStore] = None
        self._planner = None

    # ------------------------------------------------------------------ #
    def _snapshot_path(self) -> Path:
        """The snapshot file this engine writes to (creating it if owned)."""
        if self.catalog_path is not None:
            return self.catalog_path
        if self._owned_path is None:
            handle, name = tempfile.mkstemp(prefix="viewcatalog-", suffix=".pkl")
            os.close(handle)
            self._owned_path = Path(name)
            weakref.finalize(self, _remove_quietly, name)
        return self._owned_path

    def _ensure_snapshot(self, path: Path) -> None:
        """Save the catalog snapshot unless the saved one is still current.

        Currency is keyed on ``views.data_version`` (the snapshot carries
        the catalog's statistics, which follow the data), so the second
        and later runs over an unmutated view set skip the save entirely.
        """
        version = self.rewriter.views.data_version
        if self._snapshot_version == version and path.exists():
            return
        self.rewriter.catalog.save(path)
        self._snapshot_version = version

    def _ensure_pool(
        self,
        workers: int,
        path: Path,
        config: RewritingConfig,
        manifest: Optional[ExtentManifest] = None,
    ) -> ProcessPoolExecutor:
        """The persistent worker pool, (re)created only when its key changes.

        The pool outlives :meth:`run`: request-per-batch callers (above all
        ``Database.query_many``) pay the process spawn and the per-worker
        catalog load once, not once per batch.  The key captures everything
        the workers were primed with by the initializer — worker count,
        snapshot version (DDL and document mutations outdate the loaded
        catalog and its statistics),
        the search config, both memo switches, and the extent manifest the
        workers may attach for execution (keyed by store token and published
        version) — so a change in any of them recycles the pool instead of
        serving stale state.  Call :meth:`close` (or ``Database.close()``)
        to release the processes.
        """
        from repro.canonical.model import canonical_model_cache
        from repro.containment.core import containment_cache

        key = (
            workers,
            self._snapshot_version,
            str(path),
            _config_fingerprint(config),
            containment_cache().enabled,
            canonical_model_cache().enabled,
            (manifest.token, manifest.version) if manifest is not None else None,
        )
        if self._pool is not None and self._pool_key == key:
            return self._pool
        self._close_pool()
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(
                str(path),
                config,
                containment_cache().enabled,
                canonical_model_cache().enabled,
                manifest,
            ),
        )
        self._pool_key = key
        self._pool_finalizer = weakref.finalize(self, _shutdown_quietly, self._pool)
        return self._pool

    def _close_pool(self) -> None:
        """Shut down only the worker pool (pool-recycling internal)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None

    def close(self) -> None:
        """Release the worker pool and the shared extent segments (idempotent).

        The engine stays usable — the next parallel :meth:`run` simply
        starts a fresh pool (and, for ``execute=True`` runs, republishes the
        extents).  Owned snapshot files are kept until the engine itself is
        garbage-collected (they are what makes the next pool start cheap
        when the view set has not changed).
        """
        self._close_pool()
        if self._store is not None:
            self._store.release()
            self._store = None

    # ------------------------------------------------------------------ #
    @property
    def extent_store(self) -> Optional[ExtentStore]:
        """The engine-owned shared extent store (None until first execute)."""
        return self._store

    def _ensure_store(self) -> ExtentStore:
        if self._store is None:
            self._store = ExtentStore()
        return self._store

    def _ensure_planner(self):
        """The parent-side planner for sequential ``execute=True`` runs."""
        if self._planner is None:
            from repro.planning.planner import Planner

            self._planner = Planner(self.rewriter)
        return self._planner

    def _execute_sequentially(
        self, queries: Sequence[TreePattern], config: RewritingConfig
    ) -> list[QueryExecution]:
        """The one-process execute path (and the parallel path's oracle)."""
        from repro.algebra.execution import PlanExecutor

        planner = self._ensure_planner()
        executions = []
        for query in queries:
            outcome = self.rewriter.rewrite(query, config)
            if not outcome.found:
                executions.append(QueryExecution(query, False, None, None, None, ()))
                continue
            planned = planner.rank(outcome)[0]
            relation = PlanExecutor(self.rewriter.views).execute(planned.plan_operator)
            executions.append(
                QueryExecution(
                    query=query,
                    found=True,
                    result=relation,
                    plan_description=planned.describe(),
                    plan_cost=planned.cost,
                    views_used=tuple(planned.rewriting.views_used),
                )
            )
        return executions

    def run(
        self,
        queries: Sequence[TreePattern],
        config: Optional[RewritingConfig] = None,
        execute: bool = False,
    ) -> list["RewriteOutcome"] | list[QueryExecution]:
        """Rewrite (and optionally execute) the workload, in input order.

        With ``execute=False`` (the default) the workers only rewrite and
        the caller gets :class:`RewriteOutcome` objects, exactly as before.
        With ``execute=True`` each worker also *plans and executes* the
        cheapest rewriting over the shared extent store and the caller gets
        :class:`QueryExecution` objects: extents are published to shared
        memory once per data version (:meth:`ExtentStore.publish`),
        workers attach them by manifest, and result relations stream back
        shard by shard through the columnar codec — end-to-end parallel
        query answering with no per-worker extent copies.
        """
        queries = list(queries)
        config = config or self.rewriter.config
        workers = min(self.workers, len(queries)) or 1
        catalog = self.rewriter.catalog
        if workers <= 1 or catalog is None:
            # one worker, or no catalog snapshot for workers to share
            # (use_catalog=False): stay in-process, results identical
            if execute:
                return self._execute_sequentially(queries, config)
            return [self.rewriter.rewrite(query, config) for query in queries]

        indexed = list(enumerate(queries))
        shards = [indexed[shard::workers] for shard in range(workers)]
        path = self._snapshot_path()
        self._ensure_snapshot(path)
        manifest: Optional[ExtentManifest] = None
        if execute:
            manifest = self._ensure_store().publish(self.rewriter.views)
        elif (
            self._store is not None
            and self._store.version == self.rewriter.views.data_version
        ):
            # a rewrite-only batch between execute batches: keep the warm
            # execute-capable pool instead of recycling on manifest identity
            manifest = self._store.manifest
        # the pool is sized to the engine's configured worker count even when
        # this batch needs fewer shards, so alternating batch sizes keep one
        # warm pool instead of recycling it on every size change
        pool = self._ensure_pool(self.workers, path, config, manifest)
        worker_task = _worker_execute if execute else _worker_run
        by_index: dict[int, object] = {}
        try:
            for outcomes, delta in pool.map(worker_task, shards):
                for index, outcome in outcomes:
                    by_index[index] = outcome
                merge_containment_delta(self.rewriter.summary, delta)
        except Exception:
            # a dead worker leaves the pool permanently broken; evict it so
            # the next run self-heals with fresh processes (the per-run pool
            # this engine replaced healed by construction)
            self.close()
            raise

        if execute:
            executions = []
            for index, query in enumerate(queries):
                payload = by_index[index]
                if payload is None:
                    executions.append(
                        QueryExecution(query, False, None, None, None, ())
                    )
                    continue
                encoded_windows, description, cost, views_used = payload
                executions.append(
                    QueryExecution(
                        query=query,
                        found=True,
                        result=_decode_result_stream(encoded_windows),
                        plan_description=description,
                        plan_cost=cost,
                        views_used=views_used,
                    )
                )
            return executions

        results = []
        for index, query in enumerate(queries):
            outcome = by_index[index]
            # the worker rewrote a pickled copy; hand the caller back the
            # exact query object it submitted, like the sequential path does
            outcome.query = query
            results.append(outcome)
        return results
