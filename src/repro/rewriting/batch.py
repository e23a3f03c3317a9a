"""Parallel batch rewriting: shard a workload across worker processes.

``Rewriter.rewrite_many`` is rebuilt on top of this engine.  The sequential
fast path (catalog + memo) stays exactly as it was; with ``workers > 1`` the
engine

1. builds the shared :class:`~repro.views.catalog.ViewCatalog` once and
   persists it with :meth:`ViewCatalog.save` (extents stripped — workers
   only rewrite, the calling process plans and executes),
2. spawns a *persistent* process pool whose initializer loads the catalog
   exactly once per worker — the same snapshot file every worker maps,
   which is the whole point of the versioned save/load format.  The pool
   survives across :meth:`BatchEngine.run` calls (recycled only when the
   view definitions — ``views.version``: view DDL, or a write that changed
   the summary's shape or flags — the config, the worker count or the memo
   switches change) and is released by :meth:`BatchEngine.close` —
   request-per-batch callers such as ``Database.query_many`` pay worker
   start-up once, not per batch, and a write that only moved instance
   counts keeps the warm pool,
3. deals queries round-robin into ``workers`` shards (queries are
   independent; results are re-assembled in input order),
4. merges each worker's containment-memo delta back into the parent
   (:func:`~repro.containment.core.merge_containment_delta`), so a
   follow-up sequential run starts warm.

Workers never execute: a rewriting is a function of the query, the view
definitions and the summary's shape, so the snapshot they load carries
everything they need, and every plan runs in the calling process on
:class:`~repro.algebra.execution.PlanExecutor`.

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
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.containment.core import merge_containment_delta
from repro.patterns.pattern import TreePattern
from repro.rewriting.algorithm import RewritingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rewriting.rewriter import Rewriter, RewriteOutcome

__all__ = ["BatchEngine", "resolve_worker_count"]


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


def _worker_init(
    catalog_path: str,
    config: RewritingConfig,
    decisions_enabled: bool,
    models_enabled: bool,
) -> None:
    """Process-pool initializer: load the shared catalog snapshot once.

    The two flags carry the parent's memo switches into the worker — each
    cache independently, so a parent that disabled only one layer gets the
    same configuration in every worker.  A parallel run inside
    :func:`~repro.containment.core.containment_cache_disabled` must be
    un-memoised in the workers too, or the "honest baseline" context would
    silently measure cache-warm work.
    """
    global _WORKER_REWRITER
    from repro.canonical.model import canonical_model_cache
    from repro.containment.core import containment_cache
    from repro.rewriting.rewriter import Rewriter
    from repro.views.catalog import ViewCatalog

    containment_cache().enabled = decisions_enabled
    canonical_model_cache().enabled = models_enabled
    catalog = ViewCatalog.load(catalog_path)
    _WORKER_REWRITER = Rewriter.from_catalog(catalog, config)


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
    set's definition ``version``, so repeated :meth:`run` calls against
    unchanged view definitions pay the (potentially large)
    ``ViewCatalog.save`` exactly once — the fixed-cost amortisation
    ``Rewriter.rewrite_many`` relies on when it caches its engine.  View
    DDL and a document mutation that changed the summary's shape or flags
    bump it and force a fresh snapshot here; a write that only moved
    instance counts does not, because the search reads neither statistics
    nor extents.

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

        Currency is keyed on ``views.version`` (the definition version), so
        the second and later runs over unchanged view definitions skip the
        save entirely — across count-only writes too.
        """
        version = self.rewriter.views.version
        if self._snapshot_version == version and path.exists():
            return
        self.rewriter.catalog.save(path)
        self._snapshot_version = version

    def _ensure_pool(
        self, workers: int, path: Path, config: RewritingConfig
    ) -> ProcessPoolExecutor:
        """The persistent worker pool, (re)created only when its key changes.

        The pool outlives :meth:`run`: request-per-batch callers (above all
        ``Database.query_many``) pay the process spawn and the per-worker
        catalog load once, not once per batch.  The key captures everything
        the workers were primed with by the initializer — worker count,
        snapshot version (DDL and shape-changing document mutations outdate
        the loaded catalog), the search config and both memo switches — so
        a change in any of them recycles the pool instead of serving stale
        state.  Call :meth:`close` (or ``Database.close()``) to release the
        processes.
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
        )
        if self._pool is not None and self._pool_key == key:
            return self._pool
        self.close()
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(
                str(path),
                config,
                containment_cache().enabled,
                canonical_model_cache().enabled,
            ),
        )
        self._pool_key = key
        self._pool_finalizer = weakref.finalize(self, _shutdown_quietly, self._pool)
        return self._pool

    def close(self) -> None:
        """Release the worker pool (idempotent).

        The engine stays usable — the next parallel :meth:`run` simply
        starts a fresh pool.  Owned snapshot files are kept until the
        engine itself is garbage-collected (they are what makes the next
        pool start cheap when the view definitions have not changed).
        """
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None

    # ------------------------------------------------------------------ #
    def run(
        self,
        queries: Sequence[TreePattern],
        config: Optional[RewritingConfig] = None,
    ) -> list["RewriteOutcome"]:
        """Rewrite the workload, in input order."""
        queries = list(queries)
        config = config or self.rewriter.config
        workers = min(self.workers, len(queries)) or 1
        catalog = self.rewriter.catalog
        if workers <= 1 or catalog is None:
            # one worker, or no catalog snapshot for workers to share
            # (use_catalog=False): stay in-process, results identical
            return [self.rewriter.rewrite(query, config) for query in queries]

        indexed = list(enumerate(queries))
        shards = [indexed[shard::workers] for shard in range(workers)]
        path = self._snapshot_path()
        self._ensure_snapshot(path)
        # the pool is sized to the engine's configured worker count even when
        # this batch needs fewer shards, so alternating batch sizes keep one
        # warm pool instead of recycling it on every size change
        pool = self._ensure_pool(self.workers, path, config)
        by_index: dict[int, "RewriteOutcome"] = {}
        try:
            for outcomes, delta in pool.map(_worker_run, shards):
                for index, outcome in outcomes:
                    by_index[index] = outcome
                merge_containment_delta(self.rewriter.summary, delta)
        except Exception:
            # a dead worker leaves the pool permanently broken; evict it so
            # the next run self-heals with fresh processes
            self.close()
            raise

        results = []
        for index, query in enumerate(queries):
            outcome = by_index[index]
            # the worker rewrote a pickled copy; hand the caller back the
            # exact query object it submitted, like the sequential path does
            outcome.query = query
            results.append(outcome)
        return results
