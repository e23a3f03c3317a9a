"""The session façade: one object owning the whole query-answering lifecycle.

A :class:`Database` is what the paper's system *is* — load a document,
declare materialised views, then answer a stream of queries — packaged as a
single entry point so callers stop hand-wiring ``build_summary`` +
``MaterializedView`` + ``Rewriter`` + ``Planner`` + ``PlanExecutor``:

* **lifecycle** — ``Database(document)`` builds the structural summary and
  owns the :class:`~repro.views.store.ViewSet`, the shared
  :class:`~repro.views.catalog.ViewCatalog`, the cost-based
  :class:`~repro.planning.planner.Planner` and the rewriting machinery;
  ``save``/``load`` persist the whole session (document, catalog, views
  *with* extents) in one versioned snapshot;
* **view DDL** — :meth:`Database.create_view` / :meth:`Database.drop_view`
  maintain the catalog *incrementally*: the inverted root-label /
  summary-path / attribute indexes are patched in place
  (:meth:`~repro.views.catalog.ViewCatalog.add_view` /
  :meth:`~repro.views.catalog.ViewCatalog.remove_view`), so adding or
  dropping one view among hundreds never re-annotates the others;
* **query lifecycle** — :meth:`Database.prepare` parses, rewrites and plans
  once and returns a :class:`PreparedQuery` whose :meth:`PreparedQuery.run`
  only executes; :meth:`Database.query` is the one-shot sugar;
  :meth:`PreparedQuery.explain` produces a structured
  :class:`~repro.session.explain.ExplainReport` (with per-operator
  estimated *and* measured rows under ``analyze=True``);
* **batch service** — :meth:`Database.query_many` answers what the plan
  cache holds and rewrites the rest through
  :meth:`~repro.rewriting.rewriter.Rewriter.rewrite_many`; every search and
  every plan runs in this process;
* **plan cache** — :meth:`Database.query` consults a fingerprint-keyed
  :class:`PlanCache` (canonical pattern key → planned choice, invalidated
  on view DDL and on a document mutation that changes the summary's shape
  or flags), so unprepared callers repeating a query skip the rewriting
  search entirely — across data-only writes too, where a hit is merely
  re-ranked under the new statistics.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.algebra.execution import PlanExecutor
from repro.algebra.tuples import Relation
from repro.canonical.hashing import pattern_key
from repro.errors import ChangeLogError, RewritingError, SessionError
from repro.ingest.changelog import ChangeLog, decode_subtree, encode_subtree
from repro.ingest.streaming import iter_stream_subtrees
from repro.patterns.parser import parse_pattern
from repro.patterns.pattern import TreePattern
from repro.planning.planner import PlanChoice, PlannedRewriting, Planner
from repro.rewriting.rewriter import Rewriter
from repro.session.explain import ExplainReport, build_explain_report
from repro.summary.dataguide import Summary, build_summary
from repro.views.catalog import ViewCatalog
from repro.views.delta import ExtentChange, SubtreeChange, follow_links
from repro.views.store import ViewSet
from repro.views.view import MaterializedView
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLDocument, XMLNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rewriting.algorithm import RewritingConfig
    from repro.rewriting.rewriter import RewriteOutcome

__all__ = [
    "Database",
    "PlanCache",
    "PreparedQuery",
    "DATABASE_FORMAT_VERSION",
]

DATABASE_FORMAT_VERSION = "database/1"
"""On-disk format tag written by :meth:`Database.save`."""

MAINTENANCE_COUNTERS = (
    "delta_applied",
    "rematerialized",
    "summary_incremental",
    "summary_rebuilt",
    "statistics_spliced",
    "statistics_reobserved",
    "links_followed",
    "links_dropped",
)
"""The keys of :attr:`Database.maintenance_stats`."""


class PlanCache:
    """Fingerprint-keyed cache of planned queries for :meth:`Database.query`.

    A :class:`PreparedQuery` pins one plan per *call site*; unprepared
    callers who send the same query text over and over used to re-run the
    whole rewriting search and planner per call (``xmark_cold`` against
    ``xmark_warm`` in ``bench/``).  This cache closes most of it: the key
    is the query's canonical
    :func:`~repro.canonical.hashing.pattern_key` — so textual
    re-parses, renamed patterns and structurally identical queries all hit
    — and the whole cache invalidates when ``views.version`` bumps (a plan
    over dropped views must never run; same counter the catalog and the
    prepared queries watch).  That is the *definition* version: it moves
    on view DDL and on a document mutation that changed the summary's
    shape or edge flags, and stays put across a write that only moved
    instance counts — the rewritings of a query cannot have changed then,
    and a plan names its views, so a cached plan scans the current
    extents.  What a data-only write can change is the cost *order* of
    the cached alternatives; :meth:`Database.plan_query` re-ranks a hit
    that was priced under an older ``views.data_version`` and stores the
    result back.  LRU-bounded; hit/miss/invalidation counters stay
    cumulative across invalidations so they remain meaningful observables
    for benchmarks.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        """How many times a view-set version bump flushed the cache."""
        self._version: Optional[int] = None
        self._data: "OrderedDict[tuple, PlanChoice]" = OrderedDict()

    def _sync_version(self, version: int) -> None:
        if self._version != version:
            if self._data:
                self.invalidations += 1
            self._data.clear()
            self._version = version

    def lookup(self, fingerprint: tuple, version: int) -> Optional[PlanChoice]:
        """The cached choice for ``fingerprint`` under ``version``, if any."""
        self._sync_version(version)
        try:
            choice = self._data[fingerprint]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(fingerprint)
        self.hits += 1
        return choice

    def store(self, fingerprint: tuple, version: int, choice: PlanChoice) -> None:
        """Cache a found plan choice (evicting least-recently-used entries)."""
        self._sync_version(version)
        self._data[fingerprint] = choice
        self._data.move_to_end(fingerprint)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        self._data.clear()
        self._version = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> dict:
        """Hit / miss / size statistics (benchmark and test observables)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlanCache {self.info()}>"


class PreparedQuery:
    """One query, planned once, executable many times.

    Preparation runs the full front half of the pipeline — rewriting search,
    lowering every alternative to a costed logical plan, ranking — and pins
    the chosen plan; :meth:`run` only executes it.  The plan is keyed to the
    database's view-set version: view DDL (or a shape-changing document
    mutation) after preparation transparently re-plans on the next use (the
    prepared query never serves a plan over views that no longer exist), and
    :attr:`times_planned` counts how often that actually happened.  A
    data-only write re-ranks the alternatives already found, without a
    search.

    Instances come from :meth:`Database.prepare`; constructing one raises
    :class:`~repro.errors.RewritingError` when the query has no equivalent
    rewriting over the database's views.
    """

    def __init__(self, database: "Database", query: TreePattern):
        self._database = database
        self.query = query
        self._choice: Optional[PlanChoice] = None
        self._version: Optional[int] = None
        self.times_planned = 0
        """How many times this query went through rewrite + plan (1 after
        construction; +1 per re-plan forced by view DDL)."""
        self._ensure_planned()

    # ------------------------------------------------------------------ #
    def _ensure_planned(self) -> None:
        version = self._database.views.version
        planner = self._database.planner
        if self._choice is not None and self._version == version:
            self._choice = planner.current(self._choice)
            return
        choice = planner.plan(self.query)
        if not choice.found:
            raise RewritingError(
                f"query {self.query.name!r} has no equivalent rewriting over "
                f"views {sorted(self._database.views.names)}"
            )
        self._choice = choice
        self._version = version
        self.times_planned += 1

    @property
    def choice(self) -> PlanChoice:
        """All costed alternatives, cheapest first (re-planned if stale)."""
        self._ensure_planned()
        return self._choice

    @property
    def plan(self) -> PlannedRewriting:
        """The chosen (minimum-cost) planned rewriting."""
        return self.choice.best

    # ------------------------------------------------------------------ #
    def run(self) -> Relation:
        """Execute the prepared plan over the database's views."""
        return PlanExecutor(self._database.views).execute(self.plan.plan_operator)

    def explain(self, analyze: bool = False) -> ExplainReport:
        """The structured report for the chosen plan.

        With ``analyze=True`` the plan is executed under a profiling
        executor and every operator entry carries measured rows and wall
        time next to the planner's estimates.
        """
        choice = self.choice
        model = self._database.planner.cost_model
        if not analyze:
            return build_explain_report(choice, model.statistics)
        executor = PlanExecutor(self._database.views, profile=True)
        start = time.perf_counter()
        executor.execute(choice.best.plan_operator)
        elapsed = time.perf_counter() - start
        return build_explain_report(choice, model.statistics, executor, elapsed)

    def describe(self) -> str:
        """The chosen plan's indented cost-annotated rendering."""
        return self.plan.describe()

    def __repr__(self) -> str:
        planned = "stale" if self._version != self._database.views.version else "ready"
        return f"<PreparedQuery {self.query.name!r} {planned}>"


class Database:
    """The canonical entry point: documents in, views declared, queries out.

    Parameters
    ----------
    document:
        The XML document to serve queries over.  Its structural summary is
        built here (pass ``summary`` to skip that, or use
        :meth:`from_summary` for summary-only sessions that never execute).
    views:
        Initial views (an iterable of :class:`MaterializedView`, or a
        :class:`ViewSet` adopted as-is).  Further views come and go through
        :meth:`create_view` / :meth:`drop_view`.
    config:
        Optional :class:`~repro.rewriting.algorithm.RewritingConfig` tuning
        every rewriting search this session runs.
    use_catalog:
        Disable only for naive-baseline experiments; incremental DDL then
        degrades to the version-counter rebuild.

    Example
    -------
    >>> from repro import Database, parse_parenthesized
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> db = Database(doc)
    >>> view = db.create_view("site(//item[ID,V])", name="v")
    >>> prepared = db.prepare("site(//item[ID,V])", name="q")
    >>> len(prepared.run())
    2
    >>> prepared.explain().views_used
    ('v',)
    >>> len(db.query_many(["site(//item[ID,V])", "site(//item[ID,V])"]))
    2
    >>> db.drop_view("v")
    >>> db.close()
    """

    def __init__(
        self,
        document: Optional[XMLDocument] = None,
        views: ViewSet | Iterable[MaterializedView] = (),
        config: Optional["RewritingConfig"] = None,
        summary: Optional[Summary] = None,
        use_catalog: bool = True,
    ):
        if document is None and summary is None:
            raise SessionError(
                "a Database needs a document (or at least a summary — "
                "see Database.from_summary)"
            )
        self._document = document
        self._summary = summary if summary is not None else build_summary(document)
        self._rewriter = Rewriter(
            self._summary, views, config, use_catalog=use_catalog
        )
        self._planner = Planner(self._rewriter)
        self._plan_cache = PlanCache()
        self._view_serial = 0
        self._change_log: Optional[ChangeLog] = None
        self._replaying = False
        self.maintenance_stats = dict.fromkeys(MAINTENANCE_COUNTERS, 0)
        """Per-session counters of which maintenance path each mutation
        took — the live-document observables: ``delta_applied`` /
        ``rematerialized`` count per-view extent maintenance,
        ``summary_incremental`` / ``summary_rebuilt`` per-mutation summary
        maintenance (the summary is rebuilt only when the session was handed
        a summary without retained instance counters),
        ``statistics_spliced`` / ``statistics_reobserved`` per-view
        statistics maintenance (a view is re-observed in full only after
        its extent was rematerialised), ``links_followed`` /
        ``links_dropped`` per cached structural-link entry a write carried
        across its splices or dropped for the next join to build."""

    # ------------------------------------------------------------------ #
    # construction variants
    # ------------------------------------------------------------------ #
    @classmethod
    def from_summary(
        cls,
        summary: Summary,
        views: ViewSet | Iterable[MaterializedView] = (),
        config: Optional["RewritingConfig"] = None,
        use_catalog: bool = True,
    ) -> "Database":
        """A document-less session over a bare summary.

        What the rewriting experiments use: views stay unmaterialised, so
        :meth:`rewrite` / :meth:`rewrite_many` and ``EXPLAIN`` work but
        executing plans does not (there are no extents to scan).
        """
        return cls(
            document=None,
            views=views,
            config=config,
            summary=summary,
            use_catalog=use_catalog,
        )

    @classmethod
    def _wrap(
        cls, rewriter: Rewriter, document: Optional[XMLDocument]
    ) -> "Database":
        """Adopt an existing rewriter (and its catalog) without rebuilding."""
        database = cls.__new__(cls)
        database._document = document
        database._summary = rewriter.summary
        database._rewriter = rewriter
        database._planner = Planner(rewriter)
        database._plan_cache = PlanCache()
        database._view_serial = 0
        database._change_log = None
        database._replaying = False
        database.maintenance_stats = dict.fromkeys(MAINTENANCE_COUNTERS, 0)
        return database

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        """Persist the session: summary, views *with* extents, document.

        The payload is a versioned pickle of the catalog (summary, views
        with their extents, annotated prototypes, statistics), the document
        and the rewriting config — a loaded database answers queries
        immediately.  Load it back with :meth:`load`.
        """
        catalog = self._rewriter.catalog
        if catalog is None:
            raise SessionError(
                "a use_catalog=False database has no catalog snapshot to save"
            )
        catalog.statistics()  # price plans identically after a reload
        payload = {
            "format": DATABASE_FORMAT_VERSION,
            "catalog": catalog,
            "document": self._document,
            "config": self._rewriter.config,
        }
        Path(path).write_bytes(pickle.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "Database":
        """Load a session persisted with :meth:`save`.

        The persisted catalog is adopted as-is — summary, views, annotated
        prototypes and statistics are not re-derived.  Raises
        :class:`~repro.errors.SessionError` when the file is unreadable, is
        not a database snapshot, has another format or holds no catalog.
        """
        try:
            payload = pickle.loads(Path(path).read_bytes())
        except Exception as exc:
            raise SessionError(f"cannot read database file {path}: {exc}") from exc
        if not isinstance(payload, dict) or "format" not in payload:
            raise SessionError(f"{path} is not a persisted database")
        if payload["format"] != DATABASE_FORMAT_VERSION:
            raise SessionError(
                f"{path} has unsupported snapshot format {payload['format']!r}"
            )
        catalog = payload.get("catalog")
        if not isinstance(catalog, ViewCatalog):
            raise SessionError(f"{path} does not contain a view catalog")
        return cls._wrap(
            Rewriter.from_catalog(catalog, payload.get("config")),
            payload.get("document"),
        )

    # ------------------------------------------------------------------ #
    # owned state
    # ------------------------------------------------------------------ #
    @property
    def document(self) -> Optional[XMLDocument]:
        """The loaded document (None for summary-only sessions)."""
        return self._document

    @property
    def summary(self) -> Summary:
        """The structural summary every search and containment test uses."""
        return self._summary

    @property
    def views(self) -> ViewSet:
        """The live view set (mutate through :meth:`create_view` / :meth:`drop_view`)."""
        return self._rewriter.views

    @property
    def catalog(self) -> Optional[ViewCatalog]:
        """The shared, incrementally-maintained view catalog."""
        return self._rewriter.catalog

    @property
    def rewriter(self) -> Rewriter:
        """The owned rewriting engine (an internal; prefer the query API)."""
        return self._rewriter

    @property
    def planner(self) -> Planner:
        """The owned cost-based planner (an internal; prefer the query API)."""
        return self._planner

    @property
    def plan_cache(self) -> PlanCache:
        """The fingerprint-keyed plan cache serving :meth:`query`."""
        return self._plan_cache

    @property
    def executor(self) -> str:
        """The name of the one executor (read-only)."""
        # kept for the frozen caller bench/layers.py (executor=db.executor)
        return "vectorized"

    # ------------------------------------------------------------------ #
    # view DDL
    # ------------------------------------------------------------------ #
    def _next_view_name(self) -> str:
        while True:
            self._view_serial += 1
            name = f"view{self._view_serial}"
            if name not in self.views:
                return name

    def create_view(
        self,
        pattern: TreePattern | str,
        name: Optional[str] = None,
        materialize: bool = True,
    ) -> MaterializedView:
        """Declare (and by default materialise) one more view.

        ``pattern`` may be a :class:`TreePattern` or pattern-DSL text; the
        view is materialised over the session's document unless
        ``materialize=False`` (or the session has no document).  The shared
        catalog is patched incrementally — the other views' entries and
        index postings are untouched.
        """
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern, name=name or self._next_view_name())
        view_name = name or pattern.name
        view = MaterializedView(
            pattern,
            self._document if materialize and self._document is not None else None,
            name=view_name,
        )
        self.views.add(view)
        self._rewriter.notify_view_added(view)
        self._log(
            "create_view",
            {
                "name": view.name,
                "pattern": pattern.to_text(),
                "materialize": bool(materialize),
            },
        )
        return view

    def drop_view(self, name: str) -> None:
        """Remove a view; the catalog indexes are patched, not rebuilt."""
        if name not in self.views:
            raise KeyError(f"unknown view {name!r}")
        self.views.remove(name)
        self._rewriter.notify_view_removed(name)
        self._log("drop_view", {"name": name})

    # ------------------------------------------------------------------ #
    # live-document mutations
    # ------------------------------------------------------------------ #
    def _require_document(self) -> XMLDocument:
        if self._document is None:
            raise SessionError("a summary-only session has no document to mutate")
        return self._document

    def _resolve_node(self, node: XMLNode | DeweyID | str) -> XMLNode:
        document = self._require_document()
        if isinstance(node, str):
            node = DeweyID.from_string(node)
        if isinstance(node, DeweyID):
            return document.node_by_id(node)
        return node

    def insert_subtree(
        self, parent: XMLNode | DeweyID | str, subtree: XMLNode
    ) -> XMLNode:
        """Insert a detached subtree as ``parent``'s last child, live.

        ``parent`` may be the node itself, its :class:`DeweyID`, or the
        ID's dotted text.  The new subtree gets never-reused Dewey IDs
        (ORDPATH-style gaps are legal; nothing is renumbered), the change
        is appended to the attached change log (if any), and every piece
        of derived state is maintained: summary counters, materialised
        extents (by ordered Dewey splice where eligible — see
        :mod:`repro.views.delta`), catalog statistics, and the view set's
        two version counters — ``data_version`` always, ``version`` (the
        one cached plans key on) only when the summary's shape or flags
        changed.  Returns the attached subtree root.
        """
        document = self._require_document()
        parent_node = self._resolve_node(parent)
        node = document.insert_subtree(parent_node, subtree)
        self._log(
            "insert",
            {
                "parent": str(parent_node.dewey),
                "subtree": encode_subtree(node),
                "dewey": str(node.dewey),
            },
        )
        self._after_mutation("insert", parent_node, node)
        return node

    def delete_subtree(self, node: XMLNode | DeweyID | str) -> XMLNode:
        """Delete a subtree (never the root), live; returns it detached.

        Same maintenance contract as :meth:`insert_subtree`; the detached
        subtree keeps its Dewey IDs, but they are retired — no later
        insert ever reuses them.
        """
        document = self._require_document()
        target = self._resolve_node(node)
        parent_node = target.parent
        detached = document.delete_subtree(target)
        self._log("delete", {"dewey": str(detached.dewey)})
        self._after_mutation("delete", parent_node, detached)
        return detached

    def ingest_stream(
        self, chunks: Iterable[str], parent: XMLNode | DeweyID | str
    ) -> list[XMLNode]:
        """Stream XML fragments in as children of ``parent``, live.

        ``chunks`` is any iterable of text pieces — element boundaries may
        fall anywhere (see :func:`repro.ingest.iter_stream_subtrees`).
        Each completed top-level element is applied as one
        :meth:`insert_subtree` the moment its close tag arrives: logged,
        summary-maintained, extents delta-patched.  Returns the attached
        subtree roots, in stream order.
        """
        parent_node = self._resolve_node(parent)
        return [
            self.insert_subtree(parent_node, subtree)
            for subtree in iter_stream_subtrees(chunks)
        ]

    def _after_mutation(
        self, kind: str, parent: XMLNode, subtree: XMLNode
    ) -> None:
        """Propagate one applied subtree change through every derived layer."""
        document = self._require_document()
        stats = self.maintenance_stats
        if getattr(self._summary, "supports_incremental_maintenance", False):
            if kind == "insert":
                delta = self._summary.observe_insert(parent, subtree)
            else:
                delta = self._summary.observe_delete(parent, subtree)
            stats["summary_incremental"] += 1
        else:
            # a summary without retained counters cannot be patched in place
            self._summary = build_summary(document)
            self._rewriter.summary = self._summary
            delta = None
            stats["summary_rebuilt"] += 1
        changed = []
        change = SubtreeChange(kind, subtree.dewey, parent.dewey)
        for view in self.views:
            if not view.is_materialized:
                continue
            before = view.relation
            splices = view.maintain(document, change)
            stats["delta_applied" if splices is not None else "rematerialized"] += 1
            if view.relation is not before:
                changed.append(ExtentChange(view, before, splices))
        # the structural links cached on the extents follow their splices
        followed, dropped = follow_links(self.views, changed)
        stats["links_followed"] += followed
        stats["links_dropped"] += dropped
        # every consumer of the stored rows (cost model, the rank of cached
        # plans) sees the data version move; the consumers of the
        # definitions (plan cache, prepared queries, catalog) see theirs
        # move only when the summary's shape or flags did — no rewriting
        # can have appeared or gone otherwise
        self.views.touch(
            definitions_changed=delta is None or not delta.preserves_annotations
        )
        # the catalog then refreshes: statistics moved in place by the
        # summary delta and the extent splices when the annotations
        # survived, dropped for rebuild otherwise
        spliced, reobserved = self._rewriter.notify_document_changed(delta, changed)
        stats["statistics_spliced"] += spliced
        stats["statistics_reobserved"] += reobserved

    # ------------------------------------------------------------------ #
    # durable change log
    # ------------------------------------------------------------------ #
    def _log(self, type_: str, payload: dict) -> None:
        if self._change_log is not None and not self._replaying:
            self._change_log.append(type_, payload)

    @property
    def change_log(self) -> Optional[ChangeLog]:
        """The attached durable change log (None when not attached)."""
        return self._change_log

    def attach_log(self, path: str | Path) -> ChangeLog:
        """Attach a durable change log; mutations and DDL append to it.

        The log must be empty (a fresh file, or one whose torn tail was
        the only content): its first record becomes a full ``load`` of the
        current document, and every later :meth:`insert_subtree` /
        :meth:`delete_subtree` / :meth:`create_view` / :meth:`drop_view` /
        :meth:`checkpoint` appends one record.  To *resume* from a log
        that already has records, use :meth:`recover` — attaching it here
        would fork its history.
        """
        document = self._require_document()
        log = ChangeLog(path)
        if log.last_lsn != 0:
            log.close()
            raise SessionError(
                f"change log {path} already holds records; use "
                f"Database.recover(path) to resume from it"
            )
        self._change_log = log
        log.append(
            "load",
            {"name": document.name, "root": encode_subtree(document.root)},
        )
        return log

    def checkpoint(self, path: str | Path) -> None:
        """Persist the session and fence the log at the current LSN.

        Recovery (:meth:`recover`) starts from the newest checkpoint whose
        snapshot file still exists and replays only the log tail behind
        it; a missing snapshot falls back to the previous checkpoint, or
        to full replay from the ``load`` record.
        """
        if self._change_log is None:
            raise SessionError("no change log attached; nothing to checkpoint")
        self.save(path)
        self._change_log.append("checkpoint", {"path": str(Path(path))})

    @classmethod
    def recover(cls, log_path: str | Path) -> "Database":
        """Rebuild a live session from its durable change log.

        Replays the newest usable checkpoint plus the log tail behind it
        (or the whole log from its ``load`` record).  Replay is *exact*:
        inserts re-derive the very Dewey IDs the original session assigned
        (the log records them, and a mismatch is a typed
        :class:`~repro.errors.ChangeLogError`, never a silently different
        document).  A corrupted log raises
        :class:`~repro.errors.ChangeLogCorruptError` from validation; a
        torn tail (crash mid-append) replays cleanly to the last intact
        record.  The recovered session has the log re-attached, so it
        keeps appending where the lost one stopped.
        """
        records = ChangeLog.read(log_path)
        if not records:
            raise ChangeLogError(f"change log {log_path} holds no intact records")
        database: Optional["Database"] = None
        start = 0
        for position in range(len(records) - 1, -1, -1):
            record = records[position]
            if record.type != "checkpoint":
                continue
            snapshot = Path(record.payload["path"])
            if snapshot.exists():
                try:
                    database = cls.load(snapshot)
                except SessionError:
                    continue  # unreadable snapshot: fall back further
                start = position + 1
                break
        if database is None:
            first = records[0]
            if first.type != "load":
                raise ChangeLogError(
                    f"change log {log_path} does not start with a load record "
                    f"(found {first.type!r}) and no checkpoint snapshot is "
                    f"readable"
                )
            document = XMLDocument(
                decode_subtree(first.payload["root"]),
                name=first.payload.get("name", "doc"),
            )
            database = cls(document)
            start = 1
        database._replay(records[start:])
        # resume durable logging exactly where the recovered history ends
        database._change_log = ChangeLog(log_path)
        return database

    def _replay(self, records: Iterable) -> None:
        """Apply logged operations without re-appending them.

        Views the log creates are registered unmaterialised — mutations
        skip those — and the ones that survive to the end of the log are
        materialised once, over the final document: the extent a view
        would have reached splice by splice is ``materialize`` of the
        document it ends on.
        """
        document = self._require_document()
        deferred: dict[str, MaterializedView] = {}
        self._replaying = True
        try:
            for record in records:
                payload = record.payload
                if record.type == "insert":
                    parent = document.node_by_id(
                        DeweyID.from_string(payload["parent"])
                    )
                    node = self.insert_subtree(
                        parent, decode_subtree(payload["subtree"])
                    )
                    if str(node.dewey) != payload["dewey"]:
                        raise ChangeLogError(
                            f"replay of lsn {record.lsn} assigned Dewey ID "
                            f"{node.dewey}, but the log recorded "
                            f"{payload['dewey']} — the replayed history "
                            f"diverged from the original"
                        )
                elif record.type == "delete":
                    self.delete_subtree(DeweyID.from_string(payload["dewey"]))
                elif record.type == "create_view":
                    view = self.create_view(
                        payload["pattern"], name=payload["name"], materialize=False
                    )
                    if payload.get("materialize", True):
                        deferred[view.name] = view
                elif record.type == "drop_view":
                    self.drop_view(payload["name"])
                    deferred.pop(payload["name"], None)
                elif record.type in ("checkpoint", "load"):
                    continue  # fences / the starting point; nothing to apply
                else:  # pragma: no cover - ChangeLog.read validates types
                    raise ChangeLogError(
                        f"cannot replay record type {record.type!r}"
                    )
            for view in deferred.values():
                view.materialize(document)
            if deferred:
                # extents appeared under statistics that priced these views
                # as unmaterialised: re-derive them on next use
                self.views.touch()
                self._rewriter.invalidate_catalog()
        finally:
            self._replaying = False

    # ------------------------------------------------------------------ #
    # query lifecycle
    # ------------------------------------------------------------------ #
    def _as_pattern(self, query: TreePattern | str, name: Optional[str]) -> TreePattern:
        if isinstance(query, str):
            return parse_pattern(query, name=name or "query")
        return query

    def prepare(
        self, query: TreePattern | str, name: Optional[str] = None
    ) -> PreparedQuery:
        """Parse + rewrite + plan once; run (and explain) many times."""
        return PreparedQuery(self, self._as_pattern(query, name))

    def plan_query(
        self, query: TreePattern | str, name: Optional[str] = None
    ) -> PlanChoice:
        """Rewrite + plan one query through the plan cache (no execution).

        The query's canonical fingerprint
        (:func:`~repro.canonical.hashing.pattern_key`) is looked up in
        :attr:`plan_cache` first: a hit skips the rewriting search.  A
        miss plans as before and caches the found choice.  The cache is
        keyed to ``views.version`` — the definition version — so view DDL
        or a shape-changing mutation can never serve a stale plan, while a
        data-only write keeps every entry: a hit ranked before the write
        is re-ranked from its own rewritings
        (:meth:`~repro.planning.planner.Planner.current`) and stored
        back.  Queries with *no* rewriting are not cached (they raise, and
        a later DDL might make them answerable).

        This is the planning half of :meth:`query`, exposed so out-of-core
        callers — above all the HTTP service tier — can time and trace the
        planning and execution phases separately.
        """
        pattern = self._as_pattern(query, name)
        version = self.views.version
        fingerprint = pattern_key(pattern)
        choice = self._cached_choice(fingerprint, version)
        if choice is None:
            choice = self._planner.plan(pattern)
            if not choice.found:
                raise RewritingError(
                    f"query {pattern.name!r} has no equivalent rewriting over "
                    f"views {sorted(self.views.names)}"
                )
            self._plan_cache.store(fingerprint, version, choice)
        return choice

    def _cached_choice(self, fingerprint: tuple, version: int) -> Optional[PlanChoice]:
        """A plan-cache hit, re-ranked (and stored back) if a write outdated it."""
        cached = self._plan_cache.lookup(fingerprint, version)
        if cached is None:
            return None
        choice = self._planner.current(cached)
        if choice is not cached:
            self._plan_cache.store(fingerprint, version, choice)
        return choice

    def execute_choice(
        self, choice: PlanChoice, profile: bool = False
    ) -> tuple[Relation, PlanExecutor]:
        """Execute an already-planned choice; returns (result, executor).

        The execution half of :meth:`query`.  With ``profile=True`` the
        returned executor carries per-operator
        :class:`~repro.algebra.execution.OperatorRunStats` — hand it to
        :meth:`explain_choice` to export the measurements as a structured
        report (the service tier turns them into trace spans).
        """
        executor = PlanExecutor(self.views, profile=profile)
        result = executor.execute(choice.best.plan_operator)
        return result, executor

    def explain_choice(
        self,
        choice: PlanChoice,
        executor: Optional[PlanExecutor] = None,
        elapsed: Optional[float] = None,
    ) -> ExplainReport:
        """The structured report for a planned choice, without re-planning.

        Pass the profiling ``executor`` returned by
        ``execute_choice(choice, profile=True)`` (plus the measured wall
        clock) to get an ``ANALYZE`` report from a run that already
        happened — unlike :meth:`PreparedQuery.explain`, nothing is
        executed here.
        """
        return build_explain_report(
            choice, self._planner.cost_model.statistics, executor, elapsed
        )

    def query(self, query: TreePattern | str, name: Optional[str] = None) -> Relation:
        """One-shot query answering, served through the plan cache.

        Sugar for :meth:`plan_query` + :meth:`execute_choice` — a repeated
        query hits the fingerprint-keyed cache and goes straight to
        execution, most of the prepared-query speedup with none of the
        call-site bookkeeping.
        """
        choice = self.plan_query(query, name)
        result, _ = self.execute_choice(choice)
        return result

    def explain(
        self,
        query: TreePattern | str,
        analyze: bool = False,
        name: Optional[str] = None,
    ) -> ExplainReport:
        """Sugar for ``db.prepare(query).explain(analyze=...)``."""
        return self.prepare(query, name).explain(analyze=analyze)

    def query_many(
        self,
        queries: Iterable[TreePattern | str],
    ) -> list[Relation]:
        """Answer a whole workload, in input order.

        Every query consults the plan cache exactly like :meth:`query`:
        repeated workloads (benchmark reps, dashboard refreshes) skip the
        rewriting search for every query they have planned before at this
        definition version.  The misses are grouped by fingerprint —
        duplicates inside one workload are planned once — and rewritten
        through :meth:`Rewriter.rewrite_many` under the session's config.
        Searches and plans all run in this process.  Raises
        :class:`~repro.errors.RewritingError` on the first query with no
        equivalent rewriting.
        """
        patterns = [self._as_pattern(query, None) for query in queries]
        version = self.views.version
        fingerprints = [pattern_key(pattern) for pattern in patterns]
        cached = [
            self._cached_choice(fingerprint, version) for fingerprint in fingerprints
        ]
        pending: "OrderedDict[tuple, list[int]]" = OrderedDict()
        for position, choice in enumerate(cached):
            if choice is None:
                pending.setdefault(fingerprints[position], []).append(position)
        if pending:
            representatives = [positions[0] for positions in pending.values()]
            outcomes = self._rewriter.rewrite_many(
                [patterns[position] for position in representatives]
            )
            for position, outcome in zip(representatives, outcomes):
                pattern = patterns[position]
                if not outcome.found:
                    raise RewritingError(
                        f"query {pattern.name!r} has no equivalent rewriting over "
                        f"views {sorted(self.views.names)}"
                    )
                choice = self._planner.choose(pattern, outcome)
                self._plan_cache.store(fingerprints[position], version, choice)
                for duplicate in pending[fingerprints[position]]:
                    cached[duplicate] = choice
        return [
            PlanExecutor(self.views).execute(choice.best.plan_operator)
            for choice in cached
        ]

    # rewriting-layer passthroughs (experiments measure these directly)
    def rewrite(self, query: TreePattern | str) -> "RewriteOutcome":
        """All equivalent rewritings of one query (no execution)."""
        return self._rewriter.rewrite(self._as_pattern(query, None))

    def rewrite_many(
        self,
        queries: Iterable[TreePattern | str],
        config: Optional["RewritingConfig"] = None,
    ) -> list["RewriteOutcome"]:
        """Batch rewriting without execution (the Figure 15 measurement)."""
        patterns = [self._as_pattern(query, None) for query in queries]
        return self._rewriter.rewrite_many(patterns, config)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """One aggregated observability snapshot of the whole session.

        Collects every counter the layers already expose — plan-cache
        hit/miss/invalidation, the rewriting searches' summed search-space
        counters, the containment memo's hit rate and which decider answered
        its uncached decisions (both process-wide, like the memo),
        live-document :attr:`maintenance_stats`, value-index
        build/probe counts — into a single plain dict, so monitoring
        surfaces (above all the service tier's ``/metrics`` endpoint)
        consume one stable shape instead of reaching into internals.
        Purely a read: taking a snapshot never builds indexes or flushes
        caches.
        """
        from repro.containment.core import containment_cache
        from repro.views.indexes import INDEX_STATS

        memo = containment_cache()
        asked = memo.hits + memo.misses
        return {
            "document": self._document.name if self._document else None,
            "summary": {
                "name": self._summary.name,
                "size": self._summary.size,
            },
            "views": {
                "count": len(self.views),
                "version": self.views.version,
                "data_version": self.views.data_version,
                "materialized": sum(
                    1 for view in self.views if view.is_materialized
                ),
            },
            "executor": self.executor,
            "plan_cache": self._plan_cache.info(),
            "rewriting": dict(self._rewriter.search_totals),
            "containment": {
                **memo.info(),
                "hit_rate": memo.hits / asked if asked else 0.0,
                "deciders": dict(memo.deciders),
            },
            "maintenance": dict(self.maintenance_stats),
            "indexes": INDEX_STATS.info(),
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the attached change log's file handle (idempotent; the
        session stays usable)."""
        if self._change_log is not None:
            self._change_log.close()
            self._change_log = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        doc = self._document.name if self._document is not None else None
        return (
            f"<Database document={doc!r} summary={self._summary.name!r} "
            f"views={len(self.views)}>"
        )
