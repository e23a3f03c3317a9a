"""The session façade: one object owning the whole query-answering lifecycle.

A :class:`Database` is what the paper's system *is* — load a document,
declare materialised views, then answer a stream of queries — packaged as a
single entry point so callers stop hand-wiring ``build_summary`` +
``MaterializedView`` + ``Rewriter`` + ``Planner`` + ``PlanExecutor``:

* **lifecycle** — ``Database(document)`` builds the structural summary and
  owns the :class:`~repro.views.store.ViewSet`, the shared
  :class:`~repro.views.catalog.ViewCatalog`, the cost-based
  :class:`~repro.planning.planner.Planner` and the rewriting machinery;
  ``save``/``load`` persist what the session is made of (document, view
  definitions, config) as change-log records and rebuild the rest;
* **view DDL** — :meth:`Database.create_view` / :meth:`Database.drop_view`
  maintain the catalog *incrementally*: the Prop. 3.4 summary-path
  postings are appended to or re-derived from the kept entries
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
  cache holds and rewrites each distinct miss once through
  :meth:`~repro.rewriting.rewriter.Rewriter.rewrite`; every search and
  every plan runs in this process;
* **plan cache** — :meth:`Database.query` consults a fingerprint-keyed
  :class:`PlanCache` (canonical pattern key → planned choice, invalidated
  on view DDL and on a document mutation that changes the summary's shape
  or flags), so unprepared callers repeating a query skip the rewriting
  search entirely — across data-only writes too, where a hit is merely
  re-ranked under the new statistics; a repeated query *text* is not even
  parsed or keyed (the cache's text front, :meth:`Database.query_key`).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from repro.algebra.execution import PlanExecutor
from repro.algebra.tuples import Relation
from repro.canonical.hashing import pattern_key
from repro.errors import ChangeLogError, RewritingError, SessionError, XMLError
from repro.ingest.changelog import (
    ChangeLog,
    LogRecord,
    decode_document,
    decode_subtree,
    encode_subtree,
)
from repro.patterns.parser import parse_pattern
from repro.patterns.pattern import TreePattern
from repro.planning.planner import PlanChoice, PlannedRewriting, Planner
from repro.rewriting.algorithm import RewritingConfig
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
    from repro.rewriting.rewriter import RewriteOutcome

__all__ = [
    "Database",
    "PlanCache",
    "PreparedQuery",
    "QueryKey",
    "DATABASE_FORMAT_VERSION",
]

DATABASE_FORMAT_VERSION = "database/2"
"""Format tag of the ``load`` record :meth:`Database.save` and
:meth:`Database.attach_log` write."""

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


def _view_payload(view: MaterializedView) -> dict:
    """A view's ``create_view`` record: enough to declare it again."""
    return {
        "name": view.name,
        "pattern": view.pattern.to_text(),
        "materialize": view.is_materialized,
    }


class QueryKey(NamedTuple):
    """A query resolved to its plan-cache fingerprint (:meth:`Database.query_key`)."""

    fingerprint: tuple
    name: str
    text: Optional[str]
    """The query text, or None for a query handed over as a pattern."""
    pattern: Optional[TreePattern]
    """The parsed pattern; None when the text front knew the text, so that
    nothing was parsed (a plan-cache miss then parses it)."""

    def parsed(self) -> TreePattern:
        """The pattern, parsed now if the text front skipped it."""
        if self.pattern is not None:
            return self.pattern
        return parse_pattern(self.text, name=self.name)


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

    In front of the fingerprints sits a *text front*: query text → its
    fingerprint, so a repeated string is neither parsed nor walked for its
    key (:meth:`text_key` / :meth:`remember_text`).  Text → key is a pure
    function of the text, so the front does not follow ``views.version``;
    it is bounded by the same ``maxsize`` and emptied by :meth:`clear`.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        """How many times a view-set version bump flushed the cache."""
        self._version: Optional[int] = None
        self._data: "OrderedDict[tuple, PlanChoice]" = OrderedDict()
        self._texts: "OrderedDict[str, tuple]" = OrderedDict()

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

    def text_key(self, text: str) -> Optional[tuple]:
        """The fingerprint the text front holds for ``text``, if any."""
        fingerprint = self._texts.get(text)
        if fingerprint is not None:
            self._texts.move_to_end(text)
        return fingerprint

    def remember_text(self, text: str, fingerprint: tuple) -> None:
        """Put ``text`` → ``fingerprint`` in the text front (LRU-bounded)."""
        self._texts[text] = fingerprint
        while len(self._texts) > self.maxsize:
            self._texts.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (text front included) and reset all counters."""
        self._data.clear()
        self._texts.clear()
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
            "texts": len(self._texts),
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
        time next to the planner's estimates; the whole run's time is the
        root operator's inclusive time.
        """
        return self._database._explain(self.choice, analyze)

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
    ):
        if document is None and summary is None:
            raise SessionError(
                "a Database needs a document (or at least a summary — "
                "see Database.from_summary)"
            )
        self._document = document
        self._summary = summary if summary is not None else build_summary(document)
        self._rewriter = Rewriter(self._summary, views, config)
        self._planner = Planner(self._rewriter)
        self._plan_cache = PlanCache()
        self._view_serial = 0
        self._change_log: Optional[ChangeLog] = None
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
    ) -> "Database":
        """A document-less session over a bare summary.

        What the rewriting experiments use: views stay unmaterialised, so
        :meth:`rewrite` and ``EXPLAIN`` work but executing plans does not
        (there are no extents to scan).
        """
        return cls(document=None, views=views, config=config, summary=summary)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        """Write the session's snapshot: its change log, compacted.

        One ``load`` record (the document with its Dewey numbering, the
        format tag and the rewriting config), one ``create_view`` record
        per view in view-set order, and a closing ``checkpoint`` fence —
        the records :meth:`recover` replays, in :class:`ChangeLog`'s
        envelope.  Everything else (summary, extents, catalog, statistics)
        is derived and rebuilt by :meth:`load`.  The file is written under
        a temporary name, synced and renamed into place.  A summary-only
        session has no document to record: saving one raises
        :class:`~repro.errors.SessionError`.
        """
        if self._document is None:
            raise SessionError("a summary-only session has no document to save")
        records = [*self._state_records(), ("checkpoint", {})]
        path = Path(path)
        partial = path.with_name(path.name + ".partial")
        with open(partial, "w", encoding="utf-8") as handle:
            for lsn, (type_, payload) in enumerate(records, start=1):
                LogRecord(lsn, type_, payload).write(handle.write)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(partial, path)

    @classmethod
    def load(cls, path: str | Path) -> "Database":
        """Load a session written by :meth:`save` (or :meth:`checkpoint`).

        The document comes back with every Dewey ID it had, the views are
        declared again and each is materialised once.  Raises
        :class:`~repro.errors.SessionError` when the file is unreadable,
        corrupt, truncated (no closing fence) or of another format.
        """
        return cls._from_records(cls._snapshot(path))

    @staticmethod
    def _snapshot(path: str | Path) -> list[LogRecord]:
        """The validated records of a snapshot file, fence included."""
        try:
            records = ChangeLog.read(path)
        except (ChangeLogError, OSError) as exc:
            raise SessionError(f"cannot read database file {path}: {exc}") from exc
        if not records or records[0].type != "load":
            raise SessionError(f"{path} is not a database snapshot")
        if records[-1].type != "checkpoint":
            raise SessionError(f"{path} is truncated: no closing checkpoint fence")
        return records

    def _state_records(self) -> list[tuple[str, dict]]:
        """The records that declare this session's state: one ``load`` —
        the document's name, its tree (written streamed from the nodes,
        :meth:`LogRecord.write`), the sibling ordinals that are not
        ``1..n``, the format and the config — then one ``create_view`` per
        view in view-set order."""
        document = self._document
        load = {
            "name": document.name,
            "root": document.root,
            "ordinals": {
                str(dewey): numbers for dewey, numbers in document.ordinal_gaps().items()
            },
            "format": DATABASE_FORMAT_VERSION,
            "config": asdict(self._rewriter.config),
        }
        return [("load", load), *(("create_view", _view_payload(v)) for v in self.views)]

    @classmethod
    def _from_records(cls, records: list[LogRecord]) -> "Database":
        """A session rebuilt from a ``load`` record and the records behind it.

        The one replay path: a snapshot's records, a snapshot's records
        followed by the log tail after its checkpoint, or a whole log.
        """
        first = records[0]
        if first.type != "load":
            raise ChangeLogError(
                f"replay must start with a load record (found {first.type!r})"
            )
        payload = first.payload
        if payload.get("format", DATABASE_FORMAT_VERSION) != DATABASE_FORMAT_VERSION:
            raise SessionError(f"unsupported snapshot format {payload['format']!r}")
        try:
            document = decode_document(payload)
            config = payload.get("config")
            if config is not None:
                # snapshots and logs written before the search caps became
                # module constants carry three more keys: drop the caps,
                # and ``stop_at_first`` is ``max_rewritings=1``
                config = dict(config)
                config.pop("max_candidates", None)
                config.pop("max_union_size", None)
                if config.pop("stop_at_first", False):
                    config["max_rewritings"] = 1
                config = RewritingConfig(**config)
        except (LookupError, TypeError, ValueError, XMLError) as exc:
            raise SessionError(f"malformed load record: {exc!r}") from exc
        database = cls(document, config=config)
        database._replay(records[1:])
        return database

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
    def catalog(self) -> ViewCatalog:
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
        self._log("create_view", _view_payload(view))
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
            before = view.extent
            splices = view.maintain(document, change)
            stats["delta_applied" if splices is not None else "rematerialized"] += 1
            if view.extent is not before:
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
        if self._change_log is not None:
            self._change_log.append(type_, payload)

    def attach_log(self, path: str | Path) -> ChangeLog:
        """Attach a durable change log; mutations and DDL append to it.

        The log must be empty (a fresh file, or one whose torn tail was
        the only content): its first records are the ones :meth:`save`
        writes — a full ``load`` of the current document and config, then
        one ``create_view`` per view the session already has — and every
        later :meth:`insert_subtree` / :meth:`delete_subtree` /
        :meth:`create_view` / :meth:`drop_view` / :meth:`checkpoint`
        appends one record.  To *resume* from a log
        that already has records, use :meth:`recover` — attaching it here
        would fork its history.
        """
        self._require_document()
        log = ChangeLog(path)
        if log.last_lsn != 0:
            log.close()
            raise SessionError(
                f"change log {path} already holds records; use "
                f"Database.recover(path) to resume from it"
            )
        self._change_log = log
        for type_, payload in self._state_records():
            log.append(type_, payload)
        return log

    def checkpoint(self, path: str | Path) -> None:
        """Write a snapshot (:meth:`save`) and fence the log at the current LSN.

        Recovery (:meth:`recover`) starts from the newest checkpoint whose
        snapshot loads and replays the log tail behind it after the
        snapshot's records; a missing or unreadable snapshot falls back to
        the previous checkpoint, or to full replay from the ``load`` record.
        A relative ``path`` is logged relative to the log file's directory,
        so recovery finds the snapshot from any working directory.
        """
        if self._change_log is None:
            raise SessionError("no change log attached; nothing to checkpoint")
        self.save(path)
        if not Path(path).is_absolute():
            path = os.path.relpath(path, self._change_log.path.parent)
        self._change_log.append("checkpoint", {"path": str(Path(path))})

    @classmethod
    def recover(cls, log_path: str | Path) -> "Database":
        """Rebuild a live session from its durable change log.

        Replays the newest loadable checkpoint snapshot followed by the log
        tail behind it (or the whole log from its ``load`` record), through
        the one replay path :meth:`load` takes.  Replay is *exact*:
        inserts re-derive the very Dewey IDs the original session assigned
        (the log records them, and a mismatch is a typed
        :class:`~repro.errors.ChangeLogError`, never a silently different
        document).  A corrupted log raises
        :class:`~repro.errors.ChangeLogCorruptError` from validation; a
        torn tail (crash mid-append) replays cleanly to the last intact
        record.  The recovered session has the log re-attached, so it
        keeps appending where the lost one stopped.
        """
        records, reopen = ChangeLog._read_for_append(log_path)
        if not records:
            raise ChangeLogError(f"change log {log_path} holds no intact records")
        for position in range(len(records) - 1, -1, -1):
            record = records[position]
            if record.type != "checkpoint":
                continue
            try:
                snapshot = cls._snapshot(Path(log_path).parent / record.payload["path"])
                database = cls._from_records(snapshot + records[position + 1 :])
            except SessionError:
                continue  # unreadable snapshot: fall back further
            break
        else:
            database = cls._from_records(records)
        # resume durable logging exactly where the recovered history ends
        database._change_log = reopen()
        return database

    def _replay(self, records: Iterable) -> None:
        """Apply logged operations (on a session with no change log yet,
        so nothing is appended again).

        Views the log creates are registered unmaterialised — mutations
        skip those — and the ones that survive to the end of the log are
        materialised once, over the final document: the extent a view
        would have reached splice by splice is ``materialize`` of the
        document it ends on.
        """
        document = self._require_document()
        deferred: dict[str, MaterializedView] = {}
        for record in records:
            payload = record.payload
            if record.type == "insert":
                parent = document.node_by_id(DeweyID.from_string(payload["parent"]))
                node = self.insert_subtree(parent, decode_subtree(payload["subtree"]))
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
                raise ChangeLogError(f"cannot replay record type {record.type!r}")
        for view in deferred.values():
            view.materialize(document)
        if deferred:
            # extents appeared under statistics that priced these views
            # as unmaterialised: re-derive them on next use
            self.views.touch()
            self._rewriter.invalidate_catalog()

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

    def query_key(
        self, query: TreePattern | str, name: Optional[str] = None
    ) -> QueryKey:
        """The plan-cache fingerprint of ``query``, through the text front.

        Text the plan cache's front has seen maps straight to its
        fingerprint — no :func:`~repro.patterns.parser.parse_pattern`, no
        :func:`~repro.canonical.hashing.pattern_key` walk; other text is
        parsed (named ``name or "query"``; a malformed pattern raises every
        time and is never remembered), keyed, and remembered.  A
        :class:`TreePattern` is keyed as it is.  The first half of
        :meth:`plan_query`, exposed so the service can time it as its own
        phase.
        """
        if isinstance(query, str):
            name = name or "query"
            fingerprint = self._plan_cache.text_key(query)
            if fingerprint is not None:
                return QueryKey(fingerprint, name, query, None)
            pattern = parse_pattern(query, name=name)
            fingerprint = pattern_key(pattern)
            self._plan_cache.remember_text(query, fingerprint)
            return QueryKey(fingerprint, name, query, pattern)
        return QueryKey(pattern_key(query), query.name, None, query)

    def plan_query(
        self, query: TreePattern | str | QueryKey, name: Optional[str] = None
    ) -> PlanChoice:
        """Rewrite + plan one query through the plan cache (no execution).

        The query's canonical fingerprint (:meth:`query_key`: a repeated
        text is answered by the text front, other queries by
        :func:`~repro.canonical.hashing.pattern_key`) is looked up in
        :attr:`plan_cache` first: a hit skips the rewriting search.  A
        miss parses the text if the front skipped it, plans as before and
        caches the found choice.  The cache is keyed to ``views.version``
        — the definition version — so view DDL or a shape-changing
        mutation can never serve a stale plan, while a data-only write
        keeps every entry: a hit ranked before the write is re-ranked from
        its own rewritings
        (:meth:`~repro.planning.planner.Planner.current`) and stored
        back.  Queries with *no* rewriting are not cached (they raise, and
        a later DDL might make them answerable).

        This is the planning half of :meth:`query`, exposed so out-of-core
        callers — above all the HTTP service tier — can time and trace the
        planning and execution phases separately; they may pass the
        :class:`QueryKey` they already resolved.
        """
        key = query if isinstance(query, QueryKey) else self.query_key(query, name)
        version = self.views.version
        choice = self._cached_choice(key.fingerprint, version)
        if choice is None:
            pattern = key.parsed()
            choice = self._planner.plan(pattern)
            if not choice.found:
                raise RewritingError(
                    f"query {pattern.name!r} has no equivalent rewriting over "
                    f"views {sorted(self.views.names)}"
                )
            self._plan_cache.store(key.fingerprint, version, choice)
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
        return build_explain_report(choice, executor, elapsed)

    def query(self, query: TreePattern | str, name: Optional[str] = None) -> Relation:
        """One-shot query answering, served through the plan cache.

        Sugar for :meth:`plan_query` + :meth:`execute_choice` — a repeated
        query hits the fingerprint-keyed cache (a repeated text through
        the text front, unparsed) and goes straight to execution, most of
        the prepared-query speedup with none of the call-site bookkeeping.
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
        """The structured report for ``query``'s plan, planned through the
        plan cache like :meth:`query` (a cached query is not searched
        again); ``analyze`` as in :meth:`PreparedQuery.explain`."""
        return self._explain(self.plan_query(query, name), analyze)

    def _explain(self, choice: PlanChoice, analyze: bool) -> ExplainReport:
        if not analyze:
            return self.explain_choice(choice)
        # the report reads the operators' stats, never the result rows
        executor = PlanExecutor(self.views, profile=True)
        executor.execute_batch(choice.best.plan_operator)
        root = executor.run_stats(choice.best.plan_operator)
        return self.explain_choice(choice, executor, root.inclusive_seconds)

    def query_many(
        self,
        queries: Iterable[TreePattern | str],
    ) -> list[Relation]:
        """Answer a whole workload, in input order, one :meth:`query` each:
        a query planned before at this definition version — earlier in the
        same workload included — is served by the plan cache."""
        return [self.query(query) for query in queries]

    # rewriting-layer passthroughs (experiments measure these directly)
    def rewrite(self, query: TreePattern | str) -> "RewriteOutcome":
        """All equivalent rewritings of one query (no execution)."""
        return self._rewriter.rewrite(self._as_pattern(query, None))

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """One aggregated observability snapshot of the whole session.

        Collects every counter the layers already expose — plan-cache
        hit/miss/invalidation, the rewriting searches' summed search-space
        counters, the containment memo of this session's summary (hit rate
        and which decider answered its uncached decisions), live-document
        :attr:`maintenance_stats`, and how many value indexes this
        session's extents hold — into a single plain dict, so monitoring
        surfaces (above all the service tier's ``/metrics`` endpoint)
        consume one stable shape instead of reaching into internals.
        Purely a read: taking a snapshot never builds indexes or flushes
        caches.
        """
        from repro.views.indexes import OrderedIndex

        memo = self._summary.containment_memo
        decisions = memo.decisions
        asked = decisions.hits + decisions.misses
        built = sum(
            isinstance(view.extent.source(position).index, OrderedIndex)
            for view in self.views
            if view.is_materialized
            for position in range(len(view.extent.columns))
        )
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
                **decisions.info(),
                "hit_rate": decisions.hits / asked if asked else 0.0,
                "deciders": dict(memo.deciders),
            },
            "maintenance": dict(self.maintenance_stats),
            "indexes": {"built": built},
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
