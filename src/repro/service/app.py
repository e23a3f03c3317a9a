"""The query service application: routing, tracing, metrics — no framework.

:class:`ServiceApp` is the transport-independent core of the service tier:
it maps ``(method, path, payload)`` to a :class:`ServiceResponse`, and the
one loop thread of the HTTP server (:mod:`repro.service.server`) drives
it.  Keeping it framework-free is what keeps the whole tier stdlib-only —
and makes it unit-testable without a socket.

An app serves one request at a time: it takes no lock, so whoever drives
it — the server's loop, a test, a tool — calls :meth:`ServiceApp.handle`
from one thread at a time (one :class:`repro.Database` is not a concurrent
structure either).

Per request, the app

* mints a request id and a root trace span (endpoint, request id, status);
* validates the payload against the versioned request models (strict →
  typed 400s);
* times the pipeline phases as child spans (``parse`` → ``plan`` →
  ``execute``), recording the profiled executor's per-operator rows and
  seconds — the spans with estimated *and* actual row counts are built
  from them only when a trace is read (``GET /debug/traces``, the JSONL
  log);
* encodes a query's answer straight from the executor's
  :class:`~repro.algebra.columnar.ColumnBatch`, column by column
  (:func:`~repro.service.models.batch_to_payload`) — no row-major
  :class:`~repro.algebra.tuples.Relation` is built on the way out;
* feeds the metrics registry (request counter + latency histograms) and
  the slow-query log.

Prepared statements live in a registry keyed by server-minted ids; each
entry is a live :class:`~repro.session.database.PreparedQuery`, so view
DDL transparently re-plans on the next execute (``times_planned`` in the
response makes that observable).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.columnar import ColumnBatch
from repro.algebra.execution import PlanExecutor
from repro.canonical.hashing import pattern_key
from repro.errors import (
    IngestError,
    PatternError,
    ReproError,
    RequestValidationError,
    RewritingError,
    ServiceError,
    SessionError,
    XMLError,
)
from repro.service.metrics import MetricsRegistry, SlowQueryLog
from repro.service.models import (
    SCHEMA_VERSION,
    DdlRequest,
    ExplainRequest,
    IngestRequest,
    PrepareRequest,
    QueryManyRequest,
    QueryRequest,
    batch_to_payload,
)
from repro.service.tracing import (
    JsonlExporter,
    RingBufferExporter,
    Tracer,
    attach_operator_spans,
)
from repro.session.database import Database, PreparedQuery, QueryKey
from repro.session.explain import ExplainReport, measurements, planned_report

__all__ = ["ServiceApp", "ServiceResponse"]


@dataclass
class ServiceResponse:
    """One handled request: status, body, and the ids the headers carry."""

    status: int
    body: dict | str
    request_id: str
    trace_id: Optional[str] = None
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def _fingerprint_hex(pattern) -> str:
    """A stable short hex form of the query's canonical fingerprint."""
    # imported here: hashlib loads libcrypto, and only slow queries get here
    import hashlib

    key = repr(pattern_key(pattern)).encode("utf-8")
    return hashlib.sha256(key).hexdigest()[:16]


class ServiceApp:
    """The service tier over one :class:`~repro.session.database.Database`.

    Parameters
    ----------
    database:
        The session to serve.  The app does not own its lifecycle —
        closing the database remains the caller's job.
    slow_query_seconds:
        Queries slower than this land in the slow-query log.
    trace_capacity:
        How many finished traces ``GET /debug/traces`` retains.
    trace_log_path:
        Optional JSONL file every finished trace is appended to.

    Every query runs under the profiling executor, so its trace carries
    per-operator measured rows.
    """

    def __init__(
        self,
        database: Database,
        slow_query_seconds: float = 0.25,
        trace_capacity: int = 256,
        trace_log_path=None,
    ):
        self.database = database
        # choice -> (un-analyzed report, operators): the static half of a
        # traced query's operator spans, once per choice
        self._reports: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.metrics = MetricsRegistry()
        self.slow_queries = SlowQueryLog(threshold_seconds=slow_query_seconds)
        self.trace_buffer = RingBufferExporter(capacity=trace_capacity)
        self.tracer = Tracer(exporters=[self.trace_buffer])
        self._trace_log: Optional[JsonlExporter] = None
        if trace_log_path is not None:
            self._trace_log = JsonlExporter(trace_log_path)
            self.tracer.add_exporter(self._trace_log)
        self._statements: dict[str, PreparedQuery] = {}
        self._statement_serial = 0
        self._requests = self.metrics.counter(
            "service_requests_total",
            "Requests served, by endpoint and HTTP status.",
            labelnames=("endpoint", "status"),
        )
        self._latency = self.metrics.histogram(
            "service_request_seconds",
            "End-to-end request latency, by endpoint.",
            labelnames=("endpoint",),
        )
        self._query_phase = self.metrics.histogram(
            "service_query_phase_seconds",
            "Per-phase query latency (parse / plan / execute).",
            labelnames=("phase",),
        )

    def close(self) -> None:
        """Release the JSONL trace log handle (idempotent)."""
        if self._trace_log is not None:
            self._trace_log.close()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    _POST_ROUTES = {
        "/query": "_handle_query",
        "/query_many": "_handle_query_many",
        "/prepare": "_handle_prepare",
        "/explain": "_handle_explain",
        "/ddl": "_handle_ddl",
        "/ingest": "_handle_ingest",
    }
    _GET_ROUTES = {
        "/healthz": "_handle_healthz",
        "/metrics": "_handle_metrics",
        "/debug/traces": "_handle_debug_traces",
        "/debug/slow_queries": "_handle_debug_slow_queries",
    }

    def _route(self, method: str, path: str):
        """Resolve ``(handler, endpoint_label, path_argument)`` or raise."""
        path = path.rstrip("/") or "/"
        if method == "POST" and path.startswith("/execute/"):
            return self._handle_execute, "/execute/{stmt_id}", path[len("/execute/"):]
        table = self._POST_ROUTES if method == "POST" else self._GET_ROUTES
        name = table.get(path)
        if name is not None:
            return getattr(self, name), path, None
        other = self._GET_ROUTES if method == "POST" else self._POST_ROUTES
        if path in other or (method != "POST" and path.startswith("/execute/")):
            raise ServiceHTTPError(405, "method-not-allowed",
                                   f"{method} not allowed for {path}")
        raise ServiceHTTPError(404, "not-found", f"unknown endpoint {path}")

    def handle(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> ServiceResponse:
        """Serve one request; never raises — errors become typed bodies."""
        request_id = self.tracer.new_id(16)
        started = time.perf_counter()
        try:
            handler, endpoint, argument = self._route(method, path)
        except ServiceHTTPError as exc:
            # no span exists yet to time the request
            return self._finish_error(
                exc, request_id, path, None, time.perf_counter() - started
            )
        span = self.tracer.trace(
            f"{method} {endpoint}", endpoint=endpoint, request_id=request_id
        )
        try:
            with span:
                if argument is not None:
                    body = handler(argument, payload, span)
                else:
                    body = handler(payload, span)
                span.set_attribute("status", 200)
        except Exception as exc:
            error = _as_http_error(exc)
            return self._finish_error(
                error, request_id, endpoint, span.trace_id, span.duration_seconds
            )
        self._observe(endpoint, 200, span.duration_seconds)
        if isinstance(body, str):
            return ServiceResponse(
                200, body, request_id, span.trace_id,
                content_type="text/plain; version=0.0.4",
            )
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "request_id": request_id,
            "trace_id": span.trace_id,
        }
        envelope.update(body)
        return ServiceResponse(200, envelope, request_id, span.trace_id)

    def _observe(self, endpoint: str, status: int, elapsed: float) -> None:
        self._requests.inc({"endpoint": endpoint, "status": str(status)})
        self._latency.observe(elapsed, {"endpoint": endpoint})

    def _finish_error(
        self, error, request_id, endpoint, trace_id, elapsed
    ) -> ServiceResponse:
        self._observe(endpoint, error.status, elapsed)
        body = {
            "schema_version": SCHEMA_VERSION,
            "request_id": request_id,
            "trace_id": trace_id,
            "error": {"code": error.code, "message": str(error)},
        }
        return ServiceResponse(error.status, body, request_id, trace_id)

    # ------------------------------------------------------------------ #
    # the query pipeline (shared by /query, /query_many, /execute)
    # ------------------------------------------------------------------ #
    def _key(self, text: str, name: Optional[str], span) -> QueryKey:
        """The ``parse`` phase: the text resolved to its plan-cache key.

        A text the plan cache's front has seen is not parsed again; the
        span marks that with ``front_hit``."""
        with span.child("parse") as parse_span:
            key = self.database.query_key(text, name)
            parse_span.set_attribute("query_name", key.name)
            parse_span.set_attribute("front_hit", key.pattern is None)
        self._query_phase.observe(parse_span.duration_seconds, {"phase": "parse"})
        return key

    def _plan(self, key: QueryKey, span):
        with span.child("plan") as plan_span:
            choice = self.database.plan_query(key)
            plan_span.set_attribute(
                "views_used", sorted(set(choice.best.rewriting.views_used))
            )
            plan_span.set_attribute("estimated_cost", choice.best.cost)
            plan_span.set_attribute(
                "alternatives", len(choice.alternative_costs)
            )
        self._query_phase.observe(plan_span.duration_seconds, {"phase": "plan"})
        return choice

    def _planned_report(self, choice) -> tuple[ExplainReport, tuple]:
        """:func:`planned_report` of ``choice``, built at its first traced run.

        A choice runs only while it is current — a write re-ranks the
        plan-cache entry into a new choice — so whichever run builds the
        report reads the estimates the choice was priced with."""
        entry = self._reports.get(choice)
        if entry is None:
            entry = self._reports[choice] = planned_report(choice)
        return entry

    def _execute(self, query_name: str, choice, span) -> ColumnBatch:
        """Run the chosen plan; the result stays the executor's batch, which
        :func:`batch_to_payload` encodes column by column.

        The profiled run keeps only its per-operator ``(rows, seconds)`` on
        the execute span; the operator spans are rendered from them when
        the trace is read, and the executor goes with the request."""
        with span.child("execute") as execute_span:
            executor = PlanExecutor(self.database.views, profile=True)
            batch = executor.execute_batch(choice.best.plan_operator)
        elapsed = execute_span.duration_seconds
        execute_span.set_attribute("rows", batch.row_count)
        report, operators = self._planned_report(choice)
        measured = measurements(executor, operators)
        execute_span.defer(
            lambda target: attach_operator_spans(
                target, report.with_measurements(measured, target.duration_seconds)
            )
        )
        self._query_phase.observe(elapsed, {"phase": "execute"})
        # the fingerprint (a canonical-key walk + sha256) and the plan text
        # are only worth computing for a query the log will keep
        if elapsed >= self.slow_queries.threshold_seconds:
            self.slow_queries.observe(
                query_name=query_name,
                fingerprint=_fingerprint_hex(choice.query),
                plan=choice.best.describe(),
                seconds=elapsed,
                trace_id=span.trace_id,
            )
        return batch

    def _answer(self, text: str, name: Optional[str], span) -> dict:
        key = self._key(text, name, span)
        choice = self._plan(key, span)
        batch = self._execute(key.name, choice, span)
        return {
            "query_name": key.name,
            "views_used": sorted(set(choice.best.rewriting.views_used)),
            "result": batch_to_payload(batch),
        }

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _handle_query(self, payload, span) -> dict:
        request = QueryRequest.from_payload(payload)
        return self._answer(request.query, request.name, span)

    def _handle_query_many(self, payload, span) -> dict:
        request = QueryManyRequest.from_payload(payload)
        results = []
        with span.child("query_many") as batch_span:
            batch_span.set_attribute("queries", len(request.queries))
            for position, text in enumerate(request.queries):
                with batch_span.child(f"query[{position}]") as query_span:
                    results.append(self._answer(text, None, query_span))
        return {"results": results}

    def _handle_prepare(self, payload, span) -> dict:
        request = PrepareRequest.from_payload(payload)
        key = self._key(request.query, request.name, span)
        with span.child("plan"):
            prepared = self.database.prepare(key.parsed())
        self._statement_serial += 1
        stmt_id = f"stmt-{self._statement_serial}"
        self._statements[stmt_id] = prepared
        return {
            "stmt_id": stmt_id,
            "query_name": key.name,
            "views_used": sorted(set(prepared.plan.rewriting.views_used)),
            "times_planned": prepared.times_planned,
        }

    def _handle_execute(self, stmt_id, payload, span) -> dict:
        if payload not in (None, {}):
            raise RequestValidationError(
                "POST /execute/{stmt_id} takes no request body"
            )
        span.set_attribute("stmt_id", stmt_id)
        prepared = self._statements.get(stmt_id)
        if prepared is None:
            raise ServiceHTTPError(
                404, "unknown-statement",
                f"no prepared statement {stmt_id!r} "
                f"(it may have been prepared by another server process)",
            )
        choice = prepared.choice  # transparently re-plans after DDL
        batch = self._execute(prepared.query.name, choice, span)
        return {
            "stmt_id": stmt_id,
            "query_name": prepared.query.name,
            "times_planned": prepared.times_planned,
            "result": batch_to_payload(batch),
        }

    def _handle_explain(self, payload, span) -> dict:
        request = ExplainRequest.from_payload(payload)
        key = self._key(request.query, request.name, span)
        with span.child("plan"):
            choice = self.database.plan_query(key)
        if request.analyze:
            with span.child("execute") as execute_span:
                # the report reads the operators' stats, never the result rows
                executor = PlanExecutor(self.database.views, profile=True)
                executor.execute_batch(choice.best.plan_operator)
            report = self.database.explain_choice(
                choice, executor, execute_span.duration_seconds
            )
            attach_operator_spans(execute_span, report)
        else:
            report = self.database.explain_choice(choice)
        return {"explain": report.to_dict()}

    def _handle_ddl(self, payload, span) -> dict:
        request = DdlRequest.from_payload(payload)
        span.set_attribute("op", request.op)
        span.set_attribute("view", request.name)
        if request.op == "create_view":
            view = self.database.create_view(
                request.pattern,
                name=request.name,
                materialize=request.materialize,
            )
            rows = view.extent.row_count if view.is_materialized else None
            body = {"op": "create_view", "view": view.name, "rows": rows}
        else:
            try:
                self.database.drop_view(request.name)
            except KeyError as exc:
                raise ServiceHTTPError(
                    404, "unknown-view", f"unknown view {request.name!r}"
                ) from exc
            body = {"op": "drop_view", "view": request.name}
        body["views_version"] = self.database.views.data_version
        return body

    def _handle_ingest(self, payload, span) -> dict:
        request = IngestRequest.from_payload(payload)
        span.set_attribute("op", request.op)
        if request.op == "insert":
            node = self.database.insert_subtree(
                request.parent, request.decoded_subtree()
            )
            body = {"op": "insert", "dewey": str(node.dewey)}
        else:
            detached = self.database.delete_subtree(request.dewey)
            body = {"op": "delete", "dewey": str(detached.dewey)}
        body["views_version"] = self.database.views.data_version
        body["maintenance"] = dict(self.database.maintenance_stats)
        return body

    def _handle_healthz(self, payload, span) -> dict:
        return {
            "status": "ok",
            "document": self.database.document.name
            if self.database.document is not None
            else None,
            "views": len(self.database.views),
            "views_version": self.database.views.data_version,
        }

    def _handle_metrics(self, payload, span) -> str:
        self._export_database_stats(self.database.stats())
        return self.metrics.render()

    def _handle_debug_traces(self, payload, span) -> dict:
        return {"traces": self.trace_buffer.traces()}

    def _handle_debug_slow_queries(self, payload, span) -> dict:
        return {
            "threshold_seconds": self.slow_queries.threshold_seconds,
            "slow_queries": self.slow_queries.entries(),
        }

    # ------------------------------------------------------------------ #
    def _export_database_stats(self, snapshot: dict) -> None:
        """Refresh the database gauges from one :meth:`Database.stats` snapshot."""
        gauge = self.metrics.gauge
        cache = snapshot["plan_cache"]
        for key in ("hits", "misses", "invalidations", "size"):
            gauge(
                f"service_plan_cache_{key}",
                f"Plan cache {key} (session lifetime).",
            ).set(cache[key])
        answered = cache["hits"] + cache["misses"]
        gauge(
            "service_plan_cache_hit_rate",
            "Plan cache hits / lookups (0 when never consulted).",
        ).set(cache["hits"] / answered if answered else 0.0)
        maintenance = self.metrics.gauge(
            "service_maintenance_operations",
            "Live-document maintenance operations, by path taken.",
            labelnames=("path",),
        )
        for path, value in snapshot["maintenance"].items():
            maintenance.set(value, {"path": path})
        gauge(
            "service_indexes_built",
            "Value indexes the session's extents hold.",
        ).set(snapshot["indexes"]["built"])
        gauge("service_views", "Views currently declared.").set(
            snapshot["views"]["count"]
        )
        gauge(
            "service_views_version",
            "View-set version (bumps on DDL and document mutation).",
        ).set(snapshot["views"]["data_version"])
        gauge(
            "service_prepared_statements",
            "Prepared statements currently registered.",
        ).set(len(self._statements))


class ServiceHTTPError(ServiceError):
    """An error with a definite HTTP mapping (status + machine code)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


def _as_http_error(exc: Exception) -> ServiceHTTPError:
    """Map any handler exception to its typed HTTP form."""
    if isinstance(exc, ServiceHTTPError):
        return exc
    if isinstance(exc, RequestValidationError):
        return ServiceHTTPError(400, exc.code, str(exc))
    if isinstance(exc, PatternError):
        return ServiceHTTPError(400, "bad-pattern", str(exc))
    if isinstance(exc, RewritingError):
        return ServiceHTTPError(422, "unanswerable", str(exc))
    if isinstance(exc, (SessionError, IngestError, XMLError)):
        return ServiceHTTPError(400, "bad-request", str(exc))
    if isinstance(exc, ReproError):
        return ServiceHTTPError(500, "internal", str(exc))
    return ServiceHTTPError(500, "internal", f"{type(exc).__name__}: {exc}")
