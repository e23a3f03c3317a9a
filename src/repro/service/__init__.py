"""The query service tier: HTTP API, tracing and metrics over a Database.

Layers, transport-independent core first:

* :mod:`repro.service.models` — versioned, strictly-validated JSON
  request models and the relation codec;
* :mod:`repro.service.tracing` — OpenTelemetry-style span trees per
  request, with per-operator estimated-vs-actual rows lifted from the
  EXPLAIN ANALYZE plumbing;
* :mod:`repro.service.metrics` — Prometheus-style counters / gauges /
  histograms plus the slow-query log;
* :mod:`repro.service.app` — routing and the request pipeline
  (:class:`ServiceApp`), no framework, no socket;
* :mod:`repro.service.server` — the one-thread ``selectors`` HTTP server
  (:class:`QueryService`) and the keep-alive client (:class:`ServiceClient`).
"""

from repro.service.app import ServiceApp, ServiceHTTPError, ServiceResponse
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
)
from repro.service.models import (
    SCHEMA_VERSION,
    DdlRequest,
    ExplainRequest,
    IngestRequest,
    PrepareRequest,
    QueryManyRequest,
    QueryRequest,
    relation_from_payload,
    relation_to_payload,
)
from repro.service.server import QueryService, ServiceClient
from repro.service.tracing import (
    JsonlExporter,
    RingBufferExporter,
    Span,
    Tracer,
    attach_operator_spans,
)

__all__ = [
    "SCHEMA_VERSION",
    "Counter",
    "DdlRequest",
    "ExplainRequest",
    "Gauge",
    "Histogram",
    "IngestRequest",
    "JsonlExporter",
    "MetricsRegistry",
    "PrepareRequest",
    "QueryManyRequest",
    "QueryRequest",
    "QueryService",
    "RingBufferExporter",
    "ServiceApp",
    "ServiceClient",
    "ServiceHTTPError",
    "ServiceResponse",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "attach_operator_spans",
    "relation_from_payload",
    "relation_to_payload",
]
