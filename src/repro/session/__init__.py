"""Session layer: the :class:`Database` façade over the whole pipeline.

``Database`` owns summary, views, catalog, planner and executor, and exposes
the query lifecycle (``create_view``/``drop_view`` with incremental catalog
maintenance, ``prepare``/``query``/``query_many``, structured ``EXPLAIN``).
"""

from repro.session.database import (
    DATABASE_FORMAT_VERSION,
    Database,
    PlanCache,
    PreparedQuery,
    QueryKey,
)
from repro.session.explain import ExplainOperator, ExplainReport, build_explain_report

__all__ = [
    "DATABASE_FORMAT_VERSION",
    "Database",
    "PlanCache",
    "PreparedQuery",
    "QueryKey",
    "ExplainOperator",
    "ExplainReport",
    "build_explain_report",
]
