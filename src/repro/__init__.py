"""repro — structured materialized views for XML queries.

A from-scratch reproduction of *Structured Materialized Views for XML
Queries* (Manolescu, Benzaken, Arion, Papakonstantinou; the ULoad system):
Dataguide-constrained tree-pattern containment and sound-and-complete
view-based rewriting for an extended tree-pattern language covering a large
XQuery subset, together with an execution engine for the produced algebraic
plans and the paper's full experimental harness.

Typical usage — the :class:`Database` session façade owns the whole
lifecycle (summary, views, catalog, planner, executor)::

    from repro import Database, parse_xml_string

    db = Database(parse_xml_string(open("catalog.xml").read()))
    db.create_view("site(//item[ID,V])", name="items")

    result = db.query("site(//item[ID,V])")          # one-shot

    prepared = db.prepare("site(//item[ID,V])")      # plan once...
    for _ in range(100):
        result = prepared.run()                      # ...run many times
    print(prepared.explain(analyze=True).to_text())  # est. vs actual rows

    answers = db.query_many(workload)                # plan cache, then search
    db.close()

``create_view`` / ``drop_view`` maintain the shared
:class:`~repro.views.ViewCatalog` incrementally (inverted indexes patched in
place — the other views are never re-annotated), ``query``/``prepare`` route
through the cost-based :class:`~repro.planning.Planner` (every rewriting
lowers to a costed :class:`~repro.planning.LogicalPlan`, the cheapest one
runs), and ``query_many`` answers a batch from the plan cache, searching
only the misses.  Rewriting, like execution, runs in the calling process.
The layers underneath (``Rewriter``, ``ViewCatalog``, ``Planner``,
``PlanExecutor``) remain importable for code that needs just one of them.
"""

from repro.errors import (
    AlgebraError,
    ChangeLogCorruptError,
    ChangeLogError,
    ContainmentError,
    IngestError,
    PatternError,
    PatternParseError,
    PredicateError,
    ReproError,
    RewritingError,
    SummaryError,
    WorkloadError,
    XMLError,
    XMLParseError,
)
from repro.ingest import (
    ChangeLog,
    LogRecord,
    decode_subtree,
    encode_subtree,
    iter_stream_subtrees,
)
from repro.xmltree import (
    DeweyID,
    XMLDocument,
    XMLNode,
    element,
    generate_random_document,
    parse_parenthesized,
    parse_xml_file,
    parse_xml_string,
    to_parenthesized,
    to_xml_string,
    tree,
)
from repro.summary import (
    Statistics,
    Summary,
    SummaryDelta,
    SummaryStatistics,
    build_summary,
    summarize,
    summary_from_paths,
)
from repro.patterns import (
    Axis,
    PatternNode,
    TreePattern,
    ValueFormula,
    evaluate_pattern,
    find_embeddings,
    parse_pattern,
    xpath_to_pattern,
    xquery_to_pattern,
)
from repro.canonical import annotate_paths, canonical_model, is_satisfiable
from repro.containment import (
    are_equivalent,
    clear_containment_cache,
    containment_cache,
    is_contained,
    is_contained_in_union,
)
from repro.algebra import Relation
from repro.views import MaterializedView, SubtreeChange, ViewCatalog, ViewSet
from repro.rewriting import Rewriter, Rewriting
from repro.planning import CostModel, LogicalPlan, PlanChoice, PlannedRewriting, Planner
from repro.session import Database, ExplainReport, PreparedQuery
from repro.service import (
    QueryService,
    ServiceApp,
    ServiceClient,
    ServiceResponse,
)
from repro.errors import RequestValidationError, ServiceError

__version__ = "1.10.0"

__all__ = [
    # errors
    "ReproError",
    "XMLError",
    "XMLParseError",
    "SummaryError",
    "PatternError",
    "PatternParseError",
    "PredicateError",
    "ContainmentError",
    "AlgebraError",
    "RewritingError",
    "WorkloadError",
    "IngestError",
    "ChangeLogError",
    "ChangeLogCorruptError",
    # ingestion / live documents
    "ChangeLog",
    "LogRecord",
    "encode_subtree",
    "decode_subtree",
    "iter_stream_subtrees",
    "SubtreeChange",
    # xml substrate
    "DeweyID",
    "XMLDocument",
    "XMLNode",
    "element",
    "tree",
    "parse_parenthesized",
    "parse_xml_file",
    "parse_xml_string",
    "to_parenthesized",
    "to_xml_string",
    "generate_random_document",
    # summaries
    "Summary",
    "SummaryDelta",
    "SummaryStatistics",
    "build_summary",
    "summarize",
    "summary_from_paths",
    # patterns
    "Axis",
    "PatternNode",
    "TreePattern",
    "ValueFormula",
    "parse_pattern",
    "xpath_to_pattern",
    "xquery_to_pattern",
    "find_embeddings",
    "evaluate_pattern",
    # canonical model / containment
    "annotate_paths",
    "canonical_model",
    "is_satisfiable",
    "is_contained",
    "is_contained_in_union",
    "are_equivalent",
    "containment_cache",
    "clear_containment_cache",
    # algebra / views / rewriting
    "Relation",
    "MaterializedView",
    "ViewCatalog",
    "ViewSet",
    "Rewriter",
    "Rewriting",
    # planning
    "Statistics",
    "CostModel",
    "LogicalPlan",
    "PlanChoice",
    "PlannedRewriting",
    "Planner",
    # session façade
    "Database",
    "PreparedQuery",
    "ExplainReport",
    # service tier
    "ServiceError",
    "RequestValidationError",
    "ServiceApp",
    "ServiceResponse",
    "QueryService",
    "ServiceClient",
    "__version__",
]
