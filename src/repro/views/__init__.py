"""Materialised tree-pattern views (the paper's XML Access Modules / XAMs).

A :class:`MaterializedView` couples a view *definition* — an extended tree
pattern — with its materialised extent (a nested relation) and the
properties of the identifier scheme used when materialising it (structural
comparability and parent derivability, Section 1 / Section 4.6).

A :class:`ViewSet` is a named collection of views; it doubles as the view
store handed to the plan executor.

A :class:`ViewCatalog` adds the query-independent indexes (root label,
summary-node hit sets, offered attributes) that let the rewriting search
generate candidates without scanning and re-annotating the whole view set
per query.

Value indexes (:mod:`repro.views.indexes`) are per-column secondary
structures over materialised extents — a sorted :class:`OrderedIndex` or a
low-cardinality :class:`BitmapIndex`, chosen by :func:`build_index` — that
serve the planner's :class:`~repro.algebra.operators.IndexScan` probes.
"""

from repro.views.view import IdScheme, MaterializedView
from repro.views.store import ViewSet
from repro.views.delta import SubtreeChange, apply_subtree_delta, can_apply_delta
from repro.views.catalog import ViewCatalog
from repro.views.indexes import (
    BITMAP_CARDINALITY_THRESHOLD,
    INDEX_STATS,
    BitmapIndex,
    OrderedIndex,
    build_index,
    index_for_source,
)

__all__ = [
    "BITMAP_CARDINALITY_THRESHOLD",
    "BitmapIndex",
    "INDEX_STATS",
    "IdScheme",
    "MaterializedView",
    "OrderedIndex",
    "SubtreeChange",
    "ViewCatalog",
    "ViewSet",
    "apply_subtree_delta",
    "build_index",
    "can_apply_delta",
    "index_for_source",
]
