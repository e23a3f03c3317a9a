"""Small builders for hand-made relations and plans.

The library sets a relation's Dewey-sort annotation itself (view extents,
the merge join); tests that build relations by hand assert their physical
order with :func:`mark_sorted_by`.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.operators import IndexScan, PlanOperator, ViewScan
from repro.algebra.tuples import Relation

__all__ = ["mark_sorted_by", "view_scan_count"]


def mark_sorted_by(relation: Relation, name: Optional[str]) -> Relation:
    """Record (or clear, with ``None``) that ``relation``'s rows are
    Dewey-sorted on column ``name``; the column must exist."""
    if name is not None:
        relation.column_index(name)  # raises on unknown columns
    relation.sorted_by = name
    return relation


def view_scan_count(plan: PlanOperator) -> int:
    """View occurrences in a plan: its *size* in the sense of Prop. 3.6."""
    if isinstance(plan, (ViewScan, IndexScan)):
        return 1
    return sum(view_scan_count(child) for child in plan.children())
