"""Batch kernels for :class:`~repro.algebra.execution.PlanExecutor`.

Pure functions over column value lists and cached Dewey component keys
(tuples of sibling ordinals — tuple order *is* document order).  Each
kernel is specified by a row-at-a-time reference implementation in
``tests/support/oracle_executor.py``: same output rows, same row order,
same ⊥ handling.  That parity is the whole contract — the identity suites
assert it on every plan the paper workloads produce — so every algorithmic
subtlety here (stable sorts, first-occurrence dedup, the staircase stack
discipline, the non-retreating merge cursor) matches the reference, just
producing index vectors instead of row tuples.

Join kernels return parallel ``(left_indices, right_indices)`` vectors;
:func:`repro.algebra.columnar.joined_batch` turns them into lazy gathers,
so joined columns that no later operator reads are never copied.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from repro.algebra.tuples import _hashable
from repro.patterns.pattern import Axis
from repro.xmltree.node import XMLNode

__all__ = [
    "dewey_ordered",
    "distinct_indices",
    "group_runs",
    "hash_id_join_pairs",
    "merge_id_join_pairs",
    "ordered_union_rows",
    "selection_indices",
    "staircase_pairs",
]


def selection_indices(values: Sequence, formula) -> list[int]:
    """Row indices passing ``formula`` (content references unwrap to values)."""
    keep = []
    for index, value in enumerate(values):
        if isinstance(value, XMLNode):
            value = value.value
        if formula.evaluate(value):
            keep.append(index)
    return keep


def distinct_indices(column_values: Sequence[Sequence], row_count: int) -> list[int]:
    """First-occurrence indices of distinct rows (the projection dedup).

    ``column_values`` holds the projected columns; the row key is the same
    canonical :func:`~repro.algebra.tuples._hashable` tuple
    ``Relation.project`` builds, so node/ID equivalence matches exactly.
    """
    seen: set = set()
    keep = []
    for index in range(row_count):
        key = tuple(_hashable(values[index]) for values in column_values)
        if key not in seen:
            seen.add(key)
            keep.append(index)
    return keep


def dewey_ordered(
    keys: Sequence[Optional[tuple]], is_sorted: bool
) -> list[tuple[tuple, int]]:
    """``(components, row index)`` pairs in document order, ⊥ dropped.

    Rows whose join key is ``None`` can never satisfy a structural or
    equality predicate and are dropped up front; unannotated inputs are
    stably sorted on their component tuples (ties keep input row order) —
    the sort-then-merge fallback the cost model charges for.
    """
    pairs = [(key, index) for index, key in enumerate(keys) if key is not None]
    if not is_sorted:
        pairs.sort(key=lambda pair: pair[0])
    return pairs


def group_runs(pairs: Sequence[tuple[tuple, int]]) -> list[tuple[tuple, list[int]]]:
    """Collapse document-ordered pairs into per-identifier index groups."""
    groups: list[tuple[tuple, list[int]]] = []
    for key, index in pairs:
        if groups and groups[-1][0] == key:
            groups[-1][1].append(index)
        else:
            groups.append((key, [index]))
    return groups


def _is_strict_prefix(upper: tuple, lower: tuple) -> bool:
    """Strict Dewey ancestry on raw component tuples."""
    return len(upper) < len(lower) and lower[: len(upper)] == upper


def staircase_pairs(
    ancestor_groups: Sequence[tuple[tuple, list[int]]],
    descendants: Sequence[tuple[tuple, int]],
    axis: Axis,
) -> tuple[list[int], list[int]]:
    """The staircase sort-merge sweep on component keys — index-vector form.

    One merge pass over both document-ordered inputs.  The stack holds the
    currently *open* ancestor groups — those whose subtree interval
    contains the sweep position — as ``(components, group index)``; Dewey
    order equals document order and subtrees are contiguous intervals, so a
    group popped because the sweep left its subtree can never match a later
    descendant.  Every matching (ancestor row, descendant row) pair lands
    in the two output vectors in descendant document order.
    """
    left_out: list[int] = []
    right_out: list[int] = []
    stack: list[tuple[tuple, int]] = []
    next_group = 0
    for lower_key, lower_index in descendants:
        while next_group < len(ancestor_groups) and not (
            lower_key < ancestor_groups[next_group][0]
        ):
            upper_key = ancestor_groups[next_group][0]
            while stack and not _is_strict_prefix(stack[-1][0], upper_key):
                stack.pop()
            stack.append((upper_key, next_group))
            next_group += 1
        while stack and not (
            stack[-1][0] == lower_key or _is_strict_prefix(stack[-1][0], lower_key)
        ):
            stack.pop()
        if not stack:
            continue
        # every open group strictly above an equal top matches; an equal
        # top itself never does (ancestry is strict)
        top = len(stack) - (1 if stack[-1][0] == lower_key else 0)
        if axis is Axis.CHILD:
            target_depth = len(lower_key) - 1
            for position in range(top - 1, -1, -1):
                upper_key, group_index = stack[position]
                if len(upper_key) == target_depth:
                    for left_index in ancestor_groups[group_index][1]:
                        left_out.append(left_index)
                        right_out.append(lower_index)
                    break
                if len(upper_key) < target_depth:
                    break
        else:
            for position in range(top):
                for left_index in ancestor_groups[stack[position][1]][1]:
                    left_out.append(left_index)
                    right_out.append(lower_index)
    return left_out, right_out


def merge_id_join_pairs(
    left_keys: Sequence[Optional[tuple]], right_keys: Sequence[Optional[tuple]]
) -> tuple[list[int], list[int]]:
    """``⋈=`` as one merge pass over two Dewey-sorted key columns.

    Equal identifiers are adjacent on both sides, so the right side
    collapses into consecutive per-identifier groups and a non-retreating
    cursor pairs them with the non-decreasing left keys; ⊥ keys never
    match, and output pairs come out in left-row order — the same pair list
    :func:`hash_id_join_pairs` produces, not just the same set.
    """
    groups: list[tuple[tuple, list[int]]] = []
    for right_index, key in enumerate(right_keys):
        if key is None:
            continue
        if groups and groups[-1][0] == key:
            groups[-1][1].append(right_index)
        else:
            groups.append((key, [right_index]))
    left_out: list[int] = []
    right_out: list[int] = []
    position = 0
    for left_index, key in enumerate(left_keys):
        if key is None:
            continue
        while position < len(groups) and groups[position][0] < key:
            position += 1
        if position < len(groups) and groups[position][0] == key:
            for right_index in groups[position][1]:
                left_out.append(left_index)
                right_out.append(right_index)
    return left_out, right_out


def hash_id_join_pairs(
    left_keys: Sequence[Optional[tuple]], right_keys: Sequence[Optional[tuple]]
) -> tuple[list[int], list[int]]:
    """``⋈=`` as a build/probe hash join on component keys.

    Build on the right (insertion order per key), probe in left-row
    order, ⊥ keys never match.
    """
    by_id: dict[tuple, list[int]] = {}
    for right_index, key in enumerate(right_keys):
        if key is not None:
            by_id.setdefault(key, []).append(right_index)
    left_out: list[int] = []
    right_out: list[int] = []
    for left_index, key in enumerate(left_keys):
        if key is None:
            continue
        for right_index in by_id.get(key, ()):
            left_out.append(left_index)
            right_out.append(right_index)
    return left_out, right_out


def ordered_union_rows(
    null_rows: Sequence[tuple],
    keyed_streams: Sequence[Sequence[tuple[tuple, tuple]]],
) -> list[tuple]:
    """The ordered k-way union merge body.

    ``⊥``-keyed rows first (deduplicated globally), then a stable
    :func:`heapq.merge` over the per-branch ``(components, row)`` streams
    with a per-identifier-run seen-set — duplicates always carry equal sort
    keys, so the bounded run-local dedup is exact.
    """
    rows: list[tuple] = []
    seen: set = set()
    for row in null_rows:
        key = _hashable(row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    current_components: Optional[tuple] = None
    run_seen: set = set()
    for components, row in heapq.merge(*keyed_streams, key=lambda item: item[0]):
        if components != current_components:
            current_components = components
            run_seen = set()
        key = _hashable(row)
        if key not in run_seen:
            run_seen.add(key)
            rows.append(row)
    return rows
