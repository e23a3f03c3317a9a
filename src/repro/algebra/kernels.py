"""Batch kernels for :class:`~repro.algebra.execution.PlanExecutor`.

Pure functions over column value lists, cached Dewey component keys
(tuples of sibling ordinals — tuple order *is* document order, a strict
prefix *is* an ancestor) and cached dedup row keys.  Each kernel is
specified by a row-at-a-time reference implementation in
``tests/support/oracle_executor.py``: same output rows, same row order,
same ⊥ handling.  That parity is the whole contract — the identity suites
assert it on every plan the paper workloads produce and
``tests/property/test_structural_kernel.py`` on drawn inputs — so every
algorithmic subtlety here (stable sorts, first-occurrence dedup, outermost
ancestor first, the non-retreating merge cursor) matches the reference,
just producing index vectors instead of row tuples.  Identity and ancestry
are decided on the keys alone: nothing here compares component by
component in Python or turns an identifier into a string.

Join kernels return parallel ``(left_indices, right_indices)`` vectors;
:func:`repro.algebra.columnar.joined_batch` turns them into lazy gathers,
so joined columns that no later operator reads are never copied.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import itemgetter, lt
from typing import Iterable, Optional, Sequence

from repro.algebra.tuples import _hashable
from repro.patterns.pattern import Axis
from repro.xmltree.node import XMLNode

__all__ = [
    "dewey_ordered",
    "distinct_indices",
    "hash_id_join_pairs",
    "merge_id_join_pairs",
    "ordered_union_rows",
    "selection_indices",
    "structural_pairs",
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


def distinct_indices(
    key_columns: Sequence[Sequence],
    row_count: int,
    sorted_keys: Optional[Sequence],
) -> Sequence[int]:
    """First-occurrence indices of distinct rows (the projection dedup).

    ``key_columns`` holds the projected columns' row-key vectors
    (:meth:`~repro.algebra.columnar._ColumnSource.row_keys`): equal keys
    exactly where ``Relation.project``'s ``_hashable`` rows are equal.
    ``sorted_keys`` is the key vector of the ``sorted_by`` column when it
    is projected (else ``None``): strictly increasing keys prove every row distinct, and
    the proof is read off the data, so a wrong annotation loses no rows.
    """
    if sorted_keys is not None:
        try:
            if all(map(lt, sorted_keys, islice(sorted_keys, 1, None))):
                return range(row_count)
        except TypeError:
            pass  # ⊥ or mixed cells do not compare: nothing proven
    if len(key_columns) == 1:
        rows = reversed(key_columns[0])
    else:
        rows = zip(*map(reversed, key_columns))
    # filled back to front, so each key is left holding its first index
    first = dict(zip(rows, reversed(range(row_count))))
    return sorted(first.values())


def dewey_ordered(
    keys: Sequence[Optional[tuple]], is_sorted: bool
) -> Iterable[tuple[int, tuple]]:
    """``(row index, components)`` pairs in document order, ⊥ dropped.

    Rows whose join key is ``None`` can never satisfy a structural
    predicate and are dropped up front; unannotated inputs are stably
    sorted on their component tuples (ties keep input row order).  An
    annotated, ⊥-free input is served by ``enumerate`` — no pair list.
    """
    if is_sorted and None not in keys:
        return enumerate(keys)
    pairs = [(index, key) for index, key in enumerate(keys) if key is not None]
    if not is_sorted:
        pairs.sort(key=itemgetter(1))
    return pairs


def structural_pairs(
    left_keys: Sequence[Optional[tuple]],
    right_keys: Sequence[Optional[tuple]],
    axis: Axis,
    right_sorted: bool,
) -> tuple[list[int], list[int]]:
    """``⋈≺`` / ``⋈≺≺`` on component keys: one prefix look-up per ancestor depth.

    An ancestor's key is a strict prefix of its descendants' keys, so the
    ancestor rows are grouped by key in a dict (row order inside a group,
    no ancestor-side sort) and every descendant, taken in document order,
    looks up its own prefixes: ``key[:-1]`` for the child axis, ``key[:cut]``
    for each distinct ancestor depth ``cut < len(key)``, shallowest first,
    for the descendant axis.  That is every matching (ancestor row,
    descendant row) pair in the order a stack of open ancestors emits them
    — descendant document order, outermost ancestor first — in
    ``O(|D| × distinct ancestor depths)`` slices and hashes.
    """
    groups: dict[tuple, list[int]] = {}
    for index, key in enumerate(left_keys):
        if key is not None:
            groups.setdefault(key, []).append(index)
    find = groups.get
    cuts = [-1] if axis is Axis.CHILD else sorted(set(map(len, groups)))
    left_out: list[int] = []
    right_out: list[int] = []
    descendants = dewey_ordered(right_keys, right_sorted)
    if len(cuts) == 1:
        # the common case — the parent, or ancestors all at one depth
        (cut,) = cuts
        for index, key in descendants:
            if len(key) > cut:  # a shorter key would look up itself
                for left_index in find(key[:cut], ()):
                    left_out.append(left_index)
                    right_out.append(index)
        return left_out, right_out
    for index, key in descendants:
        depth = len(key)
        for cut in cuts:
            if cut >= depth:
                break
            for left_index in find(key[:cut], ()):
                left_out.append(left_index)
                right_out.append(index)
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
