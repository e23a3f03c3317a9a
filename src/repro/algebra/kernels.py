"""Batch kernels for :class:`~repro.algebra.execution.PlanExecutor`.

Pure functions over column value lists, cached Dewey component keys
(tuples of sibling ordinals — tuple order *is* document order, a strict
prefix *is* an ancestor) and cached dedup row keys, plus
:class:`StructuralLinks`, the one stateful kernel: per descendant row, the
ancestor rows a structural join pairs it with, built once from two key
vectors, cached by the executor per pair of extents and carried across a
write's splices by :meth:`StructuralLinks.follow`.  Each kernel is
specified by a row-at-a-time reference implementation in
``tests/support/oracle_executor.py``: same output rows, same row order,
same ⊥ handling.  That parity is the whole contract — the identity suites
assert it on every plan the paper workloads produce and
``tests/property/test_structural_kernel.py`` on drawn inputs — so every
algorithmic subtlety here (stable sorts, first-occurrence dedup, outermost
ancestor first, a key's rows in input order, the non-retreating merge
cursor) matches the reference, just producing index vectors instead of row
tuples.  Identity and ancestry are decided on the keys alone: nothing here
compares component by component in Python or turns an identifier into a
string.

Join kernels return parallel ``(left_indices, right_indices)`` vectors;
:func:`repro.algebra.columnar.joined_batch` turns them into lazy gathers,
so joined columns that no later operator reads are never copied.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from itertools import chain, compress, islice, repeat
from operator import is_not, itemgetter, le, lt
from typing import Iterable, Optional, Sequence

from repro.algebra.tuples import _hashable
from repro.patterns.pattern import Axis
from repro.xmltree.node import XMLNode

__all__ = [
    "StructuralLinks",
    "dewey_ordered",
    "distinct_indices",
    "hash_id_join_pairs",
    "merge_id_join_pairs",
    "ordered_union_rows",
    "selection_indices",
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


def distinct_indices(key_columns: Sequence[Sequence], row_count: int) -> Sequence[int]:
    """First-occurrence indices of distinct rows (the projection dedup).

    ``key_columns`` holds the projected columns' row-key vectors
    (:meth:`~repro.algebra.columnar._ColumnSource.row_keys`): equal keys
    exactly where ``Relation.project``'s ``_hashable`` rows are equal.  With
    no column every row is the empty row: one survives, if any exists.
    """
    if not key_columns:
        return range(min(row_count, 1))
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


class StructuralLinks:
    """``⋈≺`` / ``⋈≺≺`` between two key vectors, solved once per descendant row.

    ``targets[d]`` is the tuple of ancestor rows descendant row ``d`` pairs
    with, in the order a stack of open ancestors emits them: outermost
    ancestor first, row order inside a key.  Built from the key vectors
    alone — an ancestor's key is a strict prefix of its descendants', so
    the ancestor rows are grouped by key in a dict and each descendant
    looks up its own prefixes: ``key[:-1]`` for the child axis,
    ``key[:cut]`` for each distinct ancestor depth ``cut < len(key)``,
    shallowest first, for the descendant axis —
    ``O(|A| + |D| × distinct ancestor depths)`` slices and hashes, paid
    once.  With ancestors at one depth, siblings share one tuple; ⊥ keys
    link to nothing.

    :meth:`pairs` then answers a join over *gathers* of the two vectors
    (selections, join outputs) without a slice or a tuple hash: the
    executor caches one instance per pair of extents
    (:meth:`~repro.algebra.execution.PlanExecutor._structural_pairs`) and
    marks it ``read`` whenever it serves a join; a write carries the read
    ones across its splices with :meth:`follow`.  The pairs of a join of
    the two whole extents are kept too (:meth:`extent_pairs`).
    """

    __slots__ = ("targets", "leaders", "single", "depth", "singles", "read", "paired")

    def __init__(
        self,
        ancestor_keys: Sequence[Optional[tuple]],
        descendant_keys: Sequence[Optional[tuple]],
        axis: Axis,
    ) -> None:
        count = len(ancestor_keys)
        # one C-level pass while every identified ancestor has its own key
        rows = dict(zip(ancestor_keys, zip(range(count))))
        rows.pop(None, None)
        unique = len(rows) == count - ancestor_keys.count(None)
        if not unique:
            groups: dict[tuple, list[int]] = {}
            for index, key in enumerate(ancestor_keys):
                if key is not None:
                    groups.setdefault(key, []).append(index)
            rows = {key: tuple(group) for key, group in groups.items()}
        find = rows.get
        depths = set(map(len, rows))
        cuts = [-1] if axis is Axis.CHILD else sorted(depths)
        none = ()
        if len(cuts) == 1:
            # the common case — the parent, or ancestors all at one depth
            (cut,) = cuts
            if None in descendant_keys or cut in map(len, descendant_keys):
                # a key no longer than the cut would look up itself
                targets = [
                    none if key is None or len(key) <= cut else find(key[:cut], none)
                    for key in descendant_keys
                ]
            else:
                prefixes = map(itemgetter(slice(None, cut)), descendant_keys)
                targets = list(map(find, prefixes, repeat(none)))
        else:
            targets = []
            for key in descendant_keys:
                found = none
                if key is not None:
                    depth = len(key)
                    for cut in cuts:
                        if cut >= depth:
                            break
                        group = find(key[:cut])
                        if group is not None:
                            found = found + group if found else group
                targets.append(found)
        self.targets: list[tuple[int, ...]] = targets
        # per ancestor row, the first row of its key (-1 for ⊥) — only
        # needed, and only kept, when some key has several rows
        self.leaders: Optional[list[int]] = None
        if not unique:
            leaders = [-1] * count
            for group in rows.values():
                for index in group:
                    leaders[index] = group[0]
            self.leaders = leaders
        # ancestor keys unique and at one depth: ≤ 1 target per row, so the
        # descendant positions are a compress, not a repeat per row
        self.single = unique and len(cuts) == 1
        # the one depth of the ancestor keys when :meth:`follow` can carry
        # these links: unique ancestors all at that depth, both vectors
        # ⊥-free and in document order — read off the data, never off an
        # annotation
        self.depth: Optional[int] = None
        # with a depth, ``singles[r]`` is the one ``(r,)`` every descendant
        # of ancestor row ``r`` holds: a follow renumbers onto these tuples,
        # so it allocates none and siblings keep sharing one
        self.singles: Optional[list[tuple[int]]] = None
        if self.single and len(depths) == 1:
            if _ordered(ancestor_keys) and _ordered(descendant_keys):
                (self.depth,) = depths
                self.singles = list(rows.values())
        self.read = False
        # the (left, right) vectors of :meth:`extent_pairs`, once built
        self.paired: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def follow(
        self,
        ancestor_keys: Sequence[Optional[tuple]],
        descendant_keys: Sequence[Optional[tuple]],
        ancestor_runs: Sequence[tuple[int, int, int]],
        descendant_runs: Sequence[tuple[int, int, int]],
        axis: Axis,
    ) -> Optional["StructuralLinks"]:
        """These links after one write, or ``None`` when the write drops them.

        ``ancestor_keys`` / ``descendant_keys`` are the key vectors after
        the write; each side's runs are the ``(lo, hi, count)`` splices that
        made them — rows ``[lo, hi)`` of the old vector gave way to
        ``count`` new ones, ascending, disjoint, counted on the old vector.
        The result equals ``StructuralLinks(ancestor_keys, descendant_keys,
        axis)`` field for field.

        Carried is the case a write to leaf-pinned views makes: unique
        ancestors at one :attr:`depth` (≤ 1 target per row) and at most one
        ancestor run.  The old targets are sliced around each descendant
        run and, past the ancestor run, shifted by its size change — with
        both vectors in document order those descendants are one suffix,
        found by bisect.  Looked up again, by bisect on the ancestor keys:
        a descendant run's rows; the rows ``[K, K⁺)`` under each added
        ancestor key ``K``; and, when the run replaced rows, every
        descendant between the subtrees of its two neighbours, where the
        replaced rows' descendants lie.

        ``None`` — the caller drops the links, the next join builds them —
        when :attr:`depth` is ``None`` (⊥ or unsorted keys, duplicate
        ancestor keys, ancestors at several depths or none), the write made
        several ancestor runs or left no ancestor, or a run's rows do not
        fit in order between their neighbours (ancestors: strictly, at
        :attr:`depth`).
        """
        depth = self.depth
        if depth is None or len(ancestor_runs) > 1 or not ancestor_keys:
            return None
        added = _fitted_ranges(ancestor_keys, ancestor_runs, depth)
        moved = _fitted_ranges(descendant_keys, descendant_runs)
        if added is None or moved is None:
            return None
        targets = self.targets
        singles = self.singles
        if len(ancestor_keys) != len(singles):
            singles = singles[: len(ancestor_keys)]
            singles += zip(range(len(singles), len(ancestor_keys)))
        recompute = [range(lo, hi) for lo, hi in moved]
        if descendant_runs:
            spliced: list = []
            cursor = 0
            for lo, hi, count in descendant_runs:
                spliced += targets[cursor:lo]
                spliced += repeat((), count)  # looked up below
                cursor = hi
            spliced += targets[cursor:]
            targets = spliced
        else:
            targets = list(targets)
        for lo, hi, count in ancestor_runs:
            shift = count - (hi - lo)
            # past the subtree of the run's left neighbour, every target is
            # an ancestor row >= lo
            start = bisect_left(descendant_keys, _above(ancestor_keys[lo - 1])) if lo else 0
            if shift:
                suffix = targets[start:]
                targets[start:] = [singles[group[0] + shift] if group else () for group in suffix]
            if lo < hi:
                end = lo + count
                stop = len(descendant_keys)
                if end < len(ancestor_keys):
                    stop = bisect_left(descendant_keys, ancestor_keys[end])
                recompute.append(range(start, stop))
            else:
                for key in islice(ancestor_keys, lo, lo + count):
                    recompute.append(
                        range(
                            bisect_left(descendant_keys, key),
                            bisect_left(descendant_keys, _above(key)),
                        )
                    )
        for row in set(chain.from_iterable(recompute)):
            linked = _linked(descendant_keys[row], ancestor_keys, depth, axis)
            targets[row] = () if linked is None else singles[linked]
        followed = StructuralLinks.__new__(StructuralLinks)
        followed.targets, followed.leaders, followed.single = targets, None, True
        followed.depth, followed.singles, followed.read = depth, singles, False
        followed.paired = None  # the first join after the write pairs again
        return followed

    def extent_pairs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """:meth:`pairs` over the two whole extents — every descendant row in
        row order (document order), the ancestor rows themselves — built
        by the first such join and returned to every later one.  Shared
        between queries, so kept as tuples nobody can mutate."""
        if self.paired is None:
            left, right = self.pairs(None, range(len(self.targets)), None)
            self.paired = tuple(left), tuple(right)
        return self.paired

    def pairs(
        self,
        descendants: Optional[Sequence[int]],
        positions: Sequence[int],
        ancestors: Optional[Sequence[int]],
    ) -> tuple[list[int], list[int]]:
        """``(ancestor position, descendant position)`` index pairs.

        ``descendants`` lists the descendant rows in emission order
        (``None``: every row, in row order) and ``positions`` the output
        position of each; ``ancestors`` maps each position of the ancestor
        input to its row (``None``: the rows themselves).  Each descendant
        emits its targets in order, all in C-level ``chain`` / ``compress``
        passes.  A gathered ancestor side is remapped through the inverse of
        its gather — one ``dict(zip(...))`` when no row repeats — or else
        through its positions grouped by key, so every key expands to its
        positions in ascending order, the order the row-wise sweep emits a
        key's rows in.
        """
        targets = self.targets
        per_row = targets if descendants is None else list(map(targets.__getitem__, descendants))
        left = list(chain.from_iterable(per_row))
        if self.single:
            right = list(compress(positions, per_row))
        else:
            right = list(chain.from_iterable(map(repeat, positions, map(len, per_row))))
        if ancestors is None:
            return left, right
        count = len(ancestors)
        inverse = dict(zip(ancestors, range(count)))
        leaders = self.leaders
        if len(inverse) == count and (
            leaders is None or all(map(lt, ancestors, islice(ancestors, 1, None)))
        ):
            left = list(map(inverse.get, left))
            if None in left:  # ancestor rows the gather dropped
                keep = list(map(is_not, left, repeat(None)))
                return list(compress(left, keep)), list(compress(right, keep))
            return left, right
        # the gather repeats rows (or reorders a key's rows): group its
        # positions by key, ascending, and expand each key to its group
        grouped: defaultdict[int, list[int]] = defaultdict(list)
        if leaders is None:
            for position, row in enumerate(ancestors):
                grouped[row].append(position)
        else:
            # a key's leader stands for all its rows; the others expand to []
            for position, row in enumerate(ancestors):
                grouped[leaders[row]].append(position)
        expanded = list(map(grouped.__getitem__, left))
        return (
            list(chain.from_iterable(expanded)),
            list(chain.from_iterable(map(repeat, right, map(len, expanded)))),
        )


def _ordered(keys: Sequence[Optional[tuple]]) -> bool:
    """Whether ``keys`` are ⊥-free and non-decreasing (document order)."""
    return None not in keys and all(map(le, keys, islice(keys, 1, None)))


def _fitted_ranges(
    keys: Sequence[Optional[tuple]],
    runs: Sequence[tuple[int, int, int]],
    depth: Optional[int] = None,
    strict: bool = False,
) -> Optional[list[tuple[int, int]]]:
    """Where each run's new rows sit in the new vector ``keys`` (``[lo, hi)``,
    none for a run that only removes), or ``None`` when a run's rows are not
    ⊥-free and in order between their neighbours — strictly in order with
    ``strict`` or ``depth`` given, and with ``depth`` all of that depth."""
    order = lt if strict or depth is not None else le
    ranges = []
    offset = 0
    for lo, hi, count in runs:
        start = lo + offset
        offset += count - (hi - lo)
        if count:
            rows = keys[start : start + count]
            if None in rows or (depth is not None and any(len(key) != depth for key in rows)):
                return None
            window = keys[max(start - 1, 0) : start + count + 1]
            if not all(map(order, window, islice(window, 1, None))):
                return None
            ranges.append((start, start + count))
    return ranges


def _above(key: tuple) -> tuple:
    """The first key after every descendant of ``key``: ``[key, _above(key))``
    is ``key``'s subtree in document order."""
    return key[:-1] + (key[-1] + 1,)


def _linked(
    key: tuple, ancestor_keys: Sequence[tuple], depth: int, axis: Axis
) -> Optional[int]:
    """The ancestor row descendant ``key`` links to, or ``None``, by bisect
    on sorted, unique ancestor keys all of ``depth`` components — as
    :class:`StructuralLinks` builds it."""
    if len(key) <= depth or (axis is Axis.CHILD and len(key) != depth + 1):
        return None
    prefix = key[:depth]
    row = bisect_left(ancestor_keys, prefix)
    return row if row < len(ancestor_keys) and ancestor_keys[row] == prefix else None


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
