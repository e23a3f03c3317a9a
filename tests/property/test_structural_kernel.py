"""Property: the two warm-execution kernels equal their row-wise oracles.

* ``kernels.StructuralLinks`` (ancestor rows grouped by key, one prefix
  look-up per ancestor depth, built once) must emit the same ``(ancestor
  row, descendant row)`` pairs *in the same order* as the
  stack-of-open-ancestors sweep in ``support.oracle_executor`` — on forests
  with recursive labels (ancestors nested in ancestors, three and more
  ancestor depths), duplicate identifiers on both sides, ``⊥`` keys, sorted
  and unsorted inputs, ancestor gathers that repeat, drop and reorder rows,
  both axes, flat and nested, through the executor's link cache.
* ``StructuralLinks.follow`` (old targets sliced around each descendant
  run, shifted past the ancestor run, the rows nothing old answers for
  looked up again by bisect) must equal a fresh build field for field over
  drawn splice sequences — insert and delete runs on either side and on
  both in one write, added ancestor keys above existing descendants — and
  be ``None`` exactly where its docstring says it drops: ancestors at
  several depths, duplicate ancestor keys, several ancestor runs.
* ``Projection`` through ``PlanExecutor`` (row-key vectors, the cached
  distinctness proof read through gathers, back-to-front ``dict`` dedup)
  must be row-identical to ``Relation.project`` — the dedup matrix below
  lists the cell kinds whose ``_hashable`` equivalence is not plain
  ``==`` — and the proof a splice carries must equal a fresh computation.
* The executor's one memo (``PlanExecutor._kept``: a kernel operator's
  output vectors on its plan node, weakly keyed on the extents it scans)
  must equal a fresh run (``support.memo_oracle``), be read back — the very
  same entry — while those extents stay, miss once one is replaced, never
  be mutated by a later operator, travel in no pickle or copy and keep no
  replaced extent alive: on joins of two extents, join chains, ``π`` over
  every column subset of a chain and a ``σ`` below it.
"""

from __future__ import annotations

import copy
import gc
import operator
import pickle
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import kernels
from repro.algebra.columnar import _ColumnSource, splice_runs
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import (
    IdEqualityJoin,
    IndexScan,
    NestedStructuralJoin,
    Projection,
    Selection,
    StructuralJoin,
    ViewScan,
)
from repro.algebra.tuples import Column, Relation, _hashable
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

from support.memo_oracle import assert_memo_derived
from support.oracle_executor import OracleExecutor
from support.relations import stored_view

AXES = (Axis.CHILD, Axis.DESCENDANT)


def _views(**relations):
    return {name: stored_view(relation) for name, relation in relations.items()}


def _identical(fast: Relation, slow: Relation) -> None:
    """Same schema, same rows in the same order."""
    assert fast.column_names == slow.column_names
    assert [_hashable(row) for row in fast.rows] == [_hashable(row) for row in slow.rows]


# --------------------------------------------------------------------------- #
# structural links against the staircase sweep
# --------------------------------------------------------------------------- #
def _link_pairs(left_keys, right_keys, axis, right_sorted, ancestors=None):
    """The links' pairs over ``left_keys`` (gathered by ``ancestors``, if
    given), descendants in document order — as ``_structural_pairs`` reads
    them."""
    links = kernels.StructuralLinks(left_keys, right_keys, axis)
    in_order = right_sorted and None not in right_keys
    order = [index for index, _ in kernels.dewey_ordered(right_keys, in_order)]
    return list(zip(*links.pairs(order, order, ancestors)))


def _id_relation(keys) -> Relation:
    """``ID1`` holds the drawn identifiers, ``row`` the row's own index."""
    relation = Relation(
        [Column("ID1", kind="ID"), Column("row")],
        rows=[(None if key is None else DeweyID(key), index) for index, key in enumerate(keys)],
    )
    return relation


def _sweep_pairs(upper: Relation, lower: Relation, axis: Axis):
    """The oracle: its own sort, its own grouping, its stack sweep."""
    oracle = OracleExecutor({})
    ancestors = oracle._group_by_id(oracle._dewey_sorted(upper, "ID1"))
    descendants = oracle._dewey_sorted(lower, "ID1")
    pairs = []

    def emit(group_index, lower_row):
        pairs.extend((upper_row[1], lower_row[1]) for upper_row in ancestors[group_index][1])

    oracle._staircase_sweep(ancestors, descendants, axis, emit)
    return pairs


# ordinals 1..2 to depth 6: most drawn identifiers are prefixes of others,
# so ancestors nest in ancestors and sit at many depths at once
_dewey = st.lists(st.integers(1, 2), min_size=0, max_size=5).map(lambda tail: (1, *tail))


@st.composite
def _key_column(draw):
    """Identifiers with duplicates and ⊥; sorted inputs keep ⊥ anywhere."""
    keys = draw(st.lists(_dewey, max_size=14))
    is_sorted = draw(st.booleans())
    if is_sorted:
        keys.sort()
    for position in draw(st.lists(st.integers(0, len(keys)), max_size=3)):
        keys.insert(position, None)
    return keys, is_sorted


@settings(max_examples=150)
@given(_key_column(), _key_column(), st.data())
def test_structural_pairs_equal_the_oracle_sweep(left, right, data):
    (left_keys, left_sorted), (right_keys, right_sorted) = left, right
    upper = _id_relation(left_keys)
    lower = _id_relation(right_keys)
    views = _views(upper=upper, lower=lower)
    # an ancestor gather drawn freely: rows repeated, dropped, reordered
    # (one that never repeats a row takes the inverse-dict path)
    rows = st.lists(
        st.integers(0, max(len(left_keys) - 1, 0)), max_size=12, unique=data.draw(st.booleans())
    )
    ancestors = data.draw(rows) if left_keys else []
    gathered = _id_relation([left_keys[row] for row in ancestors])
    for axis in AXES:
        pairs = _link_pairs(left_keys, right_keys, axis, right_sorted)
        assert pairs == _sweep_pairs(upper, lower, axis)
        pairs = _link_pairs(left_keys, right_keys, axis, right_sorted, ancestors)
        assert pairs == _sweep_pairs(gathered, lower, axis)
        for operator, extra in (
            (StructuralJoin, {}),
            (NestedStructuralJoin, {"group_column": "G"}),
        ):
            plan = operator(
                left=ViewScan("upper", alias="u"),
                right=ViewScan("lower", alias="l"),
                left_column="u.ID1",
                right_column="l.ID1",
                axis=axis,
                **extra,
            )
            _identical(PlanExecutor(views).execute(plan), OracleExecutor(views).execute(plan))


def test_a_gather_that_swaps_equal_keys_emits_them_in_position_order():
    """Rows 0 and 2 share key 1.1; the gather reads them as positions 1 and 0."""
    left_keys = [(1, 1), (1,), (1, 1)]
    right_keys = [(1, 1, 1)]
    lower = _id_relation(right_keys)
    for ancestors in ([2, 0], [2, 1, 0], [2, 0, 2]):
        upper = _id_relation([left_keys[row] for row in ancestors])
        for axis in AXES:
            pairs = _link_pairs(left_keys, right_keys, axis, True, ancestors)
            assert pairs == _sweep_pairs(upper, lower, axis)
    assert _link_pairs(left_keys, right_keys, Axis.CHILD, True, [2, 0]) == [(0, 0), (1, 0)]


def test_recursive_ancestors_at_four_depths():
    """The pinned shape: every node of a chain on both sides, plus duplicates."""
    chain = [(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1)]
    left_keys = [chain[2], None, chain[0], chain[3], chain[1], chain[1]]  # unsorted
    right_keys = chain + [(1, 1, 2), None, chain[4]]
    upper, lower = _id_relation(left_keys), _id_relation(right_keys)
    pairs = _link_pairs(left_keys, right_keys, Axis.DESCENDANT, False)
    assert pairs == _sweep_pairs(upper, lower, Axis.DESCENDANT)
    # the deepest descendant sees its four ancestor depths outermost first,
    # the duplicated 1.1 in row order
    assert [left for left, right in pairs if right == 4] == [2, 4, 5, 0, 3]
    assert {len(left_keys[left]) for left, _ in pairs} == {1, 2, 3, 4}
    pairs = _link_pairs(left_keys, right_keys, Axis.CHILD, False)
    assert pairs == _sweep_pairs(upper, lower, Axis.CHILD)


# --------------------------------------------------------------------------- #
# links that follow a write's splices against a fresh build
# --------------------------------------------------------------------------- #
_sorted_keys = st.lists(_dewey, max_size=10).map(sorted)
# depth-3 identifiers, unique: the ancestors a follow carries
_flat = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda tail: (1, *tail))
_unique_keys = st.lists(_flat, min_size=1, max_size=6, unique=True).map(sorted)


@st.composite
def _write(draw, keys, dewey=_dewey, strict=False, most=3):
    """One write's runs over sorted ``keys``: ``(new keys, (lo, hi, count) runs)``.

    Each of up to ``most`` runs replaces up to two rows by drawn keys that
    fit in order between its neighbours — ``strict``: distinct from them and
    from each other — so the new vector is sorted too; runs may touch (an
    insertion right where the previous run ended).
    """
    runs, new, cursor = [], [], 0
    for _ in range(draw(st.integers(1, most))):
        lo = draw(st.integers(cursor, len(keys)))
        hi = draw(st.integers(lo, min(lo + 2, len(keys))))
        new += keys[cursor:lo]
        low = new[-1] if new else (1,)
        high = keys[hi] if hi < len(keys) else (2,)
        drawn = draw(st.lists(dewey, max_size=3))
        if strict:
            rows = sorted({key for key in drawn if low < key < high})
        else:
            rows = sorted(key for key in drawn if low <= key <= high)
        if lo == hi and not rows:
            cursor = lo
            continue
        new += rows
        runs.append((lo, hi, len(rows)))
        cursor = hi
    return new + keys[cursor:], runs


def _assert_equal_to_a_fresh_build(links, upper_keys, lower_keys, axis):
    fresh = kernels.StructuralLinks(upper_keys, lower_keys, axis)
    assert links is not None
    assert (links.targets, links.leaders, links.single, links.depth, links.singles) == (
        fresh.targets,
        fresh.leaders,
        fresh.single,
        fresh.depth,
        fresh.singles,
    )
    # siblings share one tuple per ancestor row, as in a fresh build
    assert all(group is links.singles[group[0]] for group in links.targets if group)
    order = list(range(len(lower_keys)))
    pairs = list(zip(*links.pairs(order, order, None)))
    upper, lower = _id_relation(upper_keys), _id_relation(lower_keys)
    assert pairs == _sweep_pairs(upper, lower, axis)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), _sorted_keys, st.data())
def test_followed_links_equal_a_fresh_build(unique, lower_keys, data):
    """Unique one-depth ancestors with one run are followed; everything else
    (duplicates, several depths, several ancestor runs, no ancestor left)
    is dropped and built afresh, as the caller does."""
    upper_keys = data.draw(_unique_keys if unique else _sorted_keys)
    for axis in AXES:
        links = kernels.StructuralLinks(upper_keys, lower_keys, axis)
        upper, lower = upper_keys, lower_keys
        for _ in range(data.draw(st.integers(1, 3))):  # a sequence of writes
            sides = data.draw(st.sampled_from(["upper", "lower", "both"]))
            upper_runs = lower_runs = []
            if sides != "lower":
                write = _write(upper, _flat, strict=True, most=2) if unique else _write(upper)
                upper, upper_runs = data.draw(write)
            if sides != "upper":
                lower, lower_runs = data.draw(_write(lower))
            followed = links.follow(upper, lower, upper_runs, lower_runs, axis)
            fresh = kernels.StructuralLinks(upper, lower, axis)
            if links.depth is not None and len(upper_runs) <= 1 and fresh.depth == links.depth:
                _assert_equal_to_a_fresh_build(followed, upper, lower, axis)
            else:
                assert followed is None
            links = followed or fresh


@pytest.mark.parametrize("axis", AXES)
def test_an_added_ancestor_links_the_descendants_already_below_it(axis):
    """A new ``1.2`` above existing ``1.2.1`` / ``1.2.1.1``, and a deleted
    ``1.1`` whose descendant stays: both rows are looked up again."""
    upper = [(1, 1), (1, 3)]
    lower = [(1, 1, 1), (1, 2, 1), (1, 2, 1, 1), (1, 3, 1)]
    links = kernels.StructuralLinks(upper, lower, axis)
    grown = [(1, 1), (1, 2), (1, 3)]
    links = links.follow(grown, lower, [(1, 1, 1)], [], axis)
    _assert_equal_to_a_fresh_build(links, grown, lower, axis)
    assert links.targets[1:3] == [(1,), ((1,) if axis is Axis.DESCENDANT else ())]
    shrunk = [(1, 2), (1, 3)]
    links = links.follow(shrunk, lower, [(0, 1, 0)], [], axis)
    _assert_equal_to_a_fresh_build(links, shrunk, lower, axis)
    assert links.targets == [(), (0,), ((0,) if axis is Axis.DESCENDANT else ()), (1,)]


@pytest.mark.parametrize(
    "upper, lower, upper_after, lower_after, upper_runs, lower_runs",
    [
        # ⊥ or out-of-order keys at build: nothing to bisect
        ([(1, 1), None], [(1, 1, 1)], [(1, 1), None], [(1, 1, 1), (1, 1, 2)], [], [(1, 1, 1)]),
        ([(1, 2), (1, 1)], [(1, 1, 1)], [(1, 2), (1, 1)], [(1, 1, 1), (1, 1, 2)], [], [(1, 1, 1)]),
        (
            [(1, 1)],
            [(1, 1, 2), (1, 1, 1)],
            [(1, 1), (1, 2)],
            [(1, 1, 2), (1, 1, 1)],
            [(1, 1, 1)],
            [],
        ),
        # duplicate ancestor keys, or ancestors at several depths, at build
        ([(1, 1), (1, 1)], [(1, 1, 1)], [(1, 1), (1, 1)], [(1, 1, 1), (1, 1, 2)], [], [(1, 1, 1)]),
        ([(1,), (1, 1)], [(1, 1, 1)], [(1,), (1, 1)], [(1, 1, 1), (1, 1, 2)], [], [(1, 1, 1)]),
        # a write that adds a twin, adds a key at another depth, makes two
        # ancestor runs, or leaves no ancestor
        ([(1, 1), (1, 2)], [(1, 1, 1)], [(1, 1), (1, 1), (1, 2)], [(1, 1, 1)], [(1, 1, 1)], []),
        ([(1, 1), (1, 3)], [(1, 1, 1)], [(1, 1), (1, 2, 1), (1, 3)], [(1, 1, 1)], [(1, 1, 1)], []),
        (
            [(1, 1), (1, 3), (1, 5)],
            [(1, 1, 1)],
            [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)],
            [(1, 1, 1)],
            [(1, 1, 1), (2, 2, 1)],
            [],
        ),
        ([(1, 1), (1, 2)], [(1, 1, 1)], [], [(1, 1, 1)], [(0, 2, 0)], []),
        # a run whose rows do not fit between their neighbours
        ([(1, 1), (1, 3)], [(1, 1, 1)], [(1, 1), (1, 4), (1, 3)], [(1, 1, 1)], [(1, 1, 1)], []),
        ([(1, 1)], [(1, 1, 1), (1, 1, 3)], [(1, 1)], [(1, 1, 1), (1, 1, 2), None], [], [(1, 2, 2)]),
    ],
)
def test_a_follow_drops_what_it_cannot_prove(
    upper, lower, upper_after, lower_after, upper_runs, lower_runs
):
    for axis in AXES:
        links = kernels.StructuralLinks(upper, lower, axis)
        assert links.follow(upper_after, lower_after, upper_runs, lower_runs, axis) is None


# --------------------------------------------------------------------------- #
# the executor's cached links, read through gathers, against the oracle
# --------------------------------------------------------------------------- #
def _left_inputs():
    """Ancestor inputs: an extent, and join outputs whose gather over the
    extent repeats rows (an ancestor with several matches) or is not
    ascending (ancestors at several depths, an unsorted or hashed input)."""
    upper, middle = ViewScan("upper", alias="u"), ViewScan("middle", alias="m")
    below = StructuralJoin(
        left=upper,
        right=middle,
        left_column="u.ID1",
        right_column="m.ID1",
        axis=Axis.DESCENDANT,
    )
    same = IdEqualityJoin(left=upper, right=middle, left_column="u.ID1", right_column="m.ID1")
    return [(upper, "u.ID1"), (below, "u.ID1"), (below, "m.ID1"), (same, "m.ID1")]


def _right_inputs(floor: int):
    """Descendant inputs: the extent, and two gathers over it."""
    keep = ValueFormula.gt(floor)
    return [
        ViewScan("lower", alias="l"),
        Selection(child=ViewScan("lower", alias="l"), column="l.row", formula=keep),
        IndexScan("lower", column="l.row", formula=keep, alias="l"),
    ]


@settings(max_examples=30, deadline=None)
@given(_key_column(), _key_column(), _key_column(), st.integers(-1, 8))
def test_cached_links_through_gathers_equal_the_oracle(upper, middle, lower, floor):
    views = _views(
        upper=_id_relation(upper[0]),
        middle=_id_relation(middle[0]),
        lower=_id_relation(lower[0]),
    )
    for axis, (left, left_column), right in product(
        AXES, _left_inputs(), _right_inputs(floor)
    ):
        for operator, extra in (
            (StructuralJoin, {}),
            (NestedStructuralJoin, {"group_column": "G"}),
        ):
            plan = operator(
                left=left,
                right=right,
                left_column=left_column,
                right_column="l.ID1",
                axis=axis,
                **extra,
            )
            slow = OracleExecutor(views).execute(plan)
            # a fresh executor builds the links, the next one reads them back
            for _ in range(2):
                _identical(PlanExecutor(views).execute(plan), slow)


# --------------------------------------------------------------------------- #
# projection dedup against Relation.project
# --------------------------------------------------------------------------- #
def _node(label, value=None, dewey=None) -> XMLNode:
    node = XMLNode(label, value)
    node.dewey = None if dewey is None else DeweyID(dewey)
    return node


def _nested(*rows) -> Relation:
    return Relation(["ID1", "V1"], rows=rows)


_ID = DeweyID((1, 2))
DEDUP_MATRIX = {
    "a node with an ID is its DeweyID": [
        _node("a", "x", (1, 2)),
        _ID,
        _node("b", "y", (1, 2)),
        DeweyID((1, 3)),
    ],
    "1.0 is 1, 1.5 is not": [1, 1.0, 1.5, True, 2, 2.0],
    "the string 1.2 is not DeweyID(1.2)": ["1.2", _ID, "1.2", DeweyID((1, 2))],
    "nested relations compare as sets": [
        _nested((_ID, "a"), (DeweyID((1, 3)), "b")),
        _nested((DeweyID((1, 3)), "b"), (_ID, "a"), (_ID, "a")),
        _nested((_ID, "a")),
        _nested(),
        None,
    ],
    "ID-less nodes compare by content": [
        _node("a", "x"),
        _node("a", "x"),
        _node("a", "y"),
        None,
        _ID,
    ],
    "⊥ equals only ⊥": [None, _ID, None, "", 0, None],
    "strings and ints": ["a", 1, "a", "1", 1, None],
}


def _projection_matches(relation: Relation, names, keep_column=None) -> Relation:
    views = _views(v=relation)
    child = ViewScan("v", alias="v")
    if keep_column is not None:  # a gather between the extent and the projection
        child = Selection(child=child, column=f"v.{keep_column}", formula=ValueFormula.gt(0))
    plan = Projection(child=child, columns=[f"v.{name}" for name in names])
    fast = PlanExecutor(views).execute(plan)
    _identical(fast, OracleExecutor(views).execute(plan))
    return fast


@pytest.mark.parametrize("case", DEDUP_MATRIX)
def test_dedup_matrix_is_row_identical_to_relation_project(case):
    cells = DEDUP_MATRIX[case]
    relation = Relation(["A", "B"], rows=[(cell, index % 2) for index, cell in enumerate(cells)])
    fast = _projection_matches(relation, ["A"])
    assert fast.rows == relation.project(["A"]).rows  # the very same cells
    assert len(fast) < len(cells)  # every case holds at least one duplicate
    _projection_matches(relation, ["B", "A"])
    _projection_matches(relation, ["A"], keep_column="B")


def test_a_sorted_column_with_an_equal_key_run_still_deduplicates():
    ids = [DeweyID((1, 1)), DeweyID((1, 2)), DeweyID((1, 2)), DeweyID((1, 2)), DeweyID((1, 3))]
    relation = Relation([Column("ID1", kind="ID"), "V1"], rows=list(zip(ids, "abbcd")))
    assert len(_projection_matches(relation, ["ID1"])) == 3
    fast = _projection_matches(relation, ["ID1", "V1"])
    assert len(fast) == 4
    # the equal-key run is read off the extent once: not strictly ascending
    plan = Projection(child=ViewScan("v", alias="v"), columns=["v.ID1"])
    views = _views(v=relation)
    PlanExecutor(views).execute_batch(plan)
    assert views["v"].extent.source(0)._ascending is False
    # strictly increasing, ⊥-free: nothing to remove, nothing hashed — the
    # extent's cached proof hands the projection its very source
    strict = Relation([Column("ID1", kind="ID")], rows=[(i,) for i in ids[::2]])
    assert _projection_matches(strict, ["ID1"]).rows == strict.rows
    views = _views(v=strict)
    extent = views["v"].extent.source(0)
    assert PlanExecutor(views).execute_batch(plan).source(0) is extent
    assert extent._ascending is True


@pytest.mark.parametrize(
    "cells",
    [
        # duplicates that are not adjacent, out of document order
        [DeweyID((1, 2)), DeweyID((1, 1)), DeweyID((1, 2)), DeweyID((1, 1))],
        [DeweyID((1, 1)), None, DeweyID((1, 1)), None],  # ⊥ may sit anywhere
        ["1.2", "1.1", "1.2"],  # identifier strings, unsorted
        ["b", 3, "b", 3.0],  # not identifiers at all, not even comparable
        [_node("a", None, (1, 2)), _ID, _node("a", None, (1, 1))],
    ],
)
def test_out_of_order_cells_lose_no_row(cells):
    relation = Relation(["ID1", "V1"], rows=[(cell, "v") for cell in cells])
    fast = _projection_matches(relation, ["ID1"])
    assert fast.rows == relation.project(["ID1"]).rows
    _projection_matches(relation, ["V1", "ID1"])


_cell = st.sampled_from([cell for cells in DEDUP_MATRIX.values() for cell in cells])


@settings(max_examples=100)
@given(
    st.lists(st.tuples(_cell, _cell, st.integers(0, 1)), max_size=10),
    st.sampled_from([["A"], ["B", "A"], ["A", "B", "K"]]),
    st.booleans(),
)
def test_projection_equals_relation_project_on_drawn_columns(rows, names, gathered):
    relation = Relation(["A", "B", "K"], rows=rows)
    _projection_matches(relation, names, keep_column="K" if gathered else None)


def test_a_zero_column_projection_keeps_one_empty_row():
    """``π`` onto no column: one ``()`` row when the input has any row,
    none otherwise — as ``Relation.project`` answers."""
    relation = Relation(["ID1"], rows=[(DeweyID((1, 1)),), (DeweyID((1, 2)),)])
    assert _projection_matches(relation, []).rows == [()] == relation.project([]).rows
    assert _projection_matches(Relation(["ID1"]), []).rows == []
    assert list(kernels.distinct_indices([], 2)) == [0]
    assert list(kernels.distinct_indices([], 0)) == []


# --------------------------------------------------------------------------- #
# the extent's distinctness proof, cached and carried across splices
# --------------------------------------------------------------------------- #
_NAN = float("nan")
# order-preserving codes: rank i of a strictly ascending universe as an
# identifier, a string, or a number (bools and ints and floats interleaved)
_CODES = {
    "ids": lambda rank: DeweyID((1, rank + 1)),
    "strings": lambda rank: f"{rank:03d}",
    "numbers": lambda rank: (False, True)[rank] if rank < 2 else rank / 2,
}
# cells that break the proof: ⊥, NaN, a type that does not compare, a twin
_SPOILERS = st.sampled_from([None, _NAN, "x", DeweyID((1, 1)), 1, 1.0, True])


@st.composite
def _proof_column(draw):
    """``(kind, ranks, cells)``: a column whose cells are the codes of
    ``ranks`` — strictly ascending, sorted with duplicates, or as drawn —
    with, sometimes, spoilers at drawn positions."""
    kind = draw(st.sampled_from(sorted(_CODES)))
    ranks = draw(st.lists(st.integers(0, 30), max_size=10))
    shape = draw(st.sampled_from(["strictly ascending", "sorted", "as drawn"]))
    if shape == "strictly ascending":
        ranks = sorted(set(ranks))
    elif shape == "sorted":
        ranks = sorted(ranks)
    cells = [_CODES[kind](rank) for rank in ranks]
    for position in draw(st.lists(st.integers(0, len(cells)), max_size=2)):
        cells.insert(position, draw(_SPOILERS))
    return kind, cells


def _unique(cells) -> bool:
    return len({_hashable(cell) for cell in cells}) == len(cells)


@settings(max_examples=150, deadline=None)
@given(_proof_column(), st.data())
def test_projection_through_drawn_gathers_equals_relation_project(column, data):
    """``A`` holds the drawn column, ``K`` a unique identifier per row; an
    ``⋈=`` with ``g`` gathers ``v``'s rows in ``g``'s order (repeated,
    dropped, reordered).  Every column the executor proves distinct must
    hold distinct cells, and every projection equals ``Relation.project``."""
    _, cells = column
    relation = Relation(
        ["A", Column("K", kind="ID")],
        rows=[(cell, DeweyID((1, index + 1))) for index, cell in enumerate(cells)],
    )
    views = {"v": relation}
    child = ViewScan("v", alias="v")
    if cells and data.draw(st.booleans()):
        rows = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=12))
        views["g"] = Relation([Column("G", kind="ID")], rows=[(DeweyID((1, row + 1)),) for row in rows])
        child = IdEqualityJoin(
            left=ViewScan("g", alias="g"), right=child, left_column="g.G", right_column="v.K"
        )
    views = _views(**views)
    batch = PlanExecutor(views).execute_batch(child)
    for index in range(len(batch.columns)):
        if batch.source(index).distinct():
            assert _unique(batch.values(index))
    expected = OracleExecutor(views).execute(child)
    for names in (["v.A"], ["v.A", "v.K"], ["v.K"], ["v.K", "v.A"]):
        plan = Projection(child=child, columns=names)
        fast = PlanExecutor(views).execute(plan)
        _identical(fast, OracleExecutor(views).execute(plan))
        assert [_hashable(row) for row in fast.rows] == [
            _hashable(row) for row in expected.project(names).rows
        ]


@st.composite
def _splices(draw, kind, cells):
    """Ascending, disjoint ``(lo, hi, run)`` splices over ``cells``: each run
    replaces up to two cells by codes that fit strictly between its
    neighbours' (when they are codes) or by freely drawn ones."""
    code = _CODES[kind]
    splices, cursor = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if cursor > len(cells):
            break
        lo = draw(st.integers(cursor, len(cells)))
        hi = draw(st.integers(lo, min(lo + 2, len(cells))))
        if draw(st.booleans()):
            run = [code(rank) for rank in sorted(set(draw(st.lists(st.integers(0, 30), max_size=3))))]
            # keep the codes strictly between the neighbours
            low = cells[lo - 1] if lo else None
            high = cells[hi] if hi < len(cells) else None
            try:
                run = [
                    cell
                    for cell in run
                    if (low is None or low < cell) and (high is None or cell < high)
                ]
            except TypeError:
                pass  # a spoiler neighbour: the run stays as drawn
        else:
            run = draw(st.lists(st.one_of(_SPOILERS, st.integers(0, 30).map(code)), max_size=3))
        if lo == hi and not run:
            continue
        splices.append((lo, hi, run))
        cursor = hi + 1
    return splices


@settings(max_examples=150, deadline=None)
@given(_proof_column(), st.data())
def test_a_spliced_proof_equals_a_fresh_computation(column, data):
    """A write's splice carries the fact (or leaves it unknown): whatever it
    carries, and whatever is read after it, equals the fact computed from
    the spliced cells by a source that never saw the old ones — through
    three writes in a row."""
    kind, cells = column
    source = _ColumnSource(values=list(cells))
    assert source.ascending() == _ColumnSource(values=list(cells)).ascending()
    if source.ascending():
        assert _unique(cells)
    for _ in range(3):
        splices = data.draw(_splices(kind, cells))
        if not splices:
            break
        carried = source.spliced(splices)
        cells = splice_runs(cells, splices)
        fresh = _ColumnSource(values=list(cells)).ascending()
        assert carried._ascending in (None, fresh)
        if source._ascending and fresh and None not in cells and carried._row_keys is not None:
            # ascending before and after: every run fit strictly between its
            # neighbours, so the carry is never missed — unless the row keys
            # it reads were not carried (an empty column's keys follow the
            # identifier rule, a number does not) or a run holds ⊥ (a lone
            # ⊥ row is ascending, but ⊥ is never taken to fit)
            assert carried._ascending is True
        assert carried.ascending() == fresh
        source = carried


def test_a_fitted_splice_keeps_the_proof_and_others_drop_it():
    source = _ColumnSource(values=[1, 3, 5])
    assert source.ascending()
    assert source.spliced([(1, 1, [2])])._ascending is True  # fits strictly
    assert source.spliced([(1, 2, [])])._ascending is True  # a removal
    assert source.spliced([(3, 3, [6, 7])])._ascending is True  # at the end
    assert source.spliced([(1, 1, [3])])._ascending is None  # a twin
    assert source.spliced([(1, 1, [None])])._ascending is None  # ⊥
    assert source.spliced([(1, 1, ["2"])])._ascending is None  # does not compare
    ids = _ColumnSource(values=[DeweyID((1, 1)), DeweyID((1, 3))])
    assert ids.ascending() and ids.spliced([(1, 1, [DeweyID((1, 2))])])._ascending is True
    # a known "not ascending" is not carried: a removal may have cured it
    twins = _ColumnSource(values=[1, 1])
    assert twins.ascending() is False
    healed = twins.spliced([(0, 1, [])])
    assert healed._ascending is None and healed.ascending() is True


def test_node_and_mixed_columns_prove_nothing():
    """Cells keyed by ``_hashable`` never pass, even in order: only
    identifiers and atoms have an order whose strictness implies distinct
    keys."""
    nodes = _ColumnSource(values=[_node("a", None, (1, 1)), _node("a", None, (1, 2))])
    assert nodes.ascending() is False
    assert _ColumnSource(values=[_ID, "1.3"]).ascending() is False  # mixed cells


# --------------------------------------------------------------------------- #
# the one memo: a kernel operator's output vectors, kept on its plan node
# --------------------------------------------------------------------------- #
def _extent_join(axis: Axis) -> StructuralJoin:
    return StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("lower", alias="l"),
        left_column="u.ID1",
        right_column="l.ID1",
        axis=axis,
    )


@settings(max_examples=100, deadline=None)
@given(_key_column(), _key_column())
def test_extent_pairs_equal_a_fresh_pairs_call(left, right):
    """A join of two whole extents keeps the pairs its links give, sorted
    descendant side or not; a second run reads the very same vectors, and
    later operators over the join's output leave them as they were."""
    (left_keys, _), (right_keys, right_sorted) = left, right
    views = _views(upper=_id_relation(left[0]), lower=_id_relation(right[0]))
    for axis in AXES:
        plan = _extent_join(axis)
        PlanExecutor(views).execute_batch(plan)
        key, kept = plan._kept
        assert list(zip(*kept)) == _link_pairs(left_keys, right_keys, axis, right_sorted)
        copies = [list(vector) for vector in kept]
        PlanExecutor(views).execute_batch(Projection(child=plan, columns=["u.row"]))
        PlanExecutor(views).execute_batch(
            Selection(child=plan, column="l.row", formula=ValueFormula.gt(0))
        )
        assert plan._kept[1] is kept and [list(vector) for vector in kept] == copies
        assert all(type(held) is weakref.ReferenceType for held in key)


def test_a_join_of_two_extents_reads_its_kept_pair_vectors():
    upper = _id_relation([(1, 1), (1, 2)])
    lower = _id_relation([(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 3, 1)])
    views = _views(upper=upper, lower=lower)
    plan = _extent_join(Axis.CHILD)
    first = PlanExecutor(views).execute(plan)
    entry = plan._kept
    assert [list(vector) for vector in entry[1]] == [[0, 0, 1], [0, 1, 2]]
    second = PlanExecutor(views).execute(plan)
    assert plan._kept is entry and second.rows == first.rows
    _identical(second, OracleExecutor(views).execute(plan))
    # a gathered side keeps its own pairs, and leaves these alone
    gathered = StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=Selection(
            child=ViewScan("lower", alias="l"), column="l.row", formula=ValueFormula.gt(0)
        ),
        left_column="u.ID1",
        right_column="l.ID1",
        axis=Axis.CHILD,
    )
    for _ in range(2):
        _identical(PlanExecutor(views).execute(gathered), OracleExecutor(views).execute(gathered))
    assert gathered._kept is not None and plan._kept is entry
    assert assert_memo_derived([plan, gathered], views) == 3


# --------------------------------------------------------------------------- #
# join chains: every join of a chain keeps its pairs, whatever its inputs
# --------------------------------------------------------------------------- #
@st.composite
def _chain_extent(draw):
    """An extent of a chain: drawn like :func:`_key_column` (duplicates, ⊥,
    recursive keys, sorted or not), or strictly ascending and ⊥-free — the
    extent whose ID column proves a projection distinct."""
    keys, is_sorted = draw(_key_column())
    if draw(st.booleans()):
        keys, is_sorted = sorted({key for key in keys if key is not None}), True
    return keys, is_sorted


def _chain(first_axis: Axis, second_axis: Axis, ancestor_column: str) -> StructuralJoin:
    """``(upper ⋈ middle) ⋈ lower``, the second join's ancestor column drawn
    from either side of the first join's output."""
    first = StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("middle", alias="m"),
        left_column="u.ID1",
        right_column="m.ID1",
        axis=first_axis,
    )
    return StructuralJoin(
        left=first,
        right=ViewScan("lower", alias="l"),
        left_column=ancestor_column,
        right_column="l.ID1",
        axis=second_axis,
    )


def _chain_views(upper, middle, lower) -> tuple[dict, dict]:
    relations = {
        name: _id_relation(extent[0])
        for name, extent in (("upper", upper), ("middle", middle), ("lower", lower))
    }
    return relations, _views(**relations)


def _replace(views: dict, name: str) -> None:
    """A write's effect on ``name``: a new extent relation, here with the
    same rows."""
    old = views[name].relation
    fresh = Relation(old.columns, rows=list(old.rows))
    views[name] = stored_view(fresh)


def _distinct_by_hashing(source) -> bool:
    """:meth:`_ColumnSource.distinct` restated: an ascending direct source,
    read through a composed gather that repeats no row."""
    direct, rows = source.resolve()
    return direct.ascending() and (rows is None or len(set(rows)) == len(rows))


_CHAIN_PROJECTIONS = [
    ["u.ID1"],
    ["u.ID1", "l.row"],
    ["m.ID1"],
    ["m.ID1", "u.row"],
    ["l.ID1", "m.row"],
    ["u.row", "m.row"],
]


@settings(max_examples=60, deadline=None)
@given(
    _chain_extent(),
    _chain_extent(),
    _chain_extent(),
    st.sampled_from(AXES),
    st.sampled_from(AXES),
    st.sampled_from(["u.ID1", "m.ID1"]),
    st.sampled_from(_CHAIN_PROJECTIONS),
)
def test_a_join_chain_equals_the_oracle_and_rereads_its_kept_vectors(
    upper, middle, lower, first_axis, second_axis, ancestor_column, names
):
    """``(A ⋈ B) ⋈ C`` twice through the executor: row for row the oracle's
    both times, every ``distinct()`` answer equal to hashing the composed
    gather, ``π`` over the chain equal to ``Relation.project``.  Both joins
    and the ``π`` keep their vectors on the first run, sorted inputs or
    not, and the second run reads the very same entries.  Then the middle
    extent is replaced: both joins and the ``π`` miss, and the answers
    still match."""
    relations, views = _chain_views(upper, middle, lower)
    plan = _chain(first_axis, second_axis, ancestor_column)
    projection = Projection(child=plan, columns=names)
    slow = OracleExecutor(views).execute(plan)

    def run():
        executor = PlanExecutor(views)
        _identical(executor.execute(plan), slow)
        for source in executor.execute_batch(plan)._sources:
            assert source.distinct() == _distinct_by_hashing(source)
        projected = executor.execute(projection)
        assert projected.column_names == names
        assert [_hashable(row) for row in projected.rows] == [
            _hashable(row) for row in slow.project(names).rows
        ]
        entries = [projection._kept, plan._kept, plan.left._kept]
        assert all(entry is not None for entry in entries)
        return entries

    kept = run()
    assert all(map(operator.is_, run(), kept))  # the same entries, not a rebuild
    assert assert_memo_derived([projection], views) == 3
    _replace(views, "middle")
    missed = run()
    assert not any(map(operator.is_, missed, kept))
    assert [entry[1] for entry in missed] == [entry[1] for entry in kept]


@settings(max_examples=30, deadline=None)
@given(_chain_extent(), _chain_extent(), _chain_extent())
def test_two_chains_alternating_into_one_links_stay_correct(upper, middle, lower):
    """The child-axis and the descendant-axis chain share the one
    ``upper → lower`` links entry; run in turn, each keeps its own vectors
    on its own nodes, reads them back on every later run, and every answer
    stays the oracle's."""
    _, views = _chain_views(upper, middle, lower)
    chains = [_chain(axis, Axis.DESCENDANT, "u.ID1") for axis in AXES]
    oracles = [OracleExecutor(views).execute(plan) for plan in chains]
    kept = []
    for round_ in range(2):
        for index, (plan, slow) in enumerate(zip(chains, oracles)):
            _identical(PlanExecutor(views).execute(plan), slow)
            if round_:
                assert plan._kept is kept[index]
            else:
                kept.append(plan._kept)
    assert assert_memo_derived(chains, views) == 4


@pytest.mark.parametrize(
    "middle, lower, repeating",
    [
        # 1.1 has two middle children: the first join's vector repeats
        ([(1, 1, 1), (1, 1, 2), (1, 2, 1)], [(1, 1, 3)], "first"),
        # 1.1 has two lower children: the second join's vector repeats
        ([(1, 1, 1), (1, 2, 1)], [(1, 1, 3), (1, 1, 4)], "second"),
    ],
)
def test_a_repeat_at_either_level_of_a_chain_still_deduplicates(middle, lower, repeating):
    """``u.ID1`` read through both joins' vectors is distinct only when
    neither vector repeats a row: with one repeating, the projection keeps
    one ``1.1`` of the two — and keeps that dedup vector."""
    relations = {
        "upper": _id_relation([(1, 1), (1, 2)]),
        "middle": _id_relation(middle),
        "lower": _id_relation(lower),
    }
    views = _views(**relations)
    plan = _chain(Axis.CHILD, Axis.CHILD, "u.ID1")
    executor = PlanExecutor(views)
    batch = executor.execute_batch(plan)
    source = batch.source(batch.column_index("u.ID1"))
    outer, inner = plan._kept[1][0], plan.left._kept[1][0]
    assert (len(set(inner)) < len(inner)) == (repeating == "first")
    assert (len(set(outer)) < len(outer)) == (repeating == "second")
    assert not source.distinct()
    projection = Projection(child=plan, columns=["u.ID1"])
    assert executor.execute(projection).rows == [(DeweyID((1, 1)),)]
    assert projection._kept[1] is not None  # a dedup vector, not "distinct"
    _identical(executor.execute(projection), OracleExecutor(views).execute(projection))
    _identical(PlanExecutor(views).execute(projection), OracleExecutor(views).execute(projection))


def test_a_plan_pickles_and_copies_without_its_memo():
    """The memo is no part of the plan's description: equal plans compare
    equal and print alike whatever they keep, and neither a pickle nor a
    copy carries an entry (its weak references could not travel, and a
    copy must run from scratch)."""
    views = _views(
        upper=_id_relation([(1, 1), (1, 2)]),
        lower=_id_relation([(1, 1, 1), (1, 2, 1)]),
    )
    plan = Projection(child=_extent_join(Axis.CHILD), columns=["u.ID1"])
    PlanExecutor(views).execute(plan)
    assert plan._kept is not None and plan.child._kept is not None
    fresh = Projection(child=_extent_join(Axis.CHILD), columns=["u.ID1"])
    assert plan == fresh and repr(plan) == repr(fresh)
    for twin in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
        assert twin == plan
        assert twin._kept is None and twin.child._kept is None
    assert plan._kept is not None and plan.child._kept is not None


# --------------------------------------------------------------------------- #
# kept π: a projection re-reads its dedup vector (or "distinct")
# --------------------------------------------------------------------------- #
_CHAIN_COLUMNS = ["u.ID1", "u.row", "m.ID1", "m.row", "l.ID1", "l.row"]
_CHAIN_SUBSETS = [
    [name for bit, name in enumerate(_CHAIN_COLUMNS) if mask >> bit & 1]
    for mask in range(1, 1 << len(_CHAIN_COLUMNS))
]


def _projection_run(views, projection):
    """A run of ``projection``: its result, its memo entry after the run and
    its answer (``None`` when it kept every row in place, ``range(n)``, and
    handed back the child's sources, else the dedup vector it gathered
    through).  The head column is checked to be read the way the entry says:
    the child's very source, or a gather over it through the kept vector."""
    executor = PlanExecutor(views)
    batch = executor.execute_batch(projection)
    child = executor.execute_batch(projection.child)
    below = child.source(child.column_index(projection.columns[0]))
    head = batch.source(0)
    answer = projection._kept[1]
    if isinstance(answer, range):
        assert answer == range(child.row_count) and head is below
        answer = None
    else:
        assert head._parent is below and head._indices is answer
    return batch, projection._kept, answer


@settings(max_examples=25, deadline=None)
@given(
    _chain_extent(),
    _chain_extent(),
    _chain_extent(),
    st.sampled_from(AXES),
    st.sampled_from(AXES),
    st.sampled_from(["u.ID1", "m.ID1"]),
)
def test_a_kept_projection_rereads_its_answer_and_equals_the_oracle(
    upper, middle, lower, first_axis, second_axis, ancestor_column
):
    """``π`` over every column subset of ``(A ⋈ B) ⋈ C``: row for row the
    oracle's on every run; a second run reads the very entry of the first
    and gathers through the very same dedup vector, which repeats no row.
    Then the middle, then the lower extent is replaced: the memo misses (a
    new entry) and the answer still matches."""
    _, views = _chain_views(upper, middle, lower)
    plan = _chain(first_axis, second_axis, ancestor_column)
    for names in _CHAIN_SUBSETS:
        projection = Projection(child=plan, columns=names)
        slow = OracleExecutor(views).execute(projection)
        batch, entry, answer = _projection_run(views, projection)
        _identical(batch.to_relation(), slow)
        if answer is not None:
            assert answer is entry[1] and len(set(answer)) == len(answer)
        batch, again, answer_again = _projection_run(views, projection)
        _identical(batch.to_relation(), slow)
        assert again is entry and answer_again is answer
    for name in ("middle", "lower"):
        _replace(views, name)
        for names in _CHAIN_SUBSETS[:: len(_CHAIN_SUBSETS) // 7]:
            projection = Projection(child=plan, columns=names)
            _projection_run(views, projection)
            batch, entry, _ = _projection_run(views, projection)
            kept_before = entry
            _replace(views, name)
            batch, missed, _ = _projection_run(views, projection)
            assert missed is not kept_before and missed[1] == kept_before[1]
            _identical(batch.to_relation(), OracleExecutor(views).execute(projection))


@settings(max_examples=25, deadline=None)
@given(_chain_extent())
def test_a_projection_of_a_whole_extent_keeps_its_answer(extent):
    """No gather level (a π straight over a scan, like Q18): the second run
    reads the first one's entry back."""
    views = _views(upper=_id_relation(extent[0]))
    scan = ViewScan("upper", alias="u")
    for names in (["u.ID1"], ["u.row"], ["u.row", "u.ID1"], ["u.ID1", "u.row"]):
        projection = Projection(child=scan, columns=names)
        slow = OracleExecutor(views).execute(projection)
        batch, entry, answer = _projection_run(views, projection)
        _identical(batch.to_relation(), slow)
        batch, again, answer_again = _projection_run(views, projection)
        _identical(batch.to_relation(), slow)
        assert again is entry and answer_again is answer


def test_a_selection_below_a_projection_is_kept_too():
    """A σ between the chain and its π: the σ keeps its keep vector, the π
    its answer, both read back on the next run; every run equals the
    oracle, and replacing the extent the σ reads makes both miss."""
    relations = {
        "upper": _id_relation([(1, 1), (1, 1), (1, 2)]),
        "middle": _id_relation([(1, 1, 1), (1, 1, 2), (1, 2, 1)]),
        "lower": _id_relation([(1, 1, 3), (1, 2, 3)]),
    }
    views = _views(**relations)
    chain = _chain(Axis.CHILD, Axis.DESCENDANT, "u.ID1")
    selected = Selection(child=chain, column="m.row", formula=ValueFormula.ge(1))
    projections = [Projection(child=selected, columns=names) for names in _CHAIN_SUBSETS]
    for projection in projections:
        _identical(
            PlanExecutor(views).execute(projection), OracleExecutor(views).execute(projection)
        )
    kept = [(projection._kept, selected._kept) for projection in projections]
    assert all(entry is not None for pair in kept for entry in pair)
    for projection, (entry, below) in zip(projections, kept):
        _identical(
            PlanExecutor(views).execute(projection), OracleExecutor(views).execute(projection)
        )
        assert projection._kept is entry and selected._kept is below
    assert assert_memo_derived(projections, views) == len(projections) + 3
    _replace(views, "middle")
    projection = projections[0]
    _identical(PlanExecutor(views).execute(projection), OracleExecutor(views).execute(projection))
    assert projection._kept is not kept[0][0] and selected._kept is not kept[0][1]


def test_the_projection_memo_keeps_no_replaced_extent_alive():
    """With the collector off, replacing the ancestor extent frees its old
    relation and direct sources while the plan keeps its entries — they
    hold the extents only weakly — and the links entry weakly keyed on the
    old ``u.ID1`` source dies with it.  The next run misses and equals the
    oracle."""
    relations = {
        "upper": _id_relation([(1, 1), (1, 2)]),
        "middle": _id_relation([(1, 1, 1), (1, 1, 2), (1, 2, 1)]),
        "lower": _id_relation([(1, 1, 1, 1), (1, 1, 2, 1), (1, 2, 1, 1)]),
    }
    views = _views(**relations)
    projection = Projection(child=_chain(Axis.CHILD, Axis.CHILD, "m.ID1"), columns=["u.row"])
    gc.disable()
    try:
        batch, entry, answer = _projection_run(views, projection)
        assert answer is not None  # u.row repeats: the memo holds a dedup vector
        old = relations.pop("upper")
        old_relation = weakref.ref(old)
        old_sources = [weakref.ref(source) for source in views["upper"].extent._sources]
        views["upper"] = stored_view(_id_relation([(1, 1), (1, 2)]))
        del old, batch, answer
        assert old_relation() is None
        assert [source() for source in old_sources] == [None, None]
        assert projection._kept is entry and entry[0][0]() is None
        (middle_links,) = [views["middle"].extent.source(0).links]
        assert len(middle_links) == 0
        batch, missed, _ = _projection_run(views, projection)
        assert missed is not entry
        _identical(batch.to_relation(), OracleExecutor(views).execute(projection))
    finally:
        gc.enable()
