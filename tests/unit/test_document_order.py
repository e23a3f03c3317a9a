"""Inputs out of document order: the structural joins read order off the data.

A structural join needs its descendant side — and a nested join its
ancestor side too — in document order.  No annotation says whether a
column is; :meth:`~repro.algebra.columnar._ColumnSource.in_document_order`
proves it from the extent's cached ``ascending()`` and the gathers over
it, and the join stably sorts every column it cannot prove.  Each case
here feeds a join a column that is really out of order (or not strictly
ascending), checks the proof fails, and holds the production rows *and
their order* to the reference interpreter, which always sorts.
"""

from __future__ import annotations

import pytest

from repro import MaterializedView, parse_parenthesized, parse_pattern
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import IdEqualityJoin, NestedStructuralJoin, StructuralJoin, ViewScan
from repro.algebra.tuples import Relation, _hashable
from repro.patterns.pattern import Axis

from support.oracle_executor import OracleExecutor

AXES = (Axis.CHILD, Axis.DESCENDANT)

# ``a`` nests in ``a``; every ``c`` below the outer ``a`` sits after the
# inner ``a``'s ``c`` rows, and one ``c`` has a ``d`` child, the rest none
DOCUMENT = 'site(a(a(c="1" c(d="x")) c="3") a(c="4") b(c="5"))'
VIEWS = {
    "a": "site(//a[ID])",
    "ac": "site(//a[ID](//c[ID,V]))",  # ID1 repeats per node, ID2 out of order
    "c": "site(//c[ID,V])",
    "cd": "site(//c[ID](/?d[ID]))",  # ID2 is ⊥ for every c without a d
}


@pytest.fixture(scope="module")
def views():
    document = parse_parenthesized(DOCUMENT)
    return {
        name: MaterializedView(parse_pattern(text, name=name), document)
        for name, text in VIEWS.items()
    }


def _exact(value):
    """A cell's comparable form that keeps nested row order."""
    if isinstance(value, Relation):
        return (value.column_names, [_exact(row) for row in value.rows])
    if isinstance(value, tuple):
        return tuple(_exact(cell) for cell in value)
    return _hashable(value)


def _assert_like_the_oracle(views, plan) -> Relation:
    production = PlanExecutor(views).execute(plan)
    oracle = OracleExecutor(views).execute(plan)
    assert production.column_names == oracle.column_names
    assert _exact(tuple(production.rows)) == _exact(tuple(oracle.rows))
    nested_loop = OracleExecutor(views, structural_join_strategy="nested-loop").execute(plan)
    assert production.same_contents(nested_loop)
    return production


def _proves_order(views, plan, column: str) -> bool:
    batch = PlanExecutor(views).execute_batch(plan)
    return batch.source(batch.column_index(column)).in_document_order()


def test_every_extent_first_id_column_that_is_strict_proves_its_order(views):
    """The contrast: a scan of a one-row-per-node extent needs no sort."""
    assert _proves_order(views, ViewScan("a"), "a.ID1")
    assert _proves_order(views, ViewScan("c"), "c.ID1")


@pytest.mark.parametrize("axis", AXES)
def test_a_descendant_on_a_views_second_id_column_is_sorted_first(views, axis):
    right = ViewScan("ac")
    assert not _proves_order(views, right, "ac.ID2")
    plan = StructuralJoin(ViewScan("a"), right, "a.ID1", "ac.ID2", axis=axis)
    result = _assert_like_the_oracle(views, plan)
    assert result.rows
    descendants = [row[2].components for row in result.rows]
    assert descendants == sorted(descendants)


@pytest.mark.parametrize("axis", AXES)
def test_a_descendant_behind_an_id_join_is_sorted_first(views, axis):
    # the probe runs in ``ac`` row order, so ``c.ID1`` follows ``ac.ID2``
    right = IdEqualityJoin(ViewScan("ac"), ViewScan("c"), "ac.ID2", "c.ID1")
    assert not _proves_order(views, right, "c.ID1")
    plan = StructuralJoin(ViewScan("a", alias="top"), right, "top.ID1", "c.ID1", axis=axis)
    assert _assert_like_the_oracle(views, plan).rows


@pytest.mark.parametrize("axis", AXES)
def test_a_first_id_column_with_several_rows_per_node_takes_the_sort(views, axis):
    # in document order, but not strictly: the proof fails and the stable
    # sort keeps each node's rows in their extent order
    right = ViewScan("ac")
    assert not _proves_order(views, right, "ac.ID1")
    plan = StructuralJoin(ViewScan("a", alias="top"), right, "top.ID1", "ac.ID1", axis=axis)
    assert _assert_like_the_oracle(views, plan).rows


@pytest.mark.parametrize("axis", AXES)
def test_null_join_values_are_dropped_before_the_sort(views, axis):
    right = ViewScan("cd")
    assert not _proves_order(views, right, "cd.ID2")
    assert sum(row[1] is None for row in PlanExecutor(views).execute(right).rows) == 4
    plan = StructuralJoin(ViewScan("a"), right, "a.ID1", "cd.ID2", axis=axis)
    result = _assert_like_the_oracle(views, plan)
    # the one d lies below both nested a's, the parent of neither
    expected = [] if axis is Axis.CHILD else ["1.1.1.2.1", "1.1.1.2.1"]
    assert [str(row[2]) for row in result.rows] == expected
    for nested in (True, False):
        _assert_like_the_oracle(
            views,
            NestedStructuralJoin(
                ViewScan("cd"), ViewScan("c"), "cd.ID2", "c.ID1",
                axis=axis, group_column="G", keep_unmatched=nested,
            ),
        )


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("keep_unmatched", [True, False])
def test_a_nested_join_sorts_an_out_of_order_ancestor_side(views, axis, keep_unmatched):
    left = ViewScan("ac")
    assert not _proves_order(views, left, "ac.ID2")
    plan = NestedStructuralJoin(
        left, ViewScan("cd"), "ac.ID2", "cd.ID2",
        axis=axis, group_column="G", keep_unmatched=keep_unmatched,
    )
    result = _assert_like_the_oracle(views, plan)
    ancestors = [row[1].components for row in result.rows]  # ac.ID2
    assert ancestors == sorted(ancestors)
    assert any(len(row[-1]) for row in result.rows)
