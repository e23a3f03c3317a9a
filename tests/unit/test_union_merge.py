"""``UnionPlan``'s ordered multiway merge vs. the order-blind oracle.

The merge union must (a) produce exactly the set the old
``Relation.union``-chain produced, (b) keep the ``sorted_by`` annotation
whenever every branch shares the Dewey sort column position, and (c) fall
back — annotation dropped, contents identical — whenever it cannot prove
order.  The oracle here *is* the old implementation, inlined.
"""

from __future__ import annotations

from functools import reduce

import pytest

from repro import MaterializedView, parse_parenthesized, parse_pattern
from repro.algebra.columnar import ColumnBatch
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import Projection, UnionPlan, ViewScan
from repro.algebra.tuples import Column, Relation, as_dewey
from repro.errors import PlanExecutionError
from repro.planning.cost import plan_sorted_on
from repro.xmltree.ids import DeweyID

from support.oracle_executor import OracleExecutor


def _merge_union(relations):
    """The production ordered merge, checked against the tuple oracle's."""
    merged = PlanExecutor({})._merge_union_batches(
        [ColumnBatch.from_relation(relation) for relation in relations]
    )
    oracle = OracleExecutor({})._merge_union(relations)
    if merged is None:
        assert oracle is None, "production fell back where the oracle merged"
        return None
    merged = merged.to_relation()
    assert merged.rows == oracle.rows
    assert merged.sorted_by == oracle.sorted_by
    return merged


def _oracle_union(relations):
    """The pre-merge implementation: chained set unions, order-blind."""
    return reduce(lambda left, right: left.union(right), relations).distinct()


def _assert_dewey_ordered(relation):
    identifiers = [
        as_dewey(row[relation.column_index(relation.sorted_by)])
        for row in relation.rows
    ]
    non_null = [identifier for identifier in identifiers if identifier is not None]
    assert non_null == sorted(non_null), "sorted_by annotation must hold"


@pytest.fixture()
def document():
    return parse_parenthesized(
        'site(item(name="pen") item(name="ink") item(name="pen") gadget(name="usb"))'
    )


@pytest.fixture()
def views(document):
    return {
        "items": MaterializedView(
            parse_pattern("site(//item[ID](/name[V]))", name="items"), document
        ),
        "gadgets": MaterializedView(
            parse_pattern("site(//gadget[ID](/name[V]))", name="gadgets"), document
        ),
    }


def test_merge_union_keeps_order_and_matches_oracle(views):
    plan = UnionPlan(plans=(ViewScan("items"), ViewScan("gadgets")))
    executor = PlanExecutor(views)
    branches = [executor.execute(branch) for branch in plan.plans]
    result = executor.execute(plan)
    assert result.sorted_by == "items.ID1", (
        "a union of same-position Dewey-sorted branches must stay annotated"
    )
    _assert_dewey_ordered(result)
    assert result.same_contents(_oracle_union(branches))
    assert len(result) == 4


def test_merge_union_deduplicates_across_branches(views):
    plan = UnionPlan(plans=(ViewScan("items"), ViewScan("items", alias="again")))
    executor = PlanExecutor(views)
    result = executor.execute(plan)
    assert len(result) == 3, "identical branch rows must collapse"
    _assert_dewey_ordered(result)


def test_merge_union_deduplicates_within_identifier_runs():
    left = Relation([Column("ID", kind="ID"), Column("V")])
    left.extend([(DeweyID((1, 1)), "a"), (DeweyID((1, 1)), "b"), (DeweyID((1, 3)), "c")])
    left.mark_sorted_by("ID")
    right = Relation([Column("ID", kind="ID"), Column("V")])
    right.extend([(DeweyID((1, 1)), "b"), (DeweyID((1, 2)), "d"), (DeweyID((1, 3)), "c")])
    right.mark_sorted_by("ID")
    merged = _merge_union([left, right])
    assert merged is not None
    assert len(merged) == 4  # (1.1,a) (1.1,b) (1.2,d) (1.3,c)
    _assert_dewey_ordered(merged)
    assert merged.same_contents(_oracle_union([left, right]))


def test_merge_union_places_null_identifiers_first():
    left = Relation([Column("ID", kind="ID")])
    left.extend([(None,), (DeweyID((1, 2)),)])
    left.mark_sorted_by("ID")
    right = Relation([Column("ID", kind="ID")])
    right.extend([(DeweyID((1, 1)),), (None,)])
    right.mark_sorted_by("ID")
    merged = _merge_union([left, right])
    assert merged is not None
    assert merged.rows[0] == (None,) and len(merged) == 3
    _assert_dewey_ordered(merged)


def test_unsorted_branch_falls_back_to_oracle(views):
    # projecting away the ID column leaves the branch unsorted
    plan = UnionPlan(
        plans=(
            Projection(child=ViewScan("items"), columns=("items.V2",)),
            Projection(child=ViewScan("items", alias="b"), columns=("b.ID1",)),
        )
    )
    executor = PlanExecutor(views)
    branches = [executor.execute(branch) for branch in plan.plans]
    assert branches[0].sorted_by is None
    result = executor.execute(plan)
    assert result.sorted_by is None
    assert result.same_contents(_oracle_union(branches))


def test_mismatched_sort_positions_fall_back():
    left = Relation([Column("ID", kind="ID"), Column("V")])
    left.extend([(DeweyID((1, 1)), "a")])
    left.mark_sorted_by("ID")
    right = Relation([Column("V"), Column("ID", kind="ID")])
    right.extend([("b", DeweyID((1, 2)))])
    right.mark_sorted_by("ID")  # same name, different position
    assert _merge_union([left, right]) is None


def test_identifierless_node_cells_count_as_nulls():
    # an XMLNode with no assigned Dewey ID is a null to as_dewey (and to
    # sorted_in_dewey_order); the merge must treat it the same, not crash
    from repro.xmltree.node import XMLNode

    left = Relation([Column("ID", kind="ID")])
    left.extend([(XMLNode("detached"),), (DeweyID((1, 2)),)])
    left.mark_sorted_by("ID")
    right = Relation([Column("ID", kind="ID")])
    right.extend([(DeweyID((1, 1)),)])
    right.mark_sorted_by("ID")
    merged = _merge_union([left, right])
    assert merged is not None and len(merged) == 3
    assert isinstance(merged.rows[0][0], XMLNode)
    _assert_dewey_ordered(merged)


def test_non_dewey_sort_values_fall_back():
    left = Relation([Column("ID", kind="ID")])
    left.extend([("not-an-identifier",)])
    left.mark_sorted_by("ID")
    assert _merge_union([left]) is None


def test_empty_union_still_raises():
    with pytest.raises(PlanExecutionError, match="at least one branch"):
        PlanExecutor({}).execute(UnionPlan(plans=()))


def test_static_order_analysis_accepts_provable_unions(views):
    # both branches scan the same view under the same alias-qualified
    # column name, so the static rule can prove the output order
    provable = UnionPlan(plans=(ViewScan("items"), ViewScan("items")))
    assert plan_sorted_on(provable, "items.ID1")
    # different aliases → different column names → statically unprovable,
    # even though the run-time merge will keep the annotation
    unprovable = UnionPlan(plans=(ViewScan("items"), ViewScan("gadgets")))
    assert not plan_sorted_on(unprovable, "items.ID1")
    assert not plan_sorted_on(UnionPlan(plans=()), "items.ID1")
