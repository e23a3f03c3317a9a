"""``UnionPlan``: one first-occurrence pass over the branches, in branch order.

The production union must return exactly the rows of the oracle's
order-blind reference — the chain of pairwise ``Relation.union`` calls
plus ``distinct`` — in the same order.
"""

from __future__ import annotations

import pytest

from repro import (
    Database,
    MaterializedView,
    evaluate_pattern,
    parse_parenthesized,
    parse_pattern,
)
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import UnionPlan, ViewScan
from repro.algebra.tuples import Column, Relation
from repro.errors import AlgebraError, PlanExecutionError
from repro.rewriting.algorithm import RewritingConfig
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

from support.oracle_executor import OracleExecutor
from support.relations import stored_view


def _assert_matches_the_oracle(views, plan):
    """Production ≡ the oracle's reference union, row order included."""
    result = PlanExecutor(views).execute(plan)
    oracle = OracleExecutor(views).execute(plan)
    assert result.column_names == oracle.column_names
    assert result.rows == oracle.rows
    return result


def _union(*relations):
    """The union of hand-made branches, one stored view each."""
    views = {f"b{index}": stored_view(relation) for index, relation in enumerate(relations)}
    return _assert_matches_the_oracle(
        views, UnionPlan(plans=tuple(ViewScan(name) for name in views))
    )


def _identified(*rows):
    return Relation([Column("ID", kind="ID"), Column("V")], rows=rows)


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


def test_union_of_two_views_matches_the_oracle(views):
    plan = UnionPlan(plans=(ViewScan("items"), ViewScan("gadgets")))
    result = _assert_matches_the_oracle(views, plan)
    assert len(result) == 4
    assert result.column_names == ["items.ID1", "items.V2"]


def test_union_deduplicates_across_branches(views):
    plan = UnionPlan(plans=(ViewScan("items"), ViewScan("items", alias="again")))
    assert len(_assert_matches_the_oracle(views, plan)) == 3, (
        "identical branch rows must collapse"
    )


def test_union_keeps_first_occurrences_in_branch_order():
    a, b, c = DeweyID((1, 1)), DeweyID((1, 2)), DeweyID((1, 3))
    result = _union(
        _identified((a, "a"), (a, "b"), (c, "c")),
        _identified((a, "b"), (b, "d"), (c, "c")),
    )
    assert result.rows == [(a, "a"), (a, "b"), (c, "c"), (b, "d")]


def test_union_deduplicates_null_identifiers():
    result = _union(
        _identified((None, "x"), (DeweyID((1, 2)), "y")),
        _identified((DeweyID((1, 1)), "z"), (None, "x")),
    )
    assert len(result) == 3 and result.rows[0] == (None, "x")


def test_identifierless_node_cells_are_plain_cells():
    detached = XMLNode("detached")
    result = _union(
        _identified((detached, "x"), (DeweyID((1, 2)), "y")),
        _identified((DeweyID((1, 1)), "z")),
    )
    assert len(result) == 3 and result.rows[0][0] is detached


def test_union_with_empty_branches():
    assert len(_union(_identified(), _identified((DeweyID((1, 1)), "a")))) == 1
    assert len(_union(_identified(), _identified())) == 0


def test_union_of_different_arities_raises():
    narrow = Relation([Column("ID", kind="ID")])
    with pytest.raises(AlgebraError, match="different arities"):
        PlanExecutor({"a": stored_view(_identified()), "b": stored_view(narrow)}).execute(
            UnionPlan(plans=(ViewScan("a"), ViewScan("b")))
        )


def test_empty_union_still_raises():
    with pytest.raises(PlanExecutionError, match="at least one branch"):
        PlanExecutor({}).execute(UnionPlan(plans=()))


def test_a_union_rewriting_runs_like_the_oracle():
    """Neither view answers the query alone; their union does (Algorithm 1,
    lines 13-14), and its plan runs exactly like the oracle's."""
    document = parse_parenthesized(
        'site(regions(asia(item(name="a") item(name="b")) '
        'europe(item(name="b") item(name="c"))))'
    )
    database = Database(document, config=RewritingConfig(max_plan_size=1))
    database.create_view("site(/regions(/asia(/item[ID](/name[V]))))", name="asia")
    database.create_view("site(/regions(/europe(/item[ID](/name[V]))))", name="europe")
    query = "site(//item[ID](/name[V]))"
    unions = [rewriting for rewriting in database.rewrite(query) if rewriting.is_union]
    assert unions, "the search must find the union rewriting"
    for rewriting in unions:
        result = _assert_matches_the_oracle(database.views, rewriting.plan)
        assert result.same_contents(evaluate_pattern(parse_pattern(query), document))
    assert len(database.query(query)) == 4
    database.close()
