"""Unit tests for the planning layer: statistics, cost model, lowering.

The load-bearing guarantees:

* cost monotonicity — a bigger view relation makes a scan costlier, and
  wrapping any plan in an extra structural join makes it costlier,
* DAG semantics — shared sub-plans are represented (and charged) once,
  matching the executor's per-object result memo,
* the planner ranks by cost and its choice is deterministic under ties.
"""

from __future__ import annotations

import pytest

from repro import build_summary, parse_parenthesized, parse_pattern
from repro.algebra.operators import (
    IdEqualityJoin,
    Projection,
    Selection,
    StructuralJoin,
    UnionPlan,
    ViewScan,
)
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.planning.cost import CostModel
from repro.planning.logical import lower_plan
from repro.planning.planner import Planner
from repro.rewriting.rewriter import Rewriter
from repro.summary.statistics import Statistics
from repro.views.catalog import ViewCatalog
from repro.views.view import MaterializedView
from support.relations import view_scan_count


@pytest.fixture()
def doc():
    return parse_parenthesized(
        'site(regions(asia(item(name="pen") item(name="ink") item(name="pad"))'
        ' europe(item(name="nib"))))',
        name="planning-doc",
    )


@pytest.fixture()
def summary(doc):
    return build_summary(doc)


def _stats_with(rows_by_view: dict[str, float], summary) -> Statistics:
    statistics = Statistics(summary)
    for name, rows in rows_by_view.items():
        statistics.set_view_rows(name, rows)
    return statistics


class TestStatistics:
    def test_instance_counts_come_from_the_summary(self, summary):
        statistics = Statistics(summary)
        item = summary.node_by_path("/site/regions/asia/item")
        assert statistics.instance_count(item.number) == item.instance_count == 3

    def test_materialized_views_report_exact_rows(self, doc, summary):
        view = MaterializedView(parse_pattern("site(//item[ID,V])"), doc, name="vi")
        statistics = ViewCatalog(summary, [view]).statistics()
        assert statistics.view_rows("vi") == len(view.relation)
        assert statistics.view_rows_exact("vi")

    def test_unmaterialized_views_are_estimated_not_one(self, summary):
        view = MaterializedView(parse_pattern("site(//item[ID,V])"), name="vi")
        statistics = ViewCatalog(summary, [view]).statistics()
        assert not statistics.view_rows_exact("vi")
        assert statistics.view_rows("vi") == 4  # 3 asia items + 1 europe item

    def test_every_estimator_is_floored_at_positive(self, summary):
        statistics = Statistics(summary)
        assert statistics.instance_count(999999) >= 1
        assert statistics.view_rows("unknown") >= 1
        assert statistics.navigation_fanout(["nosuchlabel"]) > 0


class TestCostMonotonicity:
    def test_bigger_view_relation_means_costlier_scan(self, summary):
        small = CostModel(_stats_with({"v": 10}, summary))
        large = CostModel(_stats_with({"v": 10_000}, summary))
        scan = ViewScan("v")
        assert lower_plan(scan, large).total_cost > lower_plan(scan, small).total_cost

    def test_extra_structural_join_makes_any_plan_costlier(self, summary):
        model = CostModel(_stats_with({"a": 50, "b": 40}, summary))
        base = ViewScan("a")
        for axis in (Axis.CHILD, Axis.DESCENDANT):
            joined = StructuralJoin(
                left=base, right=ViewScan("b"),
                left_column="a.ID", right_column="b.ID", axis=axis,
            )
            assert (
                lower_plan(joined, model).total_cost
                > lower_plan(base, model).total_cost
            )

    def test_extra_operator_is_never_free(self, summary):
        # even a selection over an empty-ish input must add cost: the
        # planner's ranking relies on strictly positive operator work
        model = CostModel(_stats_with({"v": 1}, summary))
        scan = ViewScan("v")
        selected = Selection(
            child=scan, column="v.V1", formula=ValueFormula.eq("pen")
        )
        assert (
            lower_plan(selected, model).total_cost
            > lower_plan(scan, model).total_cost
        )

    def test_joining_bigger_inputs_costs_more(self, summary):
        model = CostModel(_stats_with({"a": 100, "b": 100, "c": 5}, summary))
        big = IdEqualityJoin(
            left=ViewScan("a"), right=ViewScan("b"),
            left_column="a.ID", right_column="b.ID",
        )
        small = IdEqualityJoin(
            left=ViewScan("c"), right=ViewScan("c", alias="c2"),
            left_column="c.ID", right_column="c2.ID",
        )
        assert lower_plan(big, model).total_cost > lower_plan(small, model).total_cost


class TestOperatorPricing:
    def test_a_union_is_priced_as_the_row_pass_it_is(self, summary):
        # ∪ reads its branches as rows: no batch-kernel discount
        model = CostModel(_stats_with({"a": 100, "b": 40}, summary))
        plan = lower_plan(UnionPlan(plans=(ViewScan("a"), ViewScan("b"))), model)
        branch_rows = sum(child.rows for child in plan.root.children)
        assert branch_rows == 140
        assert plan.root.estimate.operator_cost == pytest.approx(branch_rows + plan.root.rows)

    def test_a_structural_join_is_one_pass_over_each_input_in_any_order(self, summary):
        # no sort term, whatever the inputs are: the executor reads order
        # off the data, and the planner predicts none of it
        model = CostModel(_stats_with({"a": 100, "b": 40}, summary))
        for left in (ViewScan("a"), UnionPlan(plans=(ViewScan("a"),))):
            for right in (ViewScan("b"), UnionPlan(plans=(ViewScan("b"),))):
                join = StructuralJoin(
                    left=left, right=right,
                    left_column="a.ID", right_column="b.ID", axis=Axis.DESCENDANT,
                )
                root = lower_plan(join, model).root
                work = sum(child.rows for child in root.children) + root.rows
                expected = work * model.vectorized_batch_factor
                assert root.estimate.operator_cost == pytest.approx(expected)


class TestLogicalPlanDag:
    def test_shared_subplan_is_one_node_charged_once(self, summary):
        model = CostModel(_stats_with({"v": 100}, summary))
        shared = ViewScan("v")
        self_join = IdEqualityJoin(
            left=shared, right=shared, left_column="v.ID", right_column="v.ID"
        )
        plan = lower_plan(self_join, model)
        assert plan.operator_count == 2  # the join + ONE scan node
        assert plan.root.children[0] is plan.root.children[1]
        # total = scan charged once + join work, not scan twice
        scan_cost = lower_plan(shared, model).total_cost
        join_only = plan.root.estimate.operator_cost
        assert plan.total_cost == pytest.approx(scan_cost + join_only)

    def test_diamond_sharing_is_not_double_charged(self, summary):
        model = CostModel(_stats_with({"v": 100}, summary))
        shared = ViewScan("v")
        left = Selection(child=shared, column="v.V1", formula=ValueFormula.eq(1))
        right = Selection(child=shared, column="v.V1", formula=ValueFormula.eq(2))
        diamond = UnionPlan(plans=(left, right))
        plan = lower_plan(diamond, model)
        operator_sum = sum(node.estimate.operator_cost for node in plan.nodes)
        # the scan reaches the union through both selections but is charged
        # exactly once: total equals the sum over DISTINCT operators
        assert plan.operator_count == 4
        assert plan.total_cost == pytest.approx(operator_sum)

    def test_lowering_is_lossless(self, summary):
        model = CostModel(Statistics(summary))
        root = Projection(child=ViewScan("v"), columns=("v.ID1",))
        assert lower_plan(root, model).to_algebra() is root

    def test_describe_marks_shared_nodes(self, summary):
        shared = ViewScan("v")
        join = IdEqualityJoin(
            left=shared, right=shared, left_column="v.ID", right_column="v.ID"
        )
        text = lower_plan(join, CostModel(Statistics(summary))).describe()
        assert "[shared]" in text
        assert "cost≈" in text


class TestPlannerChoice:
    def test_best_plan_is_the_minimum_cost_alternative(self, doc, summary):
        views = [
            MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), doc),
            MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"), doc),
        ]
        rewriter = Rewriter(summary, views)
        planner = Planner(rewriter)
        choice = planner.plan(parse_pattern("site(//item[ID,V])"))
        assert choice.found and len(choice.alternatives) > 1
        costs = [planned.cost for planned in choice.alternatives]
        assert costs == sorted(costs)
        assert choice.best.cost == min(costs)
        assert choice.best.rank == 0

    def test_single_view_scan_beats_join_plans(self, doc, summary):
        views = [
            MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), doc),
            MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"), doc),
        ]
        planner = Planner(Rewriter(summary, views))
        best = planner.plan(parse_pattern("site(//item[ID,V])")).best
        assert best.rewriting.views_used == ("v_item",)
        assert view_scan_count(best.logical_plan.to_algebra()) == 1

    def test_ranking_is_deterministic(self, doc, summary):
        views = [
            MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), doc),
            MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"), doc),
        ]
        planner = Planner(Rewriter(summary, views))
        query = parse_pattern("site(//item[ID,V])")
        order_a = [p.rewriting.views_used for p in planner.plan(query)]
        order_b = [p.rewriting.views_used for p in planner.plan(query)]
        assert order_a == order_b

    def test_planner_raises_when_no_rewriting_exists(self, doc, summary):
        views = [
            MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"), doc)
        ]
        planner = Planner(Rewriter(summary, views))
        from repro.errors import RewritingError

        with pytest.raises(RewritingError):
            planner.plan(parse_pattern("site(//item[ID,V])")).best
