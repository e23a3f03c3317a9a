"""The explicit logical-plan layer between rewriting and execution.

A :class:`LogicalPlan` is the costed form of one rewriting: a DAG of
:class:`LogicalPlanNode`, one per *distinct* algebra operator object
reachable from the plan root.  The rewriting search shares sub-plans
between candidates (two occurrences of the same ``PlanOperator`` object are
one node here), which is exactly how the executor evaluates them — its
per-object memo computes a shared sub-plan once — so charging shared work
once is the truthful cost.

Lowering walks the operator DAG bottom-up, calling every operator's
``estimate_rows`` cardinality hook with the cost model as context and the
model's ``operator_cost`` for the work term.  The result keeps a node list
in topological order (children before parents) and annotates the root with
the plan's total cost and estimated output size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.algebra.operators import PlanOperator
from repro.planning.cost import CostModel, OperatorEstimate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rewriting.algorithm import Rewriting

__all__ = ["LogicalPlan", "LogicalPlanNode", "lower_plan"]


@dataclass
class LogicalPlanNode:
    """One distinct operator of a logical plan, with its annotations."""

    operator: PlanOperator
    children: list["LogicalPlanNode"] = field(default_factory=list)
    estimate: Optional[OperatorEstimate] = None

    @property
    def rows(self) -> float:
        """Estimated output rows of this operator."""
        return self.estimate.rows if self.estimate else 0.0

    @property
    def cost(self) -> float:
        """Cumulative cost of the sub-DAG rooted here."""
        return self.estimate.cumulative_cost if self.estimate else 0.0

    def describe(self) -> str:
        """One-line rendering with the cost annotations."""
        return (
            f"{self.operator._describe_self()}"
            f"  [rows≈{self.rows:.0f} cost≈{self.cost:.0f}]"
        )


class LogicalPlan:
    """A costed operator DAG for one rewriting."""

    def __init__(self, root: LogicalPlanNode, nodes: list[LogicalPlanNode]):
        self.root = root
        self.nodes = nodes
        """All distinct nodes, children before parents."""

    # ------------------------------------------------------------------ #
    @property
    def total_cost(self) -> float:
        """Estimated cost of executing the whole plan (shared work once)."""
        return self.root.cost

    @property
    def estimated_rows(self) -> float:
        """Estimated size of the plan's result."""
        return self.root.rows

    @property
    def operator_count(self) -> int:
        """Number of distinct operators in the DAG."""
        return len(self.nodes)

    def to_algebra(self) -> PlanOperator:
        """The underlying executable operator tree (lowering is lossless)."""
        return self.root.operator

    def describe(self) -> str:
        """Indented rendering of the DAG with per-node rows and cost."""
        lines: list[str] = []
        seen: set[int] = set()

        def render(node: LogicalPlanNode, indent: int) -> None:
            pad = "  " * indent
            if id(node) in seen:
                lines.append(f"{pad}{node.operator._describe_self()}  [shared]")
                return
            seen.add(id(node))
            lines.append(pad + node.describe())
            for child in node.children:
                render(child, indent + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<LogicalPlan operators={self.operator_count} "
            f"rows≈{self.estimated_rows:.0f} cost≈{self.total_cost:.0f}>"
        )


def lower_plan(plan: "PlanOperator | Rewriting", cost_model: CostModel) -> LogicalPlan:
    """Lower an algebra plan (or a rewriting) to a costed :class:`LogicalPlan`.

    The walk is iterative (post-order over the DAG), so arbitrarily deep
    plans lower without recursion limits, and every distinct operator object
    is visited exactly once.
    """
    root_operator = getattr(plan, "plan", plan)
    if not isinstance(root_operator, PlanOperator):
        raise TypeError(f"cannot lower {plan!r} to a logical plan")
    nodes: dict[int, LogicalPlanNode] = {}
    ordered: list[LogicalPlanNode] = []
    # per-operator map of reachable operator ids -> their own cost
    reach: dict[int, dict[int, float]] = {}
    # (operator, children_expanded) stack for an explicit post-order walk
    stack: list[tuple[PlanOperator, bool]] = [(root_operator, False)]
    while stack:
        operator, expanded = stack.pop()
        if id(operator) in nodes:
            continue
        if not expanded:
            stack.append((operator, True))
            for child in operator.children():
                if id(child) not in nodes:
                    stack.append((child, False))
            continue
        children = [nodes[id(child)] for child in operator.children()]
        child_rows = [child.rows for child in children]
        rows = max(float(operator.estimate_rows(child_rows, cost_model)), 0.0)
        own = cost_model.operator_cost(operator, child_rows, rows)
        # cumulative over the DAG: each distinct reachable operator charged
        # once, even through diamonds (a sub-plan shared by both inputs)
        reachable = reach.setdefault(id(operator), {id(operator): own})
        for child in children:
            reachable.update(reach[id(child.operator)])
        cumulative = sum(reachable.values())
        node = LogicalPlanNode(
            operator=operator,
            children=children,
            estimate=OperatorEstimate(
                rows=rows, operator_cost=own, cumulative_cost=cumulative
            ),
        )
        nodes[id(operator)] = node
        ordered.append(node)

    return LogicalPlan(nodes[id(root_operator)], ordered)
