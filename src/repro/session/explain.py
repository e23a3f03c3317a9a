"""Structured ``EXPLAIN`` / ``EXPLAIN ANALYZE`` reports for prepared queries.

An :class:`ExplainReport` is the inspectable form of one planned query: which
rewriting the cost-based planner chose (and what the alternatives would have
cost), the plan operator tree with the planner's per-operator row and cost
estimates, and — for joins — the order-based algorithm decision
(:func:`~repro.planning.cost.sort_merge_decision`: staircase ``merge`` vs
``sort+merge``, Dewey ``merge`` vs ``hash``).  With ``analyze=True`` the plan
is actually executed under a profiling
:class:`~repro.algebra.execution.PlanExecutor` and every operator's entry
additionally carries its *measured* row count and wall time, right next to
the estimates — the estimated-vs-actual comparison the cost-model
calibration work reads off.

Reports are plain data (dataclasses all the way down); :meth:`ExplainReport.
to_text` renders the conventional indented tree for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.algebra.operators import IndexScan, ViewScan
from repro.planning.cost import sort_merge_decision
from repro.planning.logical import LogicalPlanNode
from repro.planning.planner import PlanChoice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.execution import PlanExecutor
    from repro.summary.statistics import Statistics

__all__ = ["ExplainOperator", "ExplainReport", "build_explain_report"]


@dataclass
class ExplainOperator:
    """One operator occurrence of an explained plan, with its annotations."""

    description: str
    """The operator's one-line algebra rendering."""

    depth: int
    """Nesting depth in the plan tree (0 = root)."""

    estimated_rows: float
    """The planner's output-cardinality estimate."""

    estimated_cost: float
    """The cost model's work term for this operator alone."""

    cumulative_cost: float
    """Estimated work of the whole sub-DAG rooted here (shared work once)."""

    order_decision: Optional[str] = None
    """For joins: the order-based algorithm choice (``merge``,
    ``sort+merge(left,right)``, ``hash``); ``None`` for non-joins."""

    access_path: Optional[str] = None
    """For leaf accesses: how the extent is read — ``"index"`` for an
    :class:`~repro.algebra.operators.IndexScan` probe, ``"scan"`` for a
    full :class:`~repro.algebra.operators.ViewScan`; ``None`` elsewhere."""

    shared: bool = False
    """True for repeated occurrences of a sub-plan shared inside the DAG
    (the entry repeats the shared node's annotations; its children are not
    re-listed, matching how the executor evaluates the plan once)."""

    actual_rows: Optional[int] = None
    """Measured output rows (``analyze`` runs only)."""

    actual_seconds: Optional[float] = None
    """Measured wall time of this operator alone (``analyze`` runs only)."""

    def to_dict(self) -> dict:
        """This entry as a JSON-safe plain dict (see :meth:`from_dict`)."""
        return {
            "description": self.description,
            "depth": self.depth,
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost,
            "cumulative_cost": self.cumulative_cost,
            "order_decision": self.order_decision,
            "access_path": self.access_path,
            "shared": self.shared,
            "actual_rows": self.actual_rows,
            "actual_seconds": self.actual_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplainOperator":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(**{key: data[key] for key in cls.__dataclass_fields__})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed explain operator entry: {exc}") from exc

    def render(self) -> str:
        """The indented one-line form used by :meth:`ExplainReport.to_text`."""
        annotations = [f"rows≈{self.estimated_rows:.0f}", f"cost≈{self.cumulative_cost:.0f}"]
        if self.order_decision is not None:
            annotations.append(self.order_decision)
        if self.access_path is not None:
            annotations.append(f"access={self.access_path}")
        if self.actual_rows is not None:
            annotations.append(f"actual rows={self.actual_rows}")
        if self.actual_seconds is not None:
            annotations.append(f"time={self.actual_seconds * 1000:.2f}ms")
        if self.shared:
            annotations.append("shared")
        pad = "  " * self.depth
        return f"{pad}{self.description}  [{' '.join(annotations)}]"


@dataclass
class ExplainReport:
    """Everything the planner (and optionally the executor) knows about one query."""

    query_name: str
    views_used: tuple[str, ...]
    """Distinct views the chosen rewriting scans."""

    is_union: bool
    """Whether the chosen rewriting is a union plan."""

    chosen_cost: float
    """Estimated total cost of the chosen (minimum-cost) plan."""

    estimated_rows: float
    """Estimated result size of the chosen plan."""

    alternative_costs: tuple[float, ...]
    """Estimated costs of *all* costed alternatives, cheapest first — the
    chosen plan's cost is ``alternative_costs[0]``."""

    operators: list[ExplainOperator] = field(default_factory=list)
    """Pre-order walk of the chosen plan tree (children after parents,
    indented by :attr:`ExplainOperator.depth`)."""

    analyzed: bool = False
    """Whether the plan was executed to collect actual rows and times."""

    actual_rows: Optional[int] = None
    """Measured result size (``analyze`` runs only)."""

    actual_seconds: Optional[float] = None
    """Measured wall time of the whole execution (``analyze`` runs only)."""

    search: dict[str, int] = field(default_factory=dict)
    """What the rewriting search that found the plan did:
    ``candidates_explored``, ``joins_attempted``, ``alignments_pruned``,
    ``pairs_skipped_by_suppliers`` and ``fusions_skipped`` of its
    :class:`~repro.rewriting.algorithm.RewritingStatistics`."""

    # ------------------------------------------------------------------ #
    @property
    def operator_count(self) -> int:
        """Distinct operators listed (shared repeats excluded)."""
        return sum(1 for entry in self.operators if not entry.shared)

    def to_dict(self) -> dict:
        """The whole report as a JSON-safe plain dict.

        Everything :meth:`to_text` renders survives — tuples become lists,
        operator entries become dicts — and :meth:`from_dict` rebuilds an
        equal report, so structured ``EXPLAIN`` output can cross process
        boundaries (the service tier's ``/explain`` endpoint returns
        exactly this shape).

        >>> report = ExplainReport(
        ...     query_name="q", views_used=("v",), is_union=False,
        ...     chosen_cost=12.0, estimated_rows=3.0,
        ...     alternative_costs=(12.0, 40.0),
        ...     operators=[ExplainOperator("ViewScan(v)", 0, 3.0, 12.0, 12.0)],
        ... )
        >>> ExplainReport.from_dict(report.to_dict()) == report
        True
        """
        return {
            "query_name": self.query_name,
            "views_used": list(self.views_used),
            "is_union": self.is_union,
            "chosen_cost": self.chosen_cost,
            "estimated_rows": self.estimated_rows,
            "alternative_costs": list(self.alternative_costs),
            "operators": [entry.to_dict() for entry in self.operators],
            "analyzed": self.analyzed,
            "actual_rows": self.actual_rows,
            "actual_seconds": self.actual_seconds,
            "search": dict(self.search),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplainReport":
        """Inverse of :meth:`to_dict` (raises :class:`ValueError` on
        malformed input, never a silently partial report)."""
        try:
            return cls(
                query_name=data["query_name"],
                views_used=tuple(data["views_used"]),
                is_union=data["is_union"],
                chosen_cost=data["chosen_cost"],
                estimated_rows=data["estimated_rows"],
                alternative_costs=tuple(data["alternative_costs"]),
                operators=[
                    ExplainOperator.from_dict(entry)
                    for entry in data.get("operators", [])
                ],
                analyzed=data.get("analyzed", False),
                actual_rows=data.get("actual_rows"),
                actual_seconds=data.get("actual_seconds"),
                search=dict(data.get("search", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed explain report payload: {exc}") from exc

    def to_text(self) -> str:
        """The conventional indented ``EXPLAIN`` rendering."""
        mode = "EXPLAIN ANALYZE" if self.analyzed else "EXPLAIN"
        lines = [f"{mode} {self.query_name!r}"]
        views = "+".join(self.views_used) or "(no views)"
        shape = "union rewriting" if self.is_union else "rewriting"
        lines.append(
            f"{shape} over {views}; {len(self.alternative_costs)} costed "
            f"alternative(s), chosen cost≈{self.chosen_cost:.0f}, "
            f"rows≈{self.estimated_rows:.0f}"
        )
        if self.search:
            lines.append(
                "search: " + ", ".join(f"{k}={v}" for k, v in self.search.items())
            )
        if self.analyzed:
            lines.append(
                f"actual: {self.actual_rows} rows in "
                f"{(self.actual_seconds or 0.0) * 1000:.2f}ms"
            )
        lines.extend(entry.render() for entry in self.operators)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def build_explain_report(
    choice: PlanChoice,
    statistics: Optional["Statistics"] = None,
    executor: Optional["PlanExecutor"] = None,
    actual_seconds: Optional[float] = None,
) -> ExplainReport:
    """Assemble a report from a ranked :class:`PlanChoice`.

    ``statistics`` feeds the static order analysis behind the per-join
    ``order_decision`` labels (the same snapshot the cost model priced the
    plan with).  Pass the profiling ``executor`` that just ran the plan —
    plus the measured wall clock — to produce an ``ANALYZE`` report; every
    operator entry is matched to its measurement by operator object
    identity, exactly how the executor memoises results.
    """
    planned = choice.best
    report = ExplainReport(
        query_name=choice.query.name,
        views_used=tuple(sorted(set(planned.rewriting.views_used))),
        is_union=planned.rewriting.is_union,
        chosen_cost=planned.cost,
        estimated_rows=planned.estimated_rows,
        alternative_costs=choice.alternative_costs,
        analyzed=executor is not None,
        actual_seconds=actual_seconds,
        search=choice.statistics.search_counters(),
    )

    seen: set[int] = set()

    def visit(node: LogicalPlanNode, depth: int) -> None:
        shared = id(node) in seen
        seen.add(id(node))
        if isinstance(node.operator, IndexScan):
            access_path = "index"
        elif isinstance(node.operator, ViewScan):
            access_path = "scan"
        else:
            access_path = None
        entry = ExplainOperator(
            description=node.operator._describe_self(),
            depth=depth,
            estimated_rows=node.rows,
            estimated_cost=node.estimate.operator_cost if node.estimate else 0.0,
            cumulative_cost=node.cost,
            order_decision=sort_merge_decision(node.operator, statistics),
            shared=shared,
            access_path=access_path,
        )
        if executor is not None:
            stats = executor.run_stats(node.operator)
            if stats is not None:
                entry.actual_rows = stats.rows
                entry.actual_seconds = stats.seconds
        report.operators.append(entry)
        if shared:
            return
        for child in node.children:
            visit(child, depth + 1)

    visit(planned.logical_plan.root, 0)
    if executor is not None:
        root_stats = executor.run_stats(planned.logical_plan.root.operator)
        if root_stats is not None:
            report.actual_rows = root_stats.rows
    return report
