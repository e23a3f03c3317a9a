"""The planner: cost-based choice among a query's rewritings.

``Planner.plan(query)`` runs the rewriting search (through a
:class:`~repro.rewriting.rewriter.Rewriter`, so the view catalog and the
containment memo are shared), lowers *every* rewriting found to a costed
:class:`~repro.planning.logical.LogicalPlan` and ranks them, cheapest
first.
This replaces the seed behaviour of executing ``RewriteOutcome.best`` —
the structural fewest-views heuristic, blind to extent sizes — with
statistics-backed selection: on view sets where several rewritings exist
(small filtered views vs. huge general ones, scans vs. joins), the cost
gap between the cheapest plan and the heuristic's choice is routinely
large.

Ties break deterministically: equal-cost plans prefer non-unions, then
fewer view occurrences, then search order — the same preference the old
``RewriteOutcome.best`` encoded, now applied only within a cost class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.algebra.operators import PlanOperator
from repro.errors import RewritingError
from repro.patterns.pattern import TreePattern
from repro.planning.cost import CostModel
from repro.planning.logical import LogicalPlan, lower_plan
from repro.planning.pushdown import push_selections
from repro.rewriting.algorithm import Rewriting, RewritingStatistics
from repro.rewriting.rewriter import RewriteOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rewriting.rewriter import Rewriter

__all__ = ["PlannedRewriting", "PlanChoice", "Planner"]


@dataclass
class PlannedRewriting:
    """One rewriting with its costed logical plan."""

    rewriting: Rewriting
    logical_plan: LogicalPlan
    rank: int
    """Position in the cost order (0 = cheapest)."""

    search_order: int = 0
    """Position in which the rewriting search reported this alternative."""

    @property
    def plan_operator(self) -> PlanOperator:
        """The executable operator tree — the *transformed* plan.

        This is what every execution site must run: it carries the access
        paths the planner chose (selections pushed into
        :class:`~repro.algebra.operators.IndexScan` probes), whereas
        ``rewriting.plan`` is the search's untouched output — still valid,
        still semantically identical, but always scan-and-filter."""
        return self.logical_plan.to_algebra()

    @property
    def cost(self) -> float:
        return self.logical_plan.total_cost

    @property
    def estimated_rows(self) -> float:
        return self.logical_plan.estimated_rows

    def describe(self) -> str:
        return self.logical_plan.describe()


class PlanChoice:
    """All costed alternatives for one query, cheapest first."""

    def __init__(
        self,
        query: TreePattern,
        alternatives: list[PlannedRewriting],
        statistics: RewritingStatistics,
    ):
        self.query = query
        self.alternatives = alternatives
        self.statistics = statistics
        self.data_version: Optional[int] = None
        """The ``views.data_version`` the alternatives were priced under
        (stamped by :meth:`Planner.choose`; ``None`` = unknown, re-price
        before trusting the order)."""

    @property
    def found(self) -> bool:
        return bool(self.alternatives)

    @property
    def best(self) -> PlannedRewriting:
        if not self.alternatives:
            raise RewritingError(f"no rewriting found for {self.query.name!r}")
        return self.alternatives[0]

    @property
    def alternative_costs(self) -> tuple[float, ...]:
        """Estimated costs of every costed alternative, cheapest first.

        What ``EXPLAIN`` reports surface next to the chosen plan: the
        cost landscape the planner actually chose from."""
        return tuple(planned.cost for planned in self.alternatives)

    def __iter__(self):
        return iter(self.alternatives)

    def __len__(self) -> int:
        return len(self.alternatives)

    def __repr__(self) -> str:
        best = f"{self.best.cost:.0f}" if self.alternatives else "-"
        return (
            f"<PlanChoice query={self.query.name!r} "
            f"alternatives={len(self.alternatives)} best_cost={best}>"
        )


class Planner:
    """Ranks a query's rewritings by estimated cost.

    Parameters
    ----------
    rewriter:
        The rewriter to search with; its view catalog supplies the
        statistics the cost model reads.

    Example
    -------
    >>> from repro import MaterializedView, Rewriter, build_summary
    >>> from repro import parse_parenthesized, parse_pattern
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> views = [MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)]
    >>> planner = Planner(Rewriter(build_summary(doc), views))
    >>> best = planner.plan(parse_pattern("site(//item[ID,V])", name="q")).best
    >>> best.rank, best.cost > 0
    (0, True)
    """

    def __init__(self, rewriter: "Rewriter"):
        self.rewriter = rewriter

    @property
    def cost_model(self) -> CostModel:
        """The cost model over the catalog's statistics (which follow
        writes in place, so a model never goes stale)."""
        return CostModel(self.rewriter.catalog.statistics())

    # ------------------------------------------------------------------ #
    def rank(
        self,
        outcome: RewriteOutcome,
        previous: Optional[list[PlanOperator]] = None,
    ) -> list[PlannedRewriting]:
        """Lower and rank every rewriting of an outcome, cheapest first.

        Each rewriting's plan is first run through the predicate-pushdown
        pass (selections sink into index probes where the cost model's
        access-path comparison prefers them), so costs, ``EXPLAIN`` output
        and execution all speak about the same transformed operators.
        ``previous`` holds the operators an earlier rank of the same
        rewritings pushed, in search order: one the pass rebuilt equal is
        reused, so the executor's memo on its nodes survives the re-rank.
        """
        model = self.cost_model
        lowered = []
        for search_order, rewriting in enumerate(outcome.rewritings):
            pushed = push_selections(rewriting.plan, model)
            if previous is not None and pushed == previous[search_order]:
                pushed = previous[search_order]
            lowered.append((lower_plan(pushed, model), search_order, rewriting))
        lowered.sort(
            key=lambda item: (
                item[0].total_cost,
                item[2].is_union,
                len(item[2].views_used),
                item[1],
            )
        )
        return [
            PlannedRewriting(
                rewriting=rewriting,
                logical_plan=plan,
                rank=rank,
                search_order=search_order,
            )
            for rank, (plan, search_order, rewriting) in enumerate(lowered)
        ]

    def choose(
        self,
        query: TreePattern,
        outcome: RewriteOutcome,
        previous: Optional[list[PlanOperator]] = None,
    ) -> PlanChoice:
        """Rank an outcome into a choice stamped with the current data version."""
        choice = PlanChoice(query, self.rank(outcome, previous), outcome.statistics)
        choice.data_version = self.rewriter.views.data_version
        return choice

    def plan(self, query: TreePattern) -> PlanChoice:
        """Search, lower and rank all rewritings of ``query``."""
        return self.choose(query, self.rewriter.rewrite(query))

    def current(self, choice: PlanChoice) -> PlanChoice:
        """``choice`` as :meth:`plan` would rank it now, without a search.

        Which rewritings exist does not depend on instance counts; their
        costs — and the pushdown decisions priced with them — do.  A
        choice ranked under an older ``views.data_version`` is therefore
        re-ranked from its own rewritings, taken in search order so ties
        break as a fresh plan's would; one ranked under the current one
        is returned as is.  Only valid while ``views.version`` has not
        moved since the search (the caller's cache key).  An alternative
        whose pushed plan comes out equal keeps its operator objects, and
        with them the executor's memo of their outputs.
        """
        if choice.data_version == self.rewriter.views.data_version:
            return choice
        ordered = sorted(choice.alternatives, key=lambda planned: planned.search_order)
        rewritings = [planned.rewriting for planned in ordered]
        return self.choose(
            choice.query,
            RewriteOutcome(choice.query, rewritings, choice.statistics),
            [planned.plan_operator for planned in ordered],
        )
