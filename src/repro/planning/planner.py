"""The planner: cost-based choice among a query's rewritings.

``Planner.best_plan(query)`` runs the rewriting search (through a
:class:`~repro.rewriting.rewriter.Rewriter`, so the view catalog and the
containment memo are shared), lowers *every* rewriting found to a costed
:class:`~repro.planning.logical.LogicalPlan` and returns the cheapest.
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
from repro.algebra.tuples import Relation
from repro.errors import RewritingError
from repro.patterns.pattern import TreePattern
from repro.planning.cost import CostModel
from repro.planning.logical import LogicalPlan, lower_plan
from repro.planning.pushdown import push_selections
from repro.rewriting.algorithm import Rewriting, RewritingStatistics
from repro.rewriting.rewriter import RewriteOutcome
from repro.summary.statistics import Statistics

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

    @property
    def first_found_was_best(self) -> bool:
        """Whether the cheapest plan is also the one the search found first
        (a search-order comparison; the seed *execution* policy was the
        fewest-views heuristic of ``RewriteOutcome.best``, not this)."""
        if not self.alternatives:
            return True
        return self.alternatives[0].search_order == 0

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
    """Ranks a query's rewritings by estimated cost and runs the cheapest.

    Parameters
    ----------
    rewriter:
        The rewriter to search with; its view catalog supplies the
        statistics snapshot when no explicit ``cost_model`` is given.
    cost_model:
        Optional cost model override (e.g. with hand-built statistics).

    Example
    -------
    >>> from repro import MaterializedView, Rewriter, build_summary
    >>> from repro import parse_parenthesized, parse_pattern
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> views = [MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)]
    >>> planner = Planner(Rewriter(build_summary(doc), views))
    >>> best = planner.best_plan(parse_pattern("site(//item[ID,V])", name="q"))
    >>> best.rank, best.cost > 0
    (0, True)
    >>> len(planner.execute(best))
    2
    """

    def __init__(
        self,
        rewriter: "Rewriter",
        cost_model: Optional[CostModel] = None,
    ):
        self.rewriter = rewriter
        self._cost_model = cost_model
        self._derived_model: Optional[CostModel] = None
        self._derived_key: Optional[tuple] = None
        # strong reference to the catalog the derived model was built from:
        # the key uses its id(), which CPython may recycle after GC, so the
        # referent must stay alive for the identity comparison to be sound
        self._derived_catalog = None

    # ------------------------------------------------------------------ #
    @property
    def cost_model(self) -> CostModel:
        """The effective cost model (catalog statistics when available).

        Derived models are cached and invalidated when the rewriter's view
        set or any extent in it changes (``views.data_version``).
        """
        if self._cost_model is not None:
            return self._cost_model
        catalog = self.rewriter.catalog
        key = (id(catalog), self.rewriter.views.data_version)
        if (
            self._derived_model is not None
            and self._derived_key == key
            and self._derived_catalog is catalog
        ):
            return self._derived_model
        if catalog is not None:
            model = CostModel(catalog.statistics())
        else:
            # catalog-less fallback: the Statistics constructor observes
            # every view itself (annotating throwaway pattern copies for
            # unmaterialised ones), so pricing matches the catalog path
            model = CostModel(Statistics(self.rewriter.summary, self.rewriter.views))
        self._derived_model = model
        self._derived_key = key
        self._derived_catalog = catalog
        return model

    # ------------------------------------------------------------------ #
    def rank(self, outcome: RewriteOutcome) -> list[PlannedRewriting]:
        """Lower and rank every rewriting of an outcome, cheapest first.

        Each rewriting's plan is first run through the predicate-pushdown
        pass (selections sink into index probes where the cost model's
        access-path comparison prefers them), so costs, ``EXPLAIN`` output
        and execution all speak about the same transformed operators.
        """
        model = self.cost_model
        lowered = [
            (
                lower_plan(push_selections(rewriting.plan, model), model),
                search_order,
                rewriting,
            )
            for search_order, rewriting in enumerate(outcome.rewritings)
        ]
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

    def choose(self, query: TreePattern, outcome: RewriteOutcome) -> PlanChoice:
        """Rank an outcome into a choice stamped with the current data version."""
        choice = PlanChoice(query, self.rank(outcome), outcome.statistics)
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
        moved since the search (the caller's cache key).
        """
        if choice.data_version == self.rewriter.views.data_version:
            return choice
        ordered = sorted(choice.alternatives, key=lambda planned: planned.search_order)
        rewritings = [planned.rewriting for planned in ordered]
        return self.choose(
            choice.query, RewriteOutcome(choice.query, rewritings, choice.statistics)
        )

    def best_plan(self, query: TreePattern) -> PlannedRewriting:
        """The minimum-cost rewriting (raises when none exists)."""
        return self.plan(query).best

    # ------------------------------------------------------------------ #
    def execute(self, planned: PlannedRewriting) -> Relation:
        """Execute a planned rewriting over the rewriter's views.

        Runs ``planned.plan_operator`` — the pushdown-transformed tree the
        costs were computed over — so the chosen access paths (index probes
        vs. scans) are what actually executes."""
        from repro.algebra.execution import PlanExecutor

        return PlanExecutor(self.rewriter.views).execute(planned.plan_operator)

    def answer(self, query: TreePattern) -> Relation:
        """Plan and execute in one call (raises when no rewriting exists)."""
        return self.execute(self.best_plan(query))
