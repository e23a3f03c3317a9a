"""Figure 15 — XMark query rewriting.

The paper rewrites the 20 XMark query patterns against a view set made of
2-node *seed* views (XMark root + one node per XMark tag, storing ID and V)
plus 100 random 3-node view patterns (50% optional edges, nodes storing ID
and V with probability 0.75).  For every query it reports the time spent in
setup (including the Prop. 3.4 view pruning), the time until the *first*
equivalent rewriting is found, and the total rewriting time; it also notes
that on average only ~57% of the views survive pruning.

This harness reproduces the same three series plus the pruning ratio.  The
number of random views and the search budget are configurable; the defaults
are sized so the whole figure regenerates in tens of seconds of pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.containment.core import clear_containment_cache
from repro.experiments.fig13 import xmark_summary
from repro.rewriting.algorithm import RewritingConfig
from repro.session.database import Database
from repro.summary.dataguide import Summary
from repro.views.view import MaterializedView
from repro.workloads.synthetic import generate_random_views, seed_tag_views
from repro.workloads.xmark import xmark_query_patterns

__all__ = ["RewritingRow", "run_fig15", "print_fig15", "fig15_views"]


@dataclass
class RewritingRow:
    """One group of bars of Figure 15 (plus the plan-choice columns)."""

    query: str
    setup_seconds: float
    first_rewriting_seconds: Optional[float]
    total_seconds: float
    rewritings_found: int
    views_kept_ratio: float
    best_plan_cost: Optional[float] = None
    """Estimated cost of the planner's chosen plan (None when no rewriting)."""
    seed_plan_cost: Optional[float] = None
    """Estimated cost of the rewriting the *seed* policy would have
    executed — ``RewriteOutcome.best``, i.e. non-union with the fewest view
    occurrences (the pre-planner ``answer()`` behaviour)."""

    @property
    def plan_choice_changed(self) -> bool:
        """Did cost-based selection beat the seed fewest-views choice?"""
        return (
            self.best_plan_cost is not None
            and self.seed_plan_cost is not None
            and self.best_plan_cost < self.seed_plan_cost
        )


def fig15_views(
    summary: Summary,
    random_view_count: int = 100,
    seed: int = 3,
) -> list[MaterializedView]:
    """The Figure 15 view set: seed 2-node views plus random 3-node views.

    Views are *not* materialised (the experiment measures rewriting time
    only, exactly as in the paper).
    """
    views: list[MaterializedView] = []
    for index, pattern in enumerate(seed_tag_views(summary)):
        views.append(MaterializedView(pattern, name=f"seed{index}_{pattern.name}"))
    for index, pattern in enumerate(
        generate_random_views(summary, count=random_view_count, seed=seed)
    ):
        views.append(MaterializedView(pattern, name=f"rand{index}"))
    return views


def run_fig15(
    summary: Optional[Summary] = None,
    queries: Optional[dict] = None,
    random_view_count: int = 100,
    time_budget_seconds: float = 5.0,
    max_rewritings: int = 3,
    query_names: Optional[Sequence[str]] = None,
) -> list[RewritingRow]:
    """Rewrite every XMark query pattern against the Figure 15 view set.

    The workload runs through a summary-only session
    (:meth:`Database.from_summary` — views stay unmaterialised, exactly as
    in the paper, which measures rewriting time only), one
    :meth:`Database.rewrite` per query, so the view catalog (summary index,
    annotated view prototypes, Prop. 3.4 path index) is shared across all
    20 queries.  The containment memo is cleared up front so a run does not
    depend on earlier runs.

    Every outcome's rewritings are also lowered and costed through a
    :class:`~repro.planning.Planner`, and the row reports the chosen plan's
    cost next to the cost of the rewriting the *seed* policy would have
    executed (``RewriteOutcome.best``: the non-union, fewest-views
    heuristic) — the plan-choice-quality comparison; ranking uses no
    containment tests, so the timing columns are unaffected.
    """
    summary = summary or xmark_summary()
    queries = queries or xmark_query_patterns()
    if query_names is not None:
        queries = {name: queries[name] for name in query_names}
    views = fig15_views(summary, random_view_count=random_view_count)
    config = RewritingConfig(
        time_budget_seconds=time_budget_seconds,
        max_rewritings=max_rewritings,
        max_plan_size=8,
        enable_unions=False,
    )
    clear_containment_cache()
    database = Database.from_summary(summary, views=views, config=config)
    ordered = sorted(queries.items(), key=lambda kv: int(kv[0][1:]))
    outcomes = [database.rewrite(pattern) for _, pattern in ordered]
    planner = database.planner
    rows = []
    for (name, _), outcome in zip(ordered, outcomes):
        stats = outcome.statistics
        best_cost = seed_cost = None
        if outcome.found:
            # plan-choice quality: what cost-based selection buys over the
            # seed policy (outcome.best — non-union, fewest views)
            ranked = planner.rank(outcome)
            best_cost = ranked[0].cost
            seed_choice = outcome.best
            seed_cost = next(
                planned.cost
                for planned in ranked
                if planned.rewriting is seed_choice
            )
        rows.append(
            RewritingRow(
                query=name,
                setup_seconds=stats.setup_seconds,
                first_rewriting_seconds=stats.first_rewriting_seconds,
                total_seconds=stats.total_seconds,
                rewritings_found=stats.rewritings_found,
                views_kept_ratio=stats.pruning_ratio,
                best_plan_cost=best_cost,
                seed_plan_cost=seed_cost,
            )
        )
    return rows


def print_fig15(rows: Optional[list[RewritingRow]] = None, **kwargs) -> str:
    """Render the Figure 15 series; returns the rendered text."""
    rows = rows if rows is not None else run_fig15(**kwargs)
    lines = ["Figure 15: XMark query rewriting", ""]
    lines.append(
        f"{'query':>6} | {'setup (ms)':>11} | {'first (ms)':>11} | "
        f"{'total (ms)':>11} | {'#rewritings':>11} | {'views kept':>10} | "
        f"{'best cost':>10} | {'seed cost':>10}"
    )
    for row in rows:
        first = (
            f"{row.first_rewriting_seconds * 1000:.1f}"
            if row.first_rewriting_seconds is not None
            else "-"
        )
        best_cost = f"{row.best_plan_cost:.0f}" if row.best_plan_cost is not None else "-"
        seed_cost = (
            f"{row.seed_plan_cost:.0f}" if row.seed_plan_cost is not None else "-"
        )
        lines.append(
            f"{row.query:>6} | {row.setup_seconds * 1000:>11.1f} | {first:>11} | "
            f"{row.total_seconds * 1000:>11.1f} | {row.rewritings_found:>11} | "
            f"{row.views_kept_ratio:>10.0%} | {best_cost:>10} | {seed_cost:>10}"
        )
    if rows:
        kept = sum(row.views_kept_ratio for row in rows) / len(rows)
        lines.append("")
        lines.append(f"average fraction of views kept after pruning: {kept:.0%}")
        changed = sum(1 for row in rows if row.plan_choice_changed)
        priced = sum(1 for row in rows if row.best_plan_cost is not None)
        if priced:
            lines.append(
                f"plan choice: cost-based selection beat the seed "
                f"fewest-views heuristic on {changed}/{priced} rewritten queries"
            )
    text = "\n".join(lines)
    print(text)
    return text
