"""End-to-end guarantees of cost-based plan selection.

Every rewriting of a query is S-equivalent to it, so every costed
alternative must return the *same relation* when executed — cost-based
selection may only ever change how fast an answer is computed, never the
answer.  These tests execute all alternatives on materialised fixtures and
compare contents, then pin down that ``Planner.answer`` runs the cheapest
plan.
"""

from __future__ import annotations

import pytest

from repro import MaterializedView, build_summary, parse_parenthesized, parse_pattern
from repro.planning.planner import Planner
from repro.rewriting.algorithm import RewritingConfig
from repro.rewriting.rewriter import Rewriter


@pytest.fixture(scope="module")
def fixture():
    doc = parse_parenthesized(
        'site(regions(asia(item(name="pen" payment="cc") item(name="ink"))'
        ' europe(item(name="nib")))'
        ' people(person(name="ada") person(name="bob")))',
        name="planner-e2e",
    )
    summary = build_summary(doc)
    views = [
        MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), doc),
        MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"), doc),
        MaterializedView(
            parse_pattern("site(//item[ID](/name[ID,V]))", name="v_item_name"), doc
        ),
        MaterializedView(parse_pattern("site(//person[ID,V])", name="v_person"), doc),
    ]
    rewriter = Rewriter(
        summary, views, RewritingConfig(max_rewritings=6, time_budget_seconds=10.0)
    )
    return rewriter, Planner(rewriter)


QUERIES = [
    "site(//item[ID,V])",
    "site(//person[ID,V])",
    "site(//item(/name[ID,V]))",
]


@pytest.mark.parametrize("query_text", QUERIES)
def test_every_costed_alternative_returns_the_same_relation(fixture, query_text):
    rewriter, planner = fixture
    choice = planner.plan(parse_pattern(query_text))
    assert choice.found, f"no rewriting for {query_text}"
    reference = planner.execute(choice.best)
    for alternative in choice.alternatives[1:]:
        relation = planner.execute(alternative)
        assert relation.same_contents(reference), (
            f"alternative {alternative.rewriting.views_used} disagrees with the "
            f"chosen plan on {query_text}"
        )


def test_chosen_plan_matches_direct_evaluation(fixture):
    rewriter, planner = fixture
    query = parse_pattern("site(//item[ID,V])")
    result = planner.answer(query)
    # the search's own fewest-views pick, executed without the cost model
    direct = rewriter.execute(rewriter.rewrite(query).best)
    assert result.same_contents(direct)
    assert len(result) == 3  # three items in the fixture


def test_planner_answer_runs_the_cheapest_plan(fixture):
    _, planner = fixture
    query = parse_pattern("site(//item[ID,V])")
    best = planner.best_plan(query)
    # the single-scan plan must win against joins / unions on this fixture,
    # and answer() must produce exactly its result
    assert best.logical_plan.to_algebra().view_scan_count() == 1
    assert planner.answer(query).same_contents(planner.execute(best))


def test_plan_choice_reports_costs_for_every_alternative(fixture):
    _, planner = fixture
    choice = planner.plan(parse_pattern("site(//item[ID,V])"))
    assert all(planned.cost > 0 for planned in choice.alternatives)
    assert all(
        planned.estimated_rows >= 0 for planned in choice.alternatives
    )
    ranks = [planned.rank for planned in choice.alternatives]
    assert ranks == list(range(len(choice.alternatives)))
