"""Integration tests: rewriting plans executed over views must reproduce the
direct evaluation of the query over the document."""

import pytest

from repro import (
    MaterializedView,
    Rewriter,
    build_summary,
    evaluate_pattern,
    parse_parenthesized,
    parse_pattern,
    xquery_to_pattern,
)
from repro.algebra.execution import PlanExecutor
from repro.planning.planner import Planner
from repro.rewriting import RewritingConfig
from support.relations import cheapest_answer


@pytest.fixture(scope="module")
def auction_db():
    document = parse_parenthesized(
        'site(regions(asia('
        'item(name="pen" description(parlist(listitem(keyword="columbus") listitem(keyword="gold" bold="plated")))'
        '     mailbox(mail(from="bob" date="4/6/2006")))'
        'item(name="ink" description(parlist(listitem(text="plain"))))'
        'item(name="vase" mailbox(mail(from="jim" date="3/4/2006")))'
        ')))'
    )
    summary = build_summary(document)
    return document, summary


def check_rewriting(document, summary, views, query, expect_views=None):
    """Rewrite, execute and compare against direct evaluation."""
    rewriter = Rewriter(summary, views)
    outcome = rewriter.rewrite(query)
    assert outcome.found, f"no rewriting found for {query.name}"
    result = PlanExecutor(rewriter.views).execute(outcome.best.plan)
    direct = evaluate_pattern(query, document)
    assert result.same_contents(direct), (
        f"plan result differs from direct evaluation for {query.name}\n"
        f"plan:\n{outcome.best.describe()}\n"
        f"got: {sorted(map(str, result.to_set()))}\n"
        f"expected: {sorted(map(str, direct.to_set()))}"
    )
    if expect_views is not None:
        assert set(outcome.best.views_used) <= set(expect_views)
    return outcome


class TestSingleViewRewritings:
    def test_identity_rewriting(self, auction_db):
        document, summary = auction_db
        view = MaterializedView(
            parse_pattern("site(//item[ID](/name[V]))", name="v_items"), document, name="v_items"
        )
        query = parse_pattern("site(//item[ID](/name[V]))", name="q_identity")
        check_rewriting(document, summary, [view], query)

    def test_projection_of_wider_view(self, auction_db):
        document, summary = auction_db
        view = MaterializedView(
            parse_pattern("site(//item[ID,L,V](/name[ID,V]))", name="v_wide"),
            document,
            name="v_wide",
        )
        query = parse_pattern("site(//item[ID](/name[V]))", name="q_projection")
        check_rewriting(document, summary, [view], query)

    def test_wildcard_view_with_summary_reasoning(self, auction_db):
        # the view stores regions//* children with description, but the summary
        # guarantees those are exactly the item nodes (Section 1 motivation)
        document, summary = auction_db
        view = MaterializedView(
            parse_pattern("site(/regions(//*[ID](/name[V], /description)))", name="v_star"),
            document,
            name="v_star",
        )
        query = parse_pattern(
            "site(/regions(//item[ID](/name[V], /description)))", name="q_star"
        )
        check_rewriting(document, summary, [view], query)

    def test_value_selection_adaptation(self, auction_db):
        document, summary = auction_db
        view = MaterializedView(
            parse_pattern("site(//mail(/date[ID,V]))", name="v_dates"), document, name="v_dates"
        )
        query = parse_pattern(
            'site(//mail(/date[ID,V]{v="4/6/2006"}))', name="q_selection"
        )
        check_rewriting(document, summary, [view], query)

    def test_optional_edge_view(self, auction_db):
        document, summary = auction_db
        view = MaterializedView(
            parse_pattern("site(//item[ID](/?name[V], /?mailbox(/mail(/from[V]))))", name="v_opt"),
            document,
            name="v_opt",
        )
        query = parse_pattern(
            "site(//item[ID](/?name[V], /?mailbox(/mail(/from[V]))))", name="q_opt"
        )
        check_rewriting(document, summary, [view], query)


class TestJoinRewritings:
    def test_structural_join_of_seed_views(self, auction_db):
        document, summary = auction_db
        views = [
            MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), document, name="v_item"),
            MaterializedView(parse_pattern("site(//keyword[ID,V])", name="v_kw"), document, name="v_kw"),
        ]
        query = parse_pattern("site(//item[ID](//keyword[V]))", name="q_join")
        outcome = check_rewriting(document, summary, views, query)
        assert any(len(r.views_used) >= 2 for r in outcome.rewritings)

    def test_id_equality_join_combines_views(self, auction_db):
        document, summary = auction_db
        views = [
            MaterializedView(
                parse_pattern("site(//item[ID](/name[V]))", name="v_names"), document, name="v_names"
            ),
            MaterializedView(
                parse_pattern("site(//item[ID](/mailbox(/mail(/from[V]))))", name="v_mails"),
                document,
                name="v_mails",
            ),
        ]
        query = parse_pattern(
            "site(//item[ID](/name[V], /mailbox(/mail(/from[V]))))", name="q_eqjoin"
        )
        check_rewriting(document, summary, views, query)

    def test_three_way_join(self, auction_db):
        document, summary = auction_db
        views = [
            MaterializedView(parse_pattern("site(//item[ID])", name="v1"), document, name="v1"),
            MaterializedView(parse_pattern("site(//name[ID,V])", name="v2"), document, name="v2"),
            MaterializedView(parse_pattern("site(//keyword[ID,V])", name="v3"), document, name="v3"),
        ]
        query = parse_pattern(
            "site(//item[ID](/name[V], //keyword[V]))", name="q_threeway"
        )
        check_rewriting(document, summary, views, query)


class TestAdvancedRewritings:
    def test_content_navigation_rewriting(self, auction_db):
        # the view stores listitem content only; keyword values are extracted
        # by navigating inside the stored content (Section 4.6 unfolding)
        document, summary = auction_db
        views = [
            MaterializedView(
                parse_pattern("site(//listitem[ID,C])", name="v_content"), document, name="v_content"
            ),
        ]
        query = parse_pattern("site(//listitem[ID](/?keyword[V]))", name="q_unfold")
        check_rewriting(document, summary, views, query)

    def test_group_by_rebuilds_nesting(self):
        # the query nests keywords per item; the flat structural join of two
        # views is regrouped on the item ID (Section 4.6 nesting adaptation).
        # Every item has a keyword here, so the keyword chain is strong and
        # the required structural join loses no item.
        document = parse_parenthesized(
            'site(regions(item(name="pen" description(listitem(keyword="gold") listitem(keyword="blue")))'
            ' item(name="ink" description(listitem(keyword="red")))))'
        )
        summary = build_summary(document)
        views = [
            MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), document, name="v_item"),
            MaterializedView(parse_pattern("site(//keyword[ID,V])", name="v_kw"), document, name="v_kw"),
        ]
        query = parse_pattern("site(//item[ID](//~keyword[V]))", name="q_nested")
        rewriter = Rewriter(summary, views)
        outcome = rewriter.rewrite(query)
        assert outcome.found
        result = PlanExecutor(rewriter.views).execute(outcome.best.plan)
        direct = evaluate_pattern(query, document)
        assert result.same_contents(direct)

    def test_matched_nesting_passthrough(self, auction_db):
        document, summary = auction_db
        views = [
            MaterializedView(
                parse_pattern("site(//item[ID](//?~keyword[ID,V]))", name="v_nested"),
                document,
                name="v_nested",
            ),
        ]
        query = parse_pattern("site(//item[ID](//?~keyword[V]))", name="q_passthrough")
        check_rewriting(document, summary, views, query)

    def test_no_rewriting_when_attribute_missing(self, auction_db):
        document, summary = auction_db
        views = [
            MaterializedView(parse_pattern("site(//item[ID])", name="v_ids"), document, name="v_ids"),
        ]
        query = parse_pattern("site(//item[ID](/name[V]))", name="q_missing")
        rewriter = Rewriter(summary, views)
        outcome = rewriter.rewrite(query)
        assert not outcome.found

    def test_xquery_translation_is_rewritable(self, auction_db):
        document, summary = auction_db
        query = xquery_to_pattern(
            'for $x in doc("d")//item return <r> { $x/name/text() } </r>',
            name="q_xquery",
        )
        view = MaterializedView(
            parse_pattern("site(//item[ID](/?name[V]))", name="v_xq"), document, name="v_xq"
        )
        check_rewriting(document, summary, [view], query)

    def test_planner_answer_helper(self, auction_db):
        document, summary = auction_db
        view = MaterializedView(
            parse_pattern("site(//item[ID](/name[V]))", name="v"), document, name="v"
        )
        rewriter = Rewriter(summary, [view])
        answer = cheapest_answer(
            Planner(rewriter), parse_pattern("site(//item[ID](/name[V]))", name="q")
        )
        assert len(answer) == 3  # every item has a name

    def test_statistics_are_populated(self, auction_db):
        document, summary = auction_db
        view = MaterializedView(
            parse_pattern("site(//item[ID](/name[V]))", name="v"), document, name="v"
        )
        rewriter = Rewriter(
            summary, [view], RewritingConfig(max_rewritings=1, time_budget_seconds=10.0)
        )
        outcome = rewriter.rewrite(parse_pattern("site(//item[ID](/name[V]))", name="q"))
        stats = outcome.statistics
        assert stats.views_before_pruning == 1
        assert stats.first_rewriting_seconds is not None
        assert stats.total_seconds >= stats.setup_seconds
