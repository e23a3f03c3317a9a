"""ViewCatalog pruning correctness and SummaryIndex label-map lookups."""

from __future__ import annotations

from repro import MaterializedView, annotate_paths
from repro.canonical.model import annotate_paths as annotate
from repro.rewriting.algorithm import RewritingConfig, RewritingSearch
from repro.rewriting.candidates import initial_candidate
from repro.summary.index import SummaryIndex
from repro.views.catalog import ViewCatalog
from repro.workloads.synthetic import generate_random_views, seed_tag_views
from support.naive_pruning import view_is_useful


def _views_for(summary):
    patterns = list(seed_tag_views(summary)) + generate_random_views(
        summary, count=12, seed=4
    )
    return [
        MaterializedView(pattern, name=f"cv{index}")
        for index, pattern in enumerate(patterns)
    ]


def _queries_for(summary, make_pattern):
    root = summary.root.label
    queries = [
        make_pattern(f"{root}(//item[ID])", name="q-item"),
        make_pattern(f"{root}(//name[ID,V])", name="q-name"),
        make_pattern(f"{root}(//item[ID](/name[V]))", name="q-join"),
        make_pattern(f"{root}(//mail(//text[ID]))", name="q-deep"),
        make_pattern(f"{root}[ID]", name="q-root-only"),
    ]
    for query in queries:
        annotate_paths(query, summary)
    return queries


def _kept_views(catalog, query):
    """The views the catalog keeps for ``query``, in catalog order."""
    return [catalog.views[position] for position in catalog.candidate_positions(query)]


class TestCatalogPruningMatchesProp34:
    def test_candidates_equal_seed_usefulness_filter(
        self, auction_summary, make_pattern
    ):
        views = _views_for(auction_summary)
        catalog = ViewCatalog(auction_summary, views)
        index = SummaryIndex(auction_summary)
        for query in _queries_for(auction_summary, make_pattern):
            expected = []
            for view in views:
                candidate = initial_candidate(view)
                annotate(candidate.pattern, auction_summary)
                if view_is_useful(candidate.pattern, query, index):
                    expected.append(view.name)
            got = [view.name for view in _kept_views(catalog, query)]
            assert got == expected, query.name

    def test_single_node_query_keeps_every_view(self, auction_summary, make_pattern):
        views = _views_for(auction_summary)
        catalog = ViewCatalog(auction_summary, views)
        query = make_pattern("site[ID]", name="q-root")
        annotate_paths(query, auction_summary)
        assert len(_kept_views(catalog, query)) == len(views)

    def test_pruned_views_never_admit_a_rewriting(
        self, auction_summary, make_pattern, monkeypatch
    ):
        """Soundness: a view the catalog prunes must be useless on its own.

        Each pruned view is searched alone through a catalog whose Prop. 3.4
        filter is disabled, so it really reaches the alignment / join
        machinery — the assertion is that even then it produces no
        rewriting."""
        views = _views_for(auction_summary)
        catalog = ViewCatalog(auction_summary, views)
        config = RewritingConfig(time_budget_seconds=5.0, max_plan_size=3)
        pruned_by_query = []
        for query in _queries_for(auction_summary, make_pattern):
            kept = {view.name for view in _kept_views(catalog, query)}
            pruned_by_query.append(
                (query, [view for view in views if view.name not in kept])
            )
        monkeypatch.setattr(
            ViewCatalog,
            "candidate_positions",
            lambda self, query: list(range(len(self.views))),
        )
        for query, pruned in pruned_by_query:
            for view in pruned:
                search = RewritingSearch(
                    query, ViewCatalog(auction_summary, [view]), config
                )
                assert search.run() == [], (
                    f"pruned view {view.name!r} rewrote query {query.name!r}"
                )

    def test_instantiated_candidates_are_independent(self, auction_summary, make_pattern):
        views = _views_for(auction_summary)[:3]
        catalog = ViewCatalog(auction_summary, views)
        query = make_pattern("site(//item[ID])", name="q")
        annotate_paths(query, auction_summary)
        first = dict(catalog.initial_candidates(query))
        second = dict(catalog.initial_candidates(query))
        for view, candidate in first.items():
            other = second[view]
            assert candidate.pattern is not other.pattern
            # clones carry the prototype's annotations without re-annotation
            for node, twin in zip(candidate.pattern.nodes(), other.pattern.nodes()):
                assert node.annotated_paths == twin.annotated_paths
            # mutating one clone must not leak into the next
            candidate.pattern.root.add_child("mutation")
            assert len(other.pattern.nodes()) != len(candidate.pattern.nodes())


class TestSummaryIndexLabelMaps:
    def test_label_map_matches_summary_scan(self, auction_summary, auction_index):
        for label in {node.label for node in auction_summary.iter_nodes()}:
            expected = {
                node.number for node in auction_summary.iter_nodes() if node.label == label
            }
            assert auction_index.numbers_with_label(label) == expected

    def test_wildcard_and_missing_labels(self, auction_summary, auction_index):
        assert auction_index.numbers_with_label("*") == frozenset(
            node.number for node in auction_summary.iter_nodes()
        )
        assert auction_index.numbers_with_label("nosuch") == frozenset()

    def test_ancestor_descendant_sets_are_consistent(self, auction_index):
        for number in auction_index.numbers_with_label("*"):
            for ancestor in auction_index.ancestors(number):
                assert number in auction_index.descendants(ancestor)
                assert auction_index.is_ancestor(ancestor, number)
