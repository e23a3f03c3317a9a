"""Unit tests for structural summaries (Dataguides) and enhanced summaries."""

import pytest

from repro import build_summary, parse_parenthesized, summarize, summary_from_paths
from repro.errors import SummaryError
from repro.summary.index import SummaryIndex
from support.conformance import conforms


class TestBuildSummary:
    def test_one_node_per_distinct_path(self, figure2_document, figure2_summary):
        document_paths = {node.path for node in figure2_document.iter_nodes()}
        summary_paths = {node.path for node in figure2_summary.iter_nodes()}
        assert summary_paths == document_paths

    def test_summary_smaller_than_document(self, auction_document, auction_summary):
        assert auction_summary.size < auction_document.size

    def test_numbers_are_preorder(self, figure2_summary):
        numbers = [node.number for node in figure2_summary.iter_nodes()]
        assert numbers == list(range(1, figure2_summary.size + 1))

    def test_instance_counts(self):
        doc = parse_parenthesized("a(b b b c(b))")
        summary = build_summary(doc)
        assert summary.node_by_path("/a/b").instance_count == 3
        assert summary.node_by_path("/a/c/b").instance_count == 1

    def test_lookup_by_path_and_number(self, figure2_summary):
        node = figure2_summary.node_by_path("/a/d/b/e")
        assert figure2_summary.node_by_number(node.number) is node

    def test_unknown_path_raises(self, figure2_summary):
        with pytest.raises(SummaryError):
            figure2_summary.node_by_path("/a/nope")


class TestEnhancedSummary:
    def test_strong_edge_detected(self):
        # every a has a b child; only some have c children
        doc = parse_parenthesized("r(a(b c) a(b) a(b b))")
        summary = build_summary(doc)
        assert summary.node_by_path("/r/a/b").strong
        assert not summary.node_by_path("/r/a/c").strong

    def test_one_to_one_edge_detected(self):
        doc = parse_parenthesized("r(a(b) a(b) a(b b))")
        summary = build_summary(doc)
        b = summary.node_by_path("/r/a/b")
        assert b.strong
        assert not b.one_to_one  # one parent has two b children

        doc2 = parse_parenthesized("r(a(b) a(b))")
        summary2 = build_summary(doc2)
        assert summary2.node_by_path("/r/a/b").one_to_one

    def test_edge_counts(self):
        doc = parse_parenthesized("r(a(b) a(b c))")
        summary = build_summary(doc)
        assert summary.strong_edge_count == 2  # r/a and r/a/b
        # only r/a/b is one-to-one: the root has two a children, and c is
        # missing under the first a
        assert summary.one_to_one_edge_count == 1

    def test_conformance_positive(self, figure2_document, figure2_summary):
        assert conforms(figure2_summary, figure2_document)

    def test_conformance_rejects_unknown_path(self, figure2_summary):
        other = parse_parenthesized("a(zzz)")
        assert not conforms(figure2_summary, other)

    def test_conformance_checks_strong_constraints(self):
        doc = parse_parenthesized("r(a(b) a(b))")
        summary = build_summary(doc)
        violating = parse_parenthesized("r(a(b) a)")  # second a lacks the strong b child
        assert not conforms(summary, violating)
        assert conforms(summary, violating, check_constraints=False)


class TestSummaryFromPaths:
    def test_basic_construction(self):
        summary = summary_from_paths(["/a", "/a/b", ("/a/b/c", True), ("/a/d", True, True)])
        assert summary.size == 4
        assert summary.node_by_path("/a/b/c").strong
        assert summary.node_by_path("/a/d").one_to_one

    def test_intermediate_paths_created(self):
        summary = summary_from_paths(["/a/b/c/d"])
        assert summary.node_by_path("/a/b").label == "b"
        assert summary.size == 4

    def test_wrong_root_rejected(self):
        with pytest.raises(SummaryError):
            summary_from_paths(["/a", "/b/c"])

    def test_empty_rejected(self):
        with pytest.raises(SummaryError):
            summary_from_paths([])


class TestStatistics:
    def test_summarize_matches_summary(self, auction_document, auction_summary):
        stats = summarize(auction_document, auction_summary)
        assert stats.summary_size == auction_summary.size
        assert stats.document_size == auction_document.size
        assert stats.strong_edges == auction_summary.strong_edge_count
        assert stats.one_to_one_edges == auction_summary.one_to_one_edge_count
        assert stats.max_depth == auction_summary.max_depth


class TestSummaryIndex:
    def test_parent_and_ancestor(self, figure2_summary):
        index = SummaryIndex(figure2_summary)
        a = figure2_summary.node_by_path("/a").number
        d = figure2_summary.node_by_path("/a/d").number
        e = figure2_summary.node_by_path("/a/d/b/e").number
        assert index.any_parent({a}, {d})
        assert index.is_ancestor(a, e)
        assert not index.any_parent({a}, {e})
        assert not index.is_ancestor(e, a)
        assert index.children(a) == {n.number for n in figure2_summary.root.children}
        assert index.children(e) == frozenset()
        # one stored set per label, handed out as-is
        assert index.numbers_with_label("b") is index.numbers_with_label("b")
        assert figure2_summary.index is figure2_summary.index

    def test_set_helpers(self, figure2_summary):
        index = SummaryIndex(figure2_summary)
        a = figure2_summary.node_by_path("/a").number
        ab = figure2_summary.node_by_path("/a/b").number
        acd = figure2_summary.node_by_path("/a/c/d").number
        assert index.any_equal({a, ab}, {ab})
        assert index.any_parent({a}, {ab})
        assert index.any_ancestor({a}, {acd})
        assert not index.any_ancestor({acd}, {ab})

    def test_constant_depth_difference(self, figure2_summary):
        index = SummaryIndex(figure2_summary)
        a = figure2_summary.node_by_path("/a").number
        ab = figure2_summary.node_by_path("/a/b").number
        acb = figure2_summary.node_by_path("/a/c/b").number
        assert index.constant_depth_difference({a}, {ab}) == 1
        # two b paths at different depths below /a -> no constant difference
        assert index.constant_depth_difference({a}, {ab, acb}) is None

    def test_chain_labels(self, figure2_summary):
        index = SummaryIndex(figure2_summary)
        a = figure2_summary.node_by_path("/a").number
        e = figure2_summary.node_by_path("/a/d/b/e").number
        assert index.chain_labels(a, e) == ["d", "b", "e"]
