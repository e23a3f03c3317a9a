"""Unit tests for summary-based canonical models (Section 2.4, 4.1-4.3)."""

from repro import parse_pattern, summary_from_paths
from repro.canonical import annotate_paths, canonical_model, is_satisfiable
from support.annotation_oracle import associated_paths


class TestAssociatedPaths:
    def test_figure3_annotation(self, figure2_summary):
        # Figure 3 annotates the * of p = a(//*(/b,/d)) with paths {3, 5} (the
        # two summary nodes that have both a b and a d child)
        pattern = parse_pattern("a(//*[R](/b, /d))")
        annotate_paths(pattern, figure2_summary)
        star = pattern.nodes()[1]
        labels = {figure2_summary.node_by_number(n).path for n in star.annotated_paths}
        assert labels == {"/a/c", "/a/d/b"}

    def test_root_maps_to_summary_root(self, figure2_summary):
        pattern = parse_pattern("a(//b[R])")
        paths = associated_paths(pattern, figure2_summary)
        assert {s.number for s in paths[id(pattern.root)]} == {1}

    def test_unmatchable_node_has_empty_paths(self, figure2_summary):
        pattern = parse_pattern("a(//nothere[R])")
        annotate_paths(pattern, figure2_summary)
        assert pattern.nodes()[1].annotated_paths == frozenset()

    def test_optional_branch_does_not_block_parent(self, figure2_summary):
        pattern = parse_pattern("a(/?nothere, //b[R])")
        annotate_paths(pattern, figure2_summary)
        assert pattern.root.annotated_paths
        assert pattern.nodes()[2].annotated_paths


class TestCanonicalModel:
    def test_figure3_model_size(self, figure2_summary):
        pattern = parse_pattern("a(//*[R](/b, /d))")
        trees = canonical_model(pattern, figure2_summary)
        assert len(trees) == 2
        return_labels = {
            figure2_summary.node_by_number(t.return_paths()[0]).path for t in trees
        }
        assert return_labels == {"/a/c", "/a/d/b"}

    def test_duplicate_embeddings_are_merged(self, figure2_summary):
        # p' = /a//*//e : both choices of * yield the same canonical tree
        pattern = parse_pattern("a(//*(//e[R]))")
        trees = canonical_model(pattern, figure2_summary)
        assert len(trees) == 1

    def test_chains_fill_in_intermediate_nodes(self, figure2_summary):
        pattern = parse_pattern("a(//e[R])")
        # strong closure disabled so only the connecting chain is built
        trees = canonical_model(pattern, figure2_summary, use_strong_closure=False)
        assert len(trees) == 1
        labels = [n.label for n in trees[0].nodes()]
        # /a/d/b/e requires the d and b chain nodes to be present
        assert labels == ["a", "d", "b", "e"]

    def test_strong_closure_adds_mandatory_children(self):
        # Figure 8: under strong edges, the canonical tree of a(//d) also
        # contains the strong children of the nodes it traverses
        summary = summary_from_paths(
            [
                "/a",
                ("/a/b", True),
                ("/a/b/c", True),
                ("/a/b/c/b", True),
                "/a/b/c/d",
                "/a/b/e",
                ("/a/f", True),
            ]
        )
        pattern = parse_pattern("a(//d[R])")
        trees = canonical_model(pattern, summary)
        assert len(trees) == 1
        labels = sorted(n.summary_node.path for n in trees[0].nodes())
        assert "/a/f" in labels  # strong closure at the root
        assert "/a/b/c/b" in labels  # strong closure below c
        without = canonical_model(pattern, summary, use_strong_closure=False)
        assert "/a/f" not in {n.summary_node.path for n in without[0].nodes()}

    def test_decorated_trees_carry_formulas(self, figure2_summary):
        pattern = parse_pattern("a(//c[R]{v>4})")
        trees = canonical_model(pattern, figure2_summary)
        decorated = [n for t in trees for n in t.nodes() if not n.formula.is_true()]
        assert decorated
        assert all(n.label == "c" for n in decorated)

    def test_optional_edges_expand_the_model(self):
        # a plain summary without strong edges, so the erased variant is not
        # re-filled by strong closure and stays distinct
        summary = summary_from_paths(["/a", "/a/c", "/a/c/b"])
        strict = parse_pattern("a(/c[R](/b))")
        optional = parse_pattern("a(/c[R](/?b))")
        assert len(canonical_model(strict, summary)) == 1
        assert len(canonical_model(optional, summary)) == 2
        # erased variants mark the missing return node as None
        optional_returning = parse_pattern("a(/c[R](/?b[R]))")
        trees = canonical_model(optional_returning, summary)
        assert any(None in t.return_paths() for t in trees)

    def test_max_trees_cap(self, figure2_summary):
        pattern = parse_pattern("a(//*[R], //*[R])")
        trees = canonical_model(pattern, figure2_summary, max_trees=3)
        assert len(trees) == 3

    def test_model_of_unsatisfiable_pattern_is_empty(self, figure2_summary):
        assert canonical_model(parse_pattern("a(/e[R])"), figure2_summary) == []


class TestSatisfiability:
    def test_satisfiable_patterns(self, figure2_summary):
        assert is_satisfiable(parse_pattern("a(//e[R])"), figure2_summary)
        assert is_satisfiable(parse_pattern("a(//b(/e[R]))"), figure2_summary)

    def test_unsatisfiable_patterns(self, figure2_summary):
        assert not is_satisfiable(parse_pattern("a(/e[R])"), figure2_summary)
        assert not is_satisfiable(parse_pattern("a(//zzz[R])"), figure2_summary)

    def test_optional_branch_does_not_affect_satisfiability(self, figure2_summary):
        assert is_satisfiable(parse_pattern("a(//?zzz[R], /b)"), figure2_summary)

    def test_wrong_root_label_is_unsatisfiable(self, figure2_summary):
        assert not is_satisfiable(parse_pattern("z(//b[R])"), figure2_summary)
