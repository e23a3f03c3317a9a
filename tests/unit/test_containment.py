"""Unit tests for containment under summary constraints (Sections 3 and 4)."""

from repro import (
    are_equivalent,
    build_summary,
    is_contained,
    is_contained_in_union,
    parse_parenthesized,
    parse_pattern,
    summary_from_paths,
)
from repro.containment import nesting
from repro.containment.core import containment_decision
from repro.containment.nesting import nesting_sequences_compatible


class TestConjunctiveContainment:
    def test_descendant_chain_containment(self, figure2_summary):
        narrower = parse_pattern("a(//b(//d[R]))")
        wider = parse_pattern("a(//d[R])")
        assert is_contained(narrower, wider, figure2_summary)
        assert not is_contained(wider, narrower, figure2_summary)

    def test_summary_implied_equivalence(self):
        # the paper's example: S = r(a(b)), q = /r//a//b, p = /r//b, p ≡S q
        summary = summary_from_paths(["/r", "/r/a", "/r/a/b"])
        query = parse_pattern("r(//a(//b[R]))")
        view = parse_pattern("r(//b[R])")
        assert are_equivalent(query, view, summary, check_attributes=False)

    def test_containment_is_summary_dependent(self):
        # without the summary constraint, /r//b is NOT contained in /r//a//b
        loose_summary = summary_from_paths(["/r", "/r/b", "/r/a", "/r/a/b"])
        query = parse_pattern("r(//a(//b[R]))")
        view = parse_pattern("r(//b[R])")
        assert is_contained(query, view, loose_summary, check_attributes=False)
        assert not is_contained(view, query, loose_summary, check_attributes=False)

    def test_child_edge_contained_in_descendant_edge(self, figure2_summary):
        child = parse_pattern("a(/c(/d[R]))")
        descendant = parse_pattern("a(//d[R])")
        assert is_contained(child, descendant, figure2_summary)

    def test_self_containment(self, figure2_summary):
        pattern = parse_pattern("a(//*[R](/b, /d))")
        assert is_contained(pattern, pattern, figure2_summary)

    def test_unsatisfiable_pattern_contained_in_anything(self, figure2_summary):
        empty = parse_pattern("a(/e[R])")
        other = parse_pattern("a(/b[R])")
        decision = containment_decision(empty, other, figure2_summary)
        assert decision.contained
        assert decision.canonical_trees_checked == 0

    def test_arity_mismatch_is_rejected(self, figure2_summary):
        one = parse_pattern("a(//b[R])")
        two = parse_pattern("a(//b[R], //d[R])")
        assert not is_contained(one, two, figure2_summary)

    def test_wildcard_generalisation(self, figure2_summary):
        concrete = parse_pattern("a(/c(/b[R]))")
        wildcard = parse_pattern("a(/*(/b[R]))")
        assert is_contained(concrete, wildcard, figure2_summary)
        # the * also matches /a/d/b which has b children, so the reverse fails
        assert not is_contained(wildcard, concrete, figure2_summary)


class TestEnhancedSummaryContainment:
    def test_figure8_style_equivalence_under_strong_edges(self):
        # Figure 8's idea: strong edges make branches of the container
        # pattern implicit in the contained pattern's canonical trees.
        strong_paths = [
            "/a",
            "/a/b",
            "/a/b/c",
            ("/a/b/c/b", True),
            "/a/b/c/d",
            "/a/b/e",
            ("/a/f", True),
        ]
        weak_paths = [p if isinstance(p, str) else p[0] for p in strong_paths]
        strong_summary = summary_from_paths(strong_paths)
        weak_summary = summary_from_paths(weak_paths)

        p1 = parse_pattern("a(//d[R])")
        p2 = parse_pattern("a(//d[R], /f)")  # needs the strong /a/f edge
        p3 = parse_pattern("a(//c(/b, /d[R]))")  # needs the strong c->b edge
        assert is_contained(p1, p2, strong_summary, check_attributes=False)
        assert not is_contained(p1, p2, weak_summary, check_attributes=False)
        assert is_contained(p1, p3, strong_summary, check_attributes=False)
        assert not is_contained(p1, p3, weak_summary, check_attributes=False)
        # and the reverse directions hold unconditionally
        assert is_contained(p2, p1, weak_summary, check_attributes=False)
        assert is_contained(p3, p1, weak_summary, check_attributes=False)


class TestDecoratedContainment:
    def test_predicate_strengthening(self, figure2_summary):
        eq3 = parse_pattern("a(//c[R]{v=3})")
        gt1 = parse_pattern("a(//c[R]{v>1})")
        assert is_contained(eq3, gt1, figure2_summary)
        assert not is_contained(gt1, eq3, figure2_summary)

    def test_incomparable_predicates(self, figure2_summary):
        low = parse_pattern("a(//c[R]{v<3})")
        high = parse_pattern("a(//c[R]{v>5})")
        assert not is_contained(low, high, figure2_summary)
        assert not is_contained(high, low, figure2_summary)

    def test_predicate_on_non_return_node(self, figure2_summary):
        narrower = parse_pattern("a(/c{v=3}(/b[R]))")
        wider = parse_pattern("a(/c(/b[R]))")
        assert is_contained(narrower, wider, figure2_summary)
        assert not is_contained(wider, narrower, figure2_summary)

    def test_union_with_value_coverage(self):
        # Section 4.2 worked example: p{v>0} is covered by {v=3} ∪ {v<5,v>2}-style
        # unions only when the value regions add up.
        doc = parse_parenthesized('a(b(c="3" d="4") d(c="1" e="2"))')
        summary = build_summary(doc)
        target = parse_pattern("a(//c[R]{v>0})")
        covering = [
            parse_pattern("a(//c[R]{v>0 and v<5})"),
            parse_pattern("a(//c[R]{v>2})"),
        ]
        not_covering = [
            parse_pattern("a(//c[R]{v>0 and v<5})"),
            parse_pattern("a(//c[R]{v>6})"),
        ]
        assert is_contained_in_union(target, covering, summary)
        assert is_contained_in_union(target, covering[:1], summary) is False
        assert not is_contained_in_union(target, not_covering[1:], summary)


class TestUnionContainment:
    def test_structural_union(self, figure2_summary):
        # every b is either a child of the root, of c, or deeper under d
        target = parse_pattern("a(//b[R])")
        parts = [
            parse_pattern("a(/b[R])"),
            parse_pattern("a(/c(/b[R]))"),
            parse_pattern("a(/d(//b[R]))"),
        ]
        assert is_contained_in_union(target, parts, figure2_summary)
        assert not is_contained_in_union(target, parts[:2], figure2_summary)

    def test_union_of_one_behaves_like_single(self, figure2_summary):
        narrower = parse_pattern("a(//b(//d[R]))")
        wider = parse_pattern("a(//d[R])")
        assert is_contained_in_union(narrower, [wider], figure2_summary)

    def test_empty_union_only_contains_unsatisfiable(self, figure2_summary):
        assert is_contained_in_union(parse_pattern("a(/e[R])"), [], figure2_summary)
        assert not is_contained_in_union(parse_pattern("a(/b[R])"), [], figure2_summary)


class TestAttributeAndNestedContainment:
    def test_attribute_signatures_must_match(self, figure2_summary):
        with_id = parse_pattern("a(//d[ID])")
        with_value = parse_pattern("a(//d[V])")
        both = parse_pattern("a(//d[ID,V])")
        assert not is_contained(with_id, with_value, figure2_summary)
        assert not is_contained(with_id, both, figure2_summary)
        assert is_contained(with_id, with_id, figure2_summary)
        # ignoring attributes restores plain containment
        assert is_contained(with_id, with_value, figure2_summary, check_attributes=False)

    def test_figure11_attribute_containment(self, figure2_summary):
        p1 = parse_pattern("a(/c[L](/b[ID,V]), //e[V,C])")
        p2 = parse_pattern("a(//*[L](/*[ID,V]), //e[V,C])")
        assert is_contained(p1, p2, figure2_summary)
        assert not is_contained(p2, p1, figure2_summary)

    def test_nesting_depth_must_match(self, figure2_summary):
        flat = parse_pattern("a(/c(/b[V]))")
        nested = parse_pattern("a(/~c(/b[V]))")
        assert not is_contained(flat, nested, figure2_summary)
        assert not is_contained(nested, flat, figure2_summary)
        assert is_contained(nested, nested, figure2_summary)

    def test_nesting_under_different_nodes_fails(self):
        # nesting below r and nesting below x group differently when r can
        # have several x children (Prop. 4.2 condition 2b)
        doc = parse_parenthesized("r(x(y(b)) x(y(b)))")
        summary = build_summary(doc)
        nest_under_x = parse_pattern("r(/x(/~y(/b[V])))")
        nest_under_r = parse_pattern("r(/~x(/y(/b[V])))")
        assert not is_contained(nest_under_x, nest_under_r, summary)
        assert not is_contained(nest_under_r, nest_under_x, summary)

    def test_one_to_one_relaxation_of_nesting(self):
        # with a single x per r (one-to-one edge), nesting under r or under x
        # groups identically, so the relaxed condition 2(b) accepts it
        doc = parse_parenthesized("r(x(y(b b) y(b)))")
        summary = build_summary(doc)
        assert summary.node_by_path("/r/x").one_to_one
        nest_under_x = parse_pattern("r(/x(/~y(/b[V])))")
        nest_under_r = parse_pattern("r(/~x(/y(/b[V])))")
        assert is_contained(nest_under_x, nest_under_r, summary)
        assert is_contained(nest_under_r, nest_under_x, summary)

    def test_a_contained_side_cut_at_the_embedding_cap_is_not_compatible(
        self, monkeypatch
    ):
        # x is one-to-one under a, y is not: nesting b under a and under a's
        # child groups alike below x and differently below the two y's
        summary = build_summary(
            parse_parenthesized('a(x(b(c="1")) y(b(c="2")) y(b(c="3")))')
        )
        anywhere = parse_pattern("a(//~b[ID](/c[V]))")
        under_child = parse_pattern("a(/*(/~b[ID](/c[V])))")
        assert not nesting_sequences_compatible(anywhere, under_child, summary)
        # a cap of one embedding checks only the b below x: the check must
        # refuse the unchecked rest, not call the pair compatible
        monkeypatch.setattr(nesting, "_MAX_EMBEDDINGS", 1)
        assert not nesting_sequences_compatible(anywhere, under_child, summary)
        assert not is_contained(anywhere, under_child, summary)
        # a contained side within the cap is still checked in full
        nested = parse_pattern("a(/x(/~b[ID](/c[V])))")
        assert nesting_sequences_compatible(nested, nested, summary)


class TestOptionalContainment:
    def test_figure10_optional_containment(self):
        doc = parse_parenthesized("a(c(b d(e) d(b(e))) c(d(e)))")
        summary = build_summary(doc)
        p1 = parse_pattern("a(/c[R](/b(/?*), /?d(/e)))")
        p2 = parse_pattern("a(/c[R](/?b, /?d))")
        assert is_contained(p1, p2, summary, check_attributes=False)

    def test_optional_version_not_contained_in_strict(self, figure2_summary):
        optional = parse_pattern("a(/c[R](/?b))")
        strict = parse_pattern("a(/c[R](/b))")
        assert is_contained(strict, optional, figure2_summary)
        # cannot go the other way: the optional pattern also returns c nodes
        # without b children... unless the summary makes b mandatory, which
        # it does not here (c nodes in figure2 all have b children, but the
        # edge is not strong because only instance counting defines it)
        decision = containment_decision(optional, strict, figure2_summary)
        assert isinstance(decision.contained, bool)
