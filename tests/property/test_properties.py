"""Property-based tests (hypothesis) on the core data structures and on the
paper's central invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro import DeweyID, ValueFormula, build_summary, parse_pattern
from repro.canonical import canonical_model, is_satisfiable
from repro.containment import is_contained
from repro.patterns.semantics import evaluate_node_tuples
from repro.workloads.synthetic import SyntheticPatternConfig, generate_random_pattern
from repro.xmltree.generator import generate_uniform_tree
from support.conformance import conforms, has_path
from support.formulas import equivalent

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
dewey_components = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6)
constants = st.one_of(st.integers(min_value=-20, max_value=20), st.sampled_from(["a", "b", "pen", "z"]))


@st.composite
def formulas(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        constant = draw(constants)
        builder = draw(
            st.sampled_from(
                [
                    ValueFormula.eq,
                    ValueFormula.ne,
                    ValueFormula.lt,
                    ValueFormula.le,
                    ValueFormula.gt,
                    ValueFormula.ge,
                ]
            )
        )
        return builder(constant)
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    return left.and_(right) if draw(st.booleans()) else left.or_(right)


def random_document(seed: int, labels=("a", "b", "c", "d")):
    return generate_uniform_tree(labels, max_depth=4, max_fanout=3, seed=seed)


# --------------------------------------------------------------------------- #
# Dewey identifiers
# --------------------------------------------------------------------------- #
class TestDeweyProperties:
    @given(dewey_components)
    @settings(max_examples=60, deadline=None)
    def test_string_round_trip(self, components):
        identifier = DeweyID(components)
        assert DeweyID.from_string(str(identifier)) == identifier

    @given(dewey_components, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_child_then_parent_is_identity(self, components, ordinal):
        identifier = DeweyID(components)
        assert identifier.child(ordinal).parent() == identifier
        assert identifier.is_ancestor_of(identifier.child(ordinal))

    @given(dewey_components, dewey_components)
    @settings(max_examples=60, deadline=None)
    def test_ancestor_relation_is_antisymmetric(self, left_parts, right_parts):
        left, right = DeweyID(left_parts), DeweyID(right_parts)
        assert not (left.is_ancestor_of(right) and right.is_ancestor_of(left))
        if left.is_ancestor_of(right):
            assert left < right  # ancestors precede descendants in document order


# --------------------------------------------------------------------------- #
# value formulas
# --------------------------------------------------------------------------- #
class TestFormulaProperties:
    @given(formulas(), constants)
    @settings(max_examples=80, deadline=None)
    def test_negation_flips_evaluation(self, formula, value):
        assert formula.evaluate(value) != formula.negate().evaluate(value)

    @given(formulas(), formulas(), constants)
    @settings(max_examples=80, deadline=None)
    def test_connectives_match_boolean_semantics(self, left, right, value):
        assert left.and_(right).evaluate(value) == (
            left.evaluate(value) and right.evaluate(value)
        )
        assert left.or_(right).evaluate(value) == (
            left.evaluate(value) or right.evaluate(value)
        )

    @given(formulas(), formulas(), constants)
    @settings(max_examples=80, deadline=None)
    def test_implication_is_sound(self, left, right, value):
        if left.implies(right) and left.evaluate(value):
            assert right.evaluate(value)

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_text(self, formula):
        assert equivalent(ValueFormula.parse(formula.to_text()), formula)


# --------------------------------------------------------------------------- #
# summaries
# --------------------------------------------------------------------------- #
class TestSummaryProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_summary_has_one_node_per_document_path(self, seed):
        document = random_document(seed)
        summary = build_summary(document)
        assert {n.path for n in summary.iter_nodes()} == {
            n.path for n in document.iter_nodes()
        }
        assert conforms(summary, document)
        assert summary.size <= document.size

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_strong_edges_hold_on_the_document(self, seed):
        document = random_document(seed)
        summary = build_summary(document)
        for summary_node in summary.iter_nodes():
            if summary_node.parent is None or not summary_node.strong:
                continue
            for instance in document.nodes_on_path(summary_node.parent.path):
                assert any(
                    child.label == summary_node.label for child in instance.children
                )


# --------------------------------------------------------------------------- #
# canonical model and containment (Propositions 2.1 and 3.1)
# --------------------------------------------------------------------------- #
def _random_satisfiable_pattern(summary, seed, size, optional=0.3):
    config = SyntheticPatternConfig(
        size=size,
        optional_probability=optional,
        predicate_probability=0.15,
        wildcard_probability=0.15,
        return_count=1,
        store_attributes=(),
    )
    pattern = generate_random_pattern(summary, config, rng=random.Random(seed))
    for node in pattern.nodes():
        node.attributes = ()
    pattern.nodes()[-1].is_return = True
    return pattern


class TestCanonicalAndContainmentProperties:
    @given(st.integers(min_value=0, max_value=3_000), st.integers(min_value=2, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_satisfiable_patterns_have_canonical_trees(self, seed, size):
        document = random_document(seed)
        summary = build_summary(document)
        pattern = _random_satisfiable_pattern(summary, seed, size)
        assert is_satisfiable(pattern, summary)
        trees = canonical_model(pattern, summary, max_trees=100)
        assert trees
        # Prop. 2.1: canonical trees conform to the summary
        for tree in trees[:10]:
            for node in tree.nodes():
                assert has_path(summary, node.summary_node.path)

    @given(st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=10, deadline=None)
    def test_pattern_results_on_document_are_sound(self, seed):
        # every tuple produced on a conforming document maps onto summary paths
        # associated with the pattern's return node (Prop. 2.1 / Prop. 3.7)
        document = random_document(seed)
        summary = build_summary(document)
        pattern = _random_satisfiable_pattern(summary, seed, 4, optional=0.0)
        from repro.canonical import annotate_paths

        annotate_paths(pattern, summary)
        return_node = pattern.return_nodes()[0]
        allowed = {
            summary.node_by_number(number).path for number in return_node.annotated_paths
        }
        for (node,) in evaluate_node_tuples(pattern, document.root):
            if node is not None:
                assert node.path in allowed

    @given(
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_containment_decision_is_sound_on_documents(self, seed, size_left, size_right):
        # if p ⊆S q is decided positively, then p(d) ⊆ q(d) on conforming documents
        document = random_document(seed)
        summary = build_summary(document)
        left = _random_satisfiable_pattern(summary, seed + 1, size_left, optional=0.0)
        right = _random_satisfiable_pattern(summary, seed + 2, size_right, optional=0.0)
        if is_contained(left, right, summary, check_attributes=False):
            left_tuples = evaluate_node_tuples(left, document.root)
            right_tuples = evaluate_node_tuples(right, document.root)
            assert left_tuples <= right_tuples

    @given(st.integers(min_value=0, max_value=2_000), st.integers(min_value=2, max_value=5))
    @settings(max_examples=8, deadline=None)
    def test_self_containment_always_holds(self, seed, size):
        document = random_document(seed)
        summary = build_summary(document)
        pattern = _random_satisfiable_pattern(summary, seed, size)
        assert is_contained(pattern, pattern, summary)


# --------------------------------------------------------------------------- #
# pattern DSL round trip
# --------------------------------------------------------------------------- #
class TestPatternRoundTripProperties:
    @given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_dsl_round_trip_of_random_patterns(self, seed, size):
        document = random_document(seed)
        summary = build_summary(document)
        config = SyntheticPatternConfig(size=size, return_count=2)
        pattern = generate_random_pattern(summary, config, rng=random.Random(seed))
        assert parse_pattern(pattern.to_text()) == pattern
