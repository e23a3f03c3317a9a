"""Unit tests for value-predicate formulas (Section 4.2)."""

import pytest

from repro import ValueFormula
from repro.errors import PredicateError
from support.formulas import between, equivalent


class TestConstructionAndEvaluation:
    def test_true_and_false(self):
        assert ValueFormula.true().evaluate(42)
        assert ValueFormula.true().evaluate("anything")
        assert not ValueFormula.false().evaluate(42)
        assert ValueFormula.true().is_true()
        assert not ValueFormula.false().is_satisfiable()

    def test_equality_atom(self):
        formula = ValueFormula.eq(3)
        assert formula.evaluate(3)
        assert not formula.evaluate(4)

    def test_string_equality(self):
        formula = ValueFormula.eq("pen")
        assert formula.evaluate("pen")
        assert not formula.evaluate("ink")

    def test_comparisons(self):
        assert ValueFormula.lt(5).evaluate(4)
        assert not ValueFormula.lt(5).evaluate(5)
        assert ValueFormula.le(5).evaluate(5)
        assert ValueFormula.gt(5).evaluate(6)
        assert not ValueFormula.gt(5).evaluate(5)
        assert ValueFormula.ge(5).evaluate(5)

    def test_not_equal(self):
        formula = ValueFormula.ne(3)
        assert formula.evaluate(2) and formula.evaluate(4)
        assert not formula.evaluate(3)

    def test_between(self):
        formula = between(2, 5)
        assert formula.evaluate(2) and formula.evaluate(5)
        assert not between(2, 5, closed=False).evaluate(2)

    def test_none_satisfies_only_true(self):
        assert ValueFormula.true().evaluate(None)
        assert not ValueFormula.eq(3).evaluate(None)


class TestConnectives:
    def test_conjunction(self):
        formula = ValueFormula.gt(2).and_(ValueFormula.lt(5))
        assert formula.evaluate(3)
        assert not formula.evaluate(5)
        assert not formula.evaluate(1)

    def test_contradictory_conjunction_is_unsatisfiable(self):
        assert not ValueFormula.lt(2).and_(ValueFormula.gt(5)).is_satisfiable()
        assert not ValueFormula.eq(1).and_(ValueFormula.eq(2)).is_satisfiable()

    def test_disjunction(self):
        formula = ValueFormula.eq(1).or_(ValueFormula.eq(3))
        assert formula.evaluate(1) and formula.evaluate(3)
        assert not formula.evaluate(2)

    def test_disjunction_merges_overlaps(self):
        formula = ValueFormula.lt(5).or_(ValueFormula.lt(10))
        assert equivalent(formula, ValueFormula.lt(10))

    def test_negation(self):
        formula = ValueFormula.eq(3).negate()
        assert formula.evaluate(2) and formula.evaluate(4)
        assert not formula.evaluate(3)

    def test_double_negation(self):
        formula = ValueFormula.gt(2).and_(ValueFormula.lt(5))
        assert equivalent(formula.negate().negate(), formula)

    def test_negation_of_true_is_false(self):
        assert not ValueFormula.true().negate().is_satisfiable()
        assert ValueFormula.false().negate().is_true()


class TestImplication:
    def test_equality_implies_range(self):
        assert ValueFormula.eq(3).implies(ValueFormula.gt(1))
        assert not ValueFormula.gt(1).implies(ValueFormula.eq(3))

    def test_tighter_range_implies_looser(self):
        tight = ValueFormula.gt(2).and_(ValueFormula.lt(4))
        loose = ValueFormula.gt(0).and_(ValueFormula.lt(10))
        assert tight.implies(loose)
        assert not loose.implies(tight)

    def test_everything_implies_true(self):
        assert ValueFormula.eq("x").implies(ValueFormula.true())
        assert ValueFormula.false().implies(ValueFormula.eq(1))

    def test_equivalence(self):
        left = ValueFormula.ge(2).and_(ValueFormula.le(2))
        assert equivalent(left, ValueFormula.eq(2))

    def test_paper_section42_example(self):
        # phi_t'phi2 = (v=3)  implies  phi_tphi3 = (v>1)
        assert ValueFormula.eq(3).implies(ValueFormula.gt(1))
        # (v=3) implies (v=3 and v<5) or (v<5 and v>2)
        left = ValueFormula.eq(3)
        right = (ValueFormula.eq(3).and_(ValueFormula.lt(5))).or_(
            ValueFormula.lt(5).and_(ValueFormula.gt(2))
        )
        assert left.implies(right)


class TestParsingAndRendering:
    def test_parse_simple(self):
        formula = ValueFormula.parse("v > 2 and v < 5")
        assert formula.evaluate(3) and not formula.evaluate(6)

    def test_parse_or(self):
        formula = ValueFormula.parse("v = 1 or v = 4")
        assert formula.evaluate(4) and not formula.evaluate(2)

    def test_parse_string_constant(self):
        formula = ValueFormula.parse("v = 'pen'")
        assert formula.evaluate("pen")

    def test_parse_parentheses(self):
        formula = ValueFormula.parse("(v < 2 or v > 8) and v != 9")
        assert formula.evaluate(1) and formula.evaluate(10)
        assert not formula.evaluate(9) and not formula.evaluate(5)

    def test_parse_true_false(self):
        assert ValueFormula.parse("true").is_true()
        assert not ValueFormula.parse("false").is_satisfiable()

    def test_parse_errors(self):
        with pytest.raises(PredicateError):
            ValueFormula.parse("v >")
        with pytest.raises(PredicateError):
            ValueFormula.parse("x = 3")

    def test_to_text_round_trip(self):
        for text in ["v>2 and v<5", "v=3", "v='pen'", "v>=1 or v<=-4", "true"]:
            formula = ValueFormula.parse(text)
            assert equivalent(ValueFormula.parse(formula.to_text()), formula)

    def test_repr_and_hash(self):
        formula = ValueFormula.eq(3)
        assert "v=3" in repr(formula)
        assert hash(ValueFormula.eq(3)) == hash(ValueFormula.eq(3))

    def test_mixed_type_ordering_is_total(self):
        # numbers sort below strings, so this mixed formula is satisfiable and
        # behaves consistently
        formula = ValueFormula.gt(5).and_(ValueFormula.lt("m"))
        assert formula.evaluate(7)
        assert formula.evaluate("a")
        assert not formula.evaluate("z")
