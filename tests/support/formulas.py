"""Value-formula helpers only the tests use.

The library builds ranges from its one-sided constructors and compares
formulas by implication; these spell the two compositions the tests reach
for.
"""

from __future__ import annotations

from repro.patterns.predicates import ValueFormula

__all__ = ["between", "equivalent"]


def between(low, high, closed: bool = True) -> ValueFormula:
    """``low <= v <= high`` (``low < v < high`` unless ``closed``)."""
    if closed:
        return ValueFormula.ge(low).and_(ValueFormula.le(high))
    return ValueFormula.gt(low).and_(ValueFormula.lt(high))


def equivalent(left: ValueFormula, right: ValueFormula) -> bool:
    """Logical equivalence: each formula implies the other."""
    return left.implies(right) and right.implies(left)
