"""Value-predicate formulas attached to pattern nodes (Section 4.2).

A formula ``phi(v)`` over a node's value is either true, false, or a
combination of atoms ``v = c``, ``v < c``, ``v > c`` (we also accept ``<=``,
``>=`` and ``!=`` which are definable from the paper's atoms) using ``and``
and ``or``.

Following the paper, every formula is kept in a *compact normal form*: a
union of disjoint intervals over a totally ordered domain.  On this
representation conjunction, disjunction, negation, satisfiability and
implication are all closed-form — implication is what drives decorated
containment.

The domain mixes numbers and strings.  Numbers compare among themselves,
strings compare lexicographically, and every number is considered smaller
than every string so the order is total.  The domain is treated as *dense*;
over integer data this makes implication sound but slightly conservative at
open boundaries (``v > 2 and v < 4`` is not reported to imply ``v = 3``),
which only ever causes a containment test to answer "no" where "yes" was
possible — never the reverse.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from repro.errors import PredicateError

__all__ = ["ValueFormula", "value_order_key"]

_NUMBER_KIND = 0
_STRING_KIND = 1


def _key(value) -> tuple[int, object]:
    """Total-order key: numbers first (by value), then strings."""
    if isinstance(value, bool):
        return (_NUMBER_KIND, int(value))
    if isinstance(value, (int, float)):
        return (_NUMBER_KIND, value)
    return (_STRING_KIND, str(value))


#: The public name of the formula domain's total order.  Value indexes sort
#: column entries by this exact key so bisection probes agree with
#: :meth:`ValueFormula.evaluate` on every mixed-type column.
value_order_key = _key


class _Bound:
    """One endpoint of an interval: a value plus open/closed, or infinite."""

    __slots__ = ("value", "closed", "infinite", "sign")

    def __init__(self, value=None, closed=False, infinite=False, sign=0):
        self.value = value
        self.closed = closed
        self.infinite = infinite
        self.sign = sign  # -1 = -infinity, +1 = +infinity

    @classmethod
    def neg_inf(cls) -> "_Bound":
        return cls(infinite=True, sign=-1)

    @classmethod
    def pos_inf(cls) -> "_Bound":
        return cls(infinite=True, sign=+1)

    def key(self):
        if self.infinite:
            return None
        return _key(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if self.infinite:
            return "-inf" if self.sign < 0 else "+inf"
        return f"{self.value!r}{'c' if self.closed else 'o'}"


class _Interval:
    """A non-empty interval (low, high) with open/closed endpoints."""

    __slots__ = ("low", "high")

    def __init__(self, low: _Bound, high: _Bound):
        self.low = low
        self.high = high

    # -- ordering helpers ------------------------------------------------ #
    def contains(self, value) -> bool:
        k = _key(value)
        if not self.low.infinite:
            lk = self.low.key()
            if k < lk or (k == lk and not self.low.closed):
                return False
        if not self.high.infinite:
            hk = self.high.key()
            if k > hk or (k == hk and not self.high.closed):
                return False
        return True

    def is_empty(self) -> bool:
        if self.low.infinite or self.high.infinite:
            return False
        lk, hk = self.low.key(), self.high.key()
        if lk > hk:
            return True
        if lk == hk:
            return not (self.low.closed and self.high.closed)
        return False

    def intersect(self, other: "_Interval") -> Optional["_Interval"]:
        low = _max_low(self.low, other.low)
        high = _min_high(self.high, other.high)
        candidate = _Interval(low, high)
        if candidate.is_empty():
            return None
        return candidate

    def key_tuple(self):
        """Canonical representation used for equality / hashing."""
        low = ("-inf",) if self.low.infinite else (self.low.key(), self.low.closed)
        high = ("+inf",) if self.high.infinite else (self.high.key(), self.high.closed)
        return (low, high)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        lo = "(-inf" if self.low.infinite else ("[" if self.low.closed else "(") + repr(self.low.value)
        hi = "+inf)" if self.high.infinite else repr(self.high.value) + ("]" if self.high.closed else ")")
        return f"{lo}, {hi}"


def _max_low(a: _Bound, b: _Bound) -> _Bound:
    if a.infinite:
        return b
    if b.infinite:
        return a
    ak, bk = a.key(), b.key()
    if ak > bk:
        return a
    if bk > ak:
        return b
    # same value: the open bound is the tighter lower bound
    return a if not a.closed else b


def _min_high(a: _Bound, b: _Bound) -> _Bound:
    if a.infinite:
        return b
    if b.infinite:
        return a
    ak, bk = a.key(), b.key()
    if ak < bk:
        return a
    if bk < ak:
        return b
    return a if not a.closed else b


def _low_sort_key(interval: _Interval):
    if interval.low.infinite:
        return ((-1,), True)
    return ((0,) + tuple([interval.low.key()]), interval.low.closed)


class ValueFormula:
    """A value-predicate formula in interval normal form.

    Instances are immutable; all operations return new formulas.  Construct
    formulas with the class methods (:meth:`true`, :meth:`eq`, :meth:`lt` ...)
    or by parsing text with :meth:`parse`, and combine them with
    :meth:`and_`, :meth:`or_`, :meth:`negate`.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[_Interval] = ()):
        self._intervals = _normalize(list(intervals))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def true(cls) -> "ValueFormula":
        """The formula satisfied by every value (one shared instance)."""
        return _TRUE

    @classmethod
    def false(cls) -> "ValueFormula":
        """The unsatisfiable formula."""
        return cls([])

    @classmethod
    def eq(cls, constant) -> "ValueFormula":
        """``v = c``."""
        bound_low = _Bound(constant, closed=True)
        bound_high = _Bound(constant, closed=True)
        return cls([_Interval(bound_low, bound_high)])

    @classmethod
    def ne(cls, constant) -> "ValueFormula":
        """``v != c`` (definable as ``v < c or v > c``)."""
        return cls.eq(constant).negate()

    @classmethod
    def lt(cls, constant) -> "ValueFormula":
        """``v < c``."""
        return cls([_Interval(_Bound.neg_inf(), _Bound(constant, closed=False))])

    @classmethod
    def le(cls, constant) -> "ValueFormula":
        """``v <= c``."""
        return cls([_Interval(_Bound.neg_inf(), _Bound(constant, closed=True))])

    @classmethod
    def gt(cls, constant) -> "ValueFormula":
        """``v > c``."""
        return cls([_Interval(_Bound(constant, closed=False), _Bound.pos_inf())])

    @classmethod
    def ge(cls, constant) -> "ValueFormula":
        """``v >= c``."""
        return cls([_Interval(_Bound(constant, closed=True), _Bound.pos_inf())])

    @classmethod
    def between(cls, low, high, closed: bool = True) -> "ValueFormula":
        """``low <= v <= high`` (or the open variant)."""
        return cls([_Interval(_Bound(low, closed=closed), _Bound(high, closed=closed))])

    # ------------------------------------------------------------------ #
    # logical connectives
    # ------------------------------------------------------------------ #
    def and_(self, other: "ValueFormula") -> "ValueFormula":
        """Conjunction."""
        result = []
        for a in self._intervals:
            for b in other._intervals:
                inter = a.intersect(b)
                if inter is not None:
                    result.append(inter)
        return ValueFormula(result)

    def or_(self, other: "ValueFormula") -> "ValueFormula":
        """Disjunction."""
        return ValueFormula(list(self._intervals) + list(other._intervals))

    def negate(self) -> "ValueFormula":
        """Negation (complement of the interval union)."""
        result = ValueFormula.true()
        for interval in self._intervals:
            pieces = []
            if not interval.low.infinite:
                pieces.append(
                    _Interval(
                        _Bound.neg_inf(),
                        _Bound(interval.low.value, closed=not interval.low.closed),
                    )
                )
            if not interval.high.infinite:
                pieces.append(
                    _Interval(
                        _Bound(interval.high.value, closed=not interval.high.closed),
                        _Bound.pos_inf(),
                    )
                )
            result = result.and_(ValueFormula(pieces))
        return result

    # ------------------------------------------------------------------ #
    # tests
    # ------------------------------------------------------------------ #
    def is_satisfiable(self) -> bool:
        """True iff at least one value satisfies the formula."""
        return bool(self._intervals)

    def is_true(self) -> bool:
        """True iff the formula is satisfied by every value."""
        return self is _TRUE or (
            len(self._intervals) == 1
            and self._intervals[0].low.infinite
            and self._intervals[0].high.infinite
        )

    def is_point(self) -> bool:
        """True iff exactly one value satisfies the formula (``v = c``)."""
        if len(self._intervals) != 1:
            return False
        interval = self._intervals[0]
        return (
            not interval.low.infinite
            and not interval.high.infinite
            and interval.low.closed
            and interval.high.closed
            and interval.low.key() == interval.high.key()
        )

    def interval_bounds(self) -> tuple[tuple, ...]:
        """The normal form as ``(low_key, low_closed, high_key, high_closed)``.

        Keys are :func:`value_order_key` tuples (``None`` for an infinite
        endpoint), intervals are disjoint and ascending — exactly the shape
        an ordered index bisects over.
        """
        return tuple(
            (
                interval.low.key(),
                interval.low.closed,
                interval.high.key(),
                interval.high.closed,
            )
            for interval in self._intervals
        )

    def evaluate(self, value) -> bool:
        """Check whether ``value`` satisfies the formula.

        ``None`` (a missing value) satisfies only the ``true`` formula.
        """
        if value is None:
            return self.is_true()
        return any(interval.contains(value) for interval in self._intervals)

    def implies(self, other: "ValueFormula") -> bool:
        """``self ⇒ other``: every value satisfying self satisfies other."""
        if self is other or other.is_true() or not self._intervals:
            return True
        if self.is_true():
            return False  # the normal form is canonical: ``other`` has a gap
        return not self.and_(other.negate()).is_satisfiable()

    def equivalent(self, other: "ValueFormula") -> bool:
        """Logical equivalence (two-way implication)."""
        return self.implies(other) and other.implies(self)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueFormula):
            return NotImplemented
        return [i.key_tuple() for i in self._intervals] == [
            i.key_tuple() for i in other._intervals
        ]

    def __hash__(self) -> int:
        return hash(tuple(i.key_tuple() for i in self._intervals))

    def __repr__(self) -> str:
        return f"ValueFormula({self.to_text()!r})"

    # ------------------------------------------------------------------ #
    # textual form
    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Render the formula back to the atom syntax (``v>2 and v<5 or ...``)."""
        if not self._intervals:
            return "false"
        if self.is_true():
            return "true"
        parts = []
        for interval in self._intervals:
            atoms = []
            if (
                not interval.low.infinite
                and not interval.high.infinite
                and interval.low.key() == interval.high.key()
                and interval.low.closed
                and interval.high.closed
            ):
                atoms.append(f"v={_render_constant(interval.low.value)}")
            else:
                if not interval.low.infinite:
                    op = ">=" if interval.low.closed else ">"
                    atoms.append(f"v{op}{_render_constant(interval.low.value)}")
                if not interval.high.infinite:
                    op = "<=" if interval.high.closed else "<"
                    atoms.append(f"v{op}{_render_constant(interval.high.value)}")
            parts.append(" and ".join(atoms) if atoms else "true")
        return " or ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "ValueFormula":
        """Parse a formula such as ``"v > 2 and v < 5 or v = 'pen'"``."""
        return _FormulaParser(text).parse()


def _render_constant(value) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


def _normalize(intervals: list[_Interval]) -> tuple[_Interval, ...]:
    """Drop empty intervals and merge overlapping / touching ones."""
    cleaned = [i for i in intervals if not i.is_empty()]
    if not cleaned:
        return ()
    cleaned.sort(key=_low_sort_key_safe)
    merged: list[_Interval] = [cleaned[0]]
    for interval in cleaned[1:]:
        last = merged[-1]
        if _overlaps_or_touches(last, interval):
            merged[-1] = _Interval(last.low, _max_high(last.high, interval.high))
        else:
            merged.append(interval)
    return tuple(merged)


def _low_sort_key_safe(interval: _Interval):
    if interval.low.infinite:
        return (0, (), 0)
    # closed bound sorts before open bound at the same value
    return (1, interval.low.key(), 0 if interval.low.closed else 1)


def _max_high(a: _Bound, b: _Bound) -> _Bound:
    if a.infinite:
        return a
    if b.infinite:
        return b
    ak, bk = a.key(), b.key()
    if ak > bk:
        return a
    if bk > ak:
        return b
    return a if a.closed else b


def _overlaps_or_touches(a: _Interval, b: _Interval) -> bool:
    """True if intervals a and b (a.low <= b.low) can be merged into one."""
    if a.high.infinite or b.low.infinite:
        return True
    hk, lk = a.high.key(), b.low.key()
    if hk > lk:
        return True
    if hk == lk:
        return a.high.closed or b.low.closed
    return False


_TRUE = ValueFormula([_Interval(_Bound.neg_inf(), _Bound.pos_inf())])


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op><=|>=|!=|=|<|>)|(?P<lpar>\()|(?P<rpar>\))|"
    r"(?P<and>and\b|AND\b|&&)|(?P<or>or\b|OR\b|\|\|)|"
    r"(?P<var>v\b|value\b)|(?P<str>'[^']*'|\"[^\"]*\")|"
    r"(?P<num>-?\d+(?:\.\d+)?)|(?P<word>true\b|false\b|TRUE\b|FALSE\b))"
)


class _FormulaParser:
    """Recursive-descent parser for the atom syntax."""

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, str]]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                if text[pos:].strip() == "":
                    break
                raise PredicateError(f"cannot tokenize predicate at {text[pos:]!r}")
            pos = match.end()
            for kind, value in match.groupdict().items():
                if value is not None:
                    tokens.append((kind, value))
                    break
        return tokens

    def _peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise PredicateError("unexpected end of predicate")
        self.pos += 1
        return token

    def parse(self) -> ValueFormula:
        formula = self._parse_or()
        if self.pos != len(self.tokens):
            raise PredicateError(
                f"trailing tokens in predicate: {self.tokens[self.pos:]!r}"
            )
        return formula

    def _parse_or(self) -> ValueFormula:
        left = self._parse_and()
        while self._peek() is not None and self._peek()[0] == "or":
            self._next()
            left = left.or_(self._parse_and())
        return left

    def _parse_and(self) -> ValueFormula:
        left = self._parse_atom()
        while self._peek() is not None and self._peek()[0] == "and":
            self._next()
            left = left.and_(self._parse_atom())
        return left

    def _parse_atom(self) -> ValueFormula:
        token = self._next()
        if token[0] == "lpar":
            inner = self._parse_or()
            closing = self._next()
            if closing[0] != "rpar":
                raise PredicateError("expected ')' in predicate")
            return inner
        if token[0] == "word":
            return ValueFormula.true() if token[1].lower() == "true" else ValueFormula.false()
        if token[0] != "var":
            raise PredicateError(f"expected 'v' in predicate, got {token[1]!r}")
        op_token = self._next()
        if op_token[0] != "op":
            raise PredicateError(f"expected a comparison operator, got {op_token[1]!r}")
        const_token = self._next()
        constant = self._parse_constant(const_token)
        return {
            "=": ValueFormula.eq,
            "!=": ValueFormula.ne,
            "<": ValueFormula.lt,
            "<=": ValueFormula.le,
            ">": ValueFormula.gt,
            ">=": ValueFormula.ge,
        }[op_token[1]](constant)

    @staticmethod
    def _parse_constant(token: tuple[str, str]):
        kind, text = token
        if kind == "num":
            return float(text) if "." in text else int(text)
        if kind == "str":
            return text[1:-1]
        raise PredicateError(f"expected a constant, got {text!r}")
