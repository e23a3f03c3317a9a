"""Value indexes over materialised extents: probes and lifecycle.

Contracts under test:

* **probe ≡ filter** — for every formula shape, the index returns
  exactly the positions the selection kernel would (``⊥`` rows match only
  the ``true`` formula; positions come back ascending), on fixed columns
  and on drawn ones (atoms, bools, ``⊥``, content references) probed with
  drawn formulas, disjunctions and negations included;
* **one kind** — every indexable column, whatever its cardinality, gets
  the sorted :class:`~repro.views.indexes.OrderedIndex`;
* **build-once lifecycle** — one build per column source, survivable by
  unrelated DDL, invalidated by re-materialising DDL (new extent → new
  sources → rebuild), counted by the ``index_counts`` fixture
  (``support.index_counts``) and read off the extents by
  ``Database.stats()["indexes"]``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, MaterializedView, parse_parenthesized, parse_pattern
from repro.algebra.kernels import selection_indices
from repro.patterns.predicates import ValueFormula
from repro.views.indexes import OrderedIndex, build_index, index_for_source
from repro.xmltree.node import XMLNode
from support.formulas import between


FORMULAS = [
    ValueFormula.true(),
    ValueFormula.eq("pen"),
    ValueFormula.eq("missing"),
    ValueFormula.eq(7),
    ValueFormula.ne("pen"),
    ValueFormula.lt(5),
    ValueFormula.ge(5),
    between(2, 9),
    ValueFormula.gt(3).and_(ValueFormula.lt(3)),  # unsatisfiable
    ValueFormula.eq("ink").or_(ValueFormula.eq("pad")),
    ValueFormula.parse('v >= "i"'),
]

VALUE_COLUMNS = [
    ["pen", "ink", None, "pen", "pad", "ink", None],
    [7, 3, None, 5, 5, 11, 2, 7],
    [1.5, None, 3.0, 2, True, 0, "mixed", "atoms"],
    [],
    [None, None],
]


# --------------------------------------------------------------------------- #
# probe ≡ filter
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("values", VALUE_COLUMNS, ids=lambda v: f"n{len(v)}")
def test_probes_match_the_selection_kernel(values):
    index = build_index(values)
    assert type(index) is OrderedIndex
    for formula in FORMULAS:
        assert index.probe(formula) == selection_indices(values, formula), (
            f"the index diverged from the kernel on {formula.to_text()!r} over {values!r}"
        )


# constants equal across types (1, 1.0, True) and strings that look like
# numbers, so the formula domain's number-before-string order is exercised
_ATOMS = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, 1.0, -2.5, float("inf"), float("-inf")]),
    st.sampled_from(["", "1", "10", "2", "a", "ab", "b"]),
)
_CELLS = st.one_of(
    st.none(),
    _ATOMS,
    st.builds(XMLNode, st.just("name"), st.one_of(st.none(), _ATOMS)),
)


@st.composite
def _formulas(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        make = draw(
            st.sampled_from(
                [ValueFormula.eq, ValueFormula.ne, ValueFormula.lt, ValueFormula.le,
                 ValueFormula.gt, ValueFormula.ge]
            )
        )
        return make(draw(_ATOMS))
    left, right = draw(_formulas(depth - 1)), draw(_formulas(depth - 1))
    combined = draw(st.sampled_from(["or", "and", "not"]))
    if combined == "or":
        return left.or_(right)
    return left.and_(right) if combined == "and" else left.negate()


@settings(max_examples=200, deadline=None)
@given(st.lists(_CELLS, max_size=30), st.lists(_formulas(), min_size=1, max_size=4))
def test_probes_match_the_selection_kernel_on_drawn_columns(values, formulas):
    index = build_index(values)
    assert type(index) is OrderedIndex
    for formula in formulas + [ValueFormula.true()]:
        assert index.probe(formula) == selection_indices(values, formula), formula.to_text()


def test_probes_unwrap_content_references():
    document = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    names = [node for item in document.root.children for node in item.children]
    assert build_index(names).probe(ValueFormula.eq("ink")) == [1]


def test_non_atom_columns_are_unindexable():
    document = parse_parenthesized('site(item(name="pen"))')
    view = MaterializedView(parse_pattern("site(//name[ID,V])", name="v"), document)
    id_values = [row[0] for row in view.relation.rows]  # DeweyIDs
    assert build_index(id_values) is None
    # NaN compares false with every key, so no sorted array can place it
    assert build_index([1.0, float("nan"), 2.0]) is None


# --------------------------------------------------------------------------- #
# one kind
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("distinct", [1, 25, 64, 65, 5_000])
def test_every_indexable_column_gets_the_ordered_kind(distinct):
    """No cardinality rule: two values or five thousand, the same sorted
    array, ``⊥`` rows left out of it, equal keys in row order."""
    values = [None] + [f"k{i % distinct:05d}" for i in range(2 * distinct)]
    index = build_index(values)
    assert type(index) is OrderedIndex
    assert index.row_count == len(values) and len(index.keys) == len(values) - 1
    assert index.keys == sorted(index.keys)
    assert index.probe(ValueFormula.eq("k00000")) == [1, 1 + distinct]


# --------------------------------------------------------------------------- #
# build-once lifecycle
# --------------------------------------------------------------------------- #
@pytest.fixture()
def database():
    document = parse_parenthesized(
        "site(" + " ".join(f'item(name="n{i % 3}")' for i in range(9)) + ")"
    )
    db = Database(document)
    db.create_view("site(/item(/name[ID,V]))", name="items")
    return db


SELECTIVE = 'site(/item(/name[ID,V]{v="n1"}))'


def test_index_builds_once_per_extent_version(database, index_counts):
    first = database.query(SELECTIVE)
    assert index_counts.builds == 1 and index_counts.probes == 1
    second = database.query(SELECTIVE)
    assert index_counts.builds == 1, "a cached source must not rebuild"
    assert index_counts.probes == 1, "the cached plan reads its kept probe"
    database.plan_cache.clear()
    third = database.query(SELECTIVE)
    assert index_counts.builds == 1
    assert index_counts.probes == 2, "a re-planned query probes the cached index"
    assert first.same_contents(second) and first.same_contents(third) and len(first) == 3


def test_unrelated_ddl_keeps_the_index(database, index_counts):
    database.query(SELECTIVE)
    database.create_view("site(/item[ID])", name="unrelated")
    database.query(SELECTIVE)
    assert index_counts.builds == 1, (
        "DDL on another view leaves this extent (and its index) untouched"
    )


def test_rematerialising_ddl_rebuilds_the_index(database, index_counts):
    baseline = database.query(SELECTIVE)
    database.drop_view("items")
    database.create_view("site(/item(/name[ID,V]))", name="items")
    result = database.query(SELECTIVE)
    assert index_counts.builds == 2, (
        "a re-materialised extent has fresh column sources: the stale "
        "index must be unreachable and a new one built"
    )
    assert database.stats()["indexes"] == {"built": 1}, "only the new extent's"
    assert result.same_contents(baseline)


def test_unindexable_columns_fall_back_to_the_scan_kernel(database, index_counts):
    # probe the ID column: DeweyIDs refuse indexing, the plan must still
    # answer through the selection kernel (and never count a build)
    batch = database.views["items"].extent
    assert index_for_source(batch.source(batch.column_index("ID1"))) is None
    assert index_for_source(batch.source(batch.column_index("ID1"))) is None
    assert index_counts.builds == 0, "unindexable is cached, not retried"
    assert database.stats()["indexes"] == {"built": 0}
