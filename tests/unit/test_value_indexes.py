"""Value indexes over materialised extents: probes and lifecycle.

Contracts under test:

* **probe ≡ filter** — for every formula shape, both index kinds return
  exactly the positions the selection kernel would (``⊥`` rows match only
  the ``true`` formula; positions come back ascending);
* **kind selection** — the bitmap-vs-ordered decision flips exactly at
  :data:`~repro.views.indexes.BITMAP_CARDINALITY_THRESHOLD` distinct values;
* **build-once lifecycle** — one build per column source, survivable by
  unrelated DDL, invalidated by re-materialising DDL (new extent → new
  sources → rebuild), all observable through :data:`INDEX_STATS`.
"""

from __future__ import annotations

import pytest

from repro import Database, MaterializedView, parse_parenthesized, parse_pattern
from repro.algebra.columnar import ColumnBatch
from repro.algebra.kernels import selection_indices
from repro.patterns.predicates import ValueFormula
from repro.views.indexes import (
    BITMAP_CARDINALITY_THRESHOLD,
    INDEX_STATS,
    BitmapIndex,
    OrderedIndex,
    build_index,
    index_for_source,
)


@pytest.fixture(autouse=True)
def _reset_index_stats():
    INDEX_STATS.reset()
    yield
    INDEX_STATS.reset()


FORMULAS = [
    ValueFormula.true(),
    ValueFormula.eq("pen"),
    ValueFormula.eq("missing"),
    ValueFormula.eq(7),
    ValueFormula.ne("pen"),
    ValueFormula.lt(5),
    ValueFormula.ge(5),
    ValueFormula.between(2, 9),
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
    has_values = any(value is not None for value in values)
    for threshold, expected_kind in [(64, BitmapIndex), (0, OrderedIndex)]:
        index = build_index(values, bitmap_threshold=threshold)
        if has_values or expected_kind is BitmapIndex:
            assert type(index) is expected_kind
        else:  # zero distinct values never exceed any threshold
            assert type(index) is BitmapIndex
        expected_kind = type(index)
        for formula in FORMULAS:
            assert index.probe(formula) == selection_indices(values, formula), (
                f"{expected_kind.__name__} diverged from the kernel "
                f"on {formula.to_text()!r} over {values!r}"
            )


def test_probes_unwrap_content_references():
    document = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    names = [node for item in document.root.children for node in item.children]
    for threshold in (64, 0):
        index = build_index(names, bitmap_threshold=threshold)
        assert index.probe(ValueFormula.eq("ink")) == [1]


def test_non_atom_columns_are_unindexable():
    document = parse_parenthesized('site(item(name="pen"))')
    view = MaterializedView(parse_pattern("site(//name[ID,V])", name="v"), document)
    id_values = [row[0] for row in view.relation.rows]  # DeweyIDs
    assert build_index(id_values) is None


# --------------------------------------------------------------------------- #
# kind selection
# --------------------------------------------------------------------------- #
def test_kind_flips_exactly_at_the_cardinality_threshold():
    at_threshold = list(range(BITMAP_CARDINALITY_THRESHOLD)) * 2
    index = build_index(at_threshold)
    assert isinstance(index, BitmapIndex)
    assert index.cardinality == BITMAP_CARDINALITY_THRESHOLD

    over_threshold = list(range(BITMAP_CARDINALITY_THRESHOLD + 1)) * 2
    index = build_index(over_threshold)
    assert isinstance(index, OrderedIndex)
    assert index.cardinality == BITMAP_CARDINALITY_THRESHOLD + 1

    # ⊥ rows are not values: they never push a column over the threshold
    with_nulls = list(range(BITMAP_CARDINALITY_THRESHOLD)) + [None] * 10
    assert isinstance(build_index(with_nulls), BitmapIndex)


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


def test_index_builds_once_per_extent_version(database):
    first = database.query(SELECTIVE)
    assert INDEX_STATS.builds == 1 and INDEX_STATS.probes == 1
    second = database.query(SELECTIVE)
    assert INDEX_STATS.builds == 1, "a cached source must not rebuild"
    assert INDEX_STATS.probes == 2
    assert first.same_contents(second) and len(first) == 3


def test_unrelated_ddl_keeps_the_index(database):
    database.query(SELECTIVE)
    database.create_view("site(/item[ID])", name="unrelated")
    database.query(SELECTIVE)
    assert INDEX_STATS.builds == 1, (
        "DDL on another view leaves this extent (and its index) untouched"
    )


def test_rematerialising_ddl_rebuilds_the_index(database):
    baseline = database.query(SELECTIVE)
    database.drop_view("items")
    database.create_view("site(/item(/name[ID,V]))", name="items")
    result = database.query(SELECTIVE)
    assert INDEX_STATS.builds == 2, (
        "a re-materialised extent has fresh column sources: the stale "
        "index must be unreachable and a new one built"
    )
    assert result.same_contents(baseline)


def test_unindexable_columns_fall_back_to_the_scan_kernel(database):
    # probe the ID column: DeweyIDs refuse indexing, the plan must still
    # answer through the selection kernel (and never count a build)
    batch = ColumnBatch.from_relation(database.views["items"].relation)
    assert index_for_source(batch.source(batch.column_index("ID1"))) is None
    assert index_for_source(batch.source(batch.column_index("ID1"))) is None
    assert INDEX_STATS.builds == 0, "unindexable is cached, not retried"
