"""Edge cases of the columnar batch layer (:mod:`repro.algebra.columnar`).

The vectorized executor trusts :class:`ColumnBatch` with the degenerate
shapes real plans produce constantly — empty extents, all-⊥ optional
columns, single-row batches, contiguous windows of a sorted extent — so
each gets a direct test here.  A round trip goes relation → columns →
gathered batch → rows, so the rows are re-zipped from the column vectors
rather than handed back from the relation the batch was built from.
"""

from __future__ import annotations


from repro.algebra.columnar import ColumnBatch
from repro.algebra.tuples import Column, Relation
from repro.xmltree.ids import DeweyID
from support.relations import mark_sorted_by


def _relation(rows, columns=("ID", "V"), sorted_by=None):
    relation = Relation([Column(name) for name in columns], rows=list(rows))
    if sorted_by:
        mark_sorted_by(relation, sorted_by)
    return relation


def _window(batch, start, stop):
    """A contiguous row window; a window of a sorted batch stays sorted."""
    return batch.gather(range(start, stop), sorted_by=batch.sorted_by)


def _round_trip(relation):
    batch = ColumnBatch.from_relation(relation)
    return _window(batch, 0, batch.row_count).to_relation()


class TestEmptyColumns:
    def test_empty_relation_round_trips_through_batch(self):
        relation = _relation([], sorted_by="ID")
        batch = ColumnBatch.from_relation(relation)
        assert batch.row_count == 0
        assert batch.values(0) == [] and batch.values(1) == []
        back = batch.to_relation()
        assert back.rows == [] and [c.name for c in back.columns] == ["ID", "V"]

    def test_empty_batch_slices_and_gathers(self):
        batch = ColumnBatch.from_relation(_relation([], sorted_by="ID"))
        window = _window(batch, 0, 0)
        assert window.row_count == 0 and window.sorted_by == "ID"
        assert window.to_relation().rows == []
        assert batch.gather([]).to_relation().rows == []


class TestAllNullColumns:
    def test_all_null_column_round_trips(self):
        rows = [(DeweyID((1, i)), None) for i in range(1, 5)]
        back = _round_trip(_relation(rows, sorted_by="ID"))
        assert back.rows == rows
        assert back.sorted_by == "ID"

    def test_all_null_dewey_keys_are_none(self):
        rows = [(None,), (None,), (None,)]
        batch = ColumnBatch.from_relation(_relation(rows, columns=("ID",)))
        assert batch.dewey_keys(0) == [None, None, None]

    def test_all_null_column_survives_slicing(self):
        rows = [(DeweyID((1, i)), None) for i in range(1, 7)]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        window = _window(batch, 2, 5)
        assert window.values(1) == [None, None, None]
        assert window.values(0) == [DeweyID((1, 3)), DeweyID((1, 4)), DeweyID((1, 5))]


class TestSingleRowBatches:
    def test_single_row_batch_round_trips(self):
        rows = [(DeweyID((1, 1)), "only")]
        relation = _relation(rows, sorted_by="ID")
        assert ColumnBatch.from_relation(relation).row_count == 1
        back = _round_trip(relation)
        assert back.rows == rows and back.sorted_by == "ID"


class TestSortedByThroughSlicing:
    def test_sorted_by_survives_slice(self):
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 6)]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        window = _window(batch, 1, 4)
        assert window.sorted_by == "ID"
        assert window.to_relation().sorted_by == "ID"
        assert window.to_relation().rows == rows[1:4]

    def test_gather_does_not_claim_order_by_default(self):
        # an arbitrary index vector may reorder rows — gather must not
        # inherit the annotation unless the caller proves it holds
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 4)]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        assert batch.gather([2, 0, 1]).sorted_by is None


class TestStructuralLinkCache:
    def test_resolve_composes_gathers_down_to_the_direct_source(self):
        batch = ColumnBatch.from_relation(_relation([(DeweyID((1, i)), i) for i in range(1, 6)]))
        direct = batch.source(0)
        assert direct.resolve() == (direct, None)
        twice = batch.gather([4, 2, 0]).gather([2, 1, 1])
        assert twice.source(0).resolve() == (direct, [0, 2, 2])
