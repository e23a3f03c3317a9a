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


def _relation(rows, columns=("ID", "V")):
    return Relation([Column(name) for name in columns], rows=list(rows))


def _window(batch, start, stop):
    """A contiguous row window; a window of a sorted batch stays sorted."""
    return batch.gather(range(start, stop))


def _round_trip(relation):
    batch = ColumnBatch.from_relation(relation)
    return _window(batch, 0, batch.row_count).to_relation()


class TestEmptyColumns:
    def test_empty_relation_round_trips_through_batch(self):
        relation = _relation([])
        batch = ColumnBatch.from_relation(relation)
        assert batch.row_count == 0
        assert batch.values(0) == [] and batch.values(1) == []
        back = batch.to_relation()
        assert back.rows == [] and [c.name for c in back.columns] == ["ID", "V"]

    def test_empty_batch_slices_and_gathers(self):
        batch = ColumnBatch.from_relation(_relation([]))
        window = _window(batch, 0, 0)
        assert window.row_count == 0 and window.source(0).in_document_order()
        assert window.to_relation().rows == []
        assert batch.gather([]).to_relation().rows == []


class TestAllNullColumns:
    def test_all_null_column_round_trips(self):
        rows = [(DeweyID((1, i)), None) for i in range(1, 5)]
        back = _round_trip(_relation(rows))
        assert back.rows == rows

    def test_all_null_dewey_keys_are_none(self):
        rows = [(None,), (None,), (None,)]
        batch = ColumnBatch.from_relation(_relation(rows, columns=("ID",)))
        assert batch.dewey_keys(0) == [None, None, None]

    def test_all_null_column_survives_slicing(self):
        rows = [(DeweyID((1, i)), None) for i in range(1, 7)]
        batch = ColumnBatch.from_relation(_relation(rows))
        window = _window(batch, 2, 5)
        assert window.values(1) == [None, None, None]
        assert window.values(0) == [DeweyID((1, 3)), DeweyID((1, 4)), DeweyID((1, 5))]


class TestSingleRowBatches:
    def test_single_row_batch_round_trips(self):
        rows = [(DeweyID((1, 1)), "only")]
        relation = _relation(rows)
        assert ColumnBatch.from_relation(relation).row_count == 1
        back = _round_trip(relation)
        assert back.rows == rows


class TestDocumentOrderReadOffTheData:
    """``_ColumnSource.in_document_order``: the one order fact a join reads."""

    def test_a_window_of_an_ordered_column_stays_in_document_order(self):
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 6)]
        batch = ColumnBatch.from_relation(_relation(rows))
        window = _window(batch, 1, 4)
        assert batch.source(0).in_document_order()
        assert window.source(0).in_document_order()
        assert window.to_relation().rows == rows[1:4]

    def test_a_reordering_gather_is_not_in_document_order(self):
        # an arbitrary index vector may reorder rows: the proof reads it
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 4)]
        batch = ColumnBatch.from_relation(_relation(rows))
        assert not batch.gather([2, 0, 1]).source(0).in_document_order()
        # a gather that repeats a row but never steps back keeps the order
        assert batch.gather([0, 0, 2]).gather([0, 1, 1]).source(0).in_document_order()

    def test_only_strictly_ascending_identifier_columns_prove_order(self):
        one, two = DeweyID((1, 1)), DeweyID((1, 2))
        for cells in (
            [two, one],  # reversed
            [one, one, two],  # several rows per node: non-strict
            [one, None, two],  # ⊥
            [None],  # a lone ⊥ meets no comparison
        ):
            batch = ColumnBatch.from_relation(_relation([(cell,) for cell in cells], ("ID",)))
            assert not batch.source(0).in_document_order(), cells
        # dotted text ascends as strings, not in Dewey order (1.10 < 1.9)
        text = ColumnBatch.from_relation(_relation([("1.10",), ("1.9",)], ("ID",)))
        assert text.source(0).ascending() and not text.source(0).in_document_order()


class TestStructuralLinkCache:
    def test_resolve_composes_gathers_down_to_the_direct_source(self):
        batch = ColumnBatch.from_relation(_relation([(DeweyID((1, i)), i) for i in range(1, 6)]))
        direct = batch.source(0)
        assert direct.resolve() == (direct, None)
        twice = batch.gather([4, 2, 0]).gather([2, 1, 1])
        assert twice.source(0).resolve() == (direct, [0, 2, 2])
