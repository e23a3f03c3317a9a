"""Edge cases of the columnar batch layer (:mod:`repro.algebra.columnar`).

The vectorized executor trusts :class:`ColumnBatch` with the degenerate
shapes real plans produce constantly — empty extents, all-⊥ optional
columns, single-row batches, contiguous windows of a sorted extent — so
each gets a direct test here.  A round trip goes relation → columns →
gathered batch → rows, so the rows are re-zipped from the column vectors
rather than handed back from the relation the batch was built from.
"""

from __future__ import annotations

import gc
import weakref

from repro.algebra.columnar import ColumnBatch, in_place
from repro.algebra.tuples import Column, Relation
from repro.service.models import relation_to_payload
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


def _gathered_batch():
    """A batch of gathers, with no row form of its own to hand back."""
    rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 6)]
    return ColumnBatch.from_relation(_relation(rows)).gather([4, 2, 0]), [rows[4], rows[2], rows[0]]


class TestBatchBackedRelation:
    """``ColumnBatch.to_relation``: a relation whose rows are built when read."""

    def test_len_repr_and_schema_read_no_value(self, value_reads):
        batch, _ = _gathered_batch()
        relation = batch.to_relation()
        assert len(relation) == 3 and relation.arity == 2
        assert relation.column_names == ["ID", "V"]
        assert [column.name for column in relation.columns] == ["ID", "V"]
        assert repr(relation) == "<Relation ['ID', 'V'] rows=3>"
        assert value_reads == []

    def test_rows_are_built_once_and_the_batch_is_released(self, value_reads):
        batch, expected = _gathered_batch()
        relation = batch.to_relation()
        alive = weakref.ref(batch)
        del batch
        gc.collect()
        assert alive() is not None  # the relation holds its batch until read
        rows = relation.rows
        reads = len(value_reads)
        assert rows == expected and reads
        gc.collect()
        assert alive() is None and relation._batch is None
        assert relation.rows is rows and list(relation) == expected
        assert len(value_reads) == reads  # built once, kept

    def test_a_batch_never_points_at_its_relation(self):
        batch, _ = _gathered_batch()
        relation = batch.to_relation()
        assert relation._batch is batch
        assert relation not in gc.get_referents(batch)
        assert batch.to_relation() is not relation  # one fresh view per call

    def test_append_reads_the_rows_and_leaves_the_batch_as_it_was(self):
        batch, expected = _gathered_batch()
        relation = batch.to_relation()
        extra = (DeweyID((1, 9)), "v9")
        relation.append(extra)
        assert relation.rows == expected + [extra] and len(relation) == 4
        assert batch.row_count == 3 and batch.to_relation().rows == expected
        assert batch.values(1) == ["v5", "v3", "v1"]

    def test_assigning_rows_drops_the_batch_unread(self, value_reads):
        batch, expected = _gathered_batch()
        relation = batch.to_relation()
        relation.rows = [(None, "x")]
        assert relation._batch is None and len(relation) == 1
        assert relation.rows == [(None, "x")] and value_reads == []
        assert batch.to_relation().rows == expected

    def test_mutating_columns_leaves_the_batch_schema_alone(self):
        batch, expected = _gathered_batch()
        relation = batch.to_relation()
        relation.columns[1] = relation.columns[1].renamed("W")
        assert relation.column_names == ["ID", "W"]
        assert [column.name for column in batch.columns] == ["ID", "V"]
        assert relation.rows == expected

    def test_a_zero_column_batch_has_empty_rows(self, value_reads):
        relation = ColumnBatch([], [], 3).to_relation()
        assert len(relation) == 3 and relation.arity == 0
        assert relation.rows == [()] * 3 and value_reads == []

    def test_comparisons_read_through_the_rows(self):
        batch, expected = _gathered_batch()
        assert batch.to_relation().same_contents(_relation(expected))
        assert batch.to_relation().to_set() == _relation(expected).to_set()
        assert batch.to_relation().project(["V"]).rows == [(row[1],) for row in expected]
        assert "3 more" not in batch.to_relation().to_table(max_rows=1)
        assert "(2 more rows)" in batch.to_relation().to_table(max_rows=1)

    def test_an_unread_relation_encodes_from_its_batch_building_no_row(self):
        batch, expected = _gathered_batch()
        unread = batch.to_relation()
        payload = relation_to_payload(unread)
        assert unread._batch is batch  # still unread: encoded from the columns
        read = batch.to_relation()
        read.rows
        assert payload == relation_to_payload(read) == relation_to_payload(_relation(expected))


class TestInPlaceVectors:
    """A vector that reads every row once, in place, is kept as ``range(n)``
    and hands its input's sources through."""

    def test_only_the_identity_becomes_a_range(self):
        assert in_place([0, 1, 2], 3) == range(3)
        for vector, count in (([0, 1], 3), ([0, 0, 2], 3), ([1, 0], 2), ([0, 2], 2)):
            assert in_place(vector, count) is vector
        assert in_place([], 0) == range(0)
        assert in_place(range(1), 3) == range(1)

    def test_an_identity_gather_shares_its_sources(self):
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 4)]
        batch = ColumnBatch.from_relation(_relation(rows))
        same = batch.gather(range(3))
        assert all(same.source(i) is batch.source(i) for i in range(2))
        prefix = batch.gather(range(2))
        assert prefix.source(0) is not batch.source(0)
        assert prefix.to_relation().rows == rows[:2]
