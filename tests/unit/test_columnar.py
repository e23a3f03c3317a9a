"""Edge cases of the columnar batch layer (:mod:`repro.algebra.columnar`).

The vectorized executor trusts :class:`ColumnBatch` and the payload codec
with the degenerate shapes real plans produce constantly — empty extents,
all-⊥ optional columns, duplicate Dewey identifiers straddling the
result-stream window boundary, single-row batches — so each gets a direct
test here, alongside the two lazy-decode observables (``bytes_touched``
growth and the released-payload error).
"""

from __future__ import annotations

import pytest

from repro.algebra.columnar import (
    ColumnBatch,
    ColumnarPayload,
    concat_batches,
    decode_columnar,
    decode_payload,
    encode_columnar,
)
from repro.algebra.tuples import Column, Relation
from repro.errors import ExtentStoreError
from repro.xmltree.ids import DeweyID


def _relation(rows, columns=("ID", "V"), sorted_by=None):
    relation = Relation([Column(name) for name in columns], rows=list(rows))
    if sorted_by:
        relation.mark_sorted_by(sorted_by)
    return relation


class TestEmptyColumns:
    def test_empty_relation_round_trips_through_batch(self):
        relation = _relation([], sorted_by="ID")
        batch = ColumnBatch.from_relation(relation)
        assert batch.row_count == 0
        assert batch.values(0) == [] and batch.values(1) == []
        back = batch.to_relation()
        assert back.rows == [] and [c.name for c in back.columns] == ["ID", "V"]

    def test_empty_relation_round_trips_through_codec(self):
        relation = _relation([], sorted_by="ID")
        payload = encode_columnar(relation)
        decoded = decode_columnar(payload)
        assert decoded.row_count == 0
        assert decoded.sorted_by == "ID"
        assert [c.name for c in decoded.columns] == ["ID", "V"]
        assert decoded.to_relation().rows == []

    def test_empty_batch_slices_and_gathers(self):
        batch = ColumnBatch.from_relation(_relation([], sorted_by="ID"))
        window = batch.slice(0, 1024)
        assert window.row_count == 0 and window.sorted_by == "ID"
        assert window.to_relation().rows == []


class TestAllNullColumns:
    def test_all_null_column_round_trips(self):
        rows = [(DeweyID((1, i)), None) for i in range(1, 5)]
        relation = _relation(rows, sorted_by="ID")
        decoded = decode_payload(encode_columnar(relation))
        assert decoded.rows == rows
        assert decoded.sorted_by == "ID"

    def test_all_null_dewey_keys_are_none(self):
        rows = [(None,), (None,), (None,)]
        batch = ColumnBatch.from_relation(_relation(rows, columns=("ID",)))
        assert batch.dewey_keys(0) == [None, None, None]

    def test_all_null_column_survives_slicing(self):
        rows = [(DeweyID((1, i)), None) for i in range(1, 7)]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        window = batch.slice(2, 5)
        assert window.values(1) == [None, None, None]
        assert window.values(0) == [DeweyID((1, 3)), DeweyID((1, 4)), DeweyID((1, 5))]


class TestDuplicateIdsAcrossBatchBoundaries:
    def test_duplicates_straddling_window_boundary_reassemble_identically(self):
        # the same Dewey ID on both sides of the stream-window cut: the
        # reassembled stream must preserve every duplicate, in order
        dup = DeweyID((1, 2))
        rows = [(DeweyID((1, 1)), "a"), (dup, "b"), (dup, "c"), (DeweyID((1, 3)), "d")]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        windows = [batch.slice(0, 2), batch.slice(2, 4)]  # cut between the dups
        merged = concat_batches(windows)
        assert merged.row_count == 4
        assert merged.to_relation().rows == rows
        assert merged.sorted_by == "ID"

    def test_duplicates_survive_the_stream_codec(self):
        dup = DeweyID((1, 2))
        rows = [(dup, "b"), (dup, "c")]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        windows = [batch.slice(0, 1), batch.slice(1, 2)]
        decoded = concat_batches(
            [decode_columnar(encode_columnar(window)) for window in windows]
        )
        assert decoded.to_relation().rows == rows

    def test_mixed_sort_annotations_drop_sorted_by(self):
        rows = [(DeweyID((1, 1)), "a"), (DeweyID((1, 2)), "b")]
        sorted_batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        unsorted_batch = ColumnBatch.from_relation(_relation(rows))
        merged = concat_batches([sorted_batch, unsorted_batch])
        assert merged.sorted_by is None

    def test_concat_of_nothing_is_an_error(self):
        with pytest.raises(ExtentStoreError):
            concat_batches([])


class TestSingleRowBatches:
    def test_single_row_batch_round_trips(self):
        rows = [(DeweyID((1, 1)), "only")]
        relation = _relation(rows, sorted_by="ID")
        batch = ColumnBatch.from_relation(relation)
        assert batch.row_count == 1
        decoded = decode_payload(encode_columnar(batch))
        assert decoded.rows == rows and decoded.sorted_by == "ID"

    def test_single_row_windows_reassemble(self):
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 4)]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        windows = [batch.slice(i, i + 1) for i in range(3)]
        assert all(window.row_count == 1 for window in windows)
        merged = concat_batches(windows)
        assert merged.to_relation().rows == rows
        assert merged.sorted_by == "ID"


class TestSortedByThroughSlicing:
    def test_sorted_by_survives_slice(self):
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 6)]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        window = batch.slice(1, 4)
        assert window.sorted_by == "ID"
        assert window.to_relation().sorted_by == "ID"

    def test_gather_does_not_claim_order_by_default(self):
        # an arbitrary index vector may reorder rows — gather must not
        # inherit the annotation unless the caller proves it holds
        rows = [(DeweyID((1, i)), f"v{i}") for i in range(1, 4)]
        batch = ColumnBatch.from_relation(_relation(rows, sorted_by="ID"))
        assert batch.gather([2, 0, 1]).sorted_by is None


class TestLazyPayloadDecode:
    def test_bytes_touched_grows_per_column(self):
        rows = [(DeweyID((1, i)), "x" * 50) for i in range(1, 20)]
        payload = ColumnarPayload(encode_columnar(_relation(rows, sorted_by="ID")))
        header_only = payload.bytes_touched
        assert 0 < header_only < len(encode_columnar(_relation(rows, sorted_by="ID")))
        payload.column_values(0)
        after_ids = payload.bytes_touched
        assert after_ids > header_only
        payload.column_values(0)  # cached: no second charge
        assert payload.bytes_touched == after_ids
        payload.column_values(1)
        assert payload.bytes_touched > after_ids

    def test_released_payload_refuses_undecoded_columns(self):
        rows = [(DeweyID((1, 1)), "pen")]
        payload = ColumnarPayload(encode_columnar(_relation(rows)))
        payload.column_values(0)
        payload.release()
        assert payload.column_values(0) == [DeweyID((1, 1))]  # cache survives
        with pytest.raises(ExtentStoreError, match="released"):
            payload.column_values(1)

    def test_bad_magic_is_rejected(self):
        with pytest.raises(ExtentStoreError, match="bad magic"):
            ColumnarPayload(b"NOPE" + b"\x00" * 16)

    def test_retired_row_major_magic_is_rejected(self):
        # RXT1 (the pre-columnar row-major layout) is no longer decoded
        with pytest.raises(ExtentStoreError, match="bad magic"):
            decode_payload(b"RXT1" + b"\x00" * 16)
