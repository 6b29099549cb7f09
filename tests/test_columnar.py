"""Unit tests for struct-of-arrays column batches and their storage hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import (
    ColumnBatch,
    Field,
    HeapFile,
    Schema,
)
from repro.storage.columnar import int64_bounds, vector_compare
from repro.storage.matstore import MaterializedStore
from repro.storage.tuples import FieldKind


@pytest.fixture
def schema():
    return Schema(
        [Field("id"), Field("x", FieldKind.FLOAT), Field("s", FieldKind.STR)],
        tuple_bytes=1000,  # 4 tuples per 4000-byte page
    )


class TestColumnBatch:
    def test_select_returns_original_row_objects(self, schema):
        rows = [(1, 1.0, "a"), (2, 2.0, "b"), (3, 3.0, "c")]
        batch = ColumnBatch(schema, rows)
        picked = batch.select(np.array([True, False, True]))
        assert picked[0] is rows[0]
        assert picked[1] is rows[2]

    def test_take_shares_rows_and_rebuilds_columns(self, schema):
        rows = [(i, float(i), str(i)) for i in range(5)]
        batch = ColumnBatch(schema, rows)
        sub = batch.take(np.array([4, 1]))
        assert sub.to_rows() == [rows[4], rows[1]]
        assert sub.to_rows()[0] is rows[4]
        assert list(sub.column("id")) == [4, 1]

    def test_column_dtypes(self, schema):
        batch = ColumnBatch(schema, [(1, 2.5, "a"), (2, 3.5, "b")])
        assert batch.column("id").dtype == np.int64
        assert batch.column("x").dtype == np.float64
        assert batch.column("s").dtype == object

    def test_beyond_int64_values_fall_back_to_object(self, schema):
        lo, hi = int64_bounds()
        batch = ColumnBatch(schema, [(hi + 1, 0.0, ""), (lo, 0.0, "")])
        column = batch.column("id")
        assert column.dtype == object
        assert column[0] == hi + 1

    def test_iter_and_len(self, schema):
        rows = [(1, 1.0, "a"), (2, 2.0, "b")]
        batch = ColumnBatch.from_rows(schema, iter(rows))
        assert len(batch) == 2
        assert list(batch) == rows


class TestVectorCompare:
    def test_out_of_range_equality_is_constant(self):
        column = np.array([1, 2, 3], dtype=np.int64)
        assert not vector_compare(column, "=", 2**70).any()
        assert vector_compare(column, "!=", 2**70).all()

    def test_out_of_range_ordering_is_constant(self):
        lo, hi = int64_bounds()
        column = np.array([lo, 0, hi], dtype=np.int64)
        assert vector_compare(column, "<", hi + 1).all()
        assert not vector_compare(column, ">", hi + 1).any()
        assert vector_compare(column, ">=", lo - 1).all()
        assert not vector_compare(column, "<=", lo - 1).any()

    def test_object_column_result_is_bool_array(self):
        column = np.empty(3, dtype=object)
        column[:] = ["a", "b", "c"]
        mask = vector_compare(column, "<", "b")
        assert mask.dtype == np.bool_
        assert list(mask) == [True, False, False]


class TestPageColumnCache:
    def test_column_batch_cached_until_mutation(self, schema, buffer):
        heap = HeapFile("H", schema, buffer)
        rid = heap.insert((1, 1.0, "a"))
        heap.insert((2, 2.0, "b"))
        page = heap._page_uncharged(0)
        slots_a, batch_a = page.column_batch(schema)
        slots_b, batch_b = page.column_batch(schema)
        assert batch_a is batch_b and slots_a is slots_b
        heap.update(rid, (1, 9.0, "z"))
        _slots, batch_c = page.column_batch(schema)
        assert batch_c is not batch_a
        assert batch_c.to_rows() == [(1, 9.0, "z"), (2, 2.0, "b")]

    def test_deleted_slots_are_excluded(self, schema, buffer):
        heap = HeapFile("H", schema, buffer)
        rids = [heap.insert((i, float(i), str(i))) for i in range(3)]
        heap.delete(rids[1])
        slots, batch = heap._page_uncharged(0).column_batch(schema)
        assert slots == [0, 2]
        assert batch.to_rows() == [(0, 0.0, "0"), (2, 2.0, "2")]


class TestScanBatches:
    def test_matches_scan_rows_and_charges(self, schema, buffer, clock):
        heap = HeapFile("H", schema, buffer)
        for i in range(9):  # 3 pages at 4 tuples/page
            heap.insert((i, float(i), str(i)))
        before = clock.snapshot()
        scanned = [row for _rid, row in heap.scan()]
        scan_cost = clock.elapsed_since(before)
        before = clock.snapshot()
        batched: list = []
        page_nos = []
        for page_no, slots, batch in heap.scan_batches():
            page_nos.append(page_no)
            assert len(slots) == len(batch)
            batched.extend(batch.to_rows())
        batch_cost = clock.elapsed_since(before)
        assert batched == scanned
        assert page_nos == [0, 1, 2]
        assert batch_cost == scan_cost


class TestMatstoreColumnBatch:
    def test_matches_peek_all_uncharged(self, schema, buffer, clock):
        store = MaterializedStore("M", schema, buffer)
        store.load_silently([(1, 1.0, "a"), (2, 2.0, "b")])
        before = clock.snapshot()
        batch = store.column_batch()
        assert clock.elapsed_since(before) == 0.0
        assert sorted(batch.to_rows()) == [(1, 1.0, "a"), (2, 2.0, "b")]
        assert batch.schema is store.schema
