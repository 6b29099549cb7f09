"""Each piece of the row path equals the piece it replaced.

``Schema.make_row``'s exact-type shortcut against a loop over
``Field.accepts``; the pool's one-frame ``fetch``/``mark_dirty`` against
``DiskManager.read_page``/``write_page``; ``Relation.update_clustered``'s
validate-before-mutate contract (what the heap's private entry points
trust); the define-time scan against a row-at-a-time screened scan.
(``ceiling_entry`` vs ``range_scan`` lives in ``test_btree_property.py``.)
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.predicate import And, Comparison, Interval, TruePredicate
from repro.sim import CostClock, CostParams
from repro.storage import (
    BufferPool,
    Catalog,
    DiskManager,
    Field,
    FieldKind,
    Schema,
)
from repro.storage.disk import UnknownFileError
from repro.storage.tuples import SchemaError


# -- (a) make_row vs a loop over Field.accepts ---------------------------


class _MyInt(int):
    pass


_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.none(),
    st.integers(-5, 5).map(np.int64),
    st.floats(-5, 5).map(np.float64),
    st.booleans().map(np.bool_),
    st.text(max_size=3).map(np.str_),
    st.integers(-5, 5).map(_MyInt),
)


def _reference_make_row(schema: Schema, values) -> tuple:
    row = tuple(values)
    if len(row) != len(schema.fields):
        raise SchemaError("arity")
    for field, value in zip(schema.fields, row):
        if not field.accepts(value):
            raise SchemaError("type")
    return row


@given(
    kinds=st.lists(st.sampled_from(list(FieldKind)), min_size=1, max_size=4),
    values=st.lists(_values, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_make_row_agrees_with_accepts_loop(kinds, values):
    schema = Schema([Field(f"f{i}", kind) for i, kind in enumerate(kinds)])
    try:
        expected = _reference_make_row(schema, values)
    except SchemaError:
        with pytest.raises(SchemaError):
            schema.make_row(values)
        return
    got = schema.make_row(values)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


def test_python_type_table():
    assert [kind.python_type() for kind in FieldKind] == [int, float, str]
    assert Field("x", FieldKind.FLOAT).storage_type is float
    # Derived, not identity: equal fields stay equal and hash alike.
    assert Field("x") == Field("x", FieldKind.INT)
    assert hash(Field("x")) == hash(Field("x", FieldKind.INT))


# -- (c) one-frame fetch / mark_dirty vs read_page / write_page ----------


def _pool(pages: int = 3, c2: float = 30.0):
    clock = CostClock(CostParams(c2=c2))
    disk = DiskManager(clock)
    disk.create_file("R1")
    for _ in range(pages):
        disk.allocate_page("R1", capacity=4, charge=False)
    return clock, disk, BufferPool(disk)


@pytest.mark.parametrize("c2", [30.0, 0.1, 7])
def test_unobserved_touch_charges_what_the_disk_charges(c2):
    clock, disk, pool = _pool(c2=c2)
    ref_clock, ref_disk, _ref_pool = _pool(c2=c2)
    for page_no in (0, 2, 1, 2):
        assert pool.fetch("R1", page_no) is disk.peek_page("R1", page_no)
        pool.mark_dirty("R1", page_no)
        ref_disk.read_page("R1", page_no)
        ref_disk.write_page("R1", page_no)
    assert clock.snapshot() == ref_clock.snapshot()
    assert type(clock.elapsed_ms) is type(ref_clock.elapsed_ms)
    assert (pool.hits, pool.misses) == (0, 4)


@pytest.mark.parametrize(
    "file_name, page_no, error",
    [("nope", 0, UnknownFileError), ("R1", 3, IndexError), ("R1", -1, IndexError)],
)
def test_unobserved_touch_raises_what_the_disk_raises(file_name, page_no, error):
    clock, disk, pool = _pool()
    for touch, reference in (
        (pool.fetch, disk.read_page),
        (pool.mark_dirty, disk.write_page),
    ):
        with pytest.raises(error) as expected:
            reference(file_name, page_no)
        with pytest.raises(error) as got:
            touch(file_name, page_no)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
    assert clock.snapshot() == CostClock().snapshot()
    assert pool.misses == 1  # a failed fetch still counted, as before


class _Recorder:
    """A tracer, an attribution sink and a fault injector, all in one."""

    def __init__(self) -> None:
        self.seen: list[tuple] = []

    def event(self, name, n=1):
        self.seen.append(("event", name))

    def sink(self, kind, ms, count):
        self.seen.append(("charge", kind, ms, count))

    def before_read(self, file_name, page, clock):
        self.seen.append(("before_read", file_name, page.page_no))

    def before_write(self, file_name, page, clock):
        self.seen.append(("before_write", file_name, page.page_no))


def _touch_three_pages(pool: BufferPool) -> None:
    for page_no in range(3):
        pool.fetch("R1", page_no)
    pool.mark_dirty("R1", 1)


def test_a_tracer_sees_every_page_event():
    clock, _disk, pool = _pool()
    recorder = _Recorder()
    clock.set_attribution(recorder.sink, recorder)
    _touch_three_pages(pool)
    # The parent's literal for a 3-page read and one write.
    assert recorder.seen == [
        ("event", "cache.miss"),
        ("event", "disk.read.pages"),
        ("event", "disk.read.pages:R1"),
        ("charge", "read", 30.0, 1),
    ] * 3 + [
        ("event", "disk.write.pages"),
        ("event", "disk.write.pages:R1"),
        ("charge", "write", 30.0, 1),
    ]


def test_a_bare_sink_sees_every_charge():
    clock, _disk, pool = _pool()
    recorder = _Recorder()
    clock.set_attribution(recorder.sink)
    _touch_three_pages(pool)
    assert recorder.seen == [("charge", "read", 30.0, 1)] * 3 + [
        ("charge", "write", 30.0, 1)
    ]


def test_an_injector_is_asked_about_every_page():
    clock, disk, pool = _pool()
    recorder = _Recorder()
    disk.injector = recorder
    _touch_three_pages(pool)
    assert recorder.seen == [
        ("before_read", "R1", 0),
        ("before_read", "R1", 1),
        ("before_read", "R1", 2),
        ("before_write", "R1", 1),
    ]
    assert (clock.disk_reads, clock.disk_writes) == (3, 1)


# -- (d) update_clustered validates before it mutates --------------------


@pytest.mark.parametrize(
    "bad_row", [(0,), (0, 1, 2), (0, True), (0, "7"), (0, np.int64(7))]
)
def test_update_clustered_rejects_before_mutating(catalog, bad_row):
    rel = catalog.create_relation(
        "RC", Schema([Field("id"), Field("k")], tuple_bytes=1000), 0.75
    )
    rids = [rel.insert((i, i * 10)) for i in range(24)]
    btree = rel.create_btree_index("k", fanout=4)
    hashed = rel.create_hash_index("id")

    def state():
        return (
            list(rel.heap.scan_uncharged()),
            {nid: (list(getattr(n, "entries", ())), list(getattr(n, "keys", ())))
             for nid, n in btree._nodes.items()},
            sorted(hashed.items()),
            rel.num_rows,
        )

    before, clock_before = state(), rel.heap.buffer.disk.clock.snapshot()
    with pytest.raises(SchemaError):
        rel.update_clustered(rids[3], bad_row, "k")
    assert state() == before
    assert rel.heap.buffer.disk.clock.snapshot() == clock_before


# -- (e) the define-time scan: one vector screen per page -----------------


def _heap_with_holes_and_an_empty_page():
    catalog = Catalog(BufferPool(DiskManager(CostClock())))
    r1 = catalog.create_relation(
        "R1", Schema([Field("id1"), Field("sel"), Field("a")], tuple_bytes=100)
    )
    rng = random.Random(11)
    rids = [r1.insert((i, rng.randrange(1000), rng.randrange(60))) for i in range(200)]
    for rid in rids:
        # Page 2 ends up empty; the others get holes.
        if rid.page_no == 2 or rng.random() < 0.3:
            r1.delete(rid)
    assert r1.heap._page_uncharged(2).is_empty and r1.num_pages == 5
    return r1.heap


@pytest.mark.parametrize(
    "predicate",
    [
        Interval("sel", 100, 700),
        And(Interval("sel", 100, 700), Comparison("a", "!=", 7)),
        Comparison("sel", ">", 2000),
        TruePredicate(),
    ],
    ids=["interval", "interval-and-not-equal", "no-match", "true"],
)
def test_matching_uncharged_is_a_screened_row_scan(predicate):
    heap = _heap_with_holes_and_an_empty_page()
    clock_before = heap.buffer.disk.clock.snapshot()
    matches = predicate.bind(heap.schema)
    expected = [row for _rid, row in heap.scan_uncharged() if matches(row)]
    assert heap.matching_uncharged(predicate) == expected
    assert heap.buffer.disk.clock.snapshot() == clock_before
