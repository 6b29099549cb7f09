"""Heap files: unordered tuple storage with stable RIDs.

A heap file stores a relation's tuples in slotted pages. Tuples per page is
``B // S`` (40 at the paper's defaults). Updates are in-place — the paper's
update transactions "modify ``l`` tuples of ``R1`` in place" — so a tuple's
RID never changes and indexes stay valid across value updates of non-key
fields.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.storage.buffer import BufferPool
from repro.storage.page import Page, RID
from repro.storage.tuples import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.predicate import Predicate
    from repro.storage.columnar import ColumnBatch


class HeapFile:
    """One relation's tuple storage.

    Args:
        name: file name in the disk manager (usually the relation name).
        schema: the relation's schema; fixes the per-page tuple capacity.
        buffer: buffer pool used for all page access (charges the clock).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        buffer: BufferPool,
        fill_factor: float = 1.0,
    ) -> None:
        if not 0 < fill_factor <= 1:
            raise ValueError("fill_factor must be in (0, 1]")
        self.name = name
        self.schema = schema
        self.buffer = buffer
        disk = buffer.disk
        self.tuples_per_page = max(1, disk.block_bytes // schema.tuple_bytes)
        # Regular inserts stop at fill_factor * capacity, reserving in-page
        # slack so clustered relocation (insert_near) can keep moved tuples
        # next to their key neighbours — standard practice for clustered
        # tables. insert_near may fill pages to true capacity.
        self.fill_threshold = max(1, int(self.tuples_per_page * fill_factor))
        if not disk.has_file(name):
            disk.create_file(name)
        self._num_rows = 0
        # Lazy min-heap over pages that may still be below fill_threshold.
        # Entries go stale when insert_near fills a page past the threshold;
        # insert pops them on contact, so selecting the lowest-numbered
        # open page is O(log n) amortised instead of a full sorted scan.
        self._open_heap: list[int] = []
        self._open_set: set[int] = set()

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_pages(self) -> int:
        return self.buffer.disk.num_pages(self.name)

    def _note_open(self, page_no: int) -> None:
        """Record that ``page_no`` may have dropped below the threshold."""
        if page_no not in self._open_set:
            self._open_set.add(page_no)
            heapq.heappush(self._open_heap, page_no)

    def _drop_open(self, page_no: int) -> None:
        if page_no in self._open_set and (
            self._open_heap and self._open_heap[0] == page_no
        ):
            self._open_set.discard(page_no)
            heapq.heappop(self._open_heap)

    def insert(self, row: Row) -> RID:
        """Store ``row`` and return its RID (one read + one write, or a
        single formatting write when a fresh page is allocated).

        Placement picks the lowest-numbered page still below the fill
        threshold (the same page the historical sorted free-set scan chose),
        found through the lazy heap above.
        """
        return self._insert(self.schema.make_row(row))

    def _insert(self, row: Row) -> RID:
        """:meth:`insert` for a row ``schema.make_row`` already returned."""
        page_no = None
        while self._open_heap:
            candidate = self._open_heap[0]
            candidate_page = self.buffer.disk.peek_page(self.name, candidate)
            if len(candidate_page) < self.fill_threshold:
                page_no = candidate
                break
            # Stale entry: insert_near filled it to (or past) the threshold.
            self._open_set.discard(candidate)
            heapq.heappop(self._open_heap)
        if page_no is not None:
            page = self.buffer.fetch(self.name, page_no)
        else:
            page = self.buffer.disk.allocate_page(self.name, self.tuples_per_page)
            page_no = page.page_no
            self._note_open(page_no)
        slot_no = page.insert(row)
        if len(page) >= self.fill_threshold:
            self._drop_open(page_no)
        self.buffer.mark_dirty(self.name, page_no)
        self._num_rows += 1
        return RID(page_no, slot_no)

    def insert_near(self, row: Row, preferred_page_no: int) -> RID:
        """Insert ``row`` into ``preferred_page_no`` when it has space,
        falling back to a normal insert. Used to keep a relation clustered
        on its primary key when updates move a tuple's key: the new version
        is placed next to its key neighbours."""
        return self._insert_near(self.schema.make_row(row), preferred_page_no)

    def _insert_near(self, row: Row, preferred_page_no: int) -> RID:
        """:meth:`insert_near` for an already-validated row."""
        if 0 <= preferred_page_no < self.num_pages:
            page = self.buffer.fetch(self.name, preferred_page_no)
            if not page.is_full:
                slot_no = page.insert(row)
                self.buffer.mark_dirty(self.name, preferred_page_no)
                self._num_rows += 1
                return RID(preferred_page_no, slot_no)
        return self._insert(row)

    def bulk_load(self, rows: Iterable[Row]) -> list[RID]:
        """Insert many rows; same accounting as repeated :meth:`insert`."""
        return [self.insert(row) for row in rows]

    def read(self, rid: RID) -> Row:
        """Fetch the row at ``rid`` (one page read)."""
        page = self.buffer.fetch(self.name, rid.page_no)
        return page.read(rid.slot_no)

    def update(self, rid: RID, new_row: Row) -> Row:
        """Overwrite the row at ``rid`` in place; returns the old row."""
        new_row = self.schema.make_row(new_row)
        page = self.buffer.fetch(self.name, rid.page_no)
        old_row = page.read(rid.slot_no)
        page.overwrite(rid.slot_no, new_row)
        self.buffer.mark_dirty(self.name, rid.page_no)
        return old_row

    def delete(self, rid: RID) -> Row:
        """Remove and return the row at ``rid``."""
        page = self.buffer.fetch(self.name, rid.page_no)
        old_row = page.delete(rid.slot_no)
        self.buffer.mark_dirty(self.name, rid.page_no)
        if len(page) < self.fill_threshold:
            self._note_open(rid.page_no)
        self._num_rows -= 1
        return old_row

    def scan(self) -> Iterator[tuple[RID, Row]]:
        """Full scan: reads every page once, yielding ``(rid, row)``."""
        for page_no in range(self.num_pages):
            page = self.buffer.fetch(self.name, page_no)
            for slot_no, row in page.rows():
                yield RID(page_no, slot_no), row

    def scan_batches(
        self,
    ) -> Iterator[tuple[int, list[int], "ColumnBatch"]]:
        """Columnar full scan: one ``(page_no, slot_nos, ColumnBatch)`` per
        page, with exactly the same page-fetch accounting as :meth:`scan`
        (every page read once, empty pages included)."""
        for page_no in range(self.num_pages):
            page = self.buffer.fetch(self.name, page_no)
            slot_nos, batch = page.column_batch(self.schema)
            yield page_no, slot_nos, batch

    def find_first(
        self, matches: Callable[[Row], bool]
    ) -> Optional[tuple[RID, Row]]:
        """Scan until the first row satisfying ``matches`` (or ``None``)."""
        for rid, row in self.scan():
            if matches(row):
                return rid, row
        return None

    def scan_uncharged(self) -> Iterator[tuple[RID, Row]]:
        """Full scan without I/O accounting.

        For build-time work only (populating Rete memories when a procedure
        is defined) — the paper treats plan/network construction as a
        one-time cost outside the per-access analysis.
        """
        disk = self.buffer.disk
        for page_no in range(self.num_pages):
            page = disk.peek_page(self.name, page_no)
            for slot_no, row in page.rows():
                yield RID(page_no, slot_no), row

    def matching_uncharged(self, predicate: "Predicate") -> list[Row]:
        """The rows satisfying ``predicate``, in page/slot order, without
        I/O accounting — the one define-time scan (Rete α-loads, AVM's
        initial values). One vector screen per page."""
        # Imported here: repro.query is built on repro.storage.
        from repro.query.predicate import compiled_column_matcher

        mask_of = compiled_column_matcher(predicate, self.schema)
        disk = self.buffer.disk
        out: list[Row] = []
        for page_no in range(self.num_pages):
            page = disk.peek_page(self.name, page_no)
            if not page.is_empty:
                _slot_nos, batch = page.column_batch(self.schema)
                out.extend(batch.select(mask_of(batch)))
        return out

    def _page_uncharged(self, page_no: int) -> Page:
        """Direct page access without I/O accounting — tests only."""
        return self.buffer.disk.peek_page(self.name, page_no)
