"""Page-backed materialized row stores.

A :class:`MaterializedStore` holds the materialised value of a procedure
result, an α-memory, or a β-memory: a multiset of rows laid out on simulated
disk pages. All of the paper's cache-side costs flow through it:

- ``C_read = C2 * ProcSize`` — :meth:`read_all` reads every page;
- ``C_WriteCache = 2 * C2 * ProcSize`` — :meth:`refresh` reads and rewrites
  every page of the new value;
- refresh-after-update ``2 * C2 * y(n, m, 2fl)`` — :meth:`apply_delta`
  touches (read + write) only the distinct pages holding changed tuples;
- and-node probes ``C2 * y(...)`` — :meth:`probe_many` fetches only the
  distinct pages holding matching tuples.

Row placement is randomised across pages with free space so that the pages
touched by a small delta follow the scattered-access distribution whose
expectation is the Yao function, exactly as the paper's model assumes.

Hash directories (value -> RIDs, per field) are memory-resident and free,
mirroring the treatment of hash indexes on base relations.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable

from repro.storage.buffer import BufferPool
from repro.storage.page import RID
from repro.storage.tuples import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.columnar import ColumnBatch


class MaterializedStore:
    """A paged multiset of rows with free-space-aware random placement.

    Args:
        name: backing disk file name (unique per store).
        schema: row schema; ``schema.tuple_bytes`` fixes page capacity. The
            paper assumes procedure-result tuples are ``S`` bytes regardless
            of join arity, so callers may pass a schema with an overridden
            width.
        buffer: buffer pool (charges the shared clock).
        seed: RNG seed for row placement. The first :meth:`_place`, the
            RNG's only reader, builds the RNG, so a store that is never
            filled (most of a large population's) holds none, and placement
            draws what an RNG built here would.
    """

    def __init__(
        self, name: str, schema: Schema, buffer: BufferPool, seed: int = 0
    ) -> None:
        self.name = name
        self.schema = schema
        self.buffer = buffer
        disk = buffer.disk
        self.tuples_per_page = max(1, disk.block_bytes // schema.tuple_bytes)
        if not disk.has_file(name):
            disk.create_file(name)
        self.seed = seed
        self._rng: random.Random | None = None
        self._rids: dict[Row, list[RID]] = {}
        self._free_pages: list[int] = []
        self._directories: dict[str, dict[Any, list[RID]]] = {}
        self._num_rows = 0

    # -- metadata ------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_pages(self) -> int:
        return self.buffer.disk.num_pages(self.name)

    def ensure_directory(self, field: str) -> None:
        """Create (once) an in-memory hash directory on ``field``."""
        if field in self._directories:
            return
        pos = self.schema.index_of(field)
        directory: dict[Any, list[RID]] = {}
        for row, rids in self._rids.items():
            for rid in rids:
                directory.setdefault(row[pos], []).append(rid)
        self._directories[field] = directory

    # -- internal placement -----------------------------------------------------

    def _place(self, row: Row) -> RID:
        """Put ``row`` on a random page with free space (page I/O is charged
        by the caller, which batches page touches)."""
        disk = self.buffer.disk
        if not self._free_pages:
            # Allocation is uncharged here: callers batch-charge every page
            # they touch (including fresh ones) after placement.
            page = disk.allocate_page(self.name, self.tuples_per_page, charge=False)
            self._free_pages.append(page.page_no)
        if self._rng is None:
            self._rng = random.Random(self.seed)
        page_no = self._rng.choice(self._free_pages)
        page = disk.peek_page(self.name, page_no)
        slot_no = page.insert(row)
        if page.is_full:
            self._free_pages.remove(page_no)
        rid = RID(page_no, slot_no)
        self._rids.setdefault(row, []).append(rid)
        for field, directory in self._directories.items():
            pos = self.schema.index_of(field)
            directory.setdefault(row[pos], []).append(rid)
        self._num_rows += 1
        return rid

    def _remove(self, row: Row) -> RID:
        """Remove one instance of ``row`` (I/O charged by the caller)."""
        rids = self._rids.get(row)
        if not rids:
            raise KeyError(f"row not present in store {self.name}: {row!r}")
        rid = rids.pop()
        if not rids:
            del self._rids[row]
        page = self.buffer.disk.peek_page(self.name, rid.page_no)
        page.delete(rid.slot_no)
        if rid.page_no not in self._free_pages:
            self._free_pages.append(rid.page_no)
        for field, directory in self._directories.items():
            pos = self.schema.index_of(field)
            bucket = directory[row[pos]]
            bucket.remove(rid)
            if not bucket:
                del directory[row[pos]]
        self._num_rows -= 1
        return rid

    # -- bulk operations (the paper's cost events) -------------------------------

    def apply_delta(
        self, inserts: Iterable[Row], deletes: Iterable[Row]
    ) -> int:
        """Apply a differential update, charging one read and one write per
        *distinct* page touched. Returns the number of pages touched.

        Deletes are processed before inserts so an update transaction
        (delete old value, insert new value) can reuse slots.
        """
        touched: set[int] = set()
        for row in deletes:
            touched.add(self._remove(row).page_no)
        for row in inserts:
            checked = self.schema.make_row(row)
            touched.add(self._place(checked).page_no)
        return self.buffer.fetch_many(self.name, touched, mark_dirty=True)

    def refresh(self, rows: Iterable[Row]) -> int:
        """Replace the entire contents with ``rows``.

        Charges one read plus one write per page of the *new* value — the
        paper's ``C_WriteCache = 2 * C2 * ProcSize`` ("read the pages
        currently in the cache, change their value, and write them back").
        Returns the number of pages of the new value.
        """
        self._clear_silently()
        touched: set[int] = set()
        for row in rows:
            checked = self.schema.make_row(row)
            touched.add(self._place(checked).page_no)
        return self.buffer.fetch_many(self.name, touched, mark_dirty=True)

    def _clear_silently(self) -> None:
        """Drop all rows without I/O (deallocation is a metadata operation)."""
        disk = self.buffer.disk
        for page_no in range(self.num_pages):
            page = disk.peek_page(self.name, page_no)
            for slot_no, _row in list(page.rows()):
                page.delete(slot_no)
        self._rids.clear()
        for directory in self._directories.values():
            directory.clear()
        self._free_pages = list(range(self.num_pages))
        self._num_rows = 0
        self.buffer.invalidate_file(self.name)

    def load_silently(self, rows: Iterable[Row]) -> None:
        """Populate the store without charging I/O.

        Build-time only: initialising a Rete memory or seeding a cache when
        a procedure is defined, which the paper treats as a one-time cost
        outside the per-access analysis.
        """
        for row in rows:
            self._place(self.schema.make_row(row))

    def read_all(self) -> list[Row]:
        """Read the full contents — one ``C2`` per occupied page (the
        paper's ``C_read``). Empty pages left by deletes are skipped, the
        way a page directory allows."""
        disk = self.buffer.disk
        if disk.injector is not None:
            # The ``cache.read`` fault point: may tear one of this store's
            # pages just before the read, so the checksum verification in
            # the page fetches below detects it in-flight.
            disk.injector.on_cache_read(self, disk.clock)
        out: list[Row] = []
        for page_no in range(self.num_pages):
            page = self.buffer.disk.peek_page(self.name, page_no)
            if page.is_empty:
                continue
            self.buffer.fetch(self.name, page_no)
            out.extend(row for _slot, row in page.rows())
        return out

    def peek_all(self) -> list[Row]:
        """Contents without I/O accounting — tests and invariants only."""
        return [row for row, rids in self._rids.items() for _ in rids]

    def column_batch(self) -> "ColumnBatch":
        """The current contents as a struct-of-arrays batch (uncharged,
        like :meth:`peek_all`) — the columnar view of this memory for
        vectorized screens and aggregate rebuilds."""
        from repro.storage.columnar import ColumnBatch

        return ColumnBatch(self.schema, self.peek_all())

    def probe_many(
        self, field: str, values: Iterable[Any]
    ) -> dict[Any, list[Row]]:
        """Rows matching each probe value, reading each distinct page once.

        This is the α/β-memory join probe: directory lookup is free, data
        pages cost ``C2`` each — the paper's ``Y5``/``Y8`` terms.
        """
        self.ensure_directory(field)
        directory = self._directories[field]
        hits: dict[Any, list[RID]] = {}
        pages: set[int] = set()
        for value in values:
            rids = directory.get(value, [])
            hits[value] = rids
            pages.update(rid.page_no for rid in rids)
        self.buffer.fetch_many(self.name, pages)
        out: dict[Any, list[Row]] = {}
        for value, rids in hits.items():
            rows = []
            for rid in rids:
                page = self.buffer.disk.peek_page(self.name, rid.page_no)
                rows.append(page.read(rid.slot_no))
            out[value] = rows
        return out

    def contains(self, row: Row) -> bool:
        """Whether at least one instance of ``row`` is stored."""
        return row in self._rids

    def count(self, row: Row) -> int:
        """Number of stored instances of ``row`` (multiset count)."""
        return len(self._rids.get(row, ()))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"MaterializedStore({self.name}, rows={self._num_rows}, "
            f"pages={self.num_pages})"
        )
