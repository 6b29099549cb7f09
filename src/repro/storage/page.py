"""Slotted pages and record identifiers."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.columnar import ColumnBatch
    from repro.storage.tuples import Schema


@dataclass(frozen=True, order=True)
class RID:
    """A record identifier: (page number, slot number) within a file."""

    page_no: int
    slot_no: int


class PageFullError(RuntimeError):
    """Raised when inserting into a page with no free slot."""


class Page:
    """A fixed-capacity slotted page of rows.

    Capacity is ``block_bytes // tuple_bytes`` — the paper's blocking factor
    (40 tuples per 4 000-byte block at the default 100-byte tuples). Deleted
    slots become holes that later inserts may reuse, so update-in-place keeps
    RIDs stable, as the paper's in-place update model requires.

    Integrity: each page carries a lazy stored checksum. ``None`` means the
    stored checksum is in sync with the contents (the common case — every
    legitimate mutation resets it), so :meth:`checksum_ok` costs nothing
    until fault injection tears a page by recording a *wrong* stored
    checksum via :meth:`mark_torn`. The disk verifies only when a
    :class:`~repro.faults.injector.FaultInjector` is installed.
    """

    __slots__ = (
        "page_no",
        "capacity",
        "_slots",
        "_live",
        "_stored_checksum",
        "_column_cache",
    )

    def __init__(self, page_no: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("page capacity must be positive")
        self.page_no = page_no
        self.capacity = capacity
        self._slots: list[Optional[Row]] = [None] * capacity
        self._live = 0
        self._stored_checksum: Optional[int] = None
        # (schema, slot_nos, ColumnBatch) — rebuilt lazily after mutation.
        self._column_cache: Optional[tuple] = None

    def __len__(self) -> int:
        return self._live

    @property
    def is_full(self) -> bool:
        return self._live >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self._live == 0

    def insert(self, row: Row) -> int:
        """Place ``row`` in the first free slot; return the slot number."""
        if self._live >= self.capacity:
            raise PageFullError(f"page {self.page_no} is full")
        try:
            slot_no = self._slots.index(None)
        except ValueError:
            raise PageFullError(
                f"page {self.page_no} has inconsistent occupancy"
            ) from None
        self._slots[slot_no] = row
        self._live += 1
        self._stored_checksum = None
        self._column_cache = None
        return slot_no

    def read(self, slot_no: int) -> Row:
        """Return the row in ``slot_no``; raises ``KeyError`` on empty slots."""
        row = self._slots[slot_no]
        if row is None:
            raise KeyError(f"slot {slot_no} of page {self.page_no} is empty")
        return row

    def overwrite(self, slot_no: int, row: Row) -> None:
        """Replace the row in an occupied slot (update-in-place)."""
        if self._slots[slot_no] is None:
            raise KeyError(f"slot {slot_no} of page {self.page_no} is empty")
        self._slots[slot_no] = row
        self._stored_checksum = None
        self._column_cache = None

    def delete(self, slot_no: int) -> Row:
        """Remove and return the row in ``slot_no``."""
        row = self.read(slot_no)
        self._slots[slot_no] = None
        self._live -= 1
        self._stored_checksum = None
        self._column_cache = None
        return row

    # -- integrity --------------------------------------------------------

    def compute_checksum(self) -> int:
        """CRC32 over the page image. ``repr`` bytes rather than ``hash()``
        because string hashing is salted per process; CRC is stable across
        runs, which seed-determinism tests rely on."""
        return zlib.crc32(repr(self._slots).encode())

    def checksum_ok(self) -> bool:
        """Whether the stored checksum (if any) matches the contents."""
        stored = self._stored_checksum
        return stored is None or stored == self.compute_checksum()

    def mark_torn(self) -> None:
        """Corrupt the page in place (a torn write): record a stored
        checksum that cannot match the contents. Any subsequent legitimate
        mutation rewrites the page and heals it."""
        self._stored_checksum = self.compute_checksum() ^ 0xA5A5A5A5

    @property
    def is_torn(self) -> bool:
        return not self.checksum_ok()

    def rows(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(slot_no, row)`` for every occupied slot, in slot order."""
        for slot_no, row in enumerate(self._slots):
            if row is not None:
                yield slot_no, row

    def column_batch(
        self, schema: "Schema"
    ) -> tuple[list[int], "ColumnBatch"]:
        """This page's live rows as ``(slot_nos, ColumnBatch)``, slot order.

        Cached until the next mutation; pages are fetched once per scan but
        scanned by many plans, so the transpose cost amortises. The cache is
        keyed by schema identity — each heap/store passes its own schema
        object, so a mismatch only happens across files, which never share
        pages.
        """
        cache = self._column_cache
        if cache is not None and cache[0] is schema:
            return cache[1], cache[2]
        from repro.storage.columnar import ColumnBatch

        slot_nos: list[int] = []
        live_rows: list[Row] = []
        for slot_no, row in enumerate(self._slots):
            if row is not None:
                slot_nos.append(slot_no)
                live_rows.append(row)
        batch = ColumnBatch(schema, live_rows)
        self._column_cache = (schema, slot_nos, batch)
        return slot_nos, batch

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Page(no={self.page_no}, live={self._live}/{self.capacity})"
