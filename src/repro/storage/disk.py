"""The simulated disk.

The disk manager owns every page of every file and charges the cost clock
``C2`` for each page read and each page write. It deliberately has *no*
caching — the paper's cost model assumes every page touch is a disk I/O.
Caching, when wanted, is layered on top by :class:`repro.storage.BufferPool`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.sim import CostClock
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


class UnknownFileError(KeyError):
    """Raised when addressing a file the disk has never heard of."""


@lru_cache(maxsize=4096)
def _io_events(name: str) -> tuple[str, str]:
    """The per-file-family (read, write) event names of file ``name``,
    resolved once per file rather than formatted per page: ``cache.p12``
    and ``rete.beta.7`` both collapse to their first dotted component,
    base relation heaps (``R1``) stay as-is — keeps metric cardinality
    bounded however many procedures a run defines."""
    group = name.partition(".")[0]
    return f"disk.read.pages:{group}", f"disk.write.pages:{group}"


class DiskManager:
    """A set of named files, each an extendable array of pages.

    Args:
        clock: the shared cost clock charged for every I/O.
        block_bytes: bytes per disk block — the paper's ``B``.
    """

    def __init__(self, clock: CostClock, block_bytes: int = 4000) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.clock = clock
        self.block_bytes = block_bytes
        self._files: dict[str, list[Page]] = {}
        #: Optional fault injector (chaos runs only). ``None`` keeps every
        #: I/O on the exact pre-fault-subsystem path — the zero-overhead
        #: guard, mirroring ``clock.tracer is None``.
        self.injector: "FaultInjector | None" = None

    def create_file(self, name: str) -> None:
        """Register an empty file; idempotent re-creation is an error."""
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        self._files[name] = []

    def has_file(self, name: str) -> bool:
        return name in self._files

    def drop_file(self, name: str) -> None:
        """Remove a file and all its pages (no I/O charged)."""
        self._pages(name)
        del self._files[name]

    def _pages(self, name: str) -> list[Page]:
        try:
            return self._files[name]
        except KeyError:
            raise UnknownFileError(f"no file named {name!r}") from None

    def num_pages(self, name: str) -> int:
        return len(self._pages(name))

    def allocate_page(self, name: str, capacity: int, charge: bool = True) -> Page:
        """Append a fresh page to ``name`` and return it.

        ``charge=True`` bills one write (formatting the new block);
        ``charge=False`` is for callers that account the page's first write
        themselves (e.g. batched store deltas) or run at definition time.
        """
        pages = self._pages(name)
        page = Page(page_no=len(pages), capacity=capacity)
        pages.append(page)
        if charge:
            tracer = self.clock.tracer
            if tracer is not None:
                tracer.event("disk.alloc.pages")
            self.clock.charge_write(1)
        return page

    def read_page(self, name: str, page_no: int) -> Page:
        """Fetch a page, charging one disk read."""
        pages = self._pages(name)
        if not 0 <= page_no < len(pages):
            raise IndexError(f"file {name!r} has no page {page_no}")
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.event("disk.read.pages")
            tracer.event(_io_events(name)[0])
        self.clock.charge_read(1)
        page = pages[page_no]
        if self.injector is not None:
            self.injector.before_read(name, page, self.clock)
            if not page.checksum_ok():
                self.injector.corruption_detected(name, page_no, self.clock)
        return page

    def write_page(self, name: str, page_no: int) -> None:
        """Charge one disk write for flushing ``page_no``.

        Pages are mutated in memory by callers; this call accounts for the
        flush. Separating mutation from accounting lets the buffer pool defer
        and coalesce writes.
        """
        pages = self._pages(name)
        if not 0 <= page_no < len(pages):
            raise IndexError(f"file {name!r} has no page {page_no}")
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.event("disk.write.pages")
            tracer.event(_io_events(name)[1])
        self.clock.charge_write(1)
        if self.injector is not None:
            self.injector.before_write(name, pages[page_no], self.clock)

    def peek_page(self, name: str, page_no: int) -> Page:
        """Fetch a page *without* charging I/O.

        Only the buffer pool (cache hits) and test assertions should use
        this; strategy code must go through :meth:`read_page`.
        """
        pages = self._pages(name)
        if not 0 <= page_no < len(pages):
            raise IndexError(f"file {name!r} has no page {page_no}")
        return pages[page_no]

    def file_names(self) -> list[str]:
        return sorted(self._files)
