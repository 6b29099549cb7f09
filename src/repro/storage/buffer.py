"""An LRU buffer pool over the simulated disk.

The paper's cost model assumes *no* buffering: every page touched costs one
disk I/O. The pool therefore defaults to ``capacity=0`` (pure pass-through).
A positive capacity enables classic LRU caching with deferred write-back,
which the extension benchmarks use to show how the paper's 1987 conclusions
shift once pages stay resident in memory.

When a tracer is attached to the clock (``repro.obs``), every fetch also
emits a ``cache.hit`` / ``cache.miss`` event; unobserved runs skip the
emission entirely. With nothing attached at all — no tracer, no
attribution sink, no fault injector — a pass-through pool does the disk's
range check and the clock's charge in its own frame (DESIGN.md "Row path").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.storage.disk import DiskManager, UnknownFileError
from repro.storage.page import Page

FrameKey = tuple[str, int]


class BufferPool:
    """Page access with optional LRU caching and write-back.

    Args:
        disk: the underlying disk manager (charges the clock).
        capacity: number of page frames. ``0`` disables caching entirely:
            every :meth:`fetch` charges a read and every :meth:`mark_dirty`
            charges a write, which is exactly the paper's cost accounting.
    """

    def __init__(self, disk: DiskManager, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0")
        self.disk = disk
        self.capacity = capacity
        self._frames: OrderedDict[FrameKey, Page] = OrderedDict()
        self._dirty: set[FrameKey] = set()
        self.hits = 0
        self.misses = 0

    def fetch(self, file_name: str, page_no: int) -> Page:
        """Return the requested page, charging a read only on a miss."""
        disk = self.disk
        clock = disk.clock
        tracer = clock.tracer
        if self.capacity == 0:
            self.misses += 1
            if tracer is None and clock._sink is None and disk.injector is None:
                # Nobody is watching: DiskManager.read_page and
                # CostClock.charge_read(1), in this frame.
                pages = disk._files.get(file_name)
                if pages is None:
                    raise UnknownFileError(f"no file named {file_name!r}")
                if not 0 <= page_no < len(pages):
                    raise IndexError(f"file {file_name!r} has no page {page_no}")
                clock._disk_reads += 1
                clock._elapsed_ms += clock.params.c2
                return pages[page_no]
            if tracer is not None:
                tracer.event("cache.miss")
            return disk.read_page(file_name, page_no)
        key = (file_name, page_no)
        if key in self._frames:
            self.hits += 1
            if tracer is not None:
                tracer.event("cache.hit")
            self._frames.move_to_end(key)
            return self._frames[key]
        self.misses += 1
        if tracer is not None:
            tracer.event("cache.miss")
        page = self.disk.read_page(file_name, page_no)
        self._admit(key, page)
        return page

    def fetch_many(
        self,
        file_name: str,
        page_nos: Iterable[int],
        mark_dirty: bool = False,
    ) -> int:
        """Touch a set of pages in sorted page order, optionally dirtying
        each — the batched flush primitive under the materialized stores:
        one deterministic pass per distinct page, however many delta rows
        landed on it. Returns the number of distinct pages touched."""
        distinct = sorted(set(page_nos))
        for page_no in distinct:
            self.fetch(file_name, page_no)
            if mark_dirty:
                self.mark_dirty(file_name, page_no)
        return len(distinct)

    def mark_dirty(self, file_name: str, page_no: int) -> None:
        """Record that a fetched page was modified.

        Pass-through mode charges the write immediately; cached mode defers
        it until eviction or :meth:`flush_all`.
        """
        if self.capacity == 0:
            disk = self.disk
            clock = disk.clock
            if clock.tracer is None and clock._sink is None and disk.injector is None:
                # DiskManager.write_page and charge_write(1), in this frame.
                pages = disk._files.get(file_name)
                if pages is None:
                    raise UnknownFileError(f"no file named {file_name!r}")
                if not 0 <= page_no < len(pages):
                    raise IndexError(f"file {file_name!r} has no page {page_no}")
                clock._disk_writes += 1
                clock._elapsed_ms += clock.params.c2
                return
            disk.write_page(file_name, page_no)
            return
        key = (file_name, page_no)
        if key not in self._frames:
            # The page was modified without being resident (e.g. a fresh
            # allocation) — account for the write immediately.
            self.disk.write_page(file_name, page_no)
            return
        self._dirty.add(key)

    def _admit(self, key: FrameKey, page: Page) -> None:
        self._frames[key] = page
        self._frames.move_to_end(key)
        while len(self._frames) > self.capacity:
            victim_key, _victim = self._frames.popitem(last=False)
            if victim_key in self._dirty:
                self._dirty.discard(victim_key)
                self.disk.write_page(victim_key[0], victim_key[1])

    def flush_all(self) -> int:
        """Write back every dirty frame; return the number written."""
        written = 0
        for key in sorted(self._dirty):
            self.disk.write_page(key[0], key[1])
            written += 1
        self._dirty.clear()
        return written

    def invalidate_file(self, file_name: str) -> None:
        """Drop (without write-back) all frames of ``file_name`` — used when
        a file is truncated and its cached pages are meaningless."""
        stale = [key for key in self._frames if key[0] == file_name]
        for key in stale:
            del self._frames[key]
            self._dirty.discard(key)

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches served from the pool (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
