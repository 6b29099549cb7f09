"""The front-tier result cache: the paper's trade, one tier up.

A procedure's result is worth keeping if invalidating it on update is
cheaper than recomputing it on access — the engine strategies play that
trade against the simulated disk. The serving tier plays it again in
front of the whole engine: a normalized-key result cache holding the
*projected rows* of recent procedure accesses, invalidated by the same
update stream that feeds the i-lock tables.

Three mechanisms bound staleness:

- **I-lock invalidation** (the correctness mechanism). Every
  cached entry holds i-locks on its procedure's
  :func:`~repro.locks.ilocks.footprint_of`: per member relation, the
  restriction's key interval when one exists, else the whole relation.
  The locks live in the engine's own :class:`~repro.locks.ilocks.
  ILockTable`, owned by cache key, and an update transaction's changed
  old/new values probe it once through the same sorted-runs sweep CI
  uses — Łopuszański's caching-layer invalidation (arXiv 2310.15360)
  answered by i-locks rather than by a second index. A broken lock drops
  the entry before any reader can see it.
- **TTL on the simulated clock** (the belt-and-braces bound): entries
  expire ``ttl_ms`` simulated milliseconds after insertion even if no
  invalidation arrives.
- **Capacity LRU eviction** (the space bound), as in the lakehouse
  query-cache exemplar.

The cache itself is front-tier bookkeeping: it never charges the
simulated clock. Misses recompute through the engine (which charges as
usual); hits cost nothing — exactly the asymmetry the hit-rate metric
prices.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.locks.ilocks import ILockTable, SortedValueRuns, footprint_of
from repro.query.plan import LockSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.procedure import DatabaseProcedure
    from repro.obs.registry import MetricsRegistry
    from repro.obs.telemetry import TelemetryBus
    from repro.sim.clock import CostClock
    from repro.storage.catalog import Catalog

#: ``get_or_compute`` outcome labels, in the exemplar API's vocabulary.
MODE_HIT = "cache_hit"
MODE_MISS = "cache_miss"
MODE_EXPIRED = "cache_expired"
MODE_UNCACHED = "uncached"


def canonical_rows(rows: Iterable[tuple]) -> tuple:
    """The serving tier's canonical response order: sorted rows.

    Physical scan order is an engine-level detail — clustered
    relocations and page splits legitimately reorder equal-key tuples
    without changing any value, and multi-shard engines interleave rows
    differently than shards=1. The front tier therefore guarantees
    *result* identity in a canonical order (the same convention the
    shard facade's differential harness uses), which also makes
    cache-on and cache-off responses bit-identical.
    """
    return tuple(sorted(rows))


def canonical_key(raw: str) -> str:
    """Normalize a request key: collapse internal whitespace, strip the
    surrounding whitespace and any trailing statement terminator, so
    ``" P1_007 ;"`` and ``"P1_007"`` share one cache line (the
    normalized-SQL matching of the lakehouse exemplar, scaled down to
    procedure names)."""
    key = " ".join(raw.split())
    while key.endswith(";"):
        key = key[:-1].rstrip()
    return key


@dataclass
class _Entry:
    rows: tuple
    expires_ms: Optional[float]


class ResultCache:
    """get_or_compute over canonicalized keys with sound invalidation.

    Only *registered* keys (see :meth:`register`) are cached — an
    unregistered key has no footprint, so its result passes through
    uncached rather than risk staleness. ``audit=True`` recomputes on
    every hit and counts disagreements as ``stale_reads`` — the bench
    gate's zero-stale proof runs with it on.
    """

    def __init__(
        self,
        clock: "CostClock",
        catalog: "Catalog",
        capacity: int = 256,
        ttl_ms: Optional[float] = None,
        registry: "MetricsRegistry | None" = None,
        telemetry: "TelemetryBus | None" = None,
        audit: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl_ms is not None and ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive (or None for no TTL)")
        self.clock = clock
        self.catalog = catalog
        self.capacity = capacity
        self.ttl_ms = ttl_ms
        self.registry = registry
        self.telemetry = telemetry
        self.audit = audit
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._footprints: dict[str, tuple[LockSpec, ...]] = {}
        #: i-locks of the stored entries, owned by cache key.
        self._locks = ILockTable()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_reads = 0

    # -- registration ------------------------------------------------------

    def register(self, procedure: "DatabaseProcedure") -> str:
        """Make ``procedure`` cacheable; returns its canonical key."""
        return self.register_key(
            procedure.name, footprint_of(procedure)
        )

    def register_key(
        self, raw_key: str, footprints: tuple[LockSpec, ...]
    ) -> str:
        """Make ``raw_key`` cacheable under an explicit footprint set —
        the general form of :meth:`register` for results whose
        dependencies are known without a bound procedure (and the hook
        the property-based oracle harness drives)."""
        key = canonical_key(raw_key)
        self._footprints[key] = tuple(footprints)
        return key

    def is_registered(self, raw_key: str) -> bool:
        return canonical_key(raw_key) in self._footprints

    # -- the exemplar API --------------------------------------------------

    def get_or_compute(
        self, raw_key: str, compute: Callable[[], Iterable[tuple]]
    ) -> tuple[tuple, str]:
        """Serve ``raw_key`` from cache or compute-and-fill.

        Returns ``(rows, mode)`` with mode one of ``cache_hit``,
        ``cache_miss``, ``cache_expired`` (present but past TTL, treated
        as a miss), or ``uncached`` (unregistered key, passthrough).
        """
        key = canonical_key(raw_key)
        footprints = self._footprints.get(key)
        if footprints is None:
            return tuple(compute()), MODE_UNCACHED
        now = self.clock.elapsed_ms
        entry = self._entries.get(key)
        mode = MODE_MISS
        if entry is not None:
            if entry.expires_ms is not None and now >= entry.expires_ms:
                self._drop(key)
                self.expirations += 1
                self._emit("serve.cache.expiration")
                mode = MODE_EXPIRED
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                self._emit("serve.cache.hit")
                if self.audit:
                    fresh = tuple(compute())
                    if fresh != entry.rows:
                        self.stale_reads += 1
                        self._emit("serve.cache.stale_read")
                        self._drop(key)
                        self._store(key, fresh, footprints)
                        return fresh, MODE_HIT
                return entry.rows, MODE_HIT
        if mode is MODE_MISS:
            self.misses += 1
            self._emit("serve.cache.miss")
        rows = tuple(compute())
        self._store(key, rows, footprints)
        return rows, mode

    # -- invalidation ------------------------------------------------------

    def on_update(
        self,
        relation: str,
        inserts: list[tuple],
        deletes: list[tuple],
    ) -> int:
        """Probe the entries' i-locks once with one update transaction's
        delta — the same ``deletes + inserts`` row stream the engine hands
        its i-lock sweep. Returns the number of entries dropped."""
        runs = SortedValueRuns(
            self.catalog.get(relation).schema.names(), deletes + inserts
        )
        return self._invalidate(
            self._locks.conflicting_procedures_swept(relation, runs)
        )

    def invalidate_table(self, relation: str) -> int:
        """Drop every entry whose footprint touches ``relation`` at all
        (interval or table level) — the coarse invalidate-by-table verb
        of the exemplar API. Returns the number dropped."""
        doomed = {
            key
            for key in self._entries
            if any(
                spec.relation == relation
                for spec in self._locks.locks_of(key)
            )
        }
        return self._invalidate(doomed)

    def clear(self) -> int:
        """Drop everything (counts as invalidations)."""
        return self._invalidate(set(self._entries))

    # -- stats -------------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.expirations

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_reads": self.stale_reads,
            "hit_rate": self.hit_rate,
        }

    # -- internals ---------------------------------------------------------

    def _emit(self, point: str) -> None:
        if self.registry is not None:
            self.registry.counter(point).inc()
        if self.telemetry is not None:
            self.telemetry.on_point(point, 1.0, self.clock.elapsed_ms)

    def _store(
        self, key: str, rows: tuple, footprints: tuple[LockSpec, ...]
    ) -> None:
        if key in self._entries:
            self._drop(key)
        expires = (
            None
            if self.ttl_ms is None
            else self.clock.elapsed_ms + self.ttl_ms
        )
        self._entries[key] = _Entry(rows, expires)
        self._locks.set_locks(key, footprints)
        while len(self._entries) > self.capacity:
            victim = next(iter(self._entries))
            self._drop(victim)
            self.evictions += 1
            self._emit("serve.cache.eviction")

    def _drop(self, key: str) -> None:
        if self._entries.pop(key, None) is not None:
            self._locks.clear_locks(key)

    def _invalidate(self, doomed: Iterable[str]) -> int:
        dropped = 0
        for key in sorted(doomed):
            if key in self._entries:
                self._drop(key)
                dropped += 1
                self.invalidations += 1
                self._emit("serve.cache.invalidation")
        return dropped
