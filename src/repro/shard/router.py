"""The shard router: key-range partitioning plus per-shard i-locks.

Two routing questions live here:

1. **Where does a procedure live?** (:meth:`ShardRouter.assign`) — the
   partition relation's key domain is split into ``S`` contiguous ranges
   and a procedure's *home* shard is the range holding the low bound of
   its restriction interval on the partition field. Procedures sharing a
   ``C_f(R1)`` interval (the paper's sharing factor) therefore share a
   home shard, so RVM's hash-consed α-memories keep their sharing inside
   one shard. Procedures with no partition-field interval hash to a
   stable home (CRC-32 of the name — independent of definition order).

2. **Which shards must see an update?** (:meth:`ShardRouter.
   route_runs`) — at definition time the procedure's
   :func:`~repro.locks.ilocks.footprint_of` widens one conservative hull
   per ``(relation, field)`` for its home shard, and the home's hulls are
   registered as i-locks owned by the shard id in an
   :class:`~repro.locks.ilocks.ILockTable`. Routing is that table's one
   sorted-runs probe over the batch's memoized
   :class:`~repro.locks.ilocks.SortedValueRuns` — the same runs every
   shard's own i-lock probe then reuses; a shard whose hulls miss every
   changed old/new value provably hosts no affected procedure, and a
   routed shard's own engine re-verifies precisely (i-locks, AVM screens,
   Rete t-consts). A restriction with no extractable interval makes the
   relation *catch-all* for that home shard: a whole-relation i-lock, so
   every write to the relation routes there.

Routing is memory-resident bookkeeping — like the i-lock table, it never
charges the simulated clock.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Optional

from repro.locks.ilocks import ILockTable, SortedValueRuns
from repro.query.plan import LockSpec
from repro.query.predicate import KeyInterval


class _Hull:
    """Conservative closed hull of one shard's intervals on one field.

    Merging every registered interval into a single ``[lo, hi]`` hull
    keeps probes O(1) per shard; it can only over-approximate (routing a
    shard that turns out unaffected), never miss. Inclusive bounds for
    the same reason: widening is safe, narrowing is not.
    """

    __slots__ = ("lo", "hi", "unbounded_lo", "unbounded_hi")

    def __init__(self) -> None:
        self.lo: Any = None
        self.hi: Any = None
        self.unbounded_lo = False
        self.unbounded_hi = False

    def add(self, interval: KeyInterval) -> None:
        if interval.lo is None:
            self.unbounded_lo = True
        elif self.lo is None or interval.lo < self.lo:
            self.lo = interval.lo
        if interval.hi is None:
            self.unbounded_hi = True
        elif self.hi is None or interval.hi > self.hi:
            self.hi = interval.hi

    def as_interval(self, field: str) -> KeyInterval:
        return KeyInterval(
            field,
            None if self.unbounded_lo else self.lo,
            None if self.unbounded_hi else self.hi,
        )


class ShardRouter:
    """Key-range partitioner plus per-shard i-locks mapping changed
    column values to affected shards.

    Args:
        num_shards: number of shards ``S`` (>= 1).
        domain: size of the partition key's integer domain ``[0,
            domain)`` — for the paper's workload, ``R1.sel``'s domain.
        relation / field: the partition relation and key field.
    """

    def __init__(
        self,
        num_shards: int,
        domain: int,
        relation: str = "R1",
        field: str = "sel",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if domain < 1:
            raise ValueError("domain must be >= 1")
        self.num_shards = num_shards
        self.domain = domain
        self.partition_relation = relation
        self.partition_field = field
        #: ``(relation, field) -> [hull or None] * num_shards``.
        self._index: dict[tuple[str, str], list[Optional[_Hull]]] = {}
        #: relation -> shards whose procedures read it without an
        #: extractable interval (every write routes there).
        self._catch_all: dict[str, set[int]] = {}
        self._home: dict[str, int] = {}
        #: Each shard's hulls and catch-alls as i-locks, owned by shard id.
        self._locks = ILockTable()
        #: Routing telemetry (the sizing layer reports these).
        self.routed_updates = 0
        self.routed_shard_visits = 0

    # -- partitioning ------------------------------------------------------

    def shard_of_key(self, value: Any) -> int:
        """The unique shard owning partition-key ``value``.

        The domain splits into ``S`` contiguous ranges; out-of-domain
        values clamp to the edge shards. Total and disjoint: every value
        maps to exactly one shard, boundaries deterministically (the
        hypothesis property test pins this).
        """
        key = int(value)
        if key < 0:
            return 0
        if key >= self.domain:
            return self.num_shards - 1
        return (key * self.num_shards) // self.domain

    def key_ranges(self) -> list[tuple[int, int]]:
        """Per-shard half-open ``[lo, hi)`` partition-key ranges."""
        ranges = []
        for shard in range(self.num_shards):
            lo = -(-shard * self.domain // self.num_shards)
            hi = -(-(shard + 1) * self.domain // self.num_shards)
            ranges.append((lo, hi))
        return ranges

    # -- definition-time registration -------------------------------------

    def assign(self, name: str, footprint: Iterable[LockSpec]) -> int:
        """Pick ``name``'s home shard and widen the home's i-locks by its
        footprint; returns the home shard id."""
        specs = list(footprint)
        home: Optional[int] = None
        for spec in specs:
            interval = spec.interval
            if (
                spec.relation == self.partition_relation
                and interval is not None
                and interval.field == self.partition_field
                and interval.lo is not None
            ):
                home = self.shard_of_key(interval.lo)
                break
        if home is None:
            # No partition interval: a stable content hash keeps the
            # choice independent of definition order and shard count
            # changes elsewhere.
            home = zlib.crc32(name.encode()) % self.num_shards
        for spec in specs:
            interval = spec.interval
            if interval is None or (
                interval.lo is None and interval.hi is None
            ):
                self._catch_all.setdefault(spec.relation, set()).add(home)
                continue
            hulls = self._index.setdefault(
                (spec.relation, interval.field), [None] * self.num_shards
            )
            if hulls[home] is None:
                hulls[home] = _Hull()
            hulls[home].add(interval)
        self._home[name] = home
        # Catch-alls first: they end the home's probe on their relation.
        self._locks.set_locks(
            home,
            [
                LockSpec(relation)
                for relation, shards in self._catch_all.items()
                if home in shards
            ]
            + [
                LockSpec(relation, hulls[home].as_interval(fld))
                for (relation, fld), hulls in self._index.items()
                if hulls[home] is not None
            ],
        )
        return home

    def home_of(self, name: str) -> int:
        """The home shard of a registered procedure."""
        return self._home[name]

    @property
    def num_procedures(self) -> int:
        return len(self._home)

    def procedures_per_shard(self) -> list[int]:
        counts = [0] * self.num_shards
        for home in self._home.values():
            counts[home] += 1
        return counts

    # -- update routing ----------------------------------------------------

    def route_values(
        self, relation: str, changed_values: Iterable[dict[str, Any]]
    ) -> tuple[int, ...]:
        """:meth:`route_runs` over field-value dicts. Kept only because
        ``benchmarks/wall/trace.py`` traces this name."""
        return self.route_runs(
            relation, SortedValueRuns.from_dicts(changed_values)
        )

    def route_runs(
        self, relation: str, runs: SortedValueRuns
    ) -> tuple[int, ...]:
        """Shards that may host a procedure affected by a write whose
        old/new tuples ``runs`` holds (usually a batch's memoized runs):
        the shards whose i-locks the write breaks. A write with no
        changed rows routes nowhere."""
        targets = tuple(
            sorted(self._locks.conflicting_procedures_swept(relation, runs))
        )
        self.routed_updates += 1
        self.routed_shard_visits += len(targets)
        return targets

    def coverage_hulls(self) -> dict:
        """Snapshot of the routing state: every ``(relation, field)``
        hull per shard (as closed ``KeyInterval`` bounds) plus the
        catch-all sets. Routing is conservative iff later snapshots only
        ever widen this one — the failover property test compares
        snapshots across shard crash + replica promotion to prove a
        recovered population can never under-route."""
        hulls = {
            (relation, fld): [
                None if hull is None else hull.as_interval(fld)
                for hull in shard_hulls
            ]
            for (relation, fld), shard_hulls in self._index.items()
        }
        catch_all = {
            relation: frozenset(shards)
            for relation, shards in self._catch_all.items()
        }
        return {"hulls": hulls, "catch_all": catch_all}

    def stats(self) -> dict[str, float]:
        """Routing telemetry: how selective the shard i-locks are."""
        updates = self.routed_updates
        return {
            "routed_updates": float(updates),
            "routed_shard_visits": float(self.routed_shard_visits),
            "mean_fanout": (
                self.routed_shard_visits / updates if updates else 0.0
            ),
        }
