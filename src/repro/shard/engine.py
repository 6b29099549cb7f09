"""Per-shard engines behind one strategy facade.

:class:`ShardedStrategy` partitions a procedure population across ``S``
shards. Each :class:`Shard` owns a full inner strategy instance — its
own i-lock table, materialized caches, WAL-backed invalidation scheme,
and Rete α-subnetwork — backed (at ``S > 1``) by a private
:class:`~repro.storage.disk.DiskManager` and
:class:`~repro.storage.buffer.BufferPool`, so shard state is physically
disjoint while every I/O still charges the one shared cost clock.

The facade is itself a :class:`~repro.core.strategy.ProcedureStrategy`,
so the :class:`~repro.core.manager.ProcedureManager`, the workload
runner, the concurrent engine's footprint collector, and the fault
supervisor all work unchanged:

- ``define`` routes each procedure to its home shard via the
  :class:`~repro.shard.router.ShardRouter` (same ``C_f`` interval →
  same home, so RVM's α-sharing survives partitioning);
- ``access`` delegates to the home shard;
- ``on_update`` routes the batch through the router's i-locks to the
  (usually one) affected shard for partition-relation writes, and
  through the :class:`SharedBetaTier` for join-side relations — the
  model-2 fan-out path — probing the batch's memoized sorted runs, which
  each routed shard's i-lock probe then reuses;
- recovery hooks delegate per home shard / fan across shards.

**Bit-identity at S=1.** The single shard reuses the database's own
buffer pool and its inner strategy is built by the same factory as the
unsharded engine; routing is uncharged bookkeeping that is skipped
entirely on the one-shard fast path. Access logs, the simulated clock,
the cost pie, and CI validity state are therefore bit-identical to the
unsharded engine (``tests/test_shard_differential.py``). At ``S > 1``
each affected shard re-screens the full delta, so simulated costs may
differ — but procedure *results* cannot (the router is conservative:
an unrouted shard provably hosts no affected procedure).

**Determinism.** Per-shard RNG streams come from
:func:`repro.sim.rng.spawn` with namespace ``("shard", shard_id)`` —
stable under shard-count changes (see DESIGN.md).

**Fault domains (S > 1 chaos runs).** Each shard may carry its own
:class:`~repro.faults.injector.ShardFaultInjector` (wired by
:mod:`repro.shard.faults`), making it an independent fault domain: a
``shard.crash`` decision at the access or delivery boundary — or a
crash deep in the shard's private disk/WAL — kills that shard's
i-locks/buffer/WAL/Rete while the rest keep serving. While a shard is
down, β-tier deliveries targeting it are either applied to its replica
(when one is maintained, under the ``fault.replica`` phase) or queued
with simulated-time exponential backoff and drained at recovery — no
update is silently dropped (``deliveries_queued == deliveries_drained``
once every shard is back up). An optional
:class:`~repro.shard.degrade.OverloadController` additionally walks
individual overloaded shards down the UC -> CI -> AR ladder; accesses
check the per-shard dirty set first on every path, so degradation never
serves stale rows. All of this is inert — ``None`` checks only — unless
chaos wiring attaches it, preserving the S=1 bit-identity contract.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.procedure import DatabaseProcedure
from repro.core.strategy import ProcedureStrategy
from repro.faults.errors import ShardCrashSignal
from repro.locks.ilocks import footprint_of
from repro.shard.router import ShardRouter
from repro.sim import CostClock, spawn
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskManager
from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import DeltaBatch
    from repro.faults.injector import ShardFaultInjector
    from repro.model.params import ModelParams
    from repro.shard.degrade import OverloadController, Recomputer
    from repro.workload.database import SyntheticDatabase

#: Phases charged by the failover machinery (see obs.tracer.PHASES).
RECOVERY_PHASE = "fault.recovery"
REPLICA_PHASE = "fault.replica"
FAILOVER_PHASE = "shard.failover"

#: Fixed simulated cost of promoting a replica to primary: the control-
#: plane work of repointing the router at the standby engine. Charged
#: under ``shard.failover`` so failover time is a visible phase.
FAILOVER_COST_MS = 10.0


@dataclass
class Shard:
    """One shard: an inner strategy over its own storage domain."""

    shard_id: int
    strategy: ProcedureStrategy
    buffer: BufferPool
    #: Namespaced RNG (``spawn(seed, "shard", shard_id)``): any future
    #: per-shard stochastic choice draws from here, so streams never
    #: depend on the shard count (the sizing sampler uses it today).
    rng: random.Random
    #: Per-shard fault domain (sharded chaos only; ``None`` = inert).
    injector: "ShardFaultInjector | None" = None
    #: Hot standby over its own storage domain, kept fresh by the
    #: delivery fan-out; promoted on crash by the shard supervisor.
    replica: ProcedureStrategy | None = None
    replica_buffer: BufferPool | None = None
    #: Crashed and not yet recovered: accesses raise, deliveries queue
    #: (or divert to the replica).
    down: bool = False

    @property
    def num_procedures(self) -> int:
        return len(self.strategy.procedures)


class SharedBetaTier:
    """Cross-shard fan-out for join-side (non-partition) relations.

    P2 join procedures read ``R2`` (and ``R3`` under model 2) alongside
    the partitioned ``R1``; their restriction intervals on those
    relations are *not* clustered by home shard, so one join-side write
    typically concerns several shards. The β-tier is the shared routing
    component that fans such a delta to exactly the shards whose join
    procedures may consume it (per the router's i-locks; a
    restriction-free member relation like model 2's ``R3`` routes to
    every shard hosting such a procedure). It keeps its own fan-out
    telemetry so the sizing layer can report how much cross-shard join
    maintenance the population causes.
    """

    def __init__(self, router: ShardRouter) -> None:
        self.router = router
        self.fanned_updates = 0
        self.fanned_shard_visits = 0

    def route_runs(self, relation, runs) -> tuple[int, ...]:
        targets = self.router.route_runs(relation, runs)
        self.fanned_updates += 1
        self.fanned_shard_visits += len(targets)
        return targets

    def stats(self) -> dict[str, float]:
        updates = self.fanned_updates
        return {
            "fanned_updates": float(updates),
            "fanned_shard_visits": float(self.fanned_shard_visits),
            "mean_fanout": (
                self.fanned_shard_visits / updates if updates else 0.0
            ),
        }


class ShardedStrategy(ProcedureStrategy):
    """A strategy facade over ``S`` per-shard inner strategies."""

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        clock: CostClock,
        shards: list[Shard],
        router: ShardRouter,
    ) -> None:
        super().__init__(catalog, buffer, clock)
        if not shards:
            raise ValueError("need at least one shard")
        if len(shards) != router.num_shards:
            raise ValueError(
                f"router expects {router.num_shards} shards, got "
                f"{len(shards)}"
            )
        self.shards = shards
        self.router = router
        self.beta = SharedBetaTier(router)
        #: Facade reports the inner strategy's canonical name.
        self.strategy_name = shards[0].strategy.strategy_name
        #: Optional per-shard overload ladder (None = rung 0 everywhere).
        self.controller: "OverloadController | None" = None
        self._recomputer: "Recomputer | None" = None
        #: Procedures whose maintenance was skipped (degradation rung >= 1
        #: or a mid-recovery queue drain); repaired before their next
        #: serve. One set per shard, checked on every access path.
        self._dirty: list[set[str]] = [set() for _ in shards]
        #: Deliveries parked while their target shard was down (no
        #: replica): counted, backoff-charged, drained at recovery.
        self._queues: list[list[str]] = [[] for _ in shards]
        #: β-retry backoff knobs (overwritten from the fault plan when
        #: chaos wiring attaches per-shard injectors).
        self.retry_base_ms = 5.0
        self.retry_cap = 4
        self.shard_crashes = 0
        self.promotions = 0
        self.deliveries_queued = 0
        self.deliveries_drained = 0
        self.delivery_retries = 0
        self.queue_max_depth = 0

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def inner_strategies(self) -> list[ProcedureStrategy]:
        return [shard.strategy for shard in self.shards]

    def shard_of(self, name: str) -> int:
        """The home shard id of procedure ``name``."""
        return self.router.home_of(name)

    # -- definition --------------------------------------------------------

    def _after_define(self, procedure: DatabaseProcedure) -> None:
        home = self.router.assign(procedure.name, footprint_of(procedure))
        shard = self.shards[home]
        shard.strategy.define(procedure)
        if shard.replica is not None:
            # Definition work is uncharged by contract, so standbys cost
            # nothing to seed; AVM/RVM materialize initial values here,
            # making the replica serve-correct from definition onward.
            shard.replica.define(procedure)

    # -- observability plumbing (uncharged unless a span charges) ----------

    def _span(self, phase: str):
        tracer = self.clock.tracer
        return nullcontext() if tracer is None else tracer.span(phase)

    def _event(self, name: str) -> None:
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.event(name)

    def _point(self, shard_id: int, point: str, value: float) -> None:
        """Push one explicit per-shard telemetry sample (uncharged; a
        no-op unless a telemetry bus is wired through the tracer)."""
        tracer = self.clock.tracer
        if tracer is not None and tracer.telemetry is not None:
            tracer.telemetry.on_point(
                point, value, self.clock.elapsed_ms, shard=shard_id
            )

    def _recompute_full(self, name: str) -> list[Row]:
        """Fresh unprojected rows from the base relations (charged under
        ``fault.recovery`` — degradation repair is recovery work)."""
        if self._recomputer is None:
            from repro.shard.degrade import Recomputer

            self._recomputer = Recomputer(self.catalog, self.clock)
        with self._span(RECOVERY_PHASE):
            return self._recomputer.recompute(
                name, self.procedures[name].query
            )

    # -- access ------------------------------------------------------------

    def access(self, name: str) -> list[Row]:
        home = self.router.home_of(name)
        shard = self.shards[home]
        if shard.injector is not None:
            if shard.down:
                # Still mid-recovery: surface the crash so the shard
                # supervisor recovers this fault domain, then the
                # degradation ladder serves the access.
                raise ShardCrashSignal("shard.access", home)
            if shard.injector.check_shard_crash():
                self.crash_shard(home)
                raise ShardCrashSignal("shard.crash", home)
        if name in self._dirty[home]:
            return self._serve_dirty(home, name)
        return shard.strategy.access(name)

    def _serve_dirty(self, home: int, name: str) -> list[Row]:
        """Serve a procedure whose maintenance was skipped: AR-style at
        rung 2 (recompute, no repair), CI-style otherwise (repair the
        cache — and the replica — then serve it)."""
        shard = self.shards[home]
        rows = self._recompute_full(name)
        rung = (
            self.controller.rung_of(home)
            if self.controller is not None
            else 0
        )
        if rung >= 2:
            self._event("shard.degrade.ar_serve")
            return self.procedures[name].project_rows(rows, self.catalog)
        with self._span(RECOVERY_PHASE):
            shard.strategy.repair_procedure(name, rows)
        if shard.replica is not None:
            with self._span(REPLICA_PHASE):
                shard.replica.repair_procedure(name, rows)
        self._dirty[home].discard(name)
        return shard.strategy.access(name)

    # -- maintenance -------------------------------------------------------

    def on_update(self, batch: "DeltaBatch") -> None:
        if len(self.shards) == 1:
            # One-shard fast path: no routing work at all, so the inner
            # strategy sees byte-for-byte the unsharded call sequence.
            self.shards[0].strategy.on_update(batch)
            return
        relation = batch.relation
        names = self.catalog.get(relation).schema.names()
        runs = batch.sorted_value_runs(names)
        if relation == self.router.partition_relation:
            targets = self.router.route_runs(relation, runs)
        else:
            targets = self.beta.route_runs(relation, runs)
        for shard_id in targets:
            self._deliver(
                shard_id, relation, lambda engine: engine.on_update(batch)
            )

    def _deliver(
        self,
        shard_id: int,
        relation: str,
        apply: Callable[[ProcedureStrategy], None],
    ) -> None:
        """Deliver one routed maintenance unit to ``shard_id``, absorbing
        that shard's fault/overload state so a single bad shard never
        poisons the fan-out: the remaining targets always get their
        delta. Non-crash faults (persistent I/O, torn pages) still
        propagate — the supervisor's redo recovery handles those."""
        shard = self.shards[shard_id]
        if shard.injector is not None and not shard.down:
            if shard.injector.check_shard_crash():
                self.crash_shard(shard_id)
        if shard.down:
            if shard.replica is not None:
                # Primary is mid-recovery; the standby keeps the range
                # fresh so promotion (or rebuild) starts from live state.
                with self._span(REPLICA_PHASE):
                    apply(shard.replica)
            else:
                self._enqueue(shard_id, relation)
            return
        controller = self.controller
        if controller is not None and controller.rung_of(shard_id) >= 1:
            # Degraded: skip maintenance, mark the shard's procedures
            # dirty (uncharged — the moral equivalent of an
            # invalidation bit); accesses repair lazily.
            self._dirty[shard_id].update(shard.strategy.procedures)
            self._event("shard.degrade.skip")
            self._point(shard_id, "shard.invalidations", 1.0)
            controller.observe_invalidations(
                shard_id, 1, self.clock.elapsed_ms
            )
            return
        before = getattr(shard.strategy, "invalidation_count", 0)
        try:
            apply(shard.strategy)
        except ShardCrashSignal as exc:
            if exc.shard_id != shard_id:  # pragma: no cover - defensive
                raise
            # Crashed mid-maintenance: the shard's state is torn, but
            # recovery recompute-repairs everything the queued delivery
            # could have touched (the drain marks the whole shard dirty).
            self.crash_shard(shard_id)
            if shard.replica is not None:
                with self._span(REPLICA_PHASE):
                    apply(shard.replica)
            else:
                self._enqueue(shard_id, relation)
            return
        if shard.replica is not None:
            with self._span(REPLICA_PHASE):
                apply(shard.replica)
        delta = getattr(shard.strategy, "invalidation_count", 0) - before
        # Every delivery counts at least one maintenance unit — the same
        # semantics as the overload controller's observation.
        self._point(shard_id, "shard.invalidations", float(max(1, delta)))
        if controller is not None:
            controller.observe_invalidations(
                shard_id, delta, self.clock.elapsed_ms
            )

    def _enqueue(self, shard_id: int, relation: str) -> None:
        """Park a delivery for a down shard, charging one β-tier retry
        round of exponential backoff (base doubling per queued entry,
        capped) under ``fault.recovery`` — the simulated cost of the
        retry loop that runs until the shard recovers."""
        queue = self._queues[shard_id]
        delay = self.retry_base_ms * (
            2 ** min(len(queue), self.retry_cap)
        )
        self.deliveries_queued += 1
        self.delivery_retries += 1
        queue.append(relation)
        self.queue_max_depth = max(self.queue_max_depth, len(queue))
        self._event("shard.delivery.queued")
        self._point(shard_id, "shard.queue.depth", float(len(queue)))
        with self._span(RECOVERY_PHASE):
            self.clock.charge_fixed(delay)

    # -- fault recovery ----------------------------------------------------

    def repair_procedure(self, name: str, full_rows: list[Row]) -> None:
        home = self.router.home_of(name)
        shard = self.shards[home]
        shard.strategy.repair_procedure(name, full_rows)
        if shard.replica is not None:
            # Keep the standby repair-consistent too: a redo recovery
            # that only fixed primaries could promote a stale replica.
            with self._span(REPLICA_PHASE):
                shard.replica.repair_procedure(name, full_rows)
        self._dirty[home].discard(name)

    def recover_after_crash(self) -> list[str]:
        """Whole-engine recovery (a *global* crash): every shard — and
        every replica — recovers; down shards additionally drain their
        queues. Deduplicated, first-occurrence order."""
        dirty: list[str] = []
        for shard in self.shards:
            if shard.down:
                dirty.extend(self.recover_shard_engine(shard.shard_id))
            else:
                dirty.extend(shard.strategy.recover_after_crash())
            if shard.replica is not None:
                with self._span(REPLICA_PHASE):
                    dirty.extend(shard.replica.recover_after_crash())
        return list(dict.fromkeys(dirty))

    # -- shard fault domains -----------------------------------------------

    @property
    def fault_domains_active(self) -> bool:
        return any(shard.injector is not None for shard in self.shards)

    def crash_shard(self, shard_id: int) -> None:
        """Fail-stop one shard (idempotent). With chaos buffers pinned at
        capacity 0 every completed write is already durable, so — exactly
        as in the unsharded crash model — the loss is the shard's WAL
        tail and in-memory validity/Rete state, realized when its
        recovery path replays (nothing appends to a down shard's WAL in
        the meantime: deliveries queue or divert to the replica)."""
        shard = self.shards[shard_id]
        if shard.down:
            return
        shard.down = True
        self.shard_crashes += 1
        self._event("shard.crash")
        self._point(shard_id, "shard.crash", 1.0)

    def recover_shard_engine(self, shard_id: int) -> list[str]:
        """Strategy-level recovery of one downed shard (the WAL-rebuild
        path; promotion is :meth:`promote_replica`): bring the engine
        back up, and return every procedure that needs a recompute-repair
        — what the inner recovery reports dirty, plus (if deliveries
        were queued while down) *all* procedures homed here, because the
        queued deltas were never applied and recomputing from the
        already-updated base relations provably covers them. The caller
        (the shard supervisor) performs the repairs and is responsible
        for charging under ``fault.recovery``."""
        shard = self.shards[shard_id]
        shard.down = False
        dirty = list(shard.strategy.recover_after_crash())
        queue = self._queues[shard_id]
        if queue:
            dirty.extend(sorted(shard.strategy.procedures))
            self.deliveries_drained += len(queue)
            queue.clear()
            self._event("shard.queue.drained")
            self._point(shard_id, "shard.queue.depth", 0.0)
        self._point(shard_id, "shard.recovered", 1.0)
        return list(dict.fromkeys(dirty))

    def promote_replica(self, shard_id: int) -> ProcedureStrategy:
        """Swap the standby in as primary (the failover path) and return
        the crashed engine so the supervisor can rebuild it as the new
        standby. Charges the fixed promotion cost under
        ``shard.failover``."""
        shard = self.shards[shard_id]
        if shard.replica is None:
            raise RuntimeError(
                f"shard {shard_id} has no replica to promote"
            )
        with self._span(FAILOVER_PHASE):
            self.clock.charge_fixed(FAILOVER_COST_MS)
        old = shard.strategy
        shard.strategy = shard.replica
        shard.replica = old
        shard.buffer, shard.replica_buffer = (
            shard.replica_buffer or shard.buffer,
            shard.buffer,
        )
        shard.down = False
        self.promotions += 1
        self._event("shard.failover.promoted")
        self._point(shard_id, "shard.failover", 1.0)
        return old

    def mark_shard_dirty(self, shard_id: int) -> None:
        """Conservatively flag every procedure homed on ``shard_id`` for
        recompute-repair before its next serve."""
        self._dirty[shard_id].update(
            self.shards[shard_id].strategy.procedures
        )

    def down_shards(self) -> list[int]:
        return [s.shard_id for s in self.shards if s.down]

    def failover_stats(self) -> dict[str, float]:
        """Aggregated fault-domain telemetry across every shard."""
        return {
            "shard_crashes": float(self.shard_crashes),
            "promotions": float(self.promotions),
            "deliveries_queued": float(self.deliveries_queued),
            "deliveries_drained": float(self.deliveries_drained),
            "delivery_retries": float(self.delivery_retries),
            "queue_max_depth": float(self.queue_max_depth),
            "queued_now": float(sum(len(q) for q in self._queues)),
            "dirty_now": float(sum(len(d) for d in self._dirty)),
            "replica_shards": float(
                sum(1 for s in self.shards if s.replica is not None)
            ),
        }

    # -- introspection -----------------------------------------------------

    def space_pages(self) -> int:
        return sum(shard.strategy.space_pages() for shard in self.shards)

    def procedures_per_shard(self) -> list[int]:
        return [shard.num_procedures for shard in self.shards]

    @property
    def invalidation_count(self) -> int:
        """Aggregated CI invalidations across shards (0 for non-CI)."""
        return sum(
            getattr(shard.strategy, "invalidation_count", 0)
            for shard in self.shards
        )

    @property
    def false_invalidation_count(self) -> int:
        return sum(
            getattr(shard.strategy, "false_invalidation_count", 0)
            for shard in self.shards
        )

    def validity_map(self) -> dict[str, bool]:
        """Merged CI validity across shards (empty for non-CI inners)."""
        merged: dict[str, bool] = {}
        for shard in self.shards:
            is_valid = getattr(shard.strategy, "is_valid", None)
            if is_valid is None:
                continue
            for name in shard.strategy.procedures:
                merged[name] = is_valid(name)
        return merged


def make_sharded_strategy(
    strategy_name: str,
    db: "SyntheticDatabase",
    params: "ModelParams",
    num_shards: int,
    invalidation_scheme: Optional[str] = None,
    seed: int = 0,
    replicas: int = 0,
) -> ShardedStrategy:
    """Build a sharded engine over ``db`` with ``num_shards`` shards.

    Each inner strategy comes from the same factory as the unsharded
    engine (:func:`repro.workload.runner.make_strategy`), so per-shard
    construction — cache placement seeds, WAL schemes, Rete networks —
    matches the unsharded build exactly. At ``num_shards == 1`` the
    shard reuses ``db.buffer`` (bit-identity); above that, every shard
    gets a private disk manager (same block size, same clock) and its
    slice ``capacity // num_shards`` of the LRU budget.

    ``replicas=1`` (multi-shard only) additionally builds one hot
    standby per shard over its own private disk/buffer, kept fresh by
    the routed delivery fan-out (charged under ``fault.replica``) and
    promoted on shard crash by the shard-aware supervisor. Replica
    storage is never fault-injected: the standby is the thing failover
    trusts.
    """
    from repro.workload.runner import make_strategy

    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if replicas not in (0, 1):
        raise ValueError("replicas must be 0 or 1 (one standby per shard)")
    if replicas and num_shards < 2:
        raise ValueError("replicas require num_shards >= 2")
    router = ShardRouter(num_shards, domain=db.sel_domain)

    def private_buffer() -> BufferPool:
        disk = DiskManager(db.clock, block_bytes=db.disk.block_bytes)
        return BufferPool(disk, capacity=db.buffer.capacity // num_shards)

    shards: list[Shard] = []
    for shard_id in range(num_shards):
        if num_shards == 1:
            shard_buffer = db.buffer
        else:
            shard_buffer = private_buffer()
        inner = make_strategy(
            strategy_name,
            db,
            params,
            invalidation_scheme=invalidation_scheme,
            buffer=shard_buffer,
        )
        replica = None
        replica_buffer = None
        if replicas:
            replica_buffer = private_buffer()
            replica = make_strategy(
                strategy_name,
                db,
                params,
                invalidation_scheme=invalidation_scheme,
                buffer=replica_buffer,
            )
        shards.append(
            Shard(
                shard_id=shard_id,
                strategy=inner,
                buffer=shard_buffer,
                rng=spawn(seed, "shard", shard_id),
                replica=replica,
                replica_buffer=replica_buffer,
            )
        )
    return ShardedStrategy(
        db.catalog, db.buffer, db.clock, shards=shards, router=router
    )
