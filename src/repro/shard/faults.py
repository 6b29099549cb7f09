"""Shard fault domains: per-shard injectors and the shard supervisor.

Glue between :mod:`repro.faults` (PR 3's injector/supervisor/oracle,
built for one engine) and :mod:`repro.shard` (PR 7's facade): every
shard becomes an independent fault domain with its own
:class:`~repro.faults.injector.ShardFaultInjector` (seed derived via
``derive_seed(seed, "shard", i)`` — fault streams stable under
shard-count changes) wired into the shard's private disk and WALs,
while a single *global* injector keeps the legacy unprefixed points
(base-relation I/O, ``op.access``/``op.update`` boundaries) meaning
exactly what they meant before sharding.

:class:`InjectorSet` is the supervisor-facing aggregate — one
``suspended()`` quiesces every domain at once, and every counter the
chaos report reads sums across the global injector *and* all shard
injectors (fault points re-prefixed ``shard.<i>.`` in
:meth:`fault_counts`), so a multi-shard campaign never reports only
shard 0's share.

:class:`ShardedRecoverySupervisor` narrows recovery to the failed
domain: a :class:`~repro.faults.errors.ShardCrashSignal` recovers one
shard — replica promotion (``shard.failover`` phase) with the crashed
engine rebuilt as the new standby (``fault.replica``), or a WAL rebuild
plus recompute-repair of everything the shard's retry queue covered
(``fault.recovery``) — then runs the consistency oracle over that
shard's procedures: home-shard answers versus a fresh *unsharded*
recompute against the base relations, which is exactly the cross-shard
validation the tentpole asks for. Global crashes still take the base
class's whole-engine restart.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.faults.errors import CrashSignal, ShardCrashSignal
from repro.faults.injector import FaultInjector, FaultPlan, ShardFaultInjector
from repro.faults.supervisor import RECOVERY_PHASE, RecoverySupervisor
from repro.shard.engine import REPLICA_PHASE, ShardedStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import ProcedureStrategy


def strategy_wals(strategy) -> list:
    """Every WAL reachable from ``strategy`` — Cache and Invalidate with
    the logged scheme, possibly nested inside hybrid, and (through a
    sharded facade) every shard's primary *and* replica engines, so a
    sum over them covers the whole population, not one engine's share."""
    wals = []
    stack = [strategy]
    while stack:
        current = stack.pop()
        for shard in getattr(current, "shards", ()):
            stack.append(shard.strategy)
            if shard.replica is not None:
                stack.append(shard.replica)
        subs = getattr(current, "_subs", None)
        if subs is not None:
            stack.extend(subs.values())
        scheme = getattr(current, "scheme", None)
        wal = getattr(scheme, "wal", None)
        if wal is not None:
            wals.append(wal)
    return wals


class InjectorSet:
    """The global injector plus every shard's, as one policy object.

    Quacks like a :class:`~repro.faults.injector.FaultInjector` where
    the :class:`~repro.faults.supervisor.RecoverySupervisor` needs it to
    (``check_crash`` on the global boundary points, ``suspended`` over
    *all* domains) and aggregates every campaign counter across domains.
    """

    def __init__(
        self,
        global_injector: FaultInjector,
        shard_injectors: list[ShardFaultInjector],
    ) -> None:
        self.global_injector = global_injector
        self.shard_injectors = shard_injectors

    @property
    def _all(self) -> list[FaultInjector]:
        return [self.global_injector, *self.shard_injectors]

    # -- FaultInjector-facing surface --------------------------------------

    def arm(self) -> None:
        for injector in self._all:
            injector.arm()

    def check_crash(self, point: str) -> bool:
        return self.global_injector.check_crash(point)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Quiesce every fault domain at once: recovery and oracle work
        must not draw (or count) decisions in *any* domain."""
        with ExitStack() as stack:
            for injector in self._all:
                stack.enter_context(injector.suspended())
            yield

    # -- aggregated counters ----------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(i.total_injected for i in self._all)

    @property
    def retries(self) -> int:
        return sum(i.retries for i in self._all)

    @property
    def backoff_ms_total(self) -> float:
        return sum(i.backoff_ms_total for i in self._all)

    @property
    def torn_pages(self) -> int:
        return sum(i.torn_pages for i in self._all)

    @property
    def corruptions_detected(self) -> int:
        return sum(i.corruptions_detected for i in self._all)

    @property
    def crashes(self) -> int:
        return sum(i.crashes for i in self._all)

    def fault_counts(self) -> dict[str, dict[str, int]]:
        """Global points unprefixed, shard points as ``shard.<i>.<pt>``
        — one merged, sorted map (what the chaos report exports)."""
        merged = dict(self.global_injector.fault_counts())
        for injector in self.shard_injectors:
            prefix = f"shard.{injector.shard_id}."
            for point, kinds in injector.fault_counts().items():
                merged[prefix + point] = kinds
        return dict(sorted(merged.items()))


def wire_fault_domains(
    facade: ShardedStrategy, plan: FaultPlan
) -> InjectorSet:
    """Make every shard of ``facade`` an independent fault domain.

    Builds the global injector (the caller wires it into the *shared*
    storage — base-relation disk — and arms the returned set after
    warm-up) and one :class:`ShardFaultInjector` per shard, wired into
    that shard's private disk and WALs and attached to the facade for
    the ``shard.crash`` boundary decisions. Replica storage is left
    injector-free by design: the standby is the thing failover trusts,
    so faulting it would make the failover contract vacuous.
    """
    global_injector = FaultInjector(plan)
    shard_injectors: list[ShardFaultInjector] = []
    for shard in facade.shards:
        injector = ShardFaultInjector(plan, shard.shard_id)
        shard.injector = injector
        shard.buffer.disk.injector = injector
        for wal in strategy_wals(shard.strategy):
            wal.injector = injector
        shard_injectors.append(injector)
    facade.retry_base_ms = plan.backoff_base_ms
    facade.retry_cap = plan.max_retries
    return InjectorSet(global_injector, shard_injectors)


class ShardedRecoverySupervisor(RecoverySupervisor):
    """Recovery policy over a :class:`ShardedStrategy`: shard crashes
    recover one fault domain; everything else inherits the base class's
    whole-engine behaviour (which the facade's own recovery hooks make
    shard- and replica-aware)."""

    def __init__(
        self, facade: ShardedStrategy, injectors: InjectorSet
    ) -> None:
        super().__init__(facade, injectors)
        self.facade = facade
        self.shard_recoveries = 0
        self.wal_rebuilds = 0
        self.replica_repairs = 0

    # -- crash routing -----------------------------------------------------

    def handle_crash(self, exc: CrashSignal) -> None:
        if isinstance(exc, ShardCrashSignal):
            self.facade.crash_shard(exc.shard_id)
            self.recover_shard(exc.shard_id)
        else:
            self.crash_restart(exc.point)

    # -- per-shard recovery ------------------------------------------------

    def recover_shard(self, shard_id: int) -> None:
        """Bring one downed shard back: promote its replica (failover)
        or rebuild from its WAL + retry queue, then verify that shard's
        procedures against a fresh unsharded recompute."""
        facade = self.facade
        shard = facade.shards[shard_id]
        if not shard.down:
            return
        self.shard_recoveries += 1
        self._event("shard.recover")
        with self.injector.suspended():
            if shard.replica is not None:
                self._fail_over(shard_id)
            else:
                self.wal_rebuilds += 1
                facade._point(shard_id, "shard.wal_rebuild", 1.0)
                with self._span(RECOVERY_PHASE):
                    dirty = facade.recover_shard_engine(shard_id)
                    for name in sorted(dirty):
                        facade.repair_procedure(name, self.recompute(name))
                        self.repairs += 1
            self.verify_shard(shard_id)

    def _fail_over(self, shard_id: int) -> None:
        """Swap the standby in (``shard.failover``), then rebuild the
        crashed engine as the new standby (``fault.replica``) so the
        range is replicated again before the next crash."""
        facade = self.facade
        old = facade.promote_replica(shard_id)
        # The fault domain follows the *primary role*, not the engine
        # object: the promoted standby now takes the shard's injector
        # (its disk and WALs become the ones chaos perturbs) and the
        # demoted engine goes injector-free — replica storage is never
        # fault-injected, whichever engine currently plays standby.
        shard = facade.shards[shard_id]
        shard.buffer.disk.injector = shard.injector
        if shard.replica_buffer is not None:
            shard.replica_buffer.disk.injector = None
        for wal in strategy_wals(shard.strategy):
            wal.injector = shard.injector
        if shard.replica is not None:
            for wal in strategy_wals(shard.replica):
                wal.injector = None
        # The promotion absorbed any queued deliveries conceptually: the
        # standby received every delta while the primary was down, so
        # nothing is pending — but a crash mid-delivery may have left
        # the dead engine torn; the rebuild below recomputes all of it.
        with self._span(REPLICA_PHASE):
            old.recover_after_crash()
            for name in sorted(old.procedures):
                old.repair_procedure(name, self.recompute(name))
                self.replica_repairs += 1

    # -- the oracle, shard-scoped ------------------------------------------

    def verify_shard(self, shard_id: int) -> bool:
        """Cross-shard validation for one shard: every procedure homed
        there must answer (through the facade, i.e. through routing and
        any degradation rung) bit-identically to a fresh unsharded
        recompute against the base relations."""
        return super().verify_consistency(
            sorted(self.facade.shards[shard_id].strategy.procedures)
        )

    def verify_consistency(self, names: "list[str] | None" = None) -> bool:
        """The full oracle refuses to run over a half-dead engine: any
        shard still down is recovered (and shard-verified) first, then
        every procedure is checked as in the base class."""
        for shard_id in self.facade.down_shards():
            self.recover_shard(shard_id)
        return super().verify_consistency(names)
