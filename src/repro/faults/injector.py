"""Deterministic fault plans and the injector that executes them.

A :class:`FaultPlan` describes *what can go wrong*: per-point firing
rates for a seeded RNG, plus an explicit schedule of ``(point,
occurrence)`` entries for reproducing exact scenarios. A
:class:`FaultInjector` executes the plan at the named fault points the
storage/recovery layers expose:

========== =============================================================
point      fires when
========== =============================================================
disk.read  :meth:`repro.storage.disk.DiskManager.read_page`
disk.write :meth:`repro.storage.disk.DiskManager.write_page`
wal.flush  :meth:`repro.recovery.wal.WriteAheadLog.flush`
cache.read :meth:`repro.storage.matstore.MaterializedStore.read_all`
op.access  operation boundary before a procedure access (crash only)
op.update  operation boundary before an update transaction (crash only)
========== =============================================================

Sharded chaos namespaces every point per shard: plan entries prefixed
``shard.<i>.`` (e.g. ``shard.2.disk.read``, ``shard.0.shard.crash``)
scope to shard ``i``'s own :class:`ShardFaultInjector`, derived from the
campaign plan via :meth:`FaultPlan.for_shard` with a
``derive_seed(seed, "shard", i)`` child seed so each shard's fault
stream is stable under shard-count changes. The extra ``shard.crash``
point is a shard-boundary decision: a ``CRASH`` there kills exactly one
shard's i-locks/buffer/WAL/Rete while the rest keep serving.

Three fault kinds: ``TRANSIENT`` (the injector retries with simulated-
time exponential backoff, charged under ``fault.recovery``; the retry
budget exhausting raises :class:`PersistentIOError`), ``TORN_PAGE``
(the page is corrupted in place — detected later by its checksum), and
``CRASH`` (raises :class:`CrashSignal`; the supervisor restarts).

Determinism: the injector draws from its own ``random.Random(seed)``
and counts decision *occurrences* per point, so the same plan against
the same (deterministic) run fires the same faults every time. While
:meth:`suspended` — recovery and oracle work — decisions neither draw
nor count, keeping the live-run sequence unperturbed.

Zero-overhead guard: nothing constructs an injector unless a chaos run
asks for one, and every call site guards on ``disk.injector is None``
(the same pattern as ``clock.tracer is None``), so ordinary runs are
bit-identical with the subsystem present.
"""

from __future__ import annotations

import enum
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

from repro.faults.errors import (
    CrashSignal,
    PageCorruptionError,
    PersistentIOError,
    ShardCrashSignal,
)
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import CostClock
    from repro.storage.matstore import MaterializedStore

#: Phase charged for retry backoff and repair work (see obs.tracer.PHASES).
RECOVERY_PHASE = "fault.recovery"


class FaultKind(enum.Enum):
    """What an injected fault does."""

    TRANSIENT = "transient"
    TORN_PAGE = "torn_page"
    CRASH = "crash"


@dataclass(frozen=True)
class ScheduledFault:
    """Fire ``kind`` at the ``occurrence``-th decision (1-based) taken at
    ``point`` — exact, rate-independent reproduction of a scenario."""

    point: str
    occurrence: int
    kind: FaultKind


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seedable description of a fault campaign.

    Args:
        seed: injector RNG seed.
        rates: ``point -> {kind: probability}`` per-decision firing rates.
        schedule: explicit :class:`ScheduledFault` entries (checked before
            the rates; occurrences are counted per point).
        max_faults: total injection budget (``None`` = unlimited) — the
            "N-event fault schedule" knob.
        max_retries: transient retries before :class:`PersistentIOError`.
        backoff_base_ms: first retry delay; doubles per attempt
            (simulated time, charged under ``fault.recovery``).
        torn_file_prefixes: files eligible for torn-page corruption. Base
            relations are excluded by default: they are the recovery
            ground truth, so tearing them would make the oracle
            unsatisfiable. A TORN_PAGE decision on an ineligible file
            downgrades to a transient.
    """

    seed: int = 0
    rates: dict[str, dict[FaultKind, float]] = field(default_factory=dict)
    schedule: tuple[ScheduledFault, ...] = ()
    max_faults: int | None = None
    max_retries: int = 4
    backoff_base_ms: float = 5.0
    torn_file_prefixes: tuple[str, ...] = ("cache.", "avm.", "rete.")

    @staticmethod
    def seeded(
        seed: int, max_faults: int | None = 100, scale: float = 1.0
    ) -> "FaultPlan":
        """The default chaos campaign: a little of everything, capped at
        ``max_faults`` injections. ``scale`` multiplies every rate."""
        rates = {
            "disk.read": {FaultKind.TRANSIENT: 0.005},
            "disk.write": {
                FaultKind.TRANSIENT: 0.005,
                FaultKind.TORN_PAGE: 0.01,
            },
            "cache.read": {FaultKind.TORN_PAGE: 0.05},
            "wal.flush": {
                FaultKind.TRANSIENT: 0.05,
                FaultKind.CRASH: 0.02,
            },
            "op.access": {FaultKind.CRASH: 0.02},
            "op.update": {FaultKind.CRASH: 0.05},
        }
        if scale != 1.0:
            rates = {
                point: {kind: min(1.0, rate * scale) for kind, rate in kinds.items()}
                for point, kinds in rates.items()
            }
        return FaultPlan(seed=seed, rates=rates, max_faults=max_faults)

    def with_shard_kill(self, shard_id: int) -> "FaultPlan":
        """This campaign plus one scheduled fail-stop of shard
        ``shard_id``: its first ``shard.crash`` boundary decision fires,
        the rest of the population keeps serving."""
        kill = ScheduledFault(
            f"shard.{shard_id}.shard.crash", 1, FaultKind.CRASH
        )
        return replace(self, schedule=(*self.schedule, kill))

    def for_shard(self, shard_id: int) -> "FaultPlan":
        """Derive shard ``shard_id``'s plan from this campaign plan.

        Rates: unprefixed entries apply to every shard (each shard draws
        them from its own derived stream); ``shard.<i>.``-prefixed
        entries scope to shard ``i`` alone (stripped here, overriding any
        unprefixed entry for the same point); other shards' prefixed
        entries are dropped. Schedule: only this shard's prefixed entries
        carry over — unprefixed scheduled faults belong to the global
        (facade-level) injector, which keeps legacy schedules meaning
        exactly what they meant before sharding.
        """
        prefix = f"shard.{shard_id}."
        rates: dict[str, dict[FaultKind, float]] = {
            point: dict(kinds)
            for point, kinds in self.rates.items()
            if not _shard_scoped(point)
        }
        for point, kinds in self.rates.items():
            if point.startswith(prefix):
                rates[point[len(prefix) :]] = dict(kinds)
        schedule = tuple(
            ScheduledFault(
                entry.point[len(prefix) :], entry.occurrence, entry.kind
            )
            for entry in self.schedule
            if entry.point.startswith(prefix)
        )
        return FaultPlan(
            seed=derive_seed(self.seed, "shard", shard_id),
            rates=rates,
            schedule=schedule,
            max_faults=self.max_faults,
            max_retries=self.max_retries,
            backoff_base_ms=self.backoff_base_ms,
            torn_file_prefixes=self.torn_file_prefixes,
        )


def _shard_scoped(point: str) -> bool:
    """True for ``shard.<i>.<point>`` entries (any shard id). The bare
    ``shard.crash`` boundary point is *not* scoped — its second segment
    is a kind, not an id."""
    parts = point.split(".", 2)
    return len(parts) == 3 and parts[0] == "shard" and parts[1].isdigit()


#: Deterministic kind-evaluation order for rate draws.
_KIND_ORDER = (FaultKind.TRANSIENT, FaultKind.TORN_PAGE, FaultKind.CRASH)


class FaultInjector:
    """Executes a :class:`FaultPlan` at the named fault points.

    Inert until :meth:`arm` — chaos runs build the database and warm the
    caches first, then arm — and silent while :meth:`suspended` (recovery
    and oracle verification run on a quiesced system).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._schedule: dict[tuple[str, int], FaultKind] = {
            (entry.point, entry.occurrence): entry.kind
            for entry in plan.schedule
        }
        self.armed = False
        self._paused = 0
        self.occurrences: dict[str, int] = {}
        self.injected: dict[str, dict[str, int]] = {}
        self.total_injected = 0
        self.retries = 0
        self.backoff_ms_total = 0.0
        self.torn_pages = 0
        self.corruptions_detected = 0
        self.crashes = 0

    # -- lifecycle --------------------------------------------------------

    def arm(self) -> None:
        """Start injecting (call after warm-up, once wired into storage)."""
        self.armed = True

    @property
    def active(self) -> bool:
        return self.armed and self._paused == 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """No injection inside: recovery/oracle work on a quiesced system.
        Decisions made here neither draw from the RNG nor count, so the
        live-run fault sequence is unaffected."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- decisions --------------------------------------------------------

    def decide(self, point: str) -> FaultKind | None:
        """One fault decision at ``point``: schedule first, then rates."""
        if not self.active:
            return None
        plan = self.plan
        if plan.max_faults is not None and self.total_injected >= plan.max_faults:
            return None
        count = self.occurrences.get(point, 0) + 1
        self.occurrences[point] = count
        kind = self._schedule.get((point, count))
        if kind is None:
            point_rates = plan.rates.get(point)
            if point_rates:
                for candidate in _KIND_ORDER:
                    rate = point_rates.get(candidate, 0.0)
                    if rate and self._rng.random() < rate:
                        kind = candidate
                        break
        if kind is not None:
            per_point = self.injected.setdefault(point, {})
            per_point[kind.value] = per_point.get(kind.value, 0) + 1
            self.total_injected += 1
        return kind

    def check_crash(self, point: str) -> bool:
        """Operation-boundary crash point: only ``CRASH`` is meaningful
        here (other kinds describe I/O and are ignored if scheduled)."""
        if self.decide(point) is FaultKind.CRASH:
            self.crashes += 1
            return True
        return False

    # -- I/O fault points -------------------------------------------------

    def _crash_signal(self, point: str) -> CrashSignal:
        """The signal a CRASH decision raises; shard injectors override
        this so a crash carries its fault-domain id."""
        return CrashSignal(point)

    def _torn_allowed(self, file_name: str | None) -> bool:
        if file_name is None:
            return False
        return file_name.startswith(self.plan.torn_file_prefixes)

    def _backoff(self, clock: "CostClock", attempt: int) -> None:
        """Charge one exponential-backoff delay under ``fault.recovery``."""
        delay = self.plan.backoff_base_ms * (2 ** (attempt - 1))
        self.backoff_ms_total += delay
        tracer = clock.tracer
        if tracer is None:
            clock.charge_fixed(delay)
            return
        tracer.event("fault.retry")
        with tracer.span(RECOVERY_PHASE):
            clock.charge_fixed(delay)

    def _io_point(
        self,
        point: str,
        clock: "CostClock",
        page=None,
        file_name: str | None = None,
    ) -> None:
        """Guard one I/O: retry transients (bounded, backed off), corrupt
        torn-eligible pages in place, escalate crashes."""
        attempt = 0
        while True:
            kind = self.decide(point)
            if kind is None:
                return
            if kind is FaultKind.CRASH:
                self.crashes += 1
                raise self._crash_signal(point)
            if (
                kind is FaultKind.TORN_PAGE
                and page is not None
                and self._torn_allowed(file_name)
            ):
                page.mark_torn()
                self.torn_pages += 1
                return
            # TRANSIENT (or a torn decision with nothing eligible to tear).
            attempt += 1
            self.retries += 1
            if attempt > self.plan.max_retries:
                raise PersistentIOError(point, attempts=attempt)
            self._backoff(clock, attempt)

    def before_read(self, file_name: str, page, clock: "CostClock") -> None:
        self._io_point("disk.read", clock, page=page, file_name=file_name)

    def before_write(self, file_name: str, page, clock: "CostClock") -> None:
        self._io_point("disk.write", clock, page=page, file_name=file_name)

    def on_wal_flush(self, clock: "CostClock") -> None:
        self._io_point("wal.flush", clock)

    def on_cache_read(
        self, store: "MaterializedStore", clock: "CostClock"
    ) -> None:
        """``cache.read`` point: a torn decision corrupts one (seeded-
        random) occupied page of the store about to be read, so the
        in-flight read detects it via the page checksum."""
        attempt = 0
        while True:
            kind = self.decide("cache.read")
            if kind is None:
                return
            if kind is FaultKind.CRASH:
                self.crashes += 1
                raise self._crash_signal("cache.read")
            if kind is FaultKind.TORN_PAGE:
                disk = store.buffer.disk
                occupied = [
                    page_no
                    for page_no in range(store.num_pages)
                    if not disk.peek_page(store.name, page_no).is_empty
                ]
                if occupied:
                    victim = self._rng.choice(occupied)
                    disk.peek_page(store.name, victim).mark_torn()
                    self.torn_pages += 1
                return
            attempt += 1
            self.retries += 1
            if attempt > self.plan.max_retries:
                raise PersistentIOError("cache.read", attempts=attempt)
            self._backoff(clock, attempt)

    # -- detection --------------------------------------------------------

    def corruption_detected(
        self, file_name: str, page_no: int, clock: "CostClock"
    ) -> None:
        """Called by the disk when a checksum fails verification."""
        self.corruptions_detected += 1
        tracer = clock.tracer
        if tracer is not None:
            tracer.event("fault.corruption.detected")
        raise PageCorruptionError(file_name, page_no)

    # -- reporting --------------------------------------------------------

    def fault_counts(self) -> dict[str, dict[str, int]]:
        """``point -> {kind: count}`` of everything injected so far."""
        return {
            point: dict(kinds) for point, kinds in sorted(self.injected.items())
        }


class ShardFaultInjector(FaultInjector):
    """One shard's fault domain: a :class:`FaultInjector` over the plan
    :meth:`FaultPlan.for_shard` derives, whose crashes identify the shard
    so the supervisor can recover one fault domain instead of the world.
    """

    def __init__(self, plan: FaultPlan, shard_id: int) -> None:
        super().__init__(plan.for_shard(shard_id))
        self.shard_id = shard_id

    def _crash_signal(self, point: str) -> CrashSignal:
        return ShardCrashSignal(point, self.shard_id)

    def check_shard_crash(self) -> bool:
        """Shard-boundary ``shard.crash`` decision (the facade raises)."""
        return self.check_crash("shard.crash")
