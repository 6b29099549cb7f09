"""Seeded chaos campaigns against the five strategies.

Backs the ``repro-procs chaos`` CLI subcommand: build the synthetic
database, wire a :class:`~repro.faults.injector.FaultInjector` into the
storage and WAL layers, run a multi-client workload under a
:class:`~repro.faults.supervisor.RecoverySupervisor`, and report what
was injected, how it was survived, and whether the crash-restart
consistency oracle held.

Wiring order matters and mirrors the concurrent runner: the database is
built and the caches warmed *before* the injector arms, so fault
campaigns perturb the measured window only; the final oracle pass runs
inside the observation window, so the per-phase attribution (including
``fault.recovery`` and ``fault.oracle``) still sums exactly to the
clock total.

Sharded chaos (``shards=``): the strategy runs behind the
:class:`~repro.shard.ShardedStrategy` facade. At ``shards=1`` the
wiring is byte-for-byte the plain path — one global injector, the base
:class:`RecoverySupervisor` — so output is bit-identical to an
unsharded chaos run (the CI differential). Above one shard every shard
becomes its own fault domain (:mod:`repro.shard.faults`): per-shard
injectors over ``derive_seed``-split streams, a
:class:`~repro.shard.faults.ShardedRecoverySupervisor` that recovers
single shards via replica failover or WAL rebuild, and the β-tier
retry queue for deliveries aimed at a mid-recovery shard.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.concurrent.engine import _Engine, collect_footprints
from repro.concurrent.session import build_sessions
from repro.faults.errors import CrashSignal, FaultError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.supervisor import RecoverySupervisor, SupervisedManager
from repro.model.params import ModelParams
from repro.obs import SCHEMA_VERSION, CostAttribution
from repro.shard.degrade import OverloadController
from repro.shard.faults import (
    ShardedRecoverySupervisor,
    strategy_wals,
    wire_fault_domains,
)
from repro.shard.sizing import measure_sizing, register_metrics
from repro.sim import MetricSet
from repro.workload.database import SyntheticDatabase
from repro.workload.runner import build_stack, observed_window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import TelemetryBus

#: The five strategies a chaos campaign covers (same set as the
#: concurrency comparison).
CHAOS_STRATEGIES: tuple[str, ...] = (
    "always_recompute",
    "cache_invalidate",
    "update_cache_avm",
    "update_cache_rvm",
    "hybrid",
)


def database_digest(db: SyntheticDatabase) -> str:
    """CRC32 fingerprint of every occupied slot of every file — base
    relations, caches, WAL-less metadata alike. Bit-identical database
    states (the seed-determinism contract) produce identical digests;
    reads nothing through the charged path, so the clock is untouched."""
    crc = 0
    disk = db.disk
    for name in sorted(disk.file_names()):
        for page_no in range(disk.num_pages(name)):
            page = disk.peek_page(name, page_no)
            for slot_no, row in page.rows():
                crc = zlib.crc32(
                    repr((name, page_no, slot_no, row)).encode(), crc
                )
    return f"{crc:08x}"


@dataclass
class ChaosRunResult:
    """Outcome of one fault-injected run: what fired, what it cost to
    survive, and whether consistency held."""

    strategy: str
    mpl: int
    model: int
    seed: int
    plan_seed: int
    num_accesses: int
    num_updates: int
    #: Operations dropped because their *prepare* step faulted.
    ops_failed: int
    faults_injected: int
    fault_counts: dict[str, dict[str, int]]
    retries: int
    backoff_ms: float
    torn_pages: int
    corruptions_detected: int
    crashes: int
    degraded_accesses: int
    repairs: int
    ar_fallbacks: int
    crash_restarts: int
    update_aborts: int
    oracle_checks: int
    oracle_failures: int
    oracle_ok: bool
    clock_total_ms: float
    #: Clock total at the end of the workload itself, before the final
    #: oracle pass (comparable with a plain run's ``clock_total_ms``).
    engine_ms: float
    #: Charged to the ``fault.recovery`` phase (retry backoff + repairs).
    recovery_ms: float
    #: Charged to the ``fault.oracle`` phase. Inner strategy spans (e.g.
    #: ``cache.read``) keep their own phase even inside the oracle, so
    #: this is the oracle's *direct* charge, not its whole window.
    oracle_ms: float
    phase_costs: dict[str, float] = field(default_factory=dict)
    database_digest: str = ""
    wal_records_lost: int = 0
    #: Shard count behind the facade (``None`` = plain unsharded run).
    shards: int | None = None
    #: Replicas per shard (0 or 1; multi-shard runs only).
    replicas: int = 0
    #: Single-shard fail-stops (the whole-engine ``crashes`` counter
    #: above includes these; the rest of the engine kept serving).
    shard_crashes: int = 0
    #: Replica promotions (failover path) / WAL rebuilds (no replica).
    promotions: int = 0
    wal_rebuilds: int = 0
    shard_recoveries: int = 0
    #: β-tier deliveries parked for a down shard, and how many drained
    #: at recovery — equal once every shard is back up (the no-drop
    #: property).
    deliveries_queued: int = 0
    deliveries_drained: int = 0
    delivery_retries: int = 0
    #: Charged to ``shard.failover`` / ``fault.replica`` phases.
    failover_ms: float = 0.0
    replica_ms: float = 0.0
    #: Per-operation latency/service stats from the engine (manifest
    #: histograms are built from these; excluded from the JSON export).
    metrics: MetricSet = field(default_factory=MetricSet)

    @property
    def attribution_consistent(self) -> bool:
        """Phase totals must sum exactly to the clock total — recovery is
        a phase, not a leak."""
        return math.isclose(
            sum(self.phase_costs.values()),
            self.clock_total_ms,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )

    def to_dict(self) -> dict:
        """JSON-ready export (what ``repro-procs chaos --json`` emits)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "strategy": self.strategy,
            "mpl": self.mpl,
            "model": self.model,
            "seed": self.seed,
            "plan_seed": self.plan_seed,
            "num_accesses": self.num_accesses,
            "num_updates": self.num_updates,
            "ops_failed": self.ops_failed,
            "faults_injected": self.faults_injected,
            "fault_counts": self.fault_counts,
            "retries": self.retries,
            "backoff_ms": self.backoff_ms,
            "torn_pages": self.torn_pages,
            "corruptions_detected": self.corruptions_detected,
            "crashes": self.crashes,
            "degraded_accesses": self.degraded_accesses,
            "repairs": self.repairs,
            "ar_fallbacks": self.ar_fallbacks,
            "crash_restarts": self.crash_restarts,
            "update_aborts": self.update_aborts,
            "oracle_checks": self.oracle_checks,
            "oracle_failures": self.oracle_failures,
            "oracle_ok": self.oracle_ok,
            "clock_total_ms": self.clock_total_ms,
            "engine_ms": self.engine_ms,
            "recovery_ms": self.recovery_ms,
            "oracle_ms": self.oracle_ms,
            "phases": self.phase_costs,
            "attribution_consistent": self.attribution_consistent,
            "database_digest": self.database_digest,
            "wal_records_lost": self.wal_records_lost,
            "shards": self.shards,
            "replicas": self.replicas,
            "shard_crashes": self.shard_crashes,
            "promotions": self.promotions,
            "wal_rebuilds": self.wal_rebuilds,
            "shard_recoveries": self.shard_recoveries,
            "deliveries_queued": self.deliveries_queued,
            "deliveries_drained": self.deliveries_drained,
            "delivery_retries": self.delivery_retries,
            "failover_ms": self.failover_ms,
            "replica_ms": self.replica_ms,
        }


def run_chaos(
    params: ModelParams,
    strategy_name: str,
    plan: FaultPlan | None = None,
    mpl: int = 1,
    model: int = 1,
    num_operations: int = 120,
    seed: int = 0,
    invalidation_scheme: str | None = "wal",
    observation: CostAttribution | None = None,
    shards: int | None = None,
    replicas: int = 0,
    degrade: bool = False,
    telemetry: "TelemetryBus | None" = None,
) -> ChaosRunResult:
    """One fault-injected multi-client run of ``strategy_name``.

    ``plan`` defaults to :meth:`FaultPlan.seeded` with the workload seed.
    ``invalidation_scheme`` applies to Cache and Invalidate only (chaos
    defaults it to ``"wal"`` so the WAL fault points participate).
    ``observation`` substitutes a pre-built attribution (a flight
    recorder's unbounded one for trace export); by default each run
    builds its own.

    ``shards`` runs the strategy behind the sharded facade: ``None``
    keeps the plain engine, ``1`` is bit-identical to it (plain injector
    and supervisor — the differential contract), and above that every
    shard is an independent fault domain with its own derived-seed
    injector and a shard-aware supervisor. ``replicas=1`` maintains one
    hot standby per shard (promoted on shard crash); ``degrade=True``
    attaches the per-shard overload ladder. Both require ``shards >= 2``.

    The buffer is pinned at capacity 0 — the crash model requires every
    completed page write to be durable, so a crash loses exactly the WAL
    tail and in-memory validity state.
    """
    if mpl < 1:
        raise ValueError("multiprogramming level mpl must be >= 1")
    if degrade and (shards is None or shards < 2):
        raise ValueError("degrade requires shards >= 2")
    if plan is None:
        plan = FaultPlan.seeded(seed)
    sharded_domains = shards is not None and shards > 1

    def supervised(strategy) -> SupervisedManager:
        if sharded_domains:
            # Per-shard fault domains (inert until armed) + the global
            # injector for the legacy unprefixed points.
            supervisor = ShardedRecoverySupervisor(
                strategy, wire_fault_domains(strategy, plan)
            )
            if degrade:
                strategy.controller = OverloadController(shards)
        else:
            supervisor = RecoverySupervisor(strategy, FaultInjector(plan))
        return SupervisedManager(strategy, supervisor)

    # Built and warmed fault-free (the injectors are not armed yet).
    db, pop, strategy, manager = build_stack(
        params, strategy_name, model=model, seed=seed, buffer_capacity=0,
        invalidation_scheme=(
            invalidation_scheme if strategy_name == "cache_invalidate" else None
        ),
        shards=shards, replicas=replicas, manager_factory=supervised,
    )
    supervisor = manager.supervisor
    injector = supervisor.injector
    footprints = collect_footprints(db, manager)
    db.clock.reset()

    # Wire the injector into the shared storage and WAL layers, then arm
    # every domain. Per-shard disks/WALs were wired above (inert until
    # now); the shared base-relation disk always takes the global
    # injector, so legacy points keep their pre-sharding meaning.
    wals = strategy_wals(strategy)
    if sharded_domains:
        db.disk.injector = injector.global_injector
    else:
        db.disk.injector = injector
        for wal in wals:
            wal.injector = injector
    injector.arm()

    sessions = build_sessions(params, pop.names, num_operations, mpl, seed)

    def handle_prepare_fault(exc: BaseException) -> bool:
        """Prepare-time faults (base reads before any lock is held): a
        crash restarts the system; any other fault just costs the retries
        already charged. Either way the operation is dropped."""
        if isinstance(exc, CrashSignal):
            supervisor.handle_crash(exc)
            return True
        return isinstance(exc, FaultError)

    if observation is None:
        observation = CostAttribution()
    measure_start = db.clock.snapshot()
    engine = _Engine(db, manager, sessions, footprints)
    engine.fault_handler = handle_prepare_fault
    with observed_window(db, strategy, observation, telemetry):
        engine.run()
        engine_ms = db.clock.elapsed_since(measure_start)
        # Final oracle pass inside the observation window, so its charges
        # are attributed like everything else.
        oracle_ok = supervisor.verify_consistency()
    clock_total_ms = db.clock.elapsed_since(measure_start)

    failover = (
        strategy.failover_stats()
        if hasattr(strategy, "failover_stats")
        else {}
    )
    if hasattr(strategy, "shards"):
        # Post-run shard state for the manifest snapshot: the sizing
        # gauges plus each shard's final degradation rung (uncharged —
        # the measured window was captured above).
        register_metrics(
            measure_sizing(db, strategy, seed=seed), observation.registry
        )
        if strategy.controller is not None:
            for shard_id, rung in enumerate(strategy.controller.rungs()):
                observation.registry.gauge(
                    f"shard.{shard_id}.degrade.rung"
                ).set(float(rung))
    phase_costs = observation.phase_costs()
    return ChaosRunResult(
        strategy=strategy_name,
        mpl=mpl,
        model=model,
        seed=seed,
        plan_seed=plan.seed,
        num_accesses=manager.num_accesses,
        num_updates=manager.num_updates,
        ops_failed=engine.ops_failed,
        faults_injected=injector.total_injected,
        fault_counts=injector.fault_counts(),
        retries=injector.retries,
        backoff_ms=injector.backoff_ms_total,
        torn_pages=injector.torn_pages,
        corruptions_detected=injector.corruptions_detected,
        crashes=injector.crashes,
        degraded_accesses=supervisor.degraded_accesses,
        repairs=supervisor.repairs,
        ar_fallbacks=supervisor.ar_fallbacks,
        crash_restarts=supervisor.crash_restarts,
        update_aborts=supervisor.update_aborts,
        oracle_checks=supervisor.oracle_checks,
        oracle_failures=supervisor.oracle_failures,
        oracle_ok=oracle_ok and supervisor.oracle_failures == 0,
        clock_total_ms=clock_total_ms,
        engine_ms=engine_ms,
        recovery_ms=phase_costs.get("fault.recovery", 0.0),
        oracle_ms=phase_costs.get("fault.oracle", 0.0),
        phase_costs=phase_costs,
        database_digest=database_digest(db),
        wal_records_lost=sum(wal.records_lost for wal in wals),
        shards=shards,
        replicas=replicas,
        shard_crashes=int(failover.get("shard_crashes", 0)),
        promotions=int(failover.get("promotions", 0)),
        wal_rebuilds=getattr(supervisor, "wal_rebuilds", 0),
        shard_recoveries=getattr(supervisor, "shard_recoveries", 0),
        deliveries_queued=int(failover.get("deliveries_queued", 0)),
        deliveries_drained=int(failover.get("deliveries_drained", 0)),
        delivery_retries=int(failover.get("delivery_retries", 0)),
        failover_ms=phase_costs.get("shard.failover", 0.0),
        replica_ms=phase_costs.get("fault.replica", 0.0),
        metrics=engine.metrics,
    )


def chaos_sweep(
    params: ModelParams,
    strategies: Sequence[str] = CHAOS_STRATEGIES,
    plan: FaultPlan | None = None,
    mpl: int = 1,
    model: int = 1,
    num_operations: int = 120,
    seed: int = 0,
    observation_factory=None,
    shards: int | None = None,
    replicas: int = 0,
    degrade: bool = False,
) -> list[ChaosRunResult]:
    """Run the same fault campaign against each strategy. Every run gets
    its own injector from the same plan, so campaigns are comparable
    (same seed, same rates) without sharing RNG state across runs.
    ``observation_factory`` builds one attribution per run (manifest and
    trace-export paths). ``shards``/``replicas``/``degrade`` pass
    through to :func:`run_chaos` unchanged."""
    return [
        run_chaos(
            params,
            strategy,
            plan=plan,
            mpl=mpl,
            model=model,
            num_operations=num_operations,
            seed=seed,
            observation=(
                observation_factory()
                if observation_factory is not None
                else None
            ),
            shards=shards,
            replicas=replicas,
            degrade=degrade,
        )
        for strategy in strategies
    ]


def render_chaos_table(results: Iterable[ChaosRunResult]) -> str:
    """One aligned text table: what fired, what it cost, did the oracle
    hold."""
    header = (
        f"{'strategy':18s} {'mpl':>4s} {'faults':>6s} {'retry':>5s} "
        f"{'torn':>4s} {'crash':>5s} {'degr':>4s} {'repair':>6s} "
        f"{'ar_fb':>5s} {'restart':>7s} {'recov ms':>9s} {'oracle':>6s}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.strategy:18s} {r.mpl:4d} {r.faults_injected:6d} "
            f"{r.retries:5d} {r.torn_pages:4d} {r.crashes:5d} "
            f"{r.degraded_accesses:4d} {r.repairs:6d} {r.ar_fallbacks:5d} "
            f"{r.crash_restarts:7d} {r.recovery_ms:9.1f} "
            f"{'OK' if r.oracle_ok else 'FAIL':>6s}"
        )
    return "\n".join(lines)


def chaos_to_dict(results: Iterable[ChaosRunResult]) -> dict:
    """JSON-ready export of a campaign (the CI workflow artifact)."""
    results = list(results)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "chaos_report",
        "strategies": sorted({r.strategy for r in results}),
        "mpls": sorted({r.mpl for r in results}),
        "oracle_ok": all(r.oracle_ok for r in results),
        "runs": [r.to_dict() for r in results],
    }
