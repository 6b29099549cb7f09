"""The discrete-event multi-client simulation engine.

Runs ``mpl`` client sessions against one shared database and procedure
manager under strict two-phase locking. Virtual time is the simulated
milliseconds the :class:`repro.sim.CostClock` charges: an operation's
duration is exactly what its execution charged, sessions interleave at
operation boundaries, and the event loop processes (time, seq) keys so
runs are deterministic for a given seed.

One operation = one transaction:

1. **Prepare** (at the operation's start instant): updates draw their
   tuple picks and new values from the session rng and pre-read the old
   rows (charged as ``base.update``, like the serial runner); accesses
   cost nothing here. This yields the lock request — read units from the
   procedure's i-lock footprint, write units from the changed tuples.
2. **Acquire**: units are requested incrementally from the
   :class:`~repro.concurrent.locks.LockManager`. Blocking leaves the
   session dormant until a release resumes it (FIFO); a block that
   closes a waits-for cycle aborts the requester, which retries the
   same operation (same change-set) immediately.
3. **Execute** (at the grant instant): the shared manager performs the
   access or update; the charged delta is the operation's service time.
   Time spent blocked is charged to the clock under a ``lock.wait``
   span, so an attached :class:`repro.obs.CostAttribution` still sums
   exactly — waiting is a phase, not a leak.
4. **Commit**: locks release at ``grant + service`` virtual ms, resuming
   waiters; the session starts its next operation.

Because execution is single-threaded and happens in virtual-time order,
the database itself is never racy — locks shape *timing* (blocked time,
throughput, aborts), not correctness. MPL=1 degenerates to the serial
runner: same stream, same rng, no contention, identical charges.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.concurrent.locks import AcquireStatus, LockManager, LockUnit
from repro.concurrent.session import (
    ClientSession,
    OperationContext,
    build_sessions,
)
from repro.core import BatchAccumulator, ProcedureManager
from repro.model.params import ModelParams
from repro.query.executor import execute_plan
from repro.query.optimizer import Optimizer
from repro.query.plan import LockSpec
from repro.sim import MetricSet
from repro.workload.database import SyntheticDatabase
from repro.workload.generator import OperationKind
from repro.workload.runner import (
    apply_change_set,
    build_stack,
    draw_update,
    observed_window,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import CostAttribution

#: Hard cap on deadlock aborts for a single operation — a livelock guard
#: (victim choice guarantees progress long before this trips).
MAX_ABORTS_PER_OPERATION = 500


@dataclass
class ConcurrentRunResult:
    """Outcome of one multi-client simulated run."""

    strategy: str
    model: int
    mpl: int
    params: ModelParams
    num_accesses: int
    num_updates: int
    #: The paper's metric, aggregated over all sessions (waits excluded —
    #: comparable with the serial runner's number).
    cost_per_access_ms: float
    access_cost_ms: float
    maintenance_cost_ms: float
    base_update_cost_ms: float
    #: Shard count when the run used a sharded engine (``None`` = plain).
    shards: int | None = None
    #: Virtual ms from start to the last commit across all sessions.
    makespan_ms: float = 0.0
    #: Committed operations per simulated second.
    throughput_ops_per_s: float = 0.0
    #: Total virtual ms sessions spent blocked in the lock manager.
    blocked_ms_total: float = 0.0
    #: Operations that had to wait at least once before executing.
    ops_blocked: int = 0
    #: Deadlock victim aborts (every one is followed by a retry).
    aborts: int = 0
    #: Operations that committed after suffering at least one abort.
    retries_succeeded: int = 0
    #: Admission-gate refusals (0 when no gate, or never binding).
    admission_deferrals: int = 0
    space_pages: int = 0
    metrics: MetricSet = field(default_factory=MetricSet)
    #: Total clock charge over the measured window (work + lock.wait).
    clock_total_ms: float = 0.0
    phase_costs: dict[str, float] = field(default_factory=dict)
    procedure_costs: dict[str, float] = field(default_factory=dict)
    #: Committed operations per session (index = session id).
    per_session_committed: list[int] = field(default_factory=list)

    @property
    def num_operations(self) -> int:
        return self.num_accesses + self.num_updates

    def latency_summary(self, kind: str = "access") -> dict[str, float]:
        """p50/p95/p99 digest for ``"access"`` or ``"update"`` latency."""
        return self.metrics.latency_summary(f"{kind}_latency_ms")

    def to_dict(self) -> dict:
        """JSON-ready export (what ``repro-procs concurrent --json`` emits)."""
        return {
            "strategy": self.strategy,
            "model": self.model,
            "mpl": self.mpl,
            "shards": self.shards,
            "num_accesses": self.num_accesses,
            "num_updates": self.num_updates,
            "cost_per_access_ms": self.cost_per_access_ms,
            "makespan_ms": self.makespan_ms,
            "throughput_ops_per_s": self.throughput_ops_per_s,
            "blocked_ms_total": self.blocked_ms_total,
            "ops_blocked": self.ops_blocked,
            "aborts": self.aborts,
            "retries_succeeded": self.retries_succeeded,
            "admission_deferrals": self.admission_deferrals,
            "space_pages": self.space_pages,
            "access_latency": self.latency_summary("access"),
            "update_latency": self.latency_summary("update"),
            "phases": self.phase_costs,
            "per_session_committed": self.per_session_committed,
        }


def collect_footprints(
    db: SyntheticDatabase, manager: ProcedureManager
) -> dict[str, list[LockSpec]]:
    """Read footprint per procedure, from the plans the i-locks are built
    on. Executed once pre-measurement (the clock is reset afterwards);
    duplicate specs are collapsed keeping first-occurrence order."""
    optimizer = Optimizer(db.catalog)
    footprints: dict[str, list[LockSpec]] = {}
    for name, procedure in manager.strategy.procedures.items():
        plan = optimizer.compile_normalized(procedure.query)
        result = execute_plan(plan, db.catalog, db.clock, collect_locks=True)
        unique: dict[tuple, LockSpec] = {}
        for spec in result.locks:
            unique.setdefault((spec.relation, spec.interval), spec)
        footprints[name] = list(unique.values())
    return footprints


class _Engine:
    """The event loop. One instance per run; see module docstring."""

    def __init__(
        self,
        db: SyntheticDatabase,
        manager: ProcedureManager,
        sessions: list[ClientSession],
        footprints: dict[str, list[LockSpec]],
        batch_size: int | None = None,
    ) -> None:
        self.db = db
        self.manager = manager
        self.sessions = {s.session_id: s for s in sessions}
        self.footprints = footprints
        #: Cross-session update batching (group commit): maintenance for
        #: committed updates is deferred into a shared accumulator and
        #: flushed before any access executes — single-threaded virtual
        #: time makes the deferral deterministic, and 2PL still shapes
        #: timing the same way (the lock footprints are unchanged).
        self.batcher = (
            None
            if batch_size is None
            else BatchAccumulator(manager, batch_size)
        )
        self.locks = LockManager()
        self.metrics = MetricSet()
        self._events: list[tuple[float, int, str, int]] = []
        self._seq = 0
        self.makespan_ms = 0.0
        self.blocked_ms_total = 0.0
        self.ops_blocked = 0
        self.aborts = 0
        self.retries_succeeded = 0
        #: Chaos hook: called with an exception raised while *preparing* an
        #: operation (before any lock is held). Return True if handled —
        #: the operation is dropped and the session moves on — or False to
        #: re-raise. None (the default) means no handling: prepare faults
        #: are fatal, exactly as before.
        self.fault_handler = None
        self.ops_failed = 0
        #: Optional :class:`repro.concurrent.admission.AdmissionGate`:
        #: sessions must be admitted before drawing an operation; refused
        #: sessions retry after the gate's (uncharged) virtual delay.
        self.admission = None
        #: Optional overload feed: called as ``(procedure, wait_ms, now)``
        #: whenever an *access* executed after blocking, so a per-shard
        #: controller can attribute lock waits to the procedure's home.
        self.wait_observer = None

    # -- event plumbing --------------------------------------------------

    def _schedule(self, time_ms: float, kind: str, session_id: int) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time_ms, self._seq, kind, session_id))

    def run(self) -> None:
        for session_id in self.sessions:
            self._schedule(0.0, "start", session_id)
        handlers = {
            "start": self._on_start,
            "request": self._on_request,
            "commit": self._on_commit,
        }
        while self._events:
            time_ms, _seq, kind, session_id = heapq.heappop(self._events)
            handlers[kind](session_id, time_ms)

    # -- operation lifecycle ---------------------------------------------

    def _on_start(self, session_id: int, now: float) -> None:
        session = self.sessions[session_id]
        if session.next_index >= len(session.operations):
            return  # stream drained; last commit already recorded
        if self.admission is not None and not self.admission.try_admit(
            session_id
        ):
            # Refused at the door: park (uncharged) and knock again.
            self._schedule(
                now + self.admission.retry_delay_ms, "start", session_id
            )
            return
        op = session.take_next()
        before = self.db.clock.snapshot()
        try:
            if op.kind is OperationKind.UPDATE:
                context = self._prepare_update(session, op)
            else:
                context = self._prepare_access(op)
        except Exception as exc:
            if self.fault_handler is None or not self.fault_handler(exc):
                raise
            # Prepare holds no locks and has modified nothing durable, so
            # a handled fault just drops the operation from the stream.
            if self.admission is not None:
                self.admission.release(session_id)
            self.ops_failed += 1
            failed_ms = self.db.clock.elapsed_since(before)
            self._schedule(now + failed_ms, "start", session_id)
            return
        pre_ms = self.db.clock.elapsed_since(before)
        context.op_start = now
        context.request_time = now + pre_ms
        session.context = context
        self._schedule(context.request_time, "request", session_id)

    def _on_request(self, session_id: int, now: float) -> None:
        session = self.sessions[session_id]
        context = session.context
        assert context is not None
        outcome = self.locks.acquire(session_id, context.units)
        if outcome.status is AcquireStatus.GRANTED:
            self._execute(session_id, now)
            return
        if outcome.status is AcquireStatus.ABORTED:
            self._count_abort(session, now)
            self._apply_outcome(outcome, now)
            self._schedule(now, "request", session_id)
        # BLOCKED: dormant until a release (or an abort) resumes us.

    def _execute(self, session_id: int, now: float) -> None:
        session = self.sessions[session_id]
        context = session.context
        assert context is not None
        wait_ms = now - context.request_time
        if wait_ms > 0:
            self._charge_wait(wait_ms)
            session.blocked_ms += wait_ms
            self.blocked_ms_total += wait_ms
            self.ops_blocked += 1
            self.metrics.observe("lock_wait_ms", wait_ms)
            procedure = getattr(context.op, "procedure", None)
            if self.wait_observer is not None and procedure is not None:
                self.wait_observer(procedure, wait_ms, now)
            tracer = self.db.clock.tracer
            if tracer is not None and tracer.telemetry is not None:
                tracer.telemetry.on_point(
                    "lock.wait.ms", wait_ms, now, procedure=procedure
                )
        before = self.db.clock.snapshot()
        context.execute()
        service_ms = self.db.clock.elapsed_since(before)
        kind = (
            "update"
            if context.op.kind is OperationKind.UPDATE
            else "access"
        )
        self.metrics.observe(f"{kind}_service_ms", service_ms)
        self._schedule(now + service_ms, "commit", session_id)

    def _on_commit(self, session_id: int, now: float) -> None:
        session = self.sessions[session_id]
        context = session.context
        assert context is not None
        outcome = self.locks.release(session_id)
        if self.admission is not None:
            self.admission.release(session_id)
        session.committed += 1
        session.last_commit_ms = now
        self.makespan_ms = max(self.makespan_ms, now)
        if context.aborts:
            self.retries_succeeded += 1
        kind = (
            "update"
            if context.op.kind is OperationKind.UPDATE
            else "access"
        )
        self.metrics.observe(f"{kind}_latency_ms", now - context.op_start)
        session.context = None
        self._apply_outcome(outcome, now)
        self._schedule(now, "start", session_id)

    def _apply_outcome(self, outcome, now: float) -> None:
        """Resume sessions a lock-manager call granted or aborted."""
        for granted_id in outcome.granted:
            self._execute(granted_id, now)
        for aborted_id in outcome.aborted:
            self._count_abort(self.sessions[aborted_id], now)
            self._schedule(now, "request", aborted_id)

    def _count_abort(self, session: ClientSession, now: float) -> None:
        context = session.context
        assert context is not None
        context.aborts += 1
        session.aborted_ops += 1
        self.aborts += 1
        tracer = self.db.clock.tracer
        if tracer is not None:
            tracer.event("lock.deadlock.abort")
            if tracer.telemetry is not None:
                tracer.telemetry.on_point(
                    "lock.abort",
                    1.0,
                    now,
                    procedure=getattr(context.op, "procedure", None),
                )
        if context.aborts > MAX_ABORTS_PER_OPERATION:
            raise RuntimeError(
                f"operation in session {session.session_id} aborted "
                f"{context.aborts} times; livelock guard tripped at "
                f"t={now:.1f} ms"
            )

    def _charge_wait(self, wait_ms: float) -> None:
        """Charge blocked time to the clock under the ``lock.wait`` phase
        so attribution over a concurrent window still sums exactly."""
        clock = self.db.clock
        tracer = clock.tracer
        span = (
            nullcontext() if tracer is None else tracer.span("lock.wait")
        )
        with span:
            clock.charge_fixed(wait_ms)

    # -- operation preparation -------------------------------------------

    def _apply_update(
        self, relation: str, changes: list, cluster_field: str | None = None
    ) -> None:
        """Route one committed update through the batcher (deferred
        maintenance) or straight to the manager (legacy path)."""
        if self.batcher is None:
            self.manager.update(
                relation, changes, cluster_field=cluster_field
            )
        else:
            self.batcher.add(
                relation, changes, cluster_field=cluster_field
            )

    def drain_batches(self) -> float:
        """Flush any maintenance still pending at end of stream."""
        if self.batcher is None:
            return 0.0
        return self.batcher.flush()

    def _prepare_access(self, op) -> OperationContext:
        name = op.procedure
        units = [LockUnit.read(spec) for spec in self.footprints[name]]

        def execute() -> None:
            # Reads must observe fully maintained caches: drain the
            # pending update batch before serving the access (the flush
            # cost lands in this operation's service time — group commit).
            if self.batcher is not None:
                self.batcher.flush()
            self.manager.access(name)

        return OperationContext(op=op, units=units, execute=execute)

    def _prepare_update(
        self, session: ClientSession, op
    ) -> OperationContext:
        """Draw the change-set from the session rng (the serial runner's
        :func:`~repro.workload.runner.draw_update`) and build write units
        from it. R1 tuple identity is the position in the rid table:
        stable across clustered relocations, unlike the RID."""
        relation = op.relation
        keys, old_rows, new_rows = draw_update(
            self.db, session.rng, relation, op.tuples_to_modify
        )
        schema_names = self.db.catalog.get(relation).schema.names()
        units = [
            LockUnit.write(
                relation,
                (relation, key),
                dict(zip(schema_names, old)),
                dict(zip(schema_names, new)),
            )
            for key, old, new in zip(keys, old_rows, new_rows)
        ]

        def execute() -> None:
            apply_change_set(
                self.db, self.manager, relation, keys, new_rows,
                self._apply_update,
            )

        return OperationContext(op=op, units=units, execute=execute)


def run_concurrent_workload(
    params: ModelParams,
    strategy_name: str,
    mpl: int = 4,
    model: int = 1,
    num_operations: int = 400,
    seed: int = 0,
    warm_caches: bool = True,
    buffer_capacity: int = 0,
    invalidation_scheme: str | None = None,
    update_weights: dict[str, float] | None = None,
    observation: "CostAttribution | None" = None,
    batch_size: int | None = None,
    shards: int | None = None,
    admission: int | None = None,
    degrade: bool = False,
) -> ConcurrentRunResult:
    """Run ``mpl`` concurrent sessions of one strategy over the shared
    synthetic database.

    ``num_operations`` is the total across sessions, split as evenly as
    possible. With ``mpl=1`` every knob matches
    :func:`repro.workload.runner.run_workload` and the measured
    per-access cost is identical (the degeneracy check in the tests).

    ``batch_size`` enables cross-session update batching: committed
    updates accumulate maintenance into a shared
    :class:`repro.core.BatchAccumulator` that flushes when full, when the
    target relation changes, before any access executes, and at end of
    stream. ``None`` (default) keeps the legacy immediate-maintenance
    path.

    ``shards`` runs the strategy behind a
    :class:`repro.shard.ShardedStrategy` facade with that many shards;
    sessions, 2PL, and footprint collection are unchanged (the facade is
    a regular strategy to the manager). ``None`` keeps the plain engine.

    ``admission`` caps operations in flight below the MPL through an
    :class:`repro.concurrent.admission.AdmissionGate` (``None``, or any
    value >= ``mpl``, is never binding and leaves runs bit-identical).
    ``degrade=True`` (requires ``shards >= 2``) attaches the per-shard
    :class:`repro.shard.degrade.OverloadController`, fed by routed
    invalidations *and* the engine's lock-wait attribution, so one
    overloaded shard walks the UC -> CI -> AR ladder alone.
    """
    if mpl < 1:
        raise ValueError("multiprogramming level mpl must be >= 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1 (or None for unbatched)")
    if admission is not None and admission < 1:
        raise ValueError("admission must be >= 1 (or None for no gate)")
    if degrade and (shards is None or shards < 2):
        raise ValueError("degrade requires shards >= 2")
    db, pop, strategy, manager = build_stack(
        params, strategy_name, model=model, seed=seed,
        buffer_capacity=buffer_capacity,
        invalidation_scheme=invalidation_scheme,
        shards=shards, warm_caches=warm_caches,
    )
    # Footprint collection executes every plan once; measure from a clean
    # clock afterwards.
    footprints = collect_footprints(db, manager)
    db.clock.reset()
    sessions = build_sessions(
        params, pop.names, num_operations, mpl, seed, update_weights
    )

    measure_start = db.clock.snapshot()
    engine = _Engine(db, manager, sessions, footprints, batch_size=batch_size)
    if admission is not None:
        from repro.concurrent.admission import AdmissionGate

        engine.admission = AdmissionGate(admission)
    if degrade:
        from repro.shard.degrade import OverloadController

        controller = OverloadController(shards)
        strategy.controller = controller

        def observe_wait(procedure: str, wait_ms: float, now: float) -> None:
            controller.observe_lock_wait(
                strategy.shard_of(procedure), wait_ms, now
            )

        engine.wait_observer = observe_wait
    with observed_window(db, strategy, observation):
        engine.run()
        engine.drain_batches()

    makespan = engine.makespan_ms
    committed = sum(s.committed for s in sessions)
    throughput = committed / makespan * 1000.0 if makespan > 0 else 0.0
    engine.metrics.observe("sessions", float(mpl))
    return ConcurrentRunResult(
        strategy=strategy_name,
        model=model,
        mpl=mpl,
        params=params,
        shards=shards,
        num_accesses=manager.num_accesses,
        num_updates=manager.num_updates,
        cost_per_access_ms=manager.cost_per_access(),
        access_cost_ms=manager.access_cost_ms,
        maintenance_cost_ms=manager.maintenance_cost_ms,
        base_update_cost_ms=manager.base_update_cost_ms,
        makespan_ms=makespan,
        throughput_ops_per_s=throughput,
        blocked_ms_total=engine.blocked_ms_total,
        ops_blocked=engine.ops_blocked,
        aborts=engine.aborts,
        retries_succeeded=engine.retries_succeeded,
        admission_deferrals=(
            engine.admission.deferrals
            if engine.admission is not None
            else 0
        ),
        space_pages=strategy.space_pages(),
        metrics=engine.metrics,
        clock_total_ms=db.clock.elapsed_since(measure_start),
        phase_costs=(
            observation.phase_costs() if observation is not None else {}
        ),
        procedure_costs=(
            observation.procedure_costs() if observation is not None else {}
        ),
        per_session_committed=[s.committed for s in sessions],
    )
