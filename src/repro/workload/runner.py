"""The simulation runner: one strategy, one workload, one number.

Builds a fresh database and procedure population from a seed (so every
strategy sees the *identical* initial universe and operation stream),
executes the stream under the chosen strategy, and reports the paper's
metric — expected total cost per procedure access — plus distributional
detail the analytical model cannot give.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core import (
    STRATEGY_CLASSES,
    CacheAndInvalidate,
    DeltaBatch,
    ProcedureManager,
    ProcedureStrategy,
)
from repro.model.params import ModelParams
from repro.sim import MetricSet
from repro.storage.tuples import Row
from repro.workload.database import SyntheticDatabase, build_database
from repro.workload.generator import (
    OperationKind,
    coalesced_update_runs,
    generate_operations,
)
from repro.workload.procedures import ProcedurePopulation, build_procedures

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import CostAttribution
    from repro.obs.telemetry import TelemetryBus
    from repro.storage.buffer import BufferPool


@dataclass
class RunResult:
    """Outcome of one simulated workload run."""

    strategy: str
    model: int
    params: ModelParams
    num_accesses: int
    num_updates: int
    cost_per_access_ms: float
    access_cost_ms: float
    maintenance_cost_ms: float
    base_update_cost_ms: float
    space_pages: int = 0
    metrics: MetricSet = field(default_factory=MetricSet)
    #: Simulated ms charged during the measured stream (after warm-up).
    clock_total_ms: float = 0.0
    #: Per-phase cost attribution (empty unless run with an observation).
    phase_costs: dict[str, float] = field(default_factory=dict)
    #: Per-procedure cost attribution (empty unless observed).
    procedure_costs: dict[str, float] = field(default_factory=dict)
    #: Update-transaction batch size used (None = the legacy unbatched
    #: code path; 1 routes through the batch pipeline, bit-identically).
    batch_size: int | None = None
    #: Real (wall-clock) milliseconds of strategy maintenance per update
    #: transaction — the simulator's own speed, not the simulated cost.
    wall_ms_per_update: float = 0.0
    #: Real milliseconds of strategy access work per procedure access.
    wall_ms_per_access: float = 0.0
    #: Shard count of the sharded engine (None = the unsharded engine;
    #: 1 routes through ``repro.shard`` bit-identically).
    shards: int | None = None
    #: Per-access ``(procedure, rows)`` log, in stream order (only when
    #: the run was asked to record accesses — the differential harness).
    access_log: list[tuple[str, tuple]] = field(default_factory=list)
    #: The manager (with its strategy state) and the database it ran
    #: over — only when ``keep_manager`` was requested; lets tests and the
    #: sizing layer inspect post-run state.
    manager: "ProcedureManager | None" = None
    database: "SyntheticDatabase | None" = None

    @property
    def observed_update_probability(self) -> float:
        total = self.num_accesses + self.num_updates
        return self.num_updates / total if total else 0.0


def make_strategy(
    name: str,
    db: SyntheticDatabase,
    params: ModelParams,
    invalidation_scheme: str | None = None,
    buffer: "BufferPool | None" = None,
) -> ProcedureStrategy:
    """Instantiate a strategy over ``db`` with the paper's conventions
    (result tuples assumed ``S`` bytes wide; ``C_inval`` from params).

    ``invalidation_scheme`` (Cache and Invalidate only) selects a durable
    recording design from :mod:`repro.recovery` — ``"battery"``,
    ``"page_flag"``, or ``"wal"`` — instead of the flat ``C_inval`` charge.

    ``"hybrid"`` builds the per-procedure router with the default split:
    P1 selections go to Cache and Invalidate, P2 joins to the shared Rete
    maintainer (cheap-to-recompute objects tolerate invalidation; join
    results are the ones worth keeping current).

    ``buffer`` overrides the pool backing the strategy's own stores
    (default ``db.buffer``); the sharded engine passes each shard's
    private pool here. Base relations always stay on ``db.buffer``.
    """
    if buffer is None:
        buffer = db.buffer
    if name == "hybrid":
        if invalidation_scheme is not None:
            raise ValueError(
                "invalidation_scheme only applies to cache_invalidate"
            )
        from repro.core import HybridStrategy, StrategyName
        from repro.core.procedure import DatabaseProcedure, ProcedureKind

        def assign(procedure: DatabaseProcedure) -> StrategyName:
            if procedure.kind is ProcedureKind.P1:
                return StrategyName.CACHE_INVALIDATE
            return StrategyName.UPDATE_CACHE_RVM

        return HybridStrategy(
            db.catalog,
            buffer,
            db.clock,
            assign=assign,
            default=StrategyName.ALWAYS_RECOMPUTE,
            sub_strategy_kwargs={
                StrategyName.CACHE_INVALIDATE: {
                    "c_inval": params.inval_cost_ms,
                    "result_tuple_bytes": params.tuple_bytes,
                },
                StrategyName.UPDATE_CACHE_RVM: {
                    "result_tuple_bytes": params.tuple_bytes,
                },
            },
        )
    cls = STRATEGY_CLASSES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGY_CLASSES)}"
        )
    kwargs: dict = {"result_tuple_bytes": params.tuple_bytes}
    if cls is CacheAndInvalidate:
        kwargs["c_inval"] = params.inval_cost_ms
        if invalidation_scheme is not None:
            from repro.recovery import scheme_from_name

            kwargs["scheme"] = scheme_from_name(invalidation_scheme, db.clock)
    elif invalidation_scheme is not None:
        raise ValueError(
            "invalidation_scheme only applies to cache_invalidate"
        )
    if cls.strategy_name.value == "always_recompute":
        kwargs = {}
    return cls(db.catalog, buffer, db.clock, **kwargs)


def build_stack(
    params: ModelParams,
    strategy_name: str,
    model: int = 1,
    seed: int = 0,
    buffer_capacity: int = 0,
    invalidation_scheme: str | None = None,
    shards: int | None = None,
    replicas: int = 0,
    warm_caches: bool = True,
    database: SyntheticDatabase | None = None,
    population: ProcedurePopulation | None = None,
    manager_factory: Callable[
        [ProcedureStrategy], ProcedureManager
    ] = ProcedureManager,
) -> tuple[
    SyntheticDatabase, ProcedurePopulation, ProcedureStrategy, ProcedureManager
]:
    """Assemble the universe every ``run_*`` driver starts from and return
    the ``(db, population, strategy, manager)`` it built.

    One construction order, so every strategy and every driver sees the
    identical initial state for a given ``(params, model, seed)``:
    database -> procedure population (both from ``seed``) -> strategy
    (plain for ``shards=None``, else the ``repro.shard`` facade, which
    derives its per-shard streams from ``seed``) ->
    ``manager_factory(strategy)`` -> define every procedure (uncharged)
    -> with ``warm_caches``, access each once, then zero the manager
    counters and reset the clock, so the warm-up is off the books.

    ``database``/``population`` substitute pre-built ones (they must
    match ``params``/``model``/``seed``). ``manager_factory`` receives
    the finished strategy — the chaos driver builds its supervisor and
    fault domains there and returns a ``SupervisedManager``.

    Raises ``ValueError`` (before building anything) for ``shards < 1``
    or ``replicas`` without ``shards >= 2``.
    """
    if shards is not None and shards < 1:
        raise ValueError("shards must be >= 1")
    if replicas and (shards is None or shards < 2):
        raise ValueError("replicas require shards >= 2")
    db = database if database is not None else build_database(
        params, seed=seed, buffer_capacity=buffer_capacity
    )
    pop = population if population is not None else build_procedures(
        db, params, model=model, seed=seed
    )
    if shards is None:
        strategy = make_strategy(
            strategy_name, db, params,
            invalidation_scheme=invalidation_scheme,
        )
    else:
        from repro.shard import make_sharded_strategy

        strategy = make_sharded_strategy(
            strategy_name, db, params, num_shards=shards,
            invalidation_scheme=invalidation_scheme, seed=seed,
            replicas=replicas,
        )
    manager = manager_factory(strategy)
    for name, expr in pop.definitions:
        manager.define_procedure(name, expr)
    if warm_caches:
        for name in pop.names:
            manager.access(name)
        manager.reset_counters()
        db.clock.reset()
    return db, pop, strategy, manager


@contextmanager
def observed_window(
    db: SyntheticDatabase,
    strategy: ProcedureStrategy,
    observation: "CostAttribution | None",
    telemetry: "TelemetryBus | None" = None,
) -> Iterator[None]:
    """Attach ``observation`` (and the ``telemetry`` bus riding it) to the
    clock for the measured window: configure the bus for the strategy's
    shard layout, wire it into the attribution sink and any overload
    controller, detach on the way out — also on error — and close the
    bus's open windows once the run completed."""
    if telemetry is not None:
        telemetry.configure(
            num_shards=len(getattr(strategy, "shards", ())) or 1,
            shard_resolver=getattr(strategy, "shard_of", None),
        )
        observation.telemetry = telemetry
        controller = getattr(strategy, "controller", None)
        if controller is not None:
            controller.telemetry = telemetry
    if observation is not None:
        observation.attach(db.clock)
    try:
        yield
    finally:
        if observation is not None:
            observation.detach()
    if telemetry is not None:
        telemetry.finalize(db.clock.elapsed_ms)


def draw_update(
    db: SyntheticDatabase, rng: random.Random, relation: str, l_tuples: int
) -> tuple[list, list[Row], list[Row]]:
    """Draw one update transaction's change-set: ``l`` distinct tuples of
    ``relation`` and a re-randomised value for each, as
    ``(keys, old_rows, new_rows)``.

    - ``R1``: re-randomise ``sel`` (the paper's workload).
    - ``R2``: re-randomise ``sel2`` (join keys stay stable).
    - ``R3``: re-randomise the payload.

    ``keys`` name the picked tuples: RIDs for R2/R3, and for R1
    *positions* in ``db.r1_rids`` — stable across the clustered
    relocations that change an R1 tuple's RID. The rng call sequence
    (one ``sample``, then one ``randrange`` after each pre-read) is the
    contract every driver's determinism rests on.

    The pre-reads are base-update work (the paper excludes them from the
    per-access metric); they are tagged so attribution agrees.
    """
    randrange = rng.randrange
    if relation == "R1":
        rid_table, heap = db.r1_rids, db.r1.heap

        def redraw(old: Row) -> Row:
            return (old[0], randrange(db.sel_domain), old[2])
    elif relation == "R2":
        rid_table, heap = db.r2_rids, db.r2.heap

        def redraw(old: Row) -> Row:
            return (old[0], old[1], randrange(db.sel2_domain), old[3])
    elif relation == "R3":
        rid_table, heap = db.r3_rids, db.r3.heap

        def redraw(old: Row) -> Row:
            return (old[0], old[1], randrange(1_000_000))
    else:
        raise ValueError(f"unknown update target relation {relation!r}")
    count = min(l_tuples, len(rid_table))
    if relation == "R1":
        keys = rng.sample(range(len(rid_table)), count)
        rids = [rid_table[pos] for pos in keys]
    else:
        keys = rids = rng.sample(rid_table, count)
    tracer = db.clock.tracer
    old_rows: list[Row] = []
    new_rows: list[Row] = []
    with nullcontext() if tracer is None else tracer.span("base.update"):
        for rid in rids:
            old = heap.read(rid)  # pre-read, base cost
            old_rows.append(old)
            new_rows.append(redraw(old))
    return keys, old_rows, new_rows


def apply_change_set(
    db: SyntheticDatabase,
    manager: ProcedureManager,
    relation: str,
    keys: list,
    new_rows: list[Row],
    update: Callable[..., object],
) -> None:
    """Apply a :func:`draw_update` change-set through ``update``
    (``manager.update`` or any callable with its signature). R1 positions
    resolve to RIDs *now* — a concurrent session may have relocated the
    tuples since the draw — the change is clustered on ``sel`` (the
    B-tree relocates moved tuples next to their new key neighbours), and
    the rid table follows the relocations that landed: a fault
    mid-update leaves ``last_rids`` partial, and zip truncation then
    fixes exactly the applied prefix."""
    if relation != "R1":
        update(relation, list(zip(keys, new_rows)))
        return
    changes = [(db.r1_rids[pos], new) for pos, new in zip(keys, new_rows)]
    try:
        update(relation, changes, cluster_field="sel")
    finally:
        for pos, new_rid in zip(keys, manager.last_rids):
            db.r1_rids[pos] = new_rid


def perform_update(
    db: SyntheticDatabase,
    manager: ProcedureManager,
    rng: random.Random,
    l_tuples: int,
    relation: str = "R1",
    batch: "DeltaBatch | None" = None,
) -> None:
    """One update transaction: draw ``l`` distinct tuples of ``relation``
    (:func:`draw_update`) and modify them in place. The paper only ever
    updates R1; R2/R3 power the §8 update-mix extension benches.

    With ``batch`` given, the base changes apply immediately (identical
    rng draws, pre-reads, and rid bookkeeping) but strategy maintenance is
    deferred: the transaction's delta is appended to the batch for a later
    :meth:`ProcedureManager.maintain_batch`.
    """
    keys, _old_rows, new_rows = draw_update(db, rng, relation, l_tuples)
    if batch is None:
        update = manager.update
    else:

        def update(*args, **kwargs) -> None:
            batch.add_transaction(*manager.update_deferred(*args, **kwargs))

    apply_change_set(db, manager, relation, keys, new_rows, update)


def run_workload(
    params: ModelParams,
    strategy_name: str,
    model: int = 1,
    num_operations: int = 500,
    seed: int = 0,
    warm_caches: bool = True,
    buffer_capacity: int = 0,
    population: ProcedurePopulation | None = None,
    database: SyntheticDatabase | None = None,
    invalidation_scheme: str | None = None,
    update_weights: dict[str, float] | None = None,
    observation: "CostAttribution | None" = None,
    batch_size: int | None = None,
    record_accesses: bool = False,
    keep_manager: bool = False,
    shards: int | None = None,
    replicas: int = 0,
    telemetry: "TelemetryBus | None" = None,
) -> RunResult:
    """Run one strategy over a synthetic workload.

    Args:
        params: the model parameters (procedure counts, selectivities,
            update mix...). ``n_tuples`` is typically scaled below the
            paper's 100 000 for wall-clock reasons — the cost clock, not
            wall-clock time, is the measurement.
        strategy_name: one of ``repro.core.STRATEGY_CLASSES``.
        model: 1 (two-way P2 joins) or 2 (three-way).
        num_operations: length of the operation stream.
        seed: controls database content, procedure population, and stream —
            identical across strategies for paired comparisons.
        warm_caches: access every procedure once (uncounted) before
            measuring, so Cache and Invalidate starts from a valid steady
            state as the paper's analysis assumes.
        buffer_capacity: page frames of LRU buffering (0 = the paper's
            no-caching assumption).
        population/database: pass pre-built ones to amortise setup across
            runs (they must match ``params``/``model``/``seed``); the
            database must be freshly built or identically replayed for
            fairness.
        observation: a :class:`repro.obs.CostAttribution` to attach for
            the measured stream (warm-up excluded). Fills the result's
            ``phase_costs``/``procedure_costs``; its registry and tracer
            stay readable on the object afterwards. ``None`` (default)
            runs fully unobserved with zero tracing overhead.
        batch_size: group up to this many consecutive same-relation update
            transactions into one :class:`repro.core.batch.DeltaBatch`
            whose maintenance runs once at the group boundary (an access
            or a relation switch always flushes first). ``None`` (default)
            keeps the legacy one-transaction-at-a-time path; ``1`` routes
            through the batch pipeline and is bit-identical to it.
        record_accesses: capture every access's ``(procedure, rows)`` in
            ``RunResult.access_log`` (the differential harness's probe).
        keep_manager: expose the manager (with live strategy state) and
            the database on the result for post-run inspection.
        shards: run the strategy behind the ``repro.shard`` engine with
            this many shards. ``None`` (default) is the unsharded engine;
            ``1`` routes through the sharded facade bit-identically.
        replicas: hot standbys per shard (0 or 1; needs ``shards >= 2``)
            — each shard keeps a second engine maintained through the
            same routed fan-out, ready for chaos-style failover and
            measurable by the sizing layer.
        telemetry: a :class:`repro.obs.telemetry.TelemetryBus` to stream
            the measured window into (windowed per-shard/per-procedure
            series). Auto-creates an ``observation`` when none was
            passed — the bus rides the attribution sink — and finalizes
            the bus's open windows after the run. Pure bookkeeping: the
            simulated clock is bit-identical with or without it.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1 (or None for unbatched)")
    db, pop, strategy, manager = build_stack(
        params, strategy_name, model=model, seed=seed,
        buffer_capacity=buffer_capacity,
        invalidation_scheme=invalidation_scheme,
        shards=shards, replicas=replicas, warm_caches=warm_caches,
        database=database, population=population,
    )

    rng = random.Random(seed + 3)
    metrics = MetricSet()
    access_log: list[tuple[str, tuple]] = []

    def do_access(name: str) -> None:
        result = manager.access(name)
        metrics.observe("access_ms", result.cost_ms)
        metrics.observe("access_rows", len(result.rows))
        if record_accesses:
            access_log.append((name, tuple(result.rows)))

    measure_start = db.clock.snapshot()
    if telemetry is not None and observation is None:
        from repro.obs import CostAttribution

        observation = CostAttribution()
    operations = generate_operations(
        params, pop.names, num_operations, seed=seed,
        update_weights=update_weights,
    )
    with observed_window(db, strategy, observation, telemetry):
        if batch_size is None:
            for op in operations:
                if op.kind is OperationKind.UPDATE:
                    before = db.clock.snapshot()
                    perform_update(
                        db, manager, rng, op.tuples_to_modify,
                        relation=op.relation,
                    )
                    metrics.observe(
                        "update_total_ms", db.clock.elapsed_since(before)
                    )
                else:
                    do_access(op.procedure)  # type: ignore[arg-type]
        else:
            # Batched pipeline: the generator plans the batch boundaries
            # (consecutive same-relation updates, flush before accesses);
            # base changes apply per transaction, maintenance runs once
            # per group. A single-transaction group charges exactly what
            # the unbatched loop does.
            for group in coalesced_update_runs(operations, batch_size):
                if group[0].kind is not OperationKind.UPDATE:
                    do_access(group[0].procedure)  # type: ignore[arg-type]
                    continue
                batch = DeltaBatch(group[0].relation)
                before = db.clock.snapshot()
                for op in group:
                    perform_update(
                        db, manager, rng, op.tuples_to_modify,
                        relation=op.relation, batch=batch,
                    )
                flush_ms = manager.maintain_batch(batch)
                metrics.observe(
                    "update_total_ms", db.clock.elapsed_since(before)
                )
                metrics.observe("batch_flush_ms", flush_ms)
                metrics.observe(
                    "batch_transactions", float(batch.num_transactions)
                )

    return RunResult(
        strategy=strategy_name,
        model=model,
        params=params,
        num_accesses=manager.num_accesses,
        num_updates=manager.num_updates,
        cost_per_access_ms=manager.cost_per_access(),
        access_cost_ms=manager.access_cost_ms,
        maintenance_cost_ms=manager.maintenance_cost_ms,
        base_update_cost_ms=manager.base_update_cost_ms,
        space_pages=strategy.space_pages(),
        metrics=metrics,
        clock_total_ms=db.clock.elapsed_since(measure_start),
        phase_costs=(
            observation.phase_costs() if observation is not None else {}
        ),
        procedure_costs=(
            observation.procedure_costs() if observation is not None else {}
        ),
        wall_ms_per_update=(
            manager.wall_maintenance_s * 1000.0 / manager.num_updates
            if manager.num_updates
            else 0.0
        ),
        wall_ms_per_access=(
            manager.wall_access_s * 1000.0 / manager.num_accesses
            if manager.num_accesses
            else 0.0
        ),
        batch_size=batch_size,
        shards=shards,
        access_log=access_log,
        manager=manager if keep_manager else None,
        database=db if keep_manager else None,
    )
