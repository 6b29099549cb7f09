"""One run of one workload: set up, drive passes, check, report.

Load comes from this process, one thread, closed loop: a caller of an
in-process library waits for its reply before sending the next request.
The timed phase is cut into *passes* of a fixed number of ops; passes
repeat until ``seconds`` have gone by (at least one always runs).
Timings — latencies, ops/s — use every pass. Counts — simulated clock,
page I/O, hit rates — use the first pass only, whose ops are fixed by the
seed, so they repeat exactly however many passes the box had time for.

An untraced run yields the end-to-end metrics. A traced run replays the
same passes twice on fresh stacks, without and with the tracer, and
yields the per-layer metrics plus the tracer's own overhead.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Optional

from repro.core import ProcedureManager
from repro.obs import CostAttribution
from repro.obs.telemetry import TelemetryBus
from repro.serve.app import ProcedureApp
from repro.serve.cache import ResultCache
from repro.shard import make_sharded_strategy
from repro.workload.database import build_database
from repro.workload.procedures import build_procedures
from repro.workload.runner import make_strategy

from wall import oracle
from wall.metrics import END_TO_END, LAYERS, PER_LAYER
from wall.trace import NO_OP, Tracer
from wall.workloads import Op, Workload, op_stream, ranking

#: Set-ups per untraced run, each from scratch; ``setup_s`` is their
#: median. A constant, so that the figure — and the high-water mark of
#: memory behind ``peak_rss_mb`` — means the same on a fast and a slow box.
SETUPS = 3

#: The serving tier of ``serve_zipf``: result-cache entries, admission
#: slots, closed-loop clients on the one thread.
CACHE_CAPACITY = 64
MAX_INFLIGHT = 16
CLIENTS = 4


@dataclass
class Stack:
    """A built workload, ready to take ops."""

    workload: Workload
    db: object
    definitions: list
    #: The procedures reads pick from, most popular first.
    ranked: list[str]
    manager: ProcedureManager
    app: Optional[ProcedureApp] = None
    observation: Optional[CostAttribution] = None
    bus: Optional[TelemetryBus] = None
    setup_s: float = 0.0
    define_s: float = 0.0


def build_stack(
    workload: Workload, seed: int, tracer: Optional[Tracer] = None
) -> Stack:
    """Everything ``setup_s`` covers, in the order ``run_workload`` and
    ``build_serving_stack`` do it."""
    build_db, build_procs = build_database, build_procedures
    if tracer is not None:
        build_db = tracer.wrap("workload", "build_database", build_db)
        build_procs = tracer.wrap("workload", "build_procedures", build_procs)
    start = time.perf_counter()
    db = build_db(
        workload.params, seed=seed, buffer_capacity=workload.buffer_capacity
    )
    population = build_procs(db, workload.params, model=1, seed=seed)
    if workload.shards is None:
        strategy = make_strategy(workload.strategy, db, workload.params)
    else:
        strategy = make_sharded_strategy(
            workload.strategy, db, workload.params,
            num_shards=workload.shards, seed=seed,
        )
    manager = ProcedureManager(strategy)
    define_start = time.perf_counter()
    for name, expression in population.definitions:
        manager.define_procedure(name, expression)
    define_s = time.perf_counter() - define_start
    ranked = ranking(
        workload.stream, seed, population.p1_names, population.p2_names
    )
    for name in ranked:
        manager.access(name)
    manager.reset_counters()
    db.clock.reset()
    stack = Stack(workload, db, population.definitions, ranked, manager)
    if workload.serve:
        cache = ResultCache(
            db.clock, catalog=db.catalog, capacity=CACHE_CAPACITY
        )
        stack.app = ProcedureApp(
            manager, db, cache, max_inflight=MAX_INFLIGHT, seed=seed
        )
    if workload.observe:
        stack.observation = CostAttribution()
        if workload.observe == "bus":
            stack.bus = TelemetryBus()
            stack.observation.telemetry = stack.bus
        stack.observation.attach(db.clock)
    stack.setup_s = time.perf_counter() - start
    stack.define_s = define_s
    return stack


# -- counters ---------------------------------------------------------------


def counters(stack: Stack) -> dict[str, float]:
    """Every public count the layers keep, as one flat dict; the harness
    reports differences of two of these."""
    manager, db = stack.manager, stack.db
    clock = db.clock.snapshot()
    out = {
        "clock_ms": clock.elapsed_ms,
        "cpu_tests": clock.cpu_tests,
        "disk_reads": clock.disk_reads,
        "disk_writes": clock.disk_writes,
        "accesses": manager.num_accesses,
        "updates": manager.num_updates,
        "buffer_hits": db.buffer.hits,
        "buffer_misses": db.buffer.misses,
        "buffer_resident": db.buffer.resident_pages,
        "invalidations": getattr(manager.strategy, "invalidation_count", 0),
    }
    if stack.app is not None:
        cache = stack.app.cache.stats()
        out.update(
            cache_lookups=cache["lookups"], cache_hits=cache["hits"],
            cache_evictions=cache["evictions"],
            cache_invalidations=cache["invalidations"],
            rejected_429=stack.app.rejected_429,
            failed_503=stack.app.failed_503,
            deferrals=stack.app.gate.stats()["deferrals"],
        )
    if stack.bus is not None:
        out["bus_samples"] = stack.bus.samples_received
    router = getattr(manager.strategy, "router", None)
    if router is not None:
        routed, beta = router.stats(), manager.strategy.beta.stats()
        out.update(
            routed_updates=routed["routed_updates"],
            shard_visits=routed["routed_shard_visits"],
            beta_visits=beta["fanned_shard_visits"],
        )
    return out


def structure_counts(stack: Stack) -> dict[str, float]:
    """Sizes of the maintenance structures, read the way
    ``repro.shard.sizing`` reads them (the i-lock table has no public
    handle on its strategy)."""
    specs = memories = 0
    outer = stack.manager.strategy
    for strategy in getattr(outer, "inner_strategies", None) or [outer]:
        locks = getattr(strategy, "_locks", None)
        if locks is not None:
            specs += locks.num_locks()
        network = getattr(strategy, "network", None)
        if network is not None:
            memories += network.num_memories
    return {"ilock_specs": specs, "rete_memories": memories}


# -- passes -------------------------------------------------------------------


@dataclass
class PassLog:
    """What the timed phase of one stack produced."""

    #: Per pass: wall seconds, ops sent, read and update latencies.
    walls: list[float] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)
    access_s: list[list[float]] = field(default_factory=list)
    update_s: list[list[float]] = field(default_factory=list)
    failed: int = 0
    #: Differences of ``counters`` over the first pass, plus what else is
    #: exact there.
    counts: dict[str, float] = field(default_factory=dict)
    op_digests: list[str] = field(default_factory=list)
    #: ``ru_maxrss`` when the first pass ended: set-up plus a fixed
    #: amount of work, so it does not grow with the passes that fit.
    peak_rss_mb: float = 0.0

    @property
    def total_ops(self) -> int:
        return sum(self.ops)

    def per_pass(self) -> list[dict[str, float]]:
        """Each pass's own throughput and latency percentiles."""
        return [
            {
                "ops_per_s": ops / wall,
                "access_p50_ms": percentile(access_s, 0.50) * 1e3,
                "access_p95_ms": percentile(access_s, 0.95) * 1e3,
                "update_p50_ms": percentile(update_s, 0.50) * 1e3,
            }
            for wall, ops, access_s, update_s in zip(
                self.walls, self.ops,
                map(sorted, self.access_s), map(sorted, self.update_s),
            )
        ]

    def pooled(self) -> tuple[list[float], list[float]]:
        """Every pass's read and update latencies, ascending."""
        return (
            sorted(itertools.chain.from_iterable(self.access_s)),
            sorted(itertools.chain.from_iterable(self.update_s)),
        )


def _report_failure(log: PassLog) -> None:
    if not log.failed:
        traceback.print_exc(file=sys.stderr)
    log.failed += 1


def _engine_pass(
    stack: Stack, ops: list[Op], first_id: int, tag, log: PassLog
) -> None:
    """Send ``ops`` straight at ``ProcedureManager``. An update is what
    its caller sees: pre-read the rows, write them back with a new
    ``sel``, follow the rows to where clustering moved them."""
    manager, rids = stack.manager, stack.db.r1_rids
    read = stack.db.r1.heap.read
    access_s, update_s = log.access_s[-1], log.update_s[-1]
    clock = time.perf_counter
    for op_id, op in enumerate(ops, first_id):
        tag.op_id = op_id
        start = clock()
        try:
            if op.name is not None:
                manager.access(op.name)
                access_s.append(clock() - start)
                continue
            changes = []
            for position, value in zip(op.positions, op.values):
                rid = rids[position]
                old = read(rid)
                changes.append((rid, (old[0], value, old[2])))
            manager.update("R1", changes, cluster_field="sel")
            for position, rid in zip(op.positions, manager.last_rids):
                rids[position] = rid
            update_s.append(clock() - start)
        except Exception:
            _report_failure(log)


def _serve_pass(
    stack: Stack, ops: list[Op], first_id: int, tag, log: PassLog
) -> None:
    """Send ``ops`` through ``ProcedureApp.handle`` from closed-loop
    clients sharing one thread; ``POST /updates`` draws its own rows."""
    handle = stack.app.handle
    body = {
        "relation": "R1",
        "tuples": stack.workload.stream.tuples_per_update,
    }
    access_s, update_s = log.access_s[-1], log.update_s[-1]
    clock = time.perf_counter
    pending = enumerate(ops, first_id)

    async def client() -> None:
        for op_id, op in pending:
            tag.op_id = op_id
            start = clock()
            if op.name is not None:
                reply = await handle("GET", f"/procedures/{op.name}")
                access_s.append(clock() - start)
            else:
                reply = await handle("POST", "/updates", body)
                update_s.append(clock() - start)
            if reply.status != 200:
                log.failed += 1

    async def clients() -> None:
        await asyncio.gather(*(client() for _ in range(CLIENTS)))

    asyncio.run(clients())


def run_passes(
    stack: Stack,
    seed: int,
    seconds: float,
    passes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> PassLog:
    """Drive passes for ``seconds`` — or exactly ``passes`` of them."""
    workload, db = stack.workload, stack.db
    stream = op_stream(
        workload.stream, seed, stack.ranked, len(db.r1_rids), db.sel_domain
    )
    one_pass = _serve_pass if stack.app is not None else _engine_pass
    tag = tracer if tracer is not None else SimpleNamespace(op_id=NO_OP)
    if tracer is not None:
        one_pass = tracer.wrap("workload", "pass", one_pass)
    log = PassLog()
    gc.collect()
    before = counters(stack)
    deadline = time.perf_counter() + seconds
    next_id = 0
    while True:
        ops = list(itertools.islice(stream, workload.pass_ops))
        log.access_s.append([])
        log.update_s.append([])
        tag.op_id = next_id
        start = time.perf_counter()
        one_pass(stack, ops, next_id, tag, log)
        end = time.perf_counter()
        tag.op_id = NO_OP
        log.walls.append(end - start)
        log.ops.append(len(ops))
        next_id += len(ops)
        if len(log.walls) == 1:
            after = counters(stack)
            log.counts = {key: after[key] - before[key] for key in after}
            log.counts.update(structure_counts(stack))
            log.counts["sim_ms_per_access"] = stack.manager.cost_per_access()
            log.op_digests = [op.digest() for op in ops]
            log.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        if passes is not None:
            if len(log.walls) >= passes:
                return log
        elif end >= deadline:
            return log


# -- one measured stack ---------------------------------------------------------


@dataclass
class Measurement:
    """One stack's set-up, timed phase and oracle check; the stack itself
    is dropped so that a run's stacks never coexist."""

    log: PassLog
    compared: int
    wrong: list[str]
    setup_s: float
    define_ms_per_proc: float
    #: ``ProcedureManager``'s own stopwatch around the strategy calls.
    access_ms_per_access: float
    maintain_ms_per_update: float

    @property
    def attempted(self) -> int:
        return self.log.total_ops + self.compared

    @property
    def failed(self) -> int:
        return self.log.failed + len(self.wrong)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    passes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Measurement:
    """Build a fresh stack, run its timed phase, then check it."""
    with tracer if tracer is not None else nullcontext():
        stack = build_stack(workload, seed, tracer)
        log = run_passes(stack, seed, seconds, passes, tracer)
    if stack.observation is not None:
        stack.observation.detach()
    compared, wrong = oracle.check(
        stack.db,
        oracle.choose(
            stack.definitions, stack.ranked, workload.oracle_sample, seed
        ),
        stack.manager, app=stack.app,
    )
    if wrong:
        print(
            f"{workload.name}: {len(wrong)} of {compared} procedures differ "
            f"from a recompute, e.g. {wrong[:3]}", file=sys.stderr,
        )
    manager = stack.manager
    return Measurement(
        log, compared, wrong, stack.setup_s,
        stack.define_s * 1e3 / len(stack.definitions),
        _ratio(getattr(manager, "wall_access_s", 0.0) * 1e3,
               manager.num_accesses),
        _ratio(getattr(manager, "wall_maintenance_s", 0.0) * 1e3,
               manager.num_updates),
    )


# -- the two kinds of run ---------------------------------------------------------


@dataclass
class Record:
    """The result of one run, as ``run.py`` prints and stores it."""

    workload: str
    seed: int
    traced: bool
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: First-pass counts: must be identical on every run of one seed.
    counts: dict[str, float]
    op_digests: list[str]
    #: Each (untraced) pass's own numbers, for reading drift off a run.
    per_pass: list[dict[str, float]]
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def percentile(ascending: list[float], q: float) -> float:
    if not ascending:
        return 0.0
    return ascending[min(len(ascending) - 1, round(q * (len(ascending) - 1)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _slowdown(changed: PassLog, base: PassLog) -> float:
    """How much longer ``changed`` took over the same passes: the median
    of the pass-by-pass ratios, which one disturbed pass cannot move."""
    return statistics.median(
        slow / fast for slow, fast in zip(changed.walls, base.walls)
    )


def run_untraced(workload: Workload, seed: int, seconds: float) -> Record:
    """The end-to-end metrics.

    Noise on a shared host is one-sided and comes in bursts of seconds:
    a pass is only ever slowed down, and often several in a row are. So
    each timing is that of the run's least disturbed pass — the highest
    ops/s, the lowest per-pass percentile — and not a pooled figure that
    moves with how many passes a burst happened to cover. ``setup_s`` is
    the median of ``SETUPS`` set-ups, the last of which is the one the
    timed phase then runs on.
    """
    setup_s, define_ms = [], []
    for _ in range(SETUPS - 1):
        stack = build_stack(workload, seed)
        setup_s.append(stack.setup_s)
        define_ms.append(stack.define_s * 1e3 / len(stack.definitions))
        del stack
        gc.collect()
    result = measure(workload, seed, seconds)
    setup_s.append(result.setup_s)
    define_ms.append(result.define_ms_per_proc)
    log = result.log
    per_pass = log.per_pass()
    values = {
        "setup_s": statistics.median(setup_s),
        "define_ms_per_proc": min(define_ms),
        "ops_per_s": max(p["ops_per_s"] for p in per_pass),
        "access_p50_ms": min(p["access_p50_ms"] for p in per_pass),
        "access_p95_ms": min(p["access_p95_ms"] for p in per_pass),
        "update_p50_ms": min(p["update_p50_ms"] for p in per_pass),
        "peak_rss_mb": log.peak_rss_mb,
    }
    return Record(
        workload.name, seed, False,
        {metric.name: values[metric.name] for metric in END_TO_END},
        result.attempted, result.failed,
        log.counts, log.op_digests, per_pass,
    )


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    trace_out: Optional[str] = None,
) -> Record:
    """The per-layer metrics: the same passes on fresh stacks, first
    untraced (which fixes how many passes fit the time), then traced;
    an observed workload also runs them unobserved and with attribution
    alone, to price the observers by difference."""
    unobserved = []
    if workload.observe:
        unobserved = [replace(workload, observe=kind)
                      for kind in ("", "attribution")]
    share = seconds / (2 + len(unobserved))
    plain = measure(workload, seed, share)
    passes = len(plain.log.walls)
    others = [measure(variant, seed, share, passes) for variant in unobserved]
    tracer = Tracer()
    traced = measure(workload, seed, share, passes, tracer)
    if trace_out is not None:
        tracer.write_jsonl(trace_out)

    notes = []
    failed = plain.failed + traced.failed + sum(m.failed for m in others)
    if traced.log.counts != plain.log.counts:
        failed += 1
        notes.append("traced and untraced first-pass counts differ")

    log, counts = plain.log, plain.log.counts
    first_ops = log.ops[0]
    summary = tracer.summarize(first_ops)
    traced_wall = sum(traced.log.walls)
    values: dict[str, float] = {}
    for layer in LAYERS:
        self_s = summary.self_s.get(layer, 0.0)
        values[f"{layer}.self_ms_per_op"] = self_s * 1e3 / log.total_ops
        values[f"{layer}.share"] = self_s / traced_wall
        values[f"{layer}.calls_per_op"] = (
            summary.first_pass_calls.get(layer, 0) / first_ops
        )

    def busy(*names: str, setup: bool = False):
        table = summary.setup_busy if setup else summary.busy
        found = [table[name] for name in names if name in table]
        return (sum(b.seconds for b in found), sum(b.calls for b in found))

    accesses, updates = counts["accesses"], counts["updates"]
    maintain_ms = plain.maintain_ms_per_update
    access_s, update_s = log.pooled()
    traced_updates = sum(len(pass_s) for pass_s in traced.log.update_s)
    probe_s, _ = busy(
        "ILockTable.conflicting_procedures",
        "ILockTable.conflicting_procedures_batch",
        "ILockTable.conflicting_procedures_swept",
    )
    # apply_update_batch calls apply_update, so the outer name alone
    # would miss the unbatched path and both would count twice.
    apply_s, _ = busy("ReteNetwork.apply_update")
    add_s, add_calls = busy("ReteNetwork.add_procedure", setup=True)
    relocate_s, relocate_calls = busy("Relation.update_clustered")
    fetches = counts["buffer_hits"] + counts["buffer_misses"]
    values.update({
        "serve.hit_rate": _ratio(
            counts.get("cache_hits", 0), counts.get("cache_lookups", 0)),
        "serve.invalidations_per_update": _ratio(
            counts.get("cache_invalidations", 0), updates),
        "serve.evictions_per_kop": _ratio(
            counts.get("cache_evictions", 0) * 1e3, first_ops),
        "concurrent.admit_retries_per_op": _ratio(
            counts.get("deferrals", 0), first_ops),
        "concurrent.rejected_frac": _ratio(
            counts.get("rejected_429", 0), first_ops),
        "shard.mean_fanout": _ratio(
            counts.get("shard_visits", 0), counts.get("routed_updates", 0)),
        "shard.visits_per_update": _ratio(
            counts.get("shard_visits", 0) + counts.get("beta_visits", 0),
            updates),
        "core.access_ms_per_access": plain.access_ms_per_access,
        "core.maintain_ms_per_update": maintain_ms,
        "core.base_update_ms_per_update": (
            _ratio(sum(update_s) * 1e3, len(update_s)) - maintain_ms),
        "locks.probe_ms_per_update": _ratio(probe_s * 1e3, traced_updates),
        "locks.conflicts_per_probe": _ratio(
            _ratio(counts["invalidations"], updates), counts["ilock_specs"]),
        "locks.registered_specs": counts["ilock_specs"],
        "rete.apply_ms_per_update": _ratio(apply_s * 1e3, traced_updates),
        "rete.add_ms_per_proc": _ratio(add_s * 1e3, add_calls),
        "rete.memories": counts["rete_memories"],
        "query.plans_per_access": _ratio(
            summary.first_pass_root_plans, accesses),
        "query.execute_ms_per_plan": _ratio(
            summary.root_plans.seconds * 1e3, summary.root_plans.calls),
        "storage.relocate_ms_per_tuple": _ratio(
            relocate_s * 1e3, relocate_calls),
        "storage.page_reads_per_op": counts["disk_reads"] / first_ops,
        "storage.page_writes_per_op": counts["disk_writes"] / first_ops,
        "storage.cpu_tests_per_op": counts["cpu_tests"] / first_ops,
        "storage.buffer_hit_rate": _ratio(counts["buffer_hits"], fetches),
        "storage.buffer_evictions_per_kop": (
            max(0, counts["buffer_misses"] - counts["buffer_resident"])
            * 1e3 / first_ops
            if workload.buffer_capacity else 0.0),
        "obs.attribution_overhead_x": 0.0,
        "obs.telemetry_overhead_x": 0.0,
        "obs.charges_per_op": counts.get("bus_samples", 0) / first_ops,
        "sim.ms_per_access": counts["sim_ms_per_access"],
        "sim.clock_ms_per_op": counts["clock_ms"] / first_ops,
        "sim.disk_ios_per_op": (
            (counts["disk_reads"] + counts["disk_writes"]) / first_ops),
        "tail.access_p99_ms": percentile(access_s, 0.99) * 1e3,
        "tail.update_p95_ms": percentile(update_s, 0.95) * 1e3,
        "tail.update_p99_ms": percentile(update_s, 0.99) * 1e3,
        "tail.access_samples": len(access_s),
        "tail.update_samples": len(update_s),
        "trace.overhead_x": _slowdown(traced.log, log),
        "trace.missing": tracer.missing,
    })
    if others:
        bare, attributed = others[0].log, others[1].log
        values["obs.attribution_overhead_x"] = _slowdown(attributed, bare)
        values["obs.telemetry_overhead_x"] = _slowdown(log, bare)
    accounted = sum(summary.self_s.values()) / traced_wall
    notes.append(f"layer self times cover {accounted:.4f} of the traced wall")
    return Record(
        workload.name, seed, True,
        {metric.name: float(values[metric.name]) for metric in PER_LAYER},
        plain.attempted + traced.attempted + sum(m.attempted for m in others),
        failed, counts, log.op_digests, log.per_pass(), notes,
    )
