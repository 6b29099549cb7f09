"""The metric registry: every name the benchmark prints, with its unit,
its direction and — for per-layer metrics — the end-to-end metric and
workload it is predicted to move.

``BENCHMARK.json`` at the repo root carries the same names (a test keeps
the two in step); the prediction columns live only here because the
manifest's schema has no place for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Seconds one run measures (``BENCHMARK.json``'s ``run_seconds``).
RUN_SECONDS = 15

#: The traced run may cost at most this much more than the untraced one.
MAX_TRACE_OVERHEAD_X = 1.5

#: Layers are the ``src/repro`` packages a request crosses; ``workload``
#: is the harness's own loop plus ``build_database``/``build_procedures``.
LAYERS = (
    "workload", "serve", "concurrent", "shard", "core",
    "locks", "rete", "query", "storage",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    meaning: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: Optional[float] = None
    #: Per-layer only: the end-to-end metric it should move, and where.
    moves: Optional[str] = None
    on: Optional[str] = None
    #: A count of the program's own work: identical on every run of one
    #: seed, so it may back a count-based claim.
    exact: bool = False


# Timings are those of the run's least disturbed pass (see
# harness.run_untraced). Ten runs of one code on ten seeds spread 0.03 to
# 0.11 on the builder's shared 2-core box in its ordinary hours, and a
# bound must be three times the spread it is checked against, so every
# timing takes the manifest's widest. ISSUE 11 asked for 10 %; that is not
# met, and the README says by how much.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "build_database + build_procedures + stack construction + every "
           "define_procedure + warm-up reads; median of the run's set-ups",
           bound=0.25),
    Metric("define_ms_per_proc", "ms", "lower",
           "wall time of the define_procedure loop / procedures defined; "
           "fastest of the run's set-ups", bound=0.25),
    Metric("ops_per_s", "op/s", "higher",
           "completed ops (accesses + update transactions, or requests) / "
           "wall seconds, fastest pass", bound=0.25),
    Metric("access_p50_ms", "ms", "lower",
           "median wall latency of one read (manager.access or "
           "GET /procedures/{name}), quietest pass", bound=0.25),
    Metric("access_p95_ms", "ms", "lower",
           "p95 of the same, quietest pass", bound=0.25),
    Metric("update_p50_ms", "ms", "lower",
           "median wall latency of one update transaction as the caller "
           "sees it: pre-read of l rows + manager.update(..., "
           "cluster_field='sel'), or POST /updates; quietest pass",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the run's process when the first pass ends",
           bound=0.05),
)


def _layer_metrics() -> list[Metric]:
    moved = {
        "workload": ("setup_s", "scale_ci_1e5"),
        "serve": ("access_p50_ms", "serve_zipf"),
        "concurrent": ("ops_per_s", "serve_zipf"),
        "shard": ("update_p50_ms", "sharded_rvm_s8"),
        "core": ("define_ms_per_proc", "scale_ci_1e5"),
        "locks": ("update_p50_ms", "scale_ci_1e5"),
        "rete": ("update_p50_ms", "maintain_rvm"),
        "query": ("access_p50_ms", "recompute_ar"),
        "storage": ("update_p50_ms", "maintain_rvm"),
    }
    out = []
    for layer in LAYERS:
        moves, on = moved[layer]
        out += [
            Metric(f"{layer}.self_ms_per_op", "ms", "lower",
                   f"self time of {layer} spans (duration - children) / ops, "
                   "traced passes", moves=moves, on=on),
            Metric(f"{layer}.share", "fraction", "lower",
                   f"self time of {layer} spans / traced wall",
                   moves=moves, on=on),
            Metric(f"{layer}.calls_per_op", "1/op", "lower",
                   f"{layer} spans opened / ops, first pass",
                   moves=moves, on=on, exact=True),
        ]
    return out


PER_LAYER = tuple(_layer_metrics()) + (
    # serve
    Metric("serve.hit_rate", "fraction", "higher",
           "ResultCache hits / lookups, first pass",
           moves="access_p50_ms", on="serve_zipf", exact=True),
    Metric("serve.invalidations_per_update", "1/op", "lower",
           "ResultCache entries invalidated / POST /updates, first pass",
           moves="access_p95_ms", on="serve_zipf", exact=True),
    Metric("serve.evictions_per_kop", "1/kop", "lower",
           "ResultCache LRU evictions per 1000 requests, first pass",
           moves="ops_per_s", on="serve_zipf", exact=True),
    # concurrent
    Metric("concurrent.admit_retries_per_op", "1/op", "lower",
           "AdmissionGate deferrals / requests, first pass",
           moves="ops_per_s", on="serve_zipf", exact=True),
    Metric("concurrent.rejected_frac", "fraction", "lower",
           "requests refused with 429 / requests, first pass",
           moves="ops_per_s", on="serve_zipf", exact=True),
    # shard
    Metric("shard.mean_fanout", "shards", "lower",
           "ShardRouter.stats(): shards visited / routed update, first pass",
           moves="update_p50_ms", on="sharded_rvm_s8", exact=True),
    Metric("shard.visits_per_update", "1/op", "lower",
           "router + beta-tier shard visits / update transaction, first pass",
           moves="update_p50_ms", on="sharded_rvm_s8", exact=True),
    # core
    Metric("core.access_ms_per_access", "ms", "lower",
           "manager.wall_access_s / accesses, untraced passes",
           moves="access_p50_ms", on="recompute_ar"),
    Metric("core.maintain_ms_per_update", "ms", "lower",
           "manager.wall_maintenance_s / updates, untraced passes",
           moves="update_p50_ms", on="sharded_rvm_s8"),
    Metric("core.base_update_ms_per_update", "ms", "lower",
           "mean update latency - maintenance ms per update: the pre-read "
           "and base-relation write", moves="update_p50_ms",
           on="maintain_rvm"),
    # locks
    Metric("locks.probe_ms_per_update", "ms", "lower",
           "time inside ILockTable.conflicting_procedures* / updates, "
           "traced passes", moves="update_p50_ms", on="scale_ci_1e5"),
    Metric("locks.conflicts_per_probe", "fraction", "higher",
           "procedures invalidated per update / i-lock specs registered "
           "(useful / attempted), first pass",
           moves="update_p50_ms", on="scale_ci_1e5", exact=True),
    Metric("locks.registered_specs", "count", "lower",
           "i-lock specs held when the first pass ends",
           moves="setup_s", on="scale_ci_1e5", exact=True),
    # rete
    Metric("rete.apply_ms_per_update", "ms", "lower",
           "time inside ReteNetwork.apply_update* / updates, traced passes",
           moves="update_p50_ms", on="maintain_rvm"),
    Metric("rete.add_ms_per_proc", "ms", "lower",
           "time inside ReteNetwork.add_procedure / procedures, traced "
           "set-up", moves="define_ms_per_proc", on="maintain_rvm"),
    Metric("rete.memories", "count", "lower",
           "alpha + beta memories in the network(s) after set-up",
           moves="define_ms_per_proc", on="maintain_rvm", exact=True),
    # query
    Metric("query.plans_per_access", "1/op", "lower",
           "root plan executions / accesses, first pass",
           moves="access_p50_ms", on="recompute_ar", exact=True),
    Metric("query.execute_ms_per_plan", "ms", "lower",
           "time inside root plan executions / their count, traced passes",
           moves="access_p95_ms", on="serve_zipf"),
    # storage
    Metric("storage.relocate_ms_per_tuple", "ms", "lower",
           "time inside Relation.update_clustered / calls, traced passes",
           moves="update_p50_ms", on="maintain_rvm"),
    Metric("storage.page_reads_per_op", "1/op", "lower",
           "clock disk reads / ops, first pass",
           moves="access_p50_ms", on="recompute_ar", exact=True),
    Metric("storage.page_writes_per_op", "1/op", "lower",
           "clock disk writes / ops, first pass",
           moves="ops_per_s", on="maintain_rvm", exact=True),
    Metric("storage.cpu_tests_per_op", "1/op", "lower",
           "clock predicate screens / ops, first pass",
           moves="access_p50_ms", on="recompute_ar", exact=True),
    Metric("storage.buffer_hit_rate", "fraction", "higher",
           "db.buffer hits / fetches, first pass (0 with no frames)",
           moves="access_p50_ms", on="recompute_ar", exact=True),
    Metric("storage.buffer_evictions_per_kop", "1/kop", "lower",
           "db.buffer misses that displaced a frame per 1000 ops, first "
           "pass", moves="access_p50_ms", on="recompute_ar", exact=True),
    # obs, by difference: its entry points fire per charge
    Metric("obs.attribution_overhead_x", "x", "lower",
           "wall with CostAttribution attached / plain wall, same ops, "
           "same process (0 where not measured)",
           moves="ops_per_s", on="observed_rvm"),
    Metric("obs.telemetry_overhead_x", "x", "lower",
           "wall with CostAttribution + TelemetryBus / plain wall",
           moves="ops_per_s", on="observed_rvm"),
    Metric("obs.charges_per_op", "1/op", "lower",
           "samples the bus received (clock charges and tracer events) / "
           "ops, first pass",
           moves="ops_per_s", on="observed_rvm", exact=True),
    # the simulated clock: exact counts
    Metric("sim.ms_per_access", "sim_ms", "lower",
           "manager.cost_per_access() over the first pass - the paper's "
           "metric; any drift means the simulated clock changed",
           moves="ops_per_s", on="maintain_rvm", exact=True),
    Metric("sim.clock_ms_per_op", "sim_ms", "lower",
           "simulated ms charged / ops, first pass",
           moves="ops_per_s", on="maintain_rvm", exact=True),
    Metric("sim.disk_ios_per_op", "1/op", "lower",
           "simulated disk reads + writes / ops, first pass",
           moves="ops_per_s", on="maintain_rvm", exact=True),
    # tails: too wide for a bound, kept beside their sample counts
    Metric("tail.access_p99_ms", "ms", "lower",
           "p99 read latency, untraced passes",
           moves="access_p95_ms", on="serve_zipf"),
    Metric("tail.update_p95_ms", "ms", "lower",
           "p95 update latency, untraced passes",
           moves="update_p50_ms", on="maintain_rvm"),
    Metric("tail.update_p99_ms", "ms", "lower",
           "p99 update latency, untraced passes",
           moves="update_p50_ms", on="maintain_rvm"),
    Metric("tail.access_samples", "count", "higher",
           "read latencies behind the percentiles",
           moves="access_p95_ms", on="serve_zipf"),
    Metric("tail.update_samples", "count", "higher",
           "update latencies behind the percentiles",
           moves="update_p50_ms", on="maintain_rvm"),
    # the tracer itself
    Metric("trace.overhead_x", "x", "lower",
           "traced wall / untraced wall over the same ops (must stay <= "
           f"{MAX_TRACE_OVERHEAD_X})", moves="ops_per_s", on="recompute_ar"),
    Metric("trace.missing", "count", "lower",
           "trace-table entries whose target no longer exists",
           moves="ops_per_s", on="recompute_ar", exact=True),
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}
