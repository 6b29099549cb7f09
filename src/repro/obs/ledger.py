"""The benchmark ledger: pinned perf suite, history, and regression gate.

Backs ``repro-procs bench``. The suite is *pinned* — a fixed set of
representative scenarios (analytical model-1/model-2 figures, a
multiprogramming-level sweep, a batched-update amortization point, a
shard-scale sizing sweep, a chaos smoke, a shard-chaos failover
point — one scheduled shard kill with and without a replica — and a
telemetry-overhead point gating that the streaming bus charges nothing
to the simulated clock) whose metrics are normalized into flat
``{key: {value, unit, direction}}`` records — so
every snapshot is comparable with every other snapshot of the same
``SUITE_VERSION``. Snapshots append to ``BENCH_history.jsonl`` (the perf
trajectory) and overwrite ``BENCH_latest.json``; ``bench --compare
<baseline>`` diffs the fresh snapshot against a stored one and fails
when any metric moves in its bad direction by more than the tolerance.

Everything measured is simulated milliseconds or derived throughput, so
snapshots are bit-deterministic for a (seed, operations) pair: the gate
trips on *code* changes, never on machine noise.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from repro.obs.flight import SCHEMA_VERSION
from repro.obs.manifest import git_sha

#: Bump when the pinned scenario set or metric keys change shape;
#: snapshots of different suite versions refuse to compare.
SUITE_VERSION = "6"

#: Default relative tolerance for the regression gate (deterministic
#: metrics — the default is headroom for intentional small shifts, not
#: for noise).
DEFAULT_TOLERANCE = 0.10

#: Figure scenarios: (figure id, model number, P value to sample).
_FIGURE_POINTS: tuple[tuple[str, int, float], ...] = (
    ("fig05", 1, 0.5),
    ("fig17", 2, 0.5),
)

#: MPL sweep scenario: strategies and multiprogramming levels.
_SWEEP_STRATEGIES: tuple[str, ...] = ("cache_invalidate", "update_cache_rvm")
_SWEEP_MPLS: tuple[int, ...] = (1, 4)

#: Chaos smoke scenario knobs.
_CHAOS_STRATEGY = "cache_invalidate"
_CHAOS_MPL = 2
_CHAOS_FAULT_BUDGET = 40

#: Shard-chaos scenario: the seeded campaign plus one scheduled
#: fail-stop of shard 0 mid-workload, behind the 2-shard facade — once
#: rebuilding from WAL (replicas=0) and once failing over to the hot
#: standby (replicas=1). Gates: the oracle must hold (zero violations),
#: recovery simulated-ms must stay bounded, and no β-tier delivery may
#: be dropped (queued == drained).
_SHARD_CHAOS_STRATEGY = "update_cache_avm"
_SHARD_CHAOS_SHARDS = 2
_SHARD_CHAOS_KILL = 0
_SHARD_CHAOS_REPLICAS = (0, 1)

#: Batched-update amortization scenario: (strategy, invalidation scheme)
#: pairs run at ``l = _BATCH_TUPLES_PER_UPDATE`` tuples per update with
#: batch sizes 1 (per-transaction maintenance, today's default) and
#: ``l`` (full coalescing). CI uses the WAL scheme so group commit has a
#: flush to amortize; RVM amortizes node activations via delta netting.
_BATCH_STRATEGIES: tuple[tuple[str, str | None], ...] = (
    ("cache_invalidate", "wal"),
    ("update_cache_rvm", None),
)
_BATCH_TUPLES_PER_UPDATE = 100
_BATCH_SIZES = (1, _BATCH_TUPLES_PER_UPDATE)

#: Shard-scale scenario: RVM over P1-only populations at the
#: ``repro.shard.scale_params`` point, as (population, shard count)
#: pairs. The pair set gates *sublinearity*: bytes per procedure at
#: shards=8 must not exceed shards=1 at equal population (same-interval
#: procedures colocate, so partitioning duplicates nothing), and must
#: fall as the population grows (hash-consed sharing saturates the key
#: domain).
_SHARD_SCALE_STRATEGY = "update_cache_rvm"
_SHARD_SCALE_POINTS: tuple[tuple[int, int], ...] = (
    (20_000, 8),
    (100_000, 1),
    (100_000, 8),
)
#: Ungated model-2 mix point: (num_p1, num_p2) at 8 shards, with R2
#: updates in the stream so the shared β-tier actually fans — reports
#: cross-shard join-maintenance fan-out, no sublinearity claim.
_SHARD_MIX_POPULATION = (960, 40)
_SHARD_MIX_SHARDS = 8
_SHARD_MIX_UPDATE_WEIGHTS = {"R1": 0.6, "R2": 0.4}

#: Front-tier serve scenario: the runner's stream replayed through the
#: result cache with the audit oracle on (every hit recomputes through
#: the engine and compares). Read-heavy, high-locality (``Z = 0.1`` —
#: 10% of procedures take 90% of reads), so the cache has something to
#: do; the gates are the hit rate floor, zero stale reads, and
#: cache-on/off access-log identity.
_SERVE_STRATEGY = "cache_invalidate"
_SERVE_UPDATE_P = 0.1
_SERVE_LOCALITY = 0.1
_SERVE_CAPACITY = 64
_SERVE_MIN_HIT_RATE = 0.5
#: Operations floor: below this the cold-start misses dominate and the
#: hit-rate gate would measure warm-up, not steady state.
_SERVE_MIN_OPERATIONS = 120


def run_bench_suite(operations: int = 120, seed: int = 7) -> dict:
    """Execute the pinned suite and return one normalized snapshot.

    ``operations`` scales the simulated scenarios (the analytical figure
    points are closed-form and unaffected); the pinned *shape* — which
    scenarios, which metric keys — never varies with it.
    """
    from repro.concurrent import concurrent_sweep
    from repro.experiments import run_experiment
    from repro.experiments.simcompare import SIM_SCALE_PARAMS
    from repro.faults.chaos import run_chaos
    from repro.faults.injector import FaultPlan
    from repro.workload.runner import run_workload

    metrics: dict[str, dict] = {}
    checks: dict[str, bool] = {}

    def metric(key, value, unit, direction) -> None:
        metrics[key] = {
            "value": float(value), "unit": unit, "direction": direction
        }

    for figure_id, model, p_value in _FIGURE_POINTS:
        result = run_experiment(figure_id)
        checks[f"{figure_id}.checks_pass"] = result.all_checks_pass
        index = min(
            range(len(result.x_values)),
            key=lambda i: abs(result.x_values[i] - p_value),
        )
        for strategy, series in result.series.items():
            metric(
                f"{figure_id}.{strategy}.cost_ms",
                series[index],
                "ms/access",
                "lower",
            )

    params = SIM_SCALE_PARAMS.with_update_probability(0.5)
    for run in concurrent_sweep(
        params,
        strategies=_SWEEP_STRATEGIES,
        mpls=_SWEEP_MPLS,
        num_operations=operations,
        seed=seed,
    ):
        prefix = f"concurrent.{run.strategy}.mpl{run.mpl}"
        metric(
            f"{prefix}.throughput_ops_per_s",
            run.throughput_ops_per_s,
            "ops/s",
            "higher",
        )
        metric(
            f"{prefix}.cost_per_access_ms",
            run.cost_per_access_ms,
            "ms/access",
            "lower",
        )

    batch_params = SIM_SCALE_PARAMS.replace(
        tuples_per_update=_BATCH_TUPLES_PER_UPDATE
    ).with_update_probability(0.9)
    for strategy, scheme in _BATCH_STRATEGIES:
        per_update: dict[int, float] = {}
        for batch in _BATCH_SIZES:
            run = run_workload(
                batch_params,
                strategy,
                num_operations=max(30, operations // 2),
                seed=seed,
                invalidation_scheme=scheme,
                batch_size=batch,
            )
            per_update[batch] = (
                run.maintenance_cost_ms / max(1, run.num_updates)
            )
            metric(
                f"update.batch.{strategy}.b{batch}.maint_ms_per_update",
                per_update[batch],
                "ms/update",
                "lower",
            )
        checks[f"update.batch.{strategy}.batched_cheaper"] = (
            per_update[_BATCH_SIZES[-1]] < per_update[_BATCH_SIZES[0]]
        )

    from repro.shard import measure_sizing, scale_params

    scale_ops = max(20, operations // 3)
    bpp: dict[tuple[int, int], float] = {}
    for population, num_shards in _SHARD_SCALE_POINTS:
        scale = scale_params(population)
        run = run_workload(
            scale,
            _SHARD_SCALE_STRATEGY,
            num_operations=scale_ops,
            seed=seed,
            warm_caches=False,
            keep_manager=True,
            shards=num_shards,
        )
        sizing = measure_sizing(
            run.database, run.manager.strategy, seed=seed
        )
        bpp[(population, num_shards)] = sizing.bytes_per_procedure
        prefix = f"shard.scale.p{population}.s{num_shards}"
        metric(
            f"{prefix}.bytes_per_procedure",
            sizing.bytes_per_procedure,
            "bytes/proc",
            "lower",
        )
        metric(
            f"{prefix}.maint_ms_per_update",
            run.maintenance_cost_ms / max(1, run.num_updates),
            "ms/update",
            "lower",
        )
    checks["shard.scale.sublinear_in_shards"] = (
        bpp[(100_000, 8)] <= bpp[(100_000, 1)]
    )
    checks["shard.scale.sublinear_in_population"] = (
        bpp[(100_000, 8)] < bpp[(20_000, 8)]
    )

    mix = scale_params(*_SHARD_MIX_POPULATION)
    run = run_workload(
        mix,
        _SHARD_SCALE_STRATEGY,
        num_operations=scale_ops,
        seed=seed,
        warm_caches=False,
        update_weights=_SHARD_MIX_UPDATE_WEIGHTS,
        keep_manager=True,
        shards=_SHARD_MIX_SHARDS,
    )
    sizing = measure_sizing(run.database, run.manager.strategy, seed=seed)
    prefix = f"shard.scale.mix.s{_SHARD_MIX_SHARDS}"
    metric(
        f"{prefix}.router_mean_fanout",
        sizing.router["mean_fanout"],
        "shards/update",
        "lower",
    )
    metric(
        f"{prefix}.beta_mean_fanout",
        sizing.beta_tier["mean_fanout"],
        "shards/update",
        "lower",
    )
    metric(
        f"{prefix}.bytes_per_procedure",
        sizing.bytes_per_procedure,
        "bytes/proc",
        "lower",
    )

    chaos = run_chaos(
        params,
        _CHAOS_STRATEGY,
        plan=FaultPlan.seeded(seed, max_faults=_CHAOS_FAULT_BUDGET),
        mpl=_CHAOS_MPL,
        num_operations=max(20, operations // 2),
        seed=seed,
    )
    prefix = f"chaos.{chaos.strategy}.mpl{chaos.mpl}"
    metric(f"{prefix}.recovery_ms", chaos.recovery_ms, "ms", "lower")
    metric(f"{prefix}.clock_total_ms", chaos.clock_total_ms, "ms", "lower")
    checks[f"{prefix}.oracle_ok"] = chaos.oracle_ok
    checks[f"{prefix}.attribution_consistent"] = chaos.attribution_consistent

    kill_plan = FaultPlan.seeded(
        seed, max_faults=_CHAOS_FAULT_BUDGET
    ).with_shard_kill(_SHARD_CHAOS_KILL)
    for replicas in _SHARD_CHAOS_REPLICAS:
        shard_chaos = run_chaos(
            params,
            _SHARD_CHAOS_STRATEGY,
            plan=kill_plan,
            mpl=_CHAOS_MPL,
            num_operations=max(20, operations // 2),
            seed=seed,
            shards=_SHARD_CHAOS_SHARDS,
            replicas=replicas,
        )
        prefix = (
            f"shard.chaos.{_SHARD_CHAOS_STRATEGY}"
            f".s{_SHARD_CHAOS_SHARDS}.r{replicas}"
        )
        metric(
            f"{prefix}.recovery_ms", shard_chaos.recovery_ms, "ms", "lower"
        )
        metric(
            f"{prefix}.failover_ms",
            shard_chaos.failover_ms + shard_chaos.replica_ms,
            "ms",
            "lower",
        )
        metric(
            f"{prefix}.clock_total_ms",
            shard_chaos.clock_total_ms,
            "ms",
            "lower",
        )
        metric(
            f"{prefix}.oracle_failures",
            shard_chaos.oracle_failures,
            "count",
            "lower",
        )
        checks[f"{prefix}.oracle_ok"] = shard_chaos.oracle_ok
        checks[f"{prefix}.attribution_consistent"] = (
            shard_chaos.attribution_consistent
        )
        checks[f"{prefix}.shard_crashed"] = shard_chaos.shard_crashes >= 1
        checks[f"{prefix}.no_dropped_deliveries"] = (
            shard_chaos.deliveries_queued == shard_chaos.deliveries_drained
        )
        if replicas:
            checks[f"{prefix}.failed_over"] = shard_chaos.promotions >= 1
        else:
            checks[f"{prefix}.wal_rebuilt"] = shard_chaos.wal_rebuilds >= 1

    # Telemetry-overhead scenario: the streaming bus is pure bookkeeping.
    # Same (seed, ops) run twice — once fully unobserved, once with the
    # bus wired — must produce a bit-identical simulated clock and access
    # log, and the summed windowed phase series must reconcile exactly
    # with the attribution cost pie (the flight recorder's invariant,
    # re-proven over windows).
    from repro.obs.telemetry import TelemetryBus, reconciles

    tele_ops = max(30, operations // 2)
    for shards_n, label in ((None, "plain"), (4, "shard4")):
        unobserved = run_workload(
            params,
            _CHAOS_STRATEGY,
            num_operations=tele_ops,
            seed=seed,
            record_accesses=True,
            shards=shards_n,
        )
        bus = TelemetryBus()
        observed = run_workload(
            params,
            _CHAOS_STRATEGY,
            num_operations=tele_ops,
            seed=seed,
            record_accesses=True,
            shards=shards_n,
            telemetry=bus,
        )
        prefix = f"telemetry.overhead.{label}"
        metric(
            f"{prefix}.clock_delta_ms",
            abs(observed.clock_total_ms - unobserved.clock_total_ms),
            "ms",
            "lower",
        )
        metric(f"{prefix}.series", len(bus.series), "count", "higher")
        metric(f"{prefix}.windows", bus.num_windows, "count", "higher")
        checks[f"{prefix}.clock_identical"] = (
            observed.clock_total_ms == unobserved.clock_total_ms
        )
        checks[f"{prefix}.access_log_identical"] = (
            observed.access_log == unobserved.access_log
        )
        checks[f"{prefix}.series_reconcile"] = reconciles(
            bus, observed.phase_costs
        )

    # Front-tier serve scenario: same stream, cache on (audited) vs off.
    from repro.serve import run_served_workload

    serve_params = SIM_SCALE_PARAMS.replace(
        locality=_SERVE_LOCALITY
    ).with_update_probability(_SERVE_UPDATE_P)
    serve_ops = max(_SERVE_MIN_OPERATIONS, operations)
    served = run_served_workload(
        serve_params,
        _SERVE_STRATEGY,
        num_operations=serve_ops,
        seed=seed,
        capacity=_SERVE_CAPACITY,
        audit=True,
    )
    unserved = run_served_workload(
        serve_params,
        _SERVE_STRATEGY,
        num_operations=serve_ops,
        seed=seed,
        cached=False,
    )
    stats = served.cache.stats()
    prefix = f"serve.cache.{_SERVE_STRATEGY}"
    metric(f"{prefix}.hit_rate", stats["hit_rate"], "frac", "higher")
    metric(f"{prefix}.hits", stats["hits"], "count", "higher")
    metric(
        f"{prefix}.invalidations", stats["invalidations"], "count", "lower"
    )
    metric(f"{prefix}.evictions", stats["evictions"], "count", "lower")
    metric(
        f"{prefix}.stale_reads", stats["stale_reads"], "count", "lower"
    )
    metric(
        f"{prefix}.clock_total_ms", served.clock_total_ms, "ms", "lower"
    )
    checks[f"{prefix}.hit_rate_floor"] = (
        stats["hit_rate"] >= _SERVE_MIN_HIT_RATE
    )
    checks[f"{prefix}.zero_stale_reads"] = stats["stale_reads"] == 0
    checks[f"{prefix}.results_match_uncached"] = (
        served.access_log == unserved.access_log
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_snapshot",
        "suite_version": SUITE_VERSION,
        "created_unix": time.time(),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "operations": operations,
        "seed": seed,
        "metrics": metrics,
        "checks": checks,
    }


def validate_snapshot(snapshot: dict) -> list[str]:
    """Structural validation of a bench snapshot; returns problems
    (empty = valid). The repo-consistency test runs this against the
    committed baseline so the schema cannot silently drift."""
    if not isinstance(snapshot, dict):
        return [f"not a JSON object but a {type(snapshot).__name__}"]
    problems: list[str] = []
    for key in ("schema_version", "kind", "suite_version", "metrics",
                "checks", "operations", "seed"):
        if key not in snapshot:
            problems.append(f"missing top-level key {key!r}")
    if snapshot.get("kind") != "bench_snapshot":
        problems.append(f"kind is {snapshot.get('kind')!r}")
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics missing or empty")
        return problems
    for key, entry in metrics.items():
        if not isinstance(entry, dict):
            problems.append(f"metric {key!r}: not an object")
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {key!r}: value is not a finite number")
        if entry.get("direction") not in ("lower", "higher"):
            problems.append(
                f"metric {key!r}: direction must be 'lower' or 'higher'"
            )
        if not isinstance(entry.get("unit"), str):
            problems.append(f"metric {key!r}: unit is not a string")
    for key, value in (snapshot.get("checks") or {}).items():
        if not isinstance(value, bool):
            problems.append(f"check {key!r}: not a boolean")
    return problems


def append_history(path: str, snapshot: dict) -> None:
    """Append one snapshot as a JSONL line (the perf trajectory)."""
    with open(path, "a") as handle:
        handle.write(json.dumps(snapshot, sort_keys=True))
        handle.write("\n")


def write_latest(path: str, snapshot: dict) -> None:
    """Overwrite the latest-snapshot file (the CI artifact)."""
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_snapshot(path: str) -> dict:
    """Read one snapshot from JSON (also accepts the last JSONL line of
    a history file, so a baseline can point at either artifact). Raises
    ``ValueError`` when the content is not a valid snapshot."""
    with open(path) as handle:
        text = handle.read().strip()
    snapshot = None
    if "\n" in text and not text.lstrip().startswith("{\n"):
        # JSONL history: take the most recent entry.
        lines = [line for line in text.splitlines() if line.strip()]
        try:
            snapshot = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if snapshot is None:
        snapshot = json.loads(text)
    problems = validate_snapshot(snapshot)
    if problems:
        raise ValueError(f"not a bench snapshot: {'; '.join(problems)}")
    return snapshot


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric: baseline vs current and the verdict."""

    key: str
    direction: str
    baseline: float | None
    current: float | None
    #: Relative change (current-baseline)/baseline; ±inf when the
    #: baseline is zero and the value moved; None when not comparable.
    delta_frac: float | None
    #: "ok", "regression", "missing" (gone from current) or "new".
    status: str

    @property
    def is_regression(self) -> bool:
        """Whether this row should fail the gate."""
        return self.status in ("regression", "missing")


def compare_snapshots(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[MetricDelta]:
    """Diff two snapshots metric-by-metric under ``tolerance``.

    A metric regresses when it moves in its bad direction (up for
    ``lower``-is-better, down for ``higher``) by more than ``tolerance``
    (relative). Metrics and checks present in only one snapshot are
    reported instead of silently skipped: a baseline entry absent from
    the current snapshot is ``missing`` (coverage loss — fails the
    gate); a current-only entry is ``new`` (reported, never failing). A
    check that was true in the baseline and is false now is a regression
    with ``delta_frac=None``. Snapshots of different suite versions
    refuse to compare.

    The output order is a function of the key *sets* alone — metric rows
    sorted by key, then check rows sorted by key (lexicographic on the
    string form, so a hand-edited baseline with odd key types cannot
    raise or reorder) — never of dict insertion order, so the rendered
    ``--compare`` table is byte-stable across runs.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if baseline.get("suite_version") != current.get("suite_version"):
        raise ValueError(
            f"suite versions differ: baseline "
            f"{baseline.get('suite_version')!r} vs current "
            f"{current.get('suite_version')!r}"
        )
    deltas: list[MetricDelta] = []
    base_metrics: dict = baseline.get("metrics", {})
    cur_metrics: dict = current.get("metrics", {})
    for key in sorted(set(base_metrics) | set(cur_metrics), key=str):
        base_entry = base_metrics.get(key)
        cur_entry = cur_metrics.get(key)
        if base_entry is None:
            deltas.append(MetricDelta(
                key=key,
                direction=cur_entry["direction"],
                baseline=None,
                current=cur_entry["value"],
                delta_frac=None,
                status="new",
            ))
            continue
        direction = base_entry["direction"]
        if cur_entry is None:
            deltas.append(MetricDelta(
                key=key,
                direction=direction,
                baseline=base_entry["value"],
                current=None,
                delta_frac=None,
                status="missing",
            ))
            continue
        base_value = base_entry["value"]
        cur_value = cur_entry["value"]
        if base_value == 0.0:
            delta = 0.0 if cur_value == 0.0 else math.copysign(
                math.inf, cur_value
            )
        else:
            delta = (cur_value - base_value) / abs(base_value)
        worse = (
            delta > tolerance
            if direction == "lower"
            else delta < -tolerance
        )
        deltas.append(MetricDelta(
            key=key,
            direction=direction,
            baseline=base_value,
            current=cur_value,
            delta_frac=delta,
            status="regression" if worse else "ok",
        ))
    base_checks: dict = baseline.get("checks", {})
    cur_checks: dict = current.get("checks", {})
    for key in sorted(set(base_checks) | set(cur_checks), key=str):
        if key not in base_checks:
            # Added since the baseline: visible in the table, never fails.
            deltas.append(MetricDelta(
                key=key,
                direction="higher",
                baseline=None,
                current=1.0 if cur_checks[key] else 0.0,
                delta_frac=None,
                status="new",
            ))
        elif key not in cur_checks:
            # Gone from the current snapshot: coverage loss, fails the
            # gate exactly like a vanished metric.
            deltas.append(MetricDelta(
                key=key,
                direction="higher",
                baseline=1.0 if base_checks[key] else 0.0,
                current=None,
                delta_frac=None,
                status="missing",
            ))
        elif base_checks[key] and not cur_checks[key]:
            deltas.append(MetricDelta(
                key=key,
                direction="higher",
                baseline=1.0,
                current=0.0,
                delta_frac=None,
                status="regression",
            ))
    return deltas


def regressions(deltas: list[MetricDelta]) -> list[MetricDelta]:
    """The gate-failing subset of :func:`compare_snapshots` output."""
    return [d for d in deltas if d.is_regression]


def render_delta_table(
    deltas: list[MetricDelta], tolerance: float = DEFAULT_TOLERANCE
) -> str:
    """One aligned per-metric delta table (the ``--compare`` output)."""
    header = (
        f"{'metric':44s} {'dir':>6s} {'baseline':>12s} {'current':>12s} "
        f"{'delta':>8s} {'status':>10s}"
    )
    lines = [header, "-" * len(header)]
    for d in deltas:
        base = f"{d.baseline:12.2f}" if d.baseline is not None else " " * 12
        cur = f"{d.current:12.2f}" if d.current is not None else " " * 12
        if d.delta_frac is None:
            delta = " " * 8
        elif math.isinf(d.delta_frac):
            delta = f"{'+inf' if d.delta_frac > 0 else '-inf':>8s}"
        else:
            delta = f"{d.delta_frac:+7.1%}"
        status = d.status.upper() if d.is_regression else d.status
        lines.append(
            f"{d.key:44s} {d.direction:>6s} {base} {cur} {delta} "
            f"{status:>10s}"
        )
    bad = regressions(deltas)
    lines.append(
        f"{len(deltas)} metrics compared at ±{tolerance:.0%} tolerance; "
        + (f"{len(bad)} REGRESSED" if bad else "no regressions")
    )
    return "\n".join(lines)
