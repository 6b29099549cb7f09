"""Command-line interface.

Examples::

    repro-procs list
    repro-procs run fig05
    repro-procs run fig18 --no-checks
    repro-procs all
    repro-procs simulate --strategy update_cache_rvm --model 2 -P 0.5
    repro-procs simulate --strategy rvm --shards 8
    repro-procs shard --strategy rvm --shards 1,8 --procedures 20000
    repro-procs compare --model 1
    repro-procs profile --strategy ci --model 1
    repro-procs profile --strategy rvm --json
    repro-procs concurrent --mpl 1,4,16
    repro-procs concurrent --strategy ci,rvm --mpl 8 --json
    repro-procs chaos --strategy all --mpl 4 --fault-events 100
    repro-procs chaos --strategy ci --seed 3 --json
    repro-procs chaos --strategy ci --mpl 4 --trace-out chaos.trace.json
    repro-procs chaos --strategy rvm --shards 4 --kill-shard 2
    repro-procs chaos --strategy avm --shards 4 --replicas 1 --kill-shard 0
    repro-procs chaos --strategy ci --shards 2 --degrade --json
    repro-procs profile --strategy rvm --manifest
    repro-procs bench
    repro-procs bench --compare results/bench_baseline.json

(Also reachable as ``python -m repro``.)
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import REGISTRY, render_result, run_experiment
from repro.experiments.simcompare import (
    SIM_SCALE_PARAMS,
    render_comparison,
    sim_model_comparison,
)
from repro.model.params import DEFAULT_PARAMS
from repro.workload.runner import run_workload


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments (paper body-text numbering):")
    for figure_id in REGISTRY:
        print(f"  {figure_id}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    result = run_experiment(args.experiment)
    wall = time.perf_counter() - start
    chart = args.chart and result.kind in ("curves", "sf_curves")
    print(render_result(result, show_checks=not args.no_checks, chart=chart))
    if args.manifest:
        from repro.experiments.export import to_json

        _write_run_artifacts(
            args,
            "run",
            wall_time_s=wall,
            result_summary=to_json(result),
        )
    if not args.no_checks and not result.all_checks_pass:
        print(
            f"\nFAILED checks: {result.failed_checks()}", file=sys.stderr
        )
        return 1
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    status = 0
    checks_by_experiment: dict[str, bool] = {}
    start = time.perf_counter()
    for figure_id in REGISTRY:
        result = run_experiment(figure_id)
        print(render_result(result, show_checks=not args.no_checks))
        print()
        checks_by_experiment[figure_id] = result.all_checks_pass
        if not result.all_checks_pass:
            status = 1
    if args.manifest:
        _write_run_artifacts(
            args,
            "all",
            wall_time_s=time.perf_counter() - start,
            result_summary={
                "checks_pass_by_experiment": checks_by_experiment
            },
        )
    return status


def _cmd_bench(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.obs.ledger import (
        append_history,
        compare_snapshots,
        load_snapshot,
        regressions,
        render_delta_table,
        run_bench_suite,
        run_wallclock_suite,
        validate_snapshot,
        write_latest,
    )

    if args.operations < 1:
        print("error: --operations must be >= 1", file=sys.stderr)
        return 2
    if args.tolerance < 0:
        print("error: --tolerance must be >= 0", file=sys.stderr)
        return 2
    if args.wall_repeats < 1:
        print("error: --wall-repeats must be >= 1", file=sys.stderr)
        return 2
    if args.wall_clock and args.compare:
        # Wall timings are machine-dependent; there is no meaningful
        # stored baseline to diff against (the embedded checks gate).
        print(
            "error: --compare is not supported with --wall-clock",
            file=sys.stderr,
        )
        return 2
    baseline = None
    if args.compare:
        try:
            baseline = load_snapshot(args.compare)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot load baseline {args.compare!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    start = time.perf_counter()
    if args.wall_clock:
        snapshot = run_wallclock_suite(
            operations=args.operations,
            seed=args.seed,
            repeats=args.wall_repeats,
        )
    else:
        snapshot = run_bench_suite(operations=args.operations, seed=args.seed)
    wall = time.perf_counter() - start
    problems = validate_snapshot(snapshot)
    if problems:  # pragma: no cover - guards suite bugs, not user input
        print(f"error: snapshot failed validation: {problems}",
              file=sys.stderr)
        return 1
    if args.history:
        append_history(args.history, snapshot)
    if args.latest:
        write_latest(args.latest, snapshot)
    deltas = None
    if baseline is not None:
        deltas = compare_snapshots(
            baseline, snapshot, tolerance=args.tolerance
        )
    if args.json:
        payload = dict(snapshot)
        if deltas is not None:
            payload["comparison"] = {
                "baseline_path": args.compare,
                "tolerance": args.tolerance,
                "deltas": [dataclasses.asdict(d) for d in deltas],
                "regressions": [d.key for d in regressions(deltas)],
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"bench suite v{snapshot['suite_version']}: "
            f"{len(snapshot['metrics'])} metrics, "
            f"{len(snapshot['checks'])} checks "
            f"(ops={snapshot['operations']}, seed={snapshot['seed']}) "
            f"in {wall:.1f}s wall"
        )
        for key in sorted(snapshot["metrics"]):
            entry = snapshot["metrics"][key]
            print(f"  {key:44s} {entry['value']:12.2f} {entry['unit']}")
        if args.history:
            print(f"appended snapshot to {args.history}")
        if args.latest:
            print(f"wrote latest snapshot to {args.latest}")
        if deltas is not None:
            print()
            print(render_delta_table(deltas, tolerance=args.tolerance))
    status = 0
    failed_checks = sorted(
        key for key, ok in snapshot["checks"].items() if not ok
    )
    if failed_checks:
        print(f"FAILED checks: {failed_checks}", file=sys.stderr)
        status = 1
    if deltas is not None and regressions(deltas):
        print(
            f"PERF REGRESSION vs {args.compare}: "
            f"{[d.key for d in regressions(deltas)]}",
            file=sys.stderr,
        )
        status = 1
    return status


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = SIM_SCALE_PARAMS.with_update_probability(args.update_probability)
    run = run_workload(
        params,
        args.strategy,
        model=args.model,
        num_operations=args.operations,
        seed=args.seed,
        batch_size=args.batch_size,
        shards=args.shards,
    )
    batch_note = f" batch={run.batch_size}" if run.batch_size else ""
    shard_note = f" shards={run.shards}" if run.shards else ""
    print(
        f"strategy={run.strategy} model={run.model} "
        f"P={args.update_probability:g} ops={args.operations}"
        f"{batch_note}{shard_note}"
    )
    print(f"cost per access: {run.cost_per_access_ms:.1f} simulated ms")
    print(
        f"  access total:      {run.access_cost_ms:.0f} ms over "
        f"{run.num_accesses} accesses"
    )
    print(
        f"  maintenance total: {run.maintenance_cost_ms:.0f} ms over "
        f"{run.num_updates} updates"
    )
    print(
        f"  base-update total (excluded from metric): "
        f"{run.base_update_cost_ms:.0f} ms"
    )
    access = run.metrics.latency_summary("access_ms")
    if access["count"]:
        print(
            f"  access cost percentiles: p50={access['p50']:.1f} "
            f"p95={access['p95']:.1f} p99={access['p99']:.1f} ms"
        )
    return 0


def _parse_mpl_list(text: str) -> list[int]:
    """Parse ``"1,4,16"`` into a sorted list of distinct MPLs (>= 1)."""
    try:
        mpls = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise ValueError(f"--mpl expects comma-separated integers, got {text!r}")
    if not mpls or any(mpl < 1 for mpl in mpls):
        raise ValueError("--mpl values must be integers >= 1")
    return mpls


def _wants_artifacts(args: argparse.Namespace) -> bool:
    """Whether any flight-recorder artifact flag was passed."""
    return bool(
        getattr(args, "trace_out", None)
        or getattr(args, "span_log", None)
        or getattr(args, "manifest", False)
    )


def _merged_metrics(metric_sets):
    """One :class:`MetricSet` folding per-run stats together (manifest
    histograms aggregate over every run a sweep executed)."""
    from repro.sim.metrics import MetricSet, RunningStat

    merged = MetricSet()
    for metrics in metric_sets:
        for name in metrics.names():
            merged.stats.setdefault(name, RunningStat()).merge(
                metrics.get(name)
            )
    return merged


def _write_run_artifacts(
    args: argparse.Namespace,
    command: str,
    observation=None,
    trace_label: str = "run",
    **manifest_fields,
) -> None:
    """Write the ``--trace-out`` / ``--span-log`` / ``--manifest``
    artifacts for one completed run.

    Artifact paths are announced on stderr so ``--json`` stdout stays
    machine-parseable.
    """
    trace_out = getattr(args, "trace_out", None)
    span_log = getattr(args, "span_log", None)
    if trace_out:
        from repro.obs.flight import write_chrome_trace

        write_chrome_trace(trace_out, observation, label=trace_label)
        print(f"wrote Chrome trace to {trace_out}", file=sys.stderr)
    if span_log:
        from repro.obs.flight import write_span_jsonl

        rows = write_span_jsonl(span_log, observation)
        print(f"wrote {rows} span records to {span_log}", file=sys.stderr)
    if getattr(args, "manifest", False):
        from repro.obs.manifest import build_run_manifest, write_run_manifest

        arg_values = {
            key: value for key, value in vars(args).items() if key != "func"
        }
        manifest = build_run_manifest(command, arg_values, **manifest_fields)
        path = write_run_manifest(manifest)
        print(f"wrote run manifest to {path}", file=sys.stderr)


def _cmd_concurrent(args: argparse.Namespace) -> int:
    import json

    from repro.concurrent import (
        CONCURRENT_STRATEGIES,
        concurrent_sweep,
        render_concurrent_table,
        sweep_to_dict,
    )
    from repro.obs.profile import resolve_strategy

    mpls = _parse_mpl_list(args.mpl)
    if args.strategy in (None, "all"):
        strategies: list[str] = list(CONCURRENT_STRATEGIES)
    else:
        strategies = [
            resolve_strategy(part)
            for part in args.strategy.split(",")
            if part.strip()
        ]
        if not strategies:
            raise ValueError("--strategy must name at least one strategy")
    if (args.trace_out or args.span_log) and (
        len(strategies) != 1 or len(mpls) != 1
    ):
        raise ValueError(
            "--trace-out/--span-log need exactly one strategy and one "
            "MPL (a trace is one run's timeline)"
        )
    params = SIM_SCALE_PARAMS.with_update_probability(args.update_probability)
    observations: list = []
    observation_factory = None
    if _wants_artifacts(args):
        from repro.obs import CostAttribution

        keep = None if (args.trace_out or args.span_log) else 1024

        def observation_factory():
            observation = CostAttribution(keep_events=keep)
            observations.append(observation)
            return observation

    start = time.perf_counter()
    results = concurrent_sweep(
        params,
        strategies=strategies,
        mpls=mpls,
        model=args.model,
        num_operations=args.operations,
        seed=args.seed,
        buffer_capacity=args.buffer_capacity,
        observation_factory=observation_factory,
        batch_size=args.batch_size,
        shards=args.shards,
    )
    wall = time.perf_counter() - start
    if args.json:
        print(json.dumps(sweep_to_dict(results), indent=2, sort_keys=True))
    else:
        print(
            f"concurrent sweep: model={args.model} "
            f"P={args.update_probability:g} ops={args.operations} "
            f"(total, split across sessions) seed={args.seed}"
        )
        print(render_concurrent_table(results))
        print(
            "\nlatencies in simulated ms; 'blocked' is total lock-wait time; "
            "MPL=1 matches the serial runner exactly."
        )
    if _wants_artifacts(args):
        phase_costs: dict[str, float] = {}
        for r in results:
            for phase, ms in r.phase_costs.items():
                phase_costs[phase] = phase_costs.get(phase, 0.0) + ms
        counters: dict[str, float] = {}
        for observation in observations:
            for name, value in observation.registry.counter_values().items():
                counters[name] = counters.get(name, 0.0) + value
        _write_run_artifacts(
            args,
            "concurrent",
            observation=observations[0] if observations else None,
            trace_label=f"concurrent {','.join(strategies)}",
            params=params,
            seed=args.seed,
            strategy=",".join(strategies),
            wall_time_s=wall,
            simulated_ms_total=sum(r.clock_total_ms for r in results),
            phase_costs=phase_costs,
            counters=counters,
            gauges={
                name: value
                for observation in observations
                for name, value in (
                    observation.registry.gauge_values().items()
                )
            },
            metrics=_merged_metrics([r.metrics for r in results]),
            result_summary=sweep_to_dict(results),
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.chaos import (
        CHAOS_STRATEGIES,
        chaos_sweep,
        chaos_to_dict,
        render_chaos_table,
    )
    from repro.faults.injector import FaultPlan
    from repro.obs.profile import resolve_strategy

    if args.operations < 1:
        raise ValueError("--operations must be >= 1")
    try:
        mpl = int(args.mpl)
    except ValueError:
        raise ValueError(f"--mpl expects one integer, got {args.mpl!r}")
    if mpl < 1:
        raise ValueError("--mpl must be >= 1")
    try:
        fault_events = int(args.fault_events)
    except ValueError:
        raise ValueError(
            f"--fault-events expects an integer, got {args.fault_events!r}"
        )
    if fault_events < 1:
        raise ValueError("--fault-events must be >= 1")
    if args.strategy in (None, "all"):
        strategies: list[str] = list(CHAOS_STRATEGIES)
    else:
        strategies = [
            resolve_strategy(part)
            for part in args.strategy.split(",")
            if part.strip()
        ]
        if not strategies:
            raise ValueError("--strategy must name at least one strategy")
    if (args.trace_out or args.span_log) and len(strategies) != 1:
        raise ValueError(
            "--trace-out/--span-log need exactly one strategy "
            "(a trace is one run's timeline)"
        )
    if args.kill_shard is not None:
        if args.shards is None or args.shards < 2:
            raise ValueError("--kill-shard requires --shards >= 2")
        if not 0 <= args.kill_shard < args.shards:
            raise ValueError(
                f"--kill-shard must be in [0, {args.shards - 1}]"
            )
    params = SIM_SCALE_PARAMS.with_update_probability(args.update_probability)
    plan = FaultPlan.seeded(args.seed, max_faults=fault_events)
    if args.kill_shard is not None:
        import dataclasses

        from repro.faults.injector import FaultKind, ScheduledFault

        # One scheduled fail-stop of the chosen shard, on top of the
        # seeded background campaign: its first shard.crash boundary
        # decision fires, the rest of the population keeps serving.
        plan = dataclasses.replace(
            plan,
            schedule=[
                *plan.schedule,
                ScheduledFault(
                    f"shard.{args.kill_shard}.shard.crash",
                    1,
                    FaultKind.CRASH,
                ),
            ],
        )
    observations: list = []
    observation_factory = None
    if _wants_artifacts(args):
        from repro.obs import CostAttribution

        keep = None if (args.trace_out or args.span_log) else 1024

        def observation_factory():
            observation = CostAttribution(keep_events=keep)
            observations.append(observation)
            return observation

    start = time.perf_counter()
    results = chaos_sweep(
        params,
        strategies=strategies,
        plan=plan,
        mpl=mpl,
        model=args.model,
        num_operations=args.operations,
        seed=args.seed,
        observation_factory=observation_factory,
        shards=args.shards,
        replicas=args.replicas,
        degrade=args.degrade,
    )
    wall = time.perf_counter() - start
    ok = all(r.oracle_ok and r.attribution_consistent for r in results)
    if args.json:
        print(json.dumps(chaos_to_dict(results), indent=2, sort_keys=True))
    else:
        shard_note = ""
        if args.shards is not None:
            shard_note = f" shards={args.shards} replicas={args.replicas}"
            if args.kill_shard is not None:
                shard_note += f" kill-shard={args.kill_shard}"
            if args.degrade:
                shard_note += " degrade"
        print(
            f"chaos campaign: model={args.model} mpl={mpl} "
            f"P={args.update_probability:g} ops={args.operations} "
            f"seed={args.seed} fault budget={fault_events}{shard_note}"
        )
        print(render_chaos_table(results))
        print(
            "\n'recov ms' is simulated time charged to the fault.recovery "
            "phase; 'oracle' verifies every procedure's post-recovery answer "
            "against a fresh recompute."
        )
    if _wants_artifacts(args):
        phase_costs: dict[str, float] = {}
        for r in results:
            for phase, ms in r.phase_costs.items():
                phase_costs[phase] = phase_costs.get(phase, 0.0) + ms
        counters: dict[str, float] = {}
        for observation in observations:
            for name, value in observation.registry.counter_values().items():
                counters[name] = counters.get(name, 0.0) + value
        # Gauges are levels, not flows: the last run's snapshot wins per
        # name (sizing layout and final degradation rungs — satellite
        # state the manifest should capture).
        gauges: dict[str, float] = {}
        for observation in observations:
            gauges.update(observation.registry.gauge_values())
        _write_run_artifacts(
            args,
            "chaos",
            observation=observations[0] if observations else None,
            trace_label=f"chaos {','.join(strategies)} mpl={mpl}",
            params=params,
            seed=args.seed,
            strategy=",".join(strategies),
            wall_time_s=wall,
            simulated_ms_total=sum(r.clock_total_ms for r in results),
            phase_costs=phase_costs,
            counters=counters,
            gauges=gauges,
            metrics=_merged_metrics([r.metrics for r in results]),
            result_summary=chaos_to_dict(results),
        )
    if not ok:
        bad = [
            r.strategy
            for r in results
            if not (r.oracle_ok and r.attribution_consistent)
        ]
        print(f"FAILED consistency: {bad}", file=sys.stderr)
        return 1
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json

    from repro.obs.monitor import (
        monitor_to_dict,
        render_monitor_table,
        run_monitor,
    )
    from repro.obs.profile import resolve_strategy
    from repro.obs.telemetry import (
        HealthThresholds,
        to_openmetrics,
        write_series_jsonl,
    )

    strategy = resolve_strategy(args.strategy)
    if args.operations < 1:
        raise ValueError("--operations must be >= 1")
    if args.window_ms <= 0:
        raise ValueError("--window-ms must be positive")
    try:
        mpl = int(args.mpl)
    except ValueError:
        raise ValueError(f"--mpl expects one integer, got {args.mpl!r}")
    if mpl < 1:
        raise ValueError("--mpl must be >= 1")
    try:
        fault_events = int(args.fault_events)
    except ValueError:
        raise ValueError(
            f"--fault-events expects an integer, got {args.fault_events!r}"
        )
    if fault_events < 1:
        raise ValueError("--fault-events must be >= 1")
    for chaos_only, name in (
        (mpl > 1, "--mpl"),
        (args.kill_shard is not None, "--kill-shard"),
        (args.degrade, "--degrade"),
    ):
        if chaos_only and not args.chaos:
            raise ValueError(f"{name} requires --chaos")
    if args.kill_shard is not None:
        if args.shards is None or args.shards < 2:
            raise ValueError("--kill-shard requires --shards >= 2")
        if not 0 <= args.kill_shard < args.shards:
            raise ValueError(
                f"--kill-shard must be in [0, {args.shards - 1}]"
            )
    if args.chaos and args.batch_size is not None:
        raise ValueError("--batch-size applies to plain runs only")
    thresholds = HealthThresholds(
        warn_invalidation_rate=args.warn_invalidation_rate,
        critical_invalidation_rate=args.critical_invalidation_rate,
        warn_lock_wait=args.warn_lock_wait,
        critical_lock_wait=args.critical_lock_wait,
    )
    params = SIM_SCALE_PARAMS.with_update_probability(args.update_probability)
    start = time.perf_counter()
    report = run_monitor(
        strategy,
        params,
        model=args.model,
        num_operations=args.operations,
        seed=args.seed,
        shards=args.shards,
        replicas=args.replicas,
        batch_size=args.batch_size,
        window_ms=args.window_ms,
        chaos=args.chaos,
        mpl=mpl,
        fault_events=fault_events,
        kill_shard=args.kill_shard,
        degrade=args.degrade,
        thresholds=thresholds,
    )
    wall = time.perf_counter() - start
    if args.series_out:
        rows = write_series_jsonl(args.series_out, report.bus, report.health)
        print(
            f"wrote {rows} series records to {args.series_out}",
            file=sys.stderr,
        )
    if args.export:
        from repro.obs.flight import ensure_parent_dir

        with open(ensure_parent_dir(args.export), "w") as handle:
            handle.write(to_openmetrics(report.bus, report.health))
        print(f"wrote OpenMetrics export to {args.export}", file=sys.stderr)
    if args.json:
        print(json.dumps(monitor_to_dict(report), indent=2, sort_keys=True))
    else:
        mode_note = "chaos" if args.chaos else "plain"
        print(
            f"monitor: strategy={strategy} mode={mode_note} "
            f"model={args.model} P={args.update_probability:g} "
            f"ops={args.operations} seed={args.seed} "
            f"shards={args.shards or 1} window={args.window_ms:g}ms"
        )
        print(render_monitor_table(report))
    if _wants_artifacts(args):
        observation = report.observation
        _write_run_artifacts(
            args,
            "monitor",
            observation=observation,
            trace_label=f"monitor {strategy}",
            params=params,
            seed=args.seed,
            strategy=strategy,
            wall_time_s=wall,
            simulated_ms_total=report.clock_total_ms,
            phase_costs=observation.phase_costs(),
            counters=observation.registry.counter_values(),
            gauges=observation.registry.gauge_values(),
            result_summary=monitor_to_dict(report),
        )
    if not report.reconciliation_ok:
        print(
            "FAILED: windowed series do not reconcile with the cost pie",
            file=sys.stderr,
        )
        return 1
    if report.health.any_critical:
        critical = [
            f"shard{shard}"
            for shard, state in sorted(report.health.final_states().items())
            if state == 2
        ]
        print(
            f"CRITICAL at end of run: {', '.join(critical)}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.obs.profile import resolve_strategy
    from repro.serve import run_serve_load

    strategy = resolve_strategy(args.strategy)
    if args.requests < 1:
        raise ValueError("--requests must be >= 1")
    if args.capacity < 1:
        raise ValueError("--capacity must be >= 1")
    if args.ttl_ms is not None and args.ttl_ms <= 0:
        raise ValueError("--ttl-ms must be positive")
    if args.mpl is not None and args.mpl < 1:
        raise ValueError("--mpl must be >= 1")
    if args.rate is not None and args.rate <= 0:
        raise ValueError("--rate must be positive")
    if args.zipf_s < 0:
        raise ValueError("--zipf-s must be >= 0")
    if not 0 <= args.update_probability < 1:
        raise ValueError("-P/--update-probability must be in [0, 1)")
    params = SIM_SCALE_PARAMS.with_update_probability(args.update_probability)
    result = run_serve_load(
        params,
        strategy,
        model=args.model,
        num_requests=args.requests,
        seed=args.seed,
        shards=args.shards,
        capacity=args.capacity,
        ttl_ms=args.ttl_ms,
        max_inflight=args.mpl,
        rate_rps=args.rate,
        zipf_s=args.zipf_s,
        update_probability=args.update_probability,
        audit=args.audit,
    )
    payload = result.to_dict()
    if args.stats_out:
        parent = os.path.dirname(os.path.abspath(args.stats_out))
        os.makedirs(parent, exist_ok=True)
        with open(args.stats_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote serve stats to {args.stats_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        cache = result.cache
        statuses = " ".join(
            f"{code}:{count}"
            for code, count in sorted(result.status_counts.items())
        )
        print(
            f"serve: strategy={strategy} requests={result.requests} "
            f"seed={result.seed} shards={args.shards or 1} "
            f"mpl={args.mpl or 'off'} "
            f"rate={args.rate or 'burst'}"
        )
        print(
            f"  statuses      {statuses}"
            + (f" (429={result.rejected_429})" if result.rejected_429 else "")
        )
        print(
            f"  cache         hit_rate={cache['hit_rate']:.3f} "
            f"hits={cache['hits']:.0f} misses={cache['misses']:.0f} "
            f"expired={cache['expirations']:.0f} "
            f"evicted={cache['evictions']:.0f} "
            f"invalidated={cache['invalidations']:.0f} "
            f"stale={cache['stale_reads']:.0f}"
        )
        print(
            f"  wall          {result.wall_s:.2f}s "
            f"{result.throughput_rps:.0f} req/s "
            f"p50={result.latency_p50_ms:.2f}ms "
            f"p99={result.latency_p99_ms:.2f}ms"
        )
        print(f"  simulated     {result.clock_total_ms:.1f} ms charged")
    if result.cache["stale_reads"]:
        print(
            f"FAILED: {result.cache['stale_reads']:.0f} stale reads served",
            file=sys.stderr,
        )
        return 1
    if result.failed_503:
        print(
            f"FAILED: {result.failed_503} requests hit engine faults (503)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.summary import build_report

    report = build_report(
        include_simulation=not args.no_simulation,
        sim_operations=args.operations,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote reproduction report to {args.output}")
    else:
        print(report, end="")
    return 0 if "FAILED" not in report else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import to_csv, write_csv

    result = run_experiment(args.experiment)
    if args.output:
        write_csv(result, args.output)
        print(f"wrote {args.experiment} data to {args.output}")
    else:
        print(to_csv(result), end="")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.model.advisor import recommend

    params = DEFAULT_PARAMS.replace(
        selectivity_f=args.selectivity,
        sharing_factor=args.sharing_factor,
    ).with_update_probability(args.update_probability)
    rec = recommend(
        params,
        model=args.model,
        update_probability_uncertainty=args.uncertainty,
    )
    print(f"workload: P={args.update_probability:g} f={args.selectivity:g} "
          f"SF={args.sharing_factor:g} model={args.model}")
    for name, cost in sorted(rec.costs.items(), key=lambda kv: kv[1]):
        marker = "  <- point-optimal" if name == rec.best else ""
        print(f"  {name:22s} {cost:10.1f} ms/access{marker}")
    if rec.risk_adjusted != rec.best:
        print(f"risk-adjusted pick (P may exceed estimate): {rec.risk_adjusted}")
    for line in rec.rationale:
        print(f"  - {line}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.model.sensitivity import analyze, render_tornado

    params = DEFAULT_PARAMS.with_update_probability(args.update_probability)
    results = analyze(params, model=args.model)
    print(
        f"tornado analysis around P={args.update_probability:g} "
        f"(model {args.model}); cost ratios for each parameter halved/doubled:"
    )
    print(render_tornado(results, top=args.top))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.simcompare import (
        ATTRIBUTION_GROUPS,
        attribution_comparison,
        render_attribution,
    )
    from repro.obs.profile import (
        profile_workload,
        render_profile,
        resolve_strategy,
    )

    strategy = resolve_strategy(args.strategy)
    if args.operations < 1:
        raise ValueError("--operations must be >= 1")
    params = SIM_SCALE_PARAMS.with_update_probability(args.update_probability)
    observation = None
    if _wants_artifacts(args):
        from repro.obs import FlightRecorder

        observation = FlightRecorder().observation
    start = time.perf_counter()
    report = profile_workload(
        params,
        strategy,
        model=args.model,
        num_operations=args.operations,
        seed=args.seed,
        buffer_capacity=args.buffer_capacity,
        observation=observation,
        batch_size=args.batch_size,
        shards=args.shards,
    )
    wall = time.perf_counter() - start
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_profile(report, top_procedures=args.top))
        if args.attribution and strategy in ATTRIBUTION_GROUPS:
            points = attribution_comparison(
                params,
                strategy,
                model=args.model,
                num_operations=args.operations,
                seed=args.seed,
            )
            print()
            print(render_attribution(strategy, points))
    if _wants_artifacts(args):
        _write_run_artifacts(
            args,
            "profile",
            observation=report.observation,
            trace_label=f"profile {strategy}",
            params=params,
            seed=args.seed,
            strategy=strategy,
            wall_time_s=wall,
            simulated_ms_total=report.total_ms,
            phase_costs=report.phase_costs,
            counters=report.observation.registry.counter_values(),
            metrics=report.run.metrics,
            result_summary=report.to_dict(),
        )
    if not report.is_consistent():
        print(
            f"attribution mismatch: phases sum to "
            f"{sum(report.phase_costs.values())!r}, clock charged "
            f"{report.total_ms!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    import json

    from repro.obs.profile import resolve_strategy
    from repro.shard import measure_sizing, render_sizing, scale_params

    strategy = resolve_strategy(args.strategy)
    shard_counts = sorted(
        {int(part) for part in args.shards.split(",") if part.strip()}
    )
    if not shard_counts:
        raise ValueError("--shards must name at least one shard count")
    if args.procedures is not None and args.procedures < 1:
        raise ValueError("--procedures must be >= 1")
    if args.procedures is not None:
        params = scale_params(args.procedures, num_p2=args.p2)
    else:
        params = SIM_SCALE_PARAMS.with_update_probability(
            args.update_probability
        )
    start = time.perf_counter()
    reports = []
    for num_shards in shard_counts:
        run = run_workload(
            params,
            strategy,
            model=args.model,
            num_operations=args.operations,
            seed=args.seed,
            warm_caches=False,
            batch_size=args.batch_size,
            keep_manager=True,
            shards=num_shards,
        )
        sizing = measure_sizing(
            run.database, run.manager.strategy, seed=args.seed
        )
        payload = sizing.to_dict()
        payload["maint_ms_per_update"] = run.maintenance_cost_ms / max(
            1, run.num_updates
        )
        payload["cost_per_access_ms"] = run.cost_per_access_ms
        payload["operations"] = args.operations
        payload["seed"] = args.seed
        reports.append((sizing, payload))
    wall = time.perf_counter() - start
    sweep = {
        "kind": "shard_sizing_sweep",
        "strategy": strategy,
        "model": args.model,
        "shard_counts": shard_counts,
        "reports": [payload for _sizing, payload in reports],
    }
    if args.json:
        print(json.dumps(sweep, indent=2, sort_keys=True))
    else:
        print(
            f"shard sizing sweep: strategy={strategy} model={args.model} "
            f"procedures={params.num_p1 + params.num_p2} "
            f"ops={args.operations} seed={args.seed} in {wall:.1f}s wall"
        )
        for sizing, payload in reports:
            print()
            print(render_sizing(sizing))
            print(
                f"maintenance per update "
                f"{payload['maint_ms_per_update']:>13.2f} ms"
            )
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(sweep, handle, indent=2, sort_keys=True)
        print(f"wrote sizing report to {args.report_out}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    params = SIM_SCALE_PARAMS.with_update_probability(args.update_probability)
    points = sim_model_comparison(
        params, model=args.model, num_operations=args.operations, seed=args.seed
    )
    print(
        f"simulator vs analytical model "
        f"(model {args.model}, P={args.update_probability:g}, "
        f"N={params.n_tuples}, ops={args.operations})"
    )
    print(render_comparison(points))
    return 0


def _add_artifact_flags(
    parser: argparse.ArgumentParser, trace: bool = True
) -> None:
    """Attach the flight-recorder artifact flags to one subcommand."""
    parser.add_argument(
        "--manifest",
        action="store_true",
        help=(
            "write a reproducibility manifest (seed, params, git sha, "
            "cost pie, counters, histograms) to results/runs/"
        ),
    )
    if trace:
        parser.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help=(
                "export the run as Chrome trace-event JSON "
                "(load in chrome://tracing or Perfetto)"
            ),
        )
        parser.add_argument(
            "--span-log",
            default=None,
            metavar="PATH",
            help="export the span stream as compact JSONL",
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-procs",
        description=(
            "Reproduction of Hanson, 'Processing Queries Against Database "
            "Procedures: A Performance Analysis' (SIGMOD 1988)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="regenerate one figure/table")
    run_parser.add_argument("experiment", choices=sorted(REGISTRY))
    run_parser.add_argument(
        "--no-checks", action="store_true", help="skip paper-claim checks"
    )
    run_parser.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII line chart (curve figures)",
    )
    _add_artifact_flags(run_parser, trace=False)
    run_parser.set_defaults(func=_cmd_run)

    all_parser = sub.add_parser("all", help="regenerate every figure/table")
    all_parser.add_argument("--no-checks", action="store_true")
    _add_artifact_flags(all_parser, trace=False)
    all_parser.set_defaults(func=_cmd_all)

    sim_parser = sub.add_parser(
        "simulate", help="run one strategy in the executable simulator"
    )
    sim_parser.add_argument(
        "--strategy",
        default="cache_invalidate",
        choices=[
            "always_recompute",
            "cache_invalidate",
            "update_cache_avm",
            "update_cache_rvm",
            "hybrid",
        ],
    )
    sim_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    sim_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=DEFAULT_PARAMS.update_probability,
    )
    sim_parser.add_argument("--operations", type=int, default=400)
    sim_parser.add_argument("--seed", type=int, default=7)
    sim_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "group up to N consecutive same-relation update transactions "
            "into one maintenance batch (default: per-transaction)"
        ),
    )
    sim_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "run behind the sharded engine with N key-range shards "
            "(default: unsharded)"
        ),
    )
    sim_parser.set_defaults(func=_cmd_simulate)

    report_parser = sub.add_parser(
        "report", help="regenerate everything into one markdown report"
    )
    report_parser.add_argument("-o", "--output", default=None)
    report_parser.add_argument(
        "--no-simulation",
        action="store_true",
        help="skip the (slower) simulator-vs-model section",
    )
    report_parser.add_argument("--operations", type=int, default=300)
    report_parser.set_defaults(func=_cmd_report)

    export_parser = sub.add_parser(
        "export", help="export one experiment's data as CSV"
    )
    export_parser.add_argument("experiment", choices=sorted(REGISTRY))
    export_parser.add_argument(
        "-o", "--output", default=None, help="file path (default: stdout)"
    )
    export_parser.set_defaults(func=_cmd_export)

    advise_parser = sub.add_parser(
        "advise", help="recommend a strategy for a workload profile"
    )
    advise_parser.add_argument(
        "-P", "--update-probability", type=float, default=0.5
    )
    advise_parser.add_argument(
        "-f", "--selectivity", type=float, default=0.001
    )
    advise_parser.add_argument("--sharing-factor", type=float, default=0.5)
    advise_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    advise_parser.add_argument(
        "--uncertainty",
        type=float,
        default=0.0,
        help="how far the true P may exceed the estimate (minimax mode)",
    )
    advise_parser.set_defaults(func=_cmd_advise)

    sens_parser = sub.add_parser(
        "sensitivity", help="tornado analysis of the cost model"
    )
    sens_parser.add_argument(
        "-P", "--update-probability", type=float, default=0.5
    )
    sens_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    sens_parser.add_argument("--top", type=int, default=15)
    sens_parser.set_defaults(func=_cmd_sensitivity)

    prof_parser = sub.add_parser(
        "profile",
        help="run one strategy with cost attribution (per-phase profile)",
    )
    prof_parser.add_argument(
        "--strategy",
        default="cache_invalidate",
        help="strategy name or alias (ar, ci, avm, rvm, or the full names)",
    )
    prof_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    prof_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=DEFAULT_PARAMS.update_probability,
    )
    prof_parser.add_argument("--operations", type=int, default=400)
    prof_parser.add_argument("--seed", type=int, default=7)
    prof_parser.add_argument(
        "--buffer-capacity",
        type=int,
        default=0,
        help="LRU buffer frames (0 = the paper's no-caching assumption)",
    )
    prof_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "group up to N consecutive same-relation update transactions "
            "into one maintenance batch (default: per-transaction)"
        ),
    )
    prof_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "run behind the sharded engine with N key-range shards "
            "(default: unsharded)"
        ),
    )
    prof_parser.add_argument(
        "--top", type=int, default=5, help="procedures to list by cost"
    )
    prof_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    prof_parser.add_argument(
        "--attribution",
        action="store_true",
        help="append the term-by-term model-vs-simulator comparison",
    )
    _add_artifact_flags(prof_parser)
    prof_parser.set_defaults(func=_cmd_profile)

    cmp_parser = sub.add_parser(
        "compare", help="simulator vs analytical model, all strategies"
    )
    cmp_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    cmp_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=DEFAULT_PARAMS.update_probability,
    )
    cmp_parser.add_argument("--operations", type=int, default=400)
    cmp_parser.add_argument("--seed", type=int, default=7)
    cmp_parser.set_defaults(func=_cmd_compare)

    conc_parser = sub.add_parser(
        "concurrent",
        help="multi-client discrete-event simulation (2PL, MPL sweep)",
    )
    conc_parser.add_argument(
        "--mpl",
        default="1,4,16",
        help="comma-separated multiprogramming levels (e.g. 1,4,16)",
    )
    conc_parser.add_argument(
        "--strategy",
        default="all",
        help=(
            "comma-separated strategies or aliases (ar, ci, avm, rvm, "
            "hybrid); default: all five"
        ),
    )
    conc_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    conc_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=DEFAULT_PARAMS.update_probability,
    )
    conc_parser.add_argument(
        "--operations",
        type=int,
        default=300,
        help="total operations, split across sessions",
    )
    conc_parser.add_argument("--seed", type=int, default=7)
    conc_parser.add_argument(
        "--buffer-capacity",
        type=int,
        default=0,
        help="LRU buffer frames (0 = the paper's no-caching assumption)",
    )
    conc_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "group up to N consecutive same-relation update transactions "
            "into one maintenance batch per session (default: "
            "per-transaction)"
        ),
    )
    conc_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "run every strategy behind the sharded engine with N "
            "key-range shards (default: unsharded)"
        ),
    )
    conc_parser.add_argument(
        "--json", action="store_true", help="emit the sweep as JSON"
    )
    _add_artifact_flags(conc_parser)
    conc_parser.set_defaults(func=_cmd_concurrent)

    chaos_parser = sub.add_parser(
        "chaos",
        help=(
            "seeded fault-injection campaign with crash-recovery oracle "
            "(all strategies)"
        ),
    )
    chaos_parser.add_argument(
        "--strategy",
        default="all",
        help=(
            "comma-separated strategies or aliases (ar, ci, avm, rvm, "
            "hybrid); default: all five"
        ),
    )
    chaos_parser.add_argument(
        "--mpl",
        default="1",
        help="one multiprogramming level (sessions sharing the database)",
    )
    chaos_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    chaos_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=DEFAULT_PARAMS.update_probability,
    )
    chaos_parser.add_argument(
        "--operations",
        type=int,
        default=120,
        help="total operations, split across sessions",
    )
    chaos_parser.add_argument("--seed", type=int, default=7)
    chaos_parser.add_argument(
        "--fault-events",
        default="100",
        help="total fault-injection budget for the campaign",
    )
    chaos_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "run behind the sharded engine with N key-range shards, each "
            "its own fault domain (1 is bit-identical to unsharded; "
            "default: unsharded)"
        ),
    )
    chaos_parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help=(
            "hot standbys per shard (0 or 1): a crashed shard fails over "
            "to its replica instead of rebuilding from WAL (needs "
            "--shards >= 2)"
        ),
    )
    chaos_parser.add_argument(
        "--kill-shard",
        type=int,
        default=None,
        metavar="I",
        help=(
            "schedule one fail-stop of shard I mid-workload on top of the "
            "seeded campaign (needs --shards >= 2)"
        ),
    )
    chaos_parser.add_argument(
        "--degrade",
        action="store_true",
        help=(
            "attach the per-shard overload controller (UC->CI->AR ladder "
            "per shard; needs --shards >= 2)"
        ),
    )
    chaos_parser.add_argument(
        "--json", action="store_true", help="emit the campaign as JSON"
    )
    _add_artifact_flags(chaos_parser)
    chaos_parser.set_defaults(func=_cmd_chaos)

    monitor_parser = sub.add_parser(
        "monitor",
        help=(
            "replay a workload with the streaming telemetry bus: "
            "per-window per-shard health table, JSONL series log, "
            "OpenMetrics export (exit 2 if any shard ends CRITICAL)"
        ),
    )
    monitor_parser.add_argument(
        "--strategy",
        default="cache_invalidate",
        help="one strategy or alias (ar, ci, avm, rvm, hybrid)",
    )
    monitor_parser.add_argument(
        "--model", type=int, default=1, choices=(1, 2)
    )
    monitor_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=DEFAULT_PARAMS.update_probability,
    )
    monitor_parser.add_argument("--operations", type=int, default=200)
    monitor_parser.add_argument("--seed", type=int, default=7)
    monitor_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "run behind the sharded engine with N key-range shards "
            "(per-shard health; default: unsharded = one shard 0)"
        ),
    )
    monitor_parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="hot standbys per shard (0 or 1; needs --shards >= 2)",
    )
    monitor_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="batched update propagation (plain runs only)",
    )
    monitor_parser.add_argument(
        "--window-ms",
        type=float,
        default=100.0,
        help="fixed aggregation window in simulated ms (default 100)",
    )
    monitor_parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "replay under the fault-injected multi-client chaos harness "
            "instead of the plain runner"
        ),
    )
    monitor_parser.add_argument(
        "--mpl",
        default="1",
        help="multiprogramming level for --chaos runs",
    )
    monitor_parser.add_argument(
        "--fault-events",
        default="25",
        help="fault budget for --chaos runs",
    )
    monitor_parser.add_argument(
        "--kill-shard",
        type=int,
        default=None,
        metavar="I",
        help=(
            "schedule one fail-stop of shard I (needs --chaos and "
            "--shards >= 2)"
        ),
    )
    monitor_parser.add_argument(
        "--degrade",
        action="store_true",
        help=(
            "attach the per-shard overload ladder (needs --chaos and "
            "--shards >= 2)"
        ),
    )
    monitor_parser.add_argument(
        "--warn-invalidation-rate",
        type=float,
        default=0.5,
        help="invalidations per simulated ms above which a shard WARNs",
    )
    monitor_parser.add_argument(
        "--critical-invalidation-rate",
        type=float,
        default=2.0,
        help="invalidation rate above which a shard goes CRITICAL",
    )
    monitor_parser.add_argument(
        "--warn-lock-wait",
        type=float,
        default=0.5,
        help="lock-wait fraction of the window above which a shard WARNs",
    )
    monitor_parser.add_argument(
        "--critical-lock-wait",
        type=float,
        default=0.9,
        help="lock-wait fraction above which a shard goes CRITICAL",
    )
    monitor_parser.add_argument(
        "--series-out",
        default=None,
        metavar="PATH",
        help="write the windowed series + health transitions as JSONL",
    )
    monitor_parser.add_argument(
        "--export",
        default=None,
        metavar="PATH",
        help="write the run's Prometheus/OpenMetrics exposition text",
    )
    monitor_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    _add_artifact_flags(monitor_parser)
    monitor_parser.set_defaults(func=_cmd_monitor)

    serve_parser = sub.add_parser(
        "serve",
        help=(
            "drive open-loop request load at the front-tier serving "
            "stack: result cache + admission control over one engine"
        ),
    )
    serve_parser.add_argument(
        "--strategy",
        default="cache_invalidate",
        help="strategy name or alias (ar, ci, avm, rvm, or the full names)",
    )
    serve_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    serve_parser.add_argument(
        "--requests",
        type=int,
        default=400,
        help="length of the request plan (reads + update posts)",
    )
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=0.1,
        help="fraction of requests that are update transactions",
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve from the sharded engine with this many shards",
    )
    serve_parser.add_argument(
        "--capacity",
        type=int,
        default=256,
        help="front-tier cache entries before LRU eviction",
    )
    serve_parser.add_argument(
        "--ttl-ms",
        type=float,
        default=None,
        help="entry TTL in simulated ms (default: no TTL)",
    )
    serve_parser.add_argument(
        "--mpl",
        type=int,
        default=None,
        help=(
            "admission-control multiprogramming level; requests beyond "
            "it get 429 (default: no gate)"
        ),
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="RPS",
        help="open-loop arrival rate in requests/s (default: one burst)",
    )
    serve_parser.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf skew of the read popularity ranking (default 1.1)",
    )
    serve_parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "recompute on every cache hit and count disagreements as "
            "stale reads (exit 1 on any)"
        ),
    )
    serve_parser.add_argument(
        "--stats-out",
        default=None,
        metavar="PATH",
        help="write the run summary JSON to PATH (the CI artifact)",
    )
    serve_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    serve_parser.set_defaults(func=_cmd_serve)

    shard_parser = sub.add_parser(
        "shard",
        help=(
            "sharded-engine sizing sweep: bytes per relation/shard/"
            "procedure, Rete sharing, router fan-out"
        ),
    )
    shard_parser.add_argument(
        "--strategy",
        default="update_cache_rvm",
        help="strategy name or alias (ar, ci, avm, rvm, or the full names)",
    )
    shard_parser.add_argument(
        "--shards",
        default="1,8",
        help="comma-separated shard counts to sweep (e.g. 1,2,8)",
    )
    shard_parser.add_argument(
        "--procedures",
        type=int,
        default=None,
        help=(
            "population size for the scale parameter point (P1-only, "
            "small tuple universe); default: the laptop-scale point"
        ),
    )
    shard_parser.add_argument(
        "--p2",
        type=int,
        default=0,
        help="P2 join procedures to add to the scale point (default 0)",
    )
    shard_parser.add_argument("--model", type=int, default=1, choices=(1, 2))
    shard_parser.add_argument(
        "-P",
        "--update-probability",
        type=float,
        default=DEFAULT_PARAMS.update_probability,
    )
    shard_parser.add_argument("--operations", type=int, default=60)
    shard_parser.add_argument("--seed", type=int, default=7)
    shard_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "group up to N consecutive same-relation update transactions "
            "into one maintenance batch (default: per-transaction)"
        ),
    )
    shard_parser.add_argument(
        "--json", action="store_true", help="emit the sweep as JSON"
    )
    shard_parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="also write the JSON sweep to PATH (the CI sizing artifact)",
    )
    shard_parser.set_defaults(func=_cmd_shard)

    bench_parser = sub.add_parser(
        "bench",
        help=(
            "run the pinned perf suite, update the benchmark ledger, and "
            "optionally gate against a baseline"
        ),
    )
    bench_parser.add_argument(
        "--operations",
        type=int,
        default=120,
        help="operation budget for the simulated scenarios",
    )
    bench_parser.add_argument("--seed", type=int, default=7)
    bench_parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="JSONL ledger to append the snapshot to ('' skips)",
    )
    bench_parser.add_argument(
        "--latest",
        default="BENCH_latest.json",
        help="latest-snapshot JSON to overwrite ('' skips)",
    )
    bench_parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help=(
            "baseline snapshot (JSON or JSONL history) to diff against; "
            "exits 1 when any metric regresses past the tolerance"
        ),
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative regression tolerance for --compare (default 0.10)",
    )
    bench_parser.add_argument(
        "--json", action="store_true", help="emit the snapshot as JSON"
    )
    bench_parser.add_argument(
        "--wall-clock",
        action="store_true",
        help=(
            "run the wall-clock lane instead of the simulated suite: real "
            "maintenance/access times of the fig05 scenario at l=100, "
            "columnar vs dict (machine-dependent; embedded checks gate, "
            "--compare is rejected)"
        ),
    )
    bench_parser.add_argument(
        "--wall-repeats",
        type=int,
        default=3,
        metavar="N",
        help="runs per (strategy, mode) cell; the median is kept (default 3)",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    parser.epilog = "subcommands: " + ", ".join(sorted(sub.choices))
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Invalid usage, whether a command's own argument check raised it
        # or a driver did (``build_stack``'s shard/replica rules, a batch
        # size or MPL below 1) — one protocol for both.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
