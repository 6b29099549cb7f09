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

Layout: ``type=`` validators, the flag vocabulary (``_FLAGS``), the one
run → emit helper, then the ``_cmd_*`` bodies, each registered with the
flags it takes by ``@_command``; ``build_parser`` is generated from that.
Exit protocol: 0 success, 1 a run that failed its gate, 2 invalid usage.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import time

from repro.experiments import REGISTRY, render_result, run_experiment
from repro.experiments.simcompare import (
    SIM_SCALE_PARAMS,
    render_comparison,
    sim_model_comparison,
)
from repro.model.params import DEFAULT_PARAMS
from repro.obs.flight import (
    ensure_parent_dir,
    write_chrome_trace,
    write_span_jsonl,
)
from repro.obs.profile import STRATEGY_ALIASES, resolve_strategy
from repro.workload.runner import run_workload

# The five canonical strategy names, in the alias table's order.
_STRATEGIES = tuple(dict.fromkeys(STRATEGY_ALIASES.values()))


def _number(kind, accept, expected: str):
    """A ``type=`` callable: ``kind(text)`` that must satisfy ``accept``.

    It is named after ``kind`` so a non-number gets argparse's own
    ``invalid int value: 'x'`` wording.
    """

    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}")
        return value

    parse.__name__ = kind.__name__
    return parse


_positive_int = _number(int, lambda value: value >= 1, ">= 1")
_positive_float = _number(float, lambda value: value > 0, "positive")
_non_negative_float = _number(float, lambda value: value >= 0, ">= 0")
_probability = _number(float, lambda value: 0 <= value < 1, "in [0, 1)")


def _int_list(text: str) -> list[int]:
    """Parse ``"1,4,16"`` into a sorted list of distinct integers >= 1."""
    try:
        values = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None
    if not values or values[0] < 1:
        raise argparse.ArgumentTypeError("values must be integers >= 1")
    return values


def _strategy(text: str) -> str:
    """One strategy name or alias, as its canonical name."""
    try:
        return resolve_strategy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"names an {exc}") from None


def _strategy_list(text: str) -> list[str]:
    """Comma-separated strategies or aliases; ``all`` is all five."""
    if text == "all":
        return list(_STRATEGIES)
    strategies = [_strategy(part) for part in text.split(",") if part.strip()]
    if not strategies:
        raise argparse.ArgumentTypeError("must name at least one strategy")
    return strategies


# (name, body, flags, own): filled by ``@_command`` in definition order.
_COMMANDS: list = []


def _command(flags: str = "", **own):
    """Register ``_cmd_<name>`` as subcommand ``<name>``: its docstring is
    the help line, ``flags`` names the ``_FLAGS`` entries it takes, and
    ``own`` (keyed by ``dest``) gives its own default/type/help for a
    flag where that differs from the vocabulary's."""

    def register(body):
        name = body.__name__.removeprefix("_cmd_")
        _COMMANDS.append((name, body, flags.split(), own))
        return body

    return register


def _dest(names: str) -> str:
    """The ``Namespace`` attribute argparse derives for a ``_FLAGS`` key."""
    return names.split()[-1].lstrip("-").replace("-", "_")


# The flag vocabulary: every flag, declared once, keyed by its option
# string(s). Single-flag range checks live in the ``type=`` callables;
# rules that span two flags are in ``_check_cross_flags``. Each
# ``@_command`` says which of these its subcommand takes, and its own
# default where that differs. ``metavar="PATH"`` marks a file the
# command writes: its directory is created before anything runs.
_FLAGS = {
    "experiment": dict(choices=sorted(REGISTRY)),
    "--strategy": dict(
        type=_strategy,
        default="cache_invalidate",
        help="strategy name or alias (ar, ci, avm, rvm, hybrid)",
    ),
    "--model": dict(type=int, default=1, choices=(1, 2)),
    "-P --update-probability": dict(
        type=_probability,
        default=DEFAULT_PARAMS.update_probability,
        help="fraction of operations that are update transactions",
    ),
    "--operations": dict(
        type=_positive_int,
        default=400,
        help="operations to simulate (in total, across sessions)",
    ),
    "--seed": dict(type=int, default=7),
    "--batch-size": dict(
        type=_positive_int,
        help="maintain once per batch of up to N same-relation updates",
    ),
    "--shards": dict(
        type=_positive_int,
        help="run behind the sharded engine with N key-range shards",
    ),
    "--mpl": dict(
        type=_positive_int,
        default="1",
        help="multiprogramming level (sessions sharing the database)",
    ),
    "--replicas": dict(
        type=int,
        default=0,
        help="hot standbys per shard (0 or 1; needs --shards >= 2)",
    ),
    "--kill-shard": dict(
        type=int,
        metavar="I",
        help="schedule one fail-stop of shard I (needs --shards >= 2)",
    ),
    "--fault-events": dict(
        type=_positive_int,
        default="100",
        help="total fault-injection budget for the campaign",
    ),
    "--degrade": dict(
        action="store_true",
        help="attach the per-shard UC->CI->AR overload ladder",
    ),
    "--buffer-capacity": dict(
        type=int,
        default=0,
        help="LRU buffer frames (0 = the paper's no-caching assumption)",
    ),
    "--top": dict(type=int, default=5, help="rows to list"),
    "--json": dict(action="store_true", help="emit the result as JSON"),
    "--no-checks": dict(action="store_true", help="skip paper-claim checks"),
    "--chart": dict(
        action="store_true",
        help="append an ASCII line chart (curve figures)",
    ),
    "-o --output": dict(metavar="PATH", help="file path (default: stdout)"),
    "--no-simulation": dict(
        action="store_true",
        help="skip the (slower) simulator-vs-model section",
    ),
    "-f --selectivity": dict(type=float, default=0.001),
    "--sharing-factor": dict(type=float, default=0.5),
    "--uncertainty": dict(
        type=float,
        default=0.0,
        help="how far the true P may exceed the estimate (minimax mode)",
    ),
    "--attribution": dict(
        action="store_true",
        help="append the term-by-term model-vs-simulator comparison",
    ),
    "--manifest": dict(
        action="store_true",
        help="write a reproducibility manifest to results/runs/",
    ),
    "--trace-out": dict(
        metavar="PATH",
        help="export the run as Chrome trace-event JSON (Perfetto)",
    ),
    "--span-log": dict(metavar="PATH", help="export the span stream as compact JSONL"),
    "--window-ms": dict(
        type=_positive_float,
        default=100.0,
        help="fixed aggregation window in simulated ms (default 100)",
    ),
    "--chaos": dict(
        action="store_true",
        help="replay under the fault-injected multi-client chaos harness",
    ),
    "--warn-invalidation-rate": dict(
        type=float,
        default=0.5,
        help="invalidations per simulated ms above which a shard WARNs",
    ),
    "--critical-invalidation-rate": dict(
        type=float,
        default=2.0,
        help="invalidation rate above which a shard goes CRITICAL",
    ),
    "--warn-lock-wait": dict(
        type=float,
        default=0.5,
        help="lock-wait fraction of the window above which a shard WARNs",
    ),
    "--critical-lock-wait": dict(
        type=float,
        default=0.9,
        help="lock-wait fraction above which a shard goes CRITICAL",
    ),
    "--series-out": dict(
        metavar="PATH",
        help="write the windowed series + health transitions as JSONL",
    ),
    "--export": dict(
        metavar="PATH",
        help="write the run's Prometheus/OpenMetrics exposition text",
    ),
    "--requests": dict(
        type=_positive_int,
        default=400,
        help="length of the request plan (reads + update posts)",
    ),
    "--capacity": dict(
        type=_positive_int,
        default=256,
        help="front-tier cache entries before LRU eviction",
    ),
    "--ttl-ms": dict(
        type=_positive_float,
        help="entry TTL in simulated ms (default: no TTL)",
    ),
    "--rate": dict(
        type=_positive_float,
        metavar="RPS",
        help="open-loop arrival rate in requests/s (default: one burst)",
    ),
    "--zipf-s": dict(
        type=_non_negative_float,
        default=1.1,
        help="Zipf skew of the read popularity ranking (default 1.1)",
    ),
    "--audit": dict(
        action="store_true",
        help="recompute on every cache hit; a disagreement is a stale read",
    ),
    "--stats-out": dict(
        metavar="PATH",
        help="write the run summary JSON to PATH (the CI artifact)",
    ),
    "--procedures": dict(
        type=_positive_int,
        help="population of the P1-only scale point (default: laptop scale)",
    ),
    "--p2": dict(
        type=int,
        default=0,
        help="P2 join procedures to add to the scale point (default 0)",
    ),
    "--report-out": dict(
        metavar="PATH",
        help="also write the JSON sweep to PATH (the CI sizing artifact)",
    ),
    "--history": dict(
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="JSONL ledger to append the snapshot to ('' skips)",
    ),
    "--latest": dict(
        default="BENCH_latest.json",
        metavar="PATH",
        help="latest-snapshot JSON to overwrite ('' skips)",
    ),
    "--compare": dict(
        metavar="BASELINE",
        help="baseline snapshot (JSON/JSONL) to gate against (exit 1)",
    ),
    "--tolerance": dict(
        type=_non_negative_float,
        default=0.10,
        help="relative regression tolerance for --compare (default 0.10)",
    ),
}

_ARTIFACTS = "--manifest --trace-out --span-log"
_STRATEGY_SWEEP = dict(
    type=_strategy_list,
    default="all",
    help="comma-separated strategies or aliases; default: all five",
)
_INT_SWEEP = dict(type=_int_list, help="comma-separated values to sweep")


def _check_cross_flags(args: argparse.Namespace) -> None:
    """The usage rules that span two flags, for whichever subcommand has
    them (a flag's own range is its ``type=``)."""
    given = vars(args)
    kill_shard = given.get("kill_shard")
    if "chaos" in given and not args.chaos:
        for name, chaos_only in (
            ("mpl", args.mpl > 1),
            ("kill-shard", kill_shard is not None),
            ("degrade", args.degrade),
        ):
            if chaos_only:
                raise ValueError(f"--{name} requires --chaos")
    if kill_shard is not None:
        if args.shards is None or args.shards < 2:
            raise ValueError("--kill-shard requires --shards >= 2")
        if not 0 <= kill_shard < args.shards:
            raise ValueError(f"--kill-shard must be in [0, {args.shards - 1}]")
    if given.get("chaos") and args.batch_size is not None:
        raise ValueError("--batch-size applies to plain runs only")
    if given.get("trace_out") or given.get("span_log"):
        swept = [
            label
            for dest, label in (("strategy", "strategy"), ("mpl", "MPL"))
            if isinstance(given.get(dest), list) and len(given[dest]) != 1
        ]
        if swept:
            raise ValueError(
                "--trace-out/--span-log need exactly one "
                f"{' and one '.join(swept)} (a trace is one run's timeline)"
            )


def _write_text(path: str, text: str, what: str | None = None) -> None:
    """Write one output file, creating its directory if missing, and
    announce it on stderr as ``what`` (stdout stays machine-parseable)."""
    with open(ensure_parent_dir(path), "w") as handle:
        handle.write(text)
    if what:
        print(f"wrote {what} to {path}", file=sys.stderr)


def _sim_params(args: argparse.Namespace):
    """The simulator-scale parameter point at this run's ``-P``."""
    return SIM_SCALE_PARAMS.with_update_probability(args.update_probability)


def _driver_kwargs(args: argparse.Namespace) -> dict:
    """This subcommand's run-shaping flags, under the keyword every
    ``run_*`` driver (and ``build_stack`` beneath them) takes them by."""
    dests = "model operations seed batch_size shards replicas degrade buffer_capacity"
    kwargs = {d: getattr(args, d) for d in dests.split() if hasattr(args, d)}
    if "operations" in kwargs:
        kwargs["num_operations"] = kwargs.pop("operations")
    return kwargs


def _wants_artifacts(args: argparse.Namespace) -> bool:
    """Whether any flight-recorder artifact flag was passed."""
    return any(getattr(args, _dest(flag), None) for flag in _ARTIFACTS.split())


def _write_run_artifacts(
    args: argparse.Namespace, observation=None, **manifest_fields
) -> None:
    """Write the ``--trace-out`` / ``--span-log`` / ``--manifest``
    artifacts for one completed run.

    Artifact paths are announced on stderr so ``--json`` stdout stays
    machine-parseable.
    """
    strategy = getattr(args, "strategy", None)
    if isinstance(strategy, list):
        strategy = ",".join(strategy)
    if getattr(args, "trace_out", None):
        write_chrome_trace(
            args.trace_out, observation, label=f"{args.command} {strategy}"
        )
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    if getattr(args, "span_log", None):
        rows = write_span_jsonl(args.span_log, observation)
        print(f"wrote {rows} span records to {args.span_log}", file=sys.stderr)
    if args.manifest:
        from repro.obs.manifest import build_run_manifest, write_run_manifest

        arg_values = {key: value for key, value in vars(args).items() if key != "func"}
        if strategy is not None:
            manifest_fields.update(
                strategy=strategy, seed=args.seed, params=_sim_params(args)
            )
        manifest = build_run_manifest(args.command, arg_values, **manifest_fields)
        path = write_run_manifest(manifest)
        print(f"wrote run manifest to {path}", file=sys.stderr)


def _run_and_emit(
    args: argparse.Namespace,
    execute,
    render,
    payload,
    outputs=None,
    artifacts=None,
    gate=None,
) -> int:
    """The one run → emit path every measuring subcommand takes.

    Time ``execute()``; write the command's own files (``outputs``);
    print ``payload(result)`` as JSON under ``--json``, else
    ``render(result, wall_seconds)``; when a flight-recorder artifact
    was asked for, write it from ``artifacts(result)`` (the observation
    and cost totals) with the payload as the manifest's summary; then
    ``gate(result)`` gives ``(exit_code, complaint)`` and the complaint,
    if any, goes to stderr.
    """
    start = time.perf_counter()
    result = execute()
    wall = time.perf_counter() - start
    if outputs is not None:
        outputs(result)
    if getattr(args, "json", False):
        print(json.dumps(payload(result), indent=2, sort_keys=True))
    else:
        render(result, wall)
    if _wants_artifacts(args):
        _write_run_artifacts(
            args,
            wall_time_s=wall,
            result_summary=payload(result),
            **(artifacts(result) if artifacts is not None else {}),
        )
    code, complaint = gate(result) if gate is not None else (0, None)
    if complaint:
        print(complaint, file=sys.stderr)
    return code


def _observation_factory(args: argparse.Namespace):
    """``(factory, observations)`` for a sweep: when artifacts were asked
    for, ``factory`` builds one attribution per run and records it;
    otherwise it is ``None`` and the runs go unobserved."""
    observations: list = []
    if not _wants_artifacts(args):
        return None, observations
    from repro.obs import CostAttribution

    keep = None if (args.trace_out or args.span_log) else 1024

    def factory():
        observation = CostAttribution(keep_events=keep)
        observations.append(observation)
        return observation

    return factory, observations


def _sweep_artifacts(results, observations) -> dict:
    """Fold a sweep's runs into one set of manifest fields: phase costs,
    counters and latency stats add up over runs; gauges are levels, not
    flows, so the last run's snapshot wins per name (sizing layout,
    final degradation rungs)."""
    from repro.sim.metrics import MetricSet, RunningStat

    phase_costs: collections.Counter = collections.Counter()
    metrics = MetricSet()
    for r in results:
        phase_costs.update(r.phase_costs)
        for name in r.metrics.names():
            metrics.stats.setdefault(name, RunningStat()).merge(
                r.metrics.get(name)
            )
    counters: collections.Counter = collections.Counter()
    gauges: dict[str, float] = {}
    for observation in observations:
        counters.update(observation.registry.counter_values())
        gauges.update(observation.registry.gauge_values())
    return dict(
        observation=observations[0] if observations else None,
        simulated_ms_total=sum(r.clock_total_ms for r in results),
        phase_costs=phase_costs,
        counters=counters,
        gauges=gauges,
        metrics=metrics,
    )


@_command()
def _cmd_list(_args: argparse.Namespace) -> int:
    """list experiment ids"""
    print("available experiments (paper body-text numbering):")
    for figure_id in REGISTRY:
        print(f"  {figure_id}")
    return 0


@_command("experiment --no-checks --chart --manifest")
def _cmd_run(args: argparse.Namespace) -> int:
    """regenerate one figure/table"""
    from repro.experiments.export import to_json

    def render(result, _wall):
        chart = args.chart and result.kind in ("curves", "sf_curves")
        print(render_result(result, show_checks=not args.no_checks, chart=chart))

    def gate(result):
        if args.no_checks or result.all_checks_pass:
            return 0, None
        return 1, f"\nFAILED checks: {result.failed_checks()}"

    return _run_and_emit(
        args, lambda: run_experiment(args.experiment), render, to_json, gate=gate
    )


@_command("--no-checks --manifest")
def _cmd_all(args: argparse.Namespace) -> int:
    """regenerate every figure/table"""
    def execute():
        return {figure_id: run_experiment(figure_id) for figure_id in REGISTRY}

    def render(results, _wall):
        for result in results.values():
            print(render_result(result, show_checks=not args.no_checks))
            print()

    def payload(results):
        passes = {key: result.all_checks_pass for key, result in results.items()}
        return {"checks_pass_by_experiment": passes}

    def gate(results):
        return int(not all(r.all_checks_pass for r in results.values())), None

    return _run_and_emit(args, execute, render, payload, gate=gate)


@_command(
    "--operations --seed --history --latest --compare --tolerance --json",
    operations=dict(default=120),
)
def _cmd_bench(args: argparse.Namespace) -> int:
    """run the pinned perf suite, update the benchmark ledger, and
    optionally gate against a baseline"""
    import dataclasses

    from repro.obs import ledger

    baseline = None
    if args.compare:
        try:
            baseline = ledger.load_snapshot(args.compare)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load baseline {args.compare!r}: {exc}") from None

    def execute():
        snapshot = ledger.run_bench_suite(operations=args.operations, seed=args.seed)
        problems = ledger.validate_snapshot(snapshot)
        if problems:  # pragma: no cover - guards suite bugs, not user input
            raise RuntimeError(f"snapshot failed validation: {problems}")
        deltas = None
        if baseline is not None:
            deltas = ledger.compare_snapshots(
                baseline, snapshot, tolerance=args.tolerance
            )
        return snapshot, deltas

    def outputs(result):
        if args.history:
            ledger.append_history(args.history, result[0])
        if args.latest:
            ledger.write_latest(args.latest, result[0])

    def payload(result):
        snapshot, deltas = result
        if deltas is None:
            return snapshot
        comparison = {
            "baseline_path": args.compare,
            "tolerance": args.tolerance,
            "deltas": [dataclasses.asdict(d) for d in deltas],
            "regressions": [d.key for d in ledger.regressions(deltas)],
        }
        return {**snapshot, "comparison": comparison}

    def render(result, wall):
        snapshot, deltas = result
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
            print(ledger.render_delta_table(deltas, tolerance=args.tolerance))

    def gate(result):
        snapshot, deltas = result
        complaints = []
        failed_checks = sorted(key for key, ok in snapshot["checks"].items() if not ok)
        if failed_checks:
            complaints.append(f"FAILED checks: {failed_checks}")
        if deltas is not None and ledger.regressions(deltas):
            regressed = [d.key for d in ledger.regressions(deltas)]
            complaints.append(f"PERF REGRESSION vs {args.compare}: {regressed}")
        return int(bool(complaints)), "\n".join(complaints)

    return _run_and_emit(args, execute, render, payload, outputs, gate=gate)


@_command(
    "--strategy --model -P --operations --seed --batch-size --shards",
    strategy=dict(type=None, choices=_STRATEGIES, help=None),
)
def _cmd_simulate(args: argparse.Namespace) -> int:
    """run one strategy in the executable simulator"""
    run = run_workload(_sim_params(args), args.strategy, **_driver_kwargs(args))
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


@_command(
    "--mpl --strategy --model -P --operations --seed --buffer-capacity "
    "--batch-size --shards --json " + _ARTIFACTS,
    mpl=dict(_INT_SWEEP, default="1,4,16"),
    strategy=_STRATEGY_SWEEP,
    operations=dict(default=300),
)
def _cmd_concurrent(args: argparse.Namespace) -> int:
    """multi-client discrete-event simulation (2PL, MPL sweep)"""
    from repro.concurrent import (
        concurrent_sweep,
        render_concurrent_table,
        sweep_to_dict,
    )

    observation_factory, observations = _observation_factory(args)

    def execute():
        return concurrent_sweep(
            _sim_params(args),
            strategies=args.strategy,
            mpls=args.mpl,
            observation_factory=observation_factory,
            **_driver_kwargs(args),
        )

    def render(results, _wall):
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

    return _run_and_emit(
        args,
        execute,
        render,
        sweep_to_dict,
        artifacts=lambda results: _sweep_artifacts(results, observations),
    )


@_command(
    "--strategy --mpl --model -P --operations --seed --fault-events "
    "--shards --replicas --kill-shard --degrade --json " + _ARTIFACTS,
    strategy=_STRATEGY_SWEEP,
    operations=dict(default=120),
)
def _cmd_chaos(args: argparse.Namespace) -> int:
    """seeded fault-injection campaign with crash-recovery oracle"""
    from repro.faults.chaos import (
        chaos_sweep,
        chaos_to_dict,
        render_chaos_table,
    )
    from repro.faults.injector import FaultPlan

    plan = FaultPlan.seeded(args.seed, max_faults=args.fault_events)
    if args.kill_shard is not None:
        plan = plan.with_shard_kill(args.kill_shard)
    observation_factory, observations = _observation_factory(args)

    def execute():
        return chaos_sweep(
            _sim_params(args),
            strategies=args.strategy,
            plan=plan,
            mpl=args.mpl,
            observation_factory=observation_factory,
            **_driver_kwargs(args),
        )

    def render(results, _wall):
        shard_note = ""
        if args.shards is not None:
            shard_note = f" shards={args.shards} replicas={args.replicas}"
            if args.kill_shard is not None:
                shard_note += f" kill-shard={args.kill_shard}"
            if args.degrade:
                shard_note += " degrade"
        print(
            f"chaos campaign: model={args.model} mpl={args.mpl} "
            f"P={args.update_probability:g} ops={args.operations} "
            f"seed={args.seed} fault budget={args.fault_events}{shard_note}"
        )
        print(render_chaos_table(results))
        print(
            "\n'recov ms' is simulated time charged to the fault.recovery "
            "phase; 'oracle' verifies every procedure's post-recovery answer "
            "against a fresh recompute."
        )

    def gate(results):
        bad = [
            r.strategy
            for r in results
            if not (r.oracle_ok and r.attribution_consistent)
        ]
        return (1, f"FAILED consistency: {bad}") if bad else (0, None)

    return _run_and_emit(
        args,
        execute,
        render,
        chaos_to_dict,
        artifacts=lambda results: _sweep_artifacts(results, observations),
        gate=gate,
    )


@_command(
    "--strategy --model -P --operations --seed --shards --replicas "
    "--batch-size --window-ms --chaos --mpl --fault-events --kill-shard "
    "--degrade --warn-invalidation-rate --critical-invalidation-rate "
    "--warn-lock-wait --critical-lock-wait --series-out --export --json "
    + _ARTIFACTS,
    operations=dict(default=200),
    fault_events=dict(default="25"),
)
def _cmd_monitor(args: argparse.Namespace) -> int:
    """replay a workload behind the telemetry bus: per-window shard
    health table, series log, OpenMetrics (exit 2 if a shard ends CRITICAL)"""
    from repro.obs.monitor import (
        monitor_to_dict,
        render_monitor_table,
        run_monitor,
    )
    from repro.obs.telemetry import (
        HealthThresholds,
        to_openmetrics,
        write_series_jsonl,
    )

    thresholds = HealthThresholds(
        warn_invalidation_rate=args.warn_invalidation_rate,
        critical_invalidation_rate=args.critical_invalidation_rate,
        warn_lock_wait=args.warn_lock_wait,
        critical_lock_wait=args.critical_lock_wait,
    )

    def execute():
        return run_monitor(
            args.strategy,
            _sim_params(args),
            window_ms=args.window_ms,
            chaos=args.chaos,
            mpl=args.mpl,
            fault_events=args.fault_events,
            kill_shard=args.kill_shard,
            thresholds=thresholds,
            **_driver_kwargs(args),
        )

    def outputs(report):
        if args.series_out:
            rows = write_series_jsonl(args.series_out, report.bus, report.health)
            print(f"wrote {rows} series records to {args.series_out}", file=sys.stderr)
        if args.export:
            text = to_openmetrics(report.bus, report.health)
            _write_text(args.export, text, "OpenMetrics export")

    def render(report, _wall):
        mode_note = "chaos" if args.chaos else "plain"
        print(
            f"monitor: strategy={args.strategy} mode={mode_note} "
            f"model={args.model} P={args.update_probability:g} "
            f"ops={args.operations} seed={args.seed} "
            f"shards={args.shards or 1} window={args.window_ms:g}ms"
        )
        print(render_monitor_table(report))

    def artifacts(report):
        observation = report.observation
        return dict(
            observation=observation,
            simulated_ms_total=report.clock_total_ms,
            phase_costs=observation.phase_costs(),
            counters=observation.registry.counter_values(),
            gauges=observation.registry.gauge_values(),
        )

    def gate(report):
        if not report.reconciliation_ok:
            return 1, "FAILED: windowed series do not reconcile with the cost pie"
        if report.health.any_critical:
            critical = [
                f"shard{shard}"
                for shard, state in sorted(report.health.final_states().items())
                if state == 2
            ]
            return 2, f"CRITICAL at end of run: {', '.join(critical)}"
        return 0, None

    return _run_and_emit(
        args, execute, render, monitor_to_dict, outputs, artifacts, gate
    )


@_command(
    "--strategy --model --requests --seed -P --shards --capacity --ttl-ms "
    "--mpl --rate --zipf-s --audit --stats-out --json",
    update_probability=dict(default=0.1),
    mpl=dict(default=None, help="admission MPL; beyond it requests get 429"),
)
def _cmd_serve(args: argparse.Namespace) -> int:
    """drive open-loop request load at the front-tier serving stack:
    result cache + admission control over one engine"""
    from repro.serve import run_serve_load

    def execute():
        return run_serve_load(
            _sim_params(args),
            args.strategy,
            num_requests=args.requests,
            capacity=args.capacity,
            ttl_ms=args.ttl_ms,
            max_inflight=args.mpl,
            rate_rps=args.rate,
            zipf_s=args.zipf_s,
            update_probability=args.update_probability,
            audit=args.audit,
            **_driver_kwargs(args),
        )

    def payload(result):
        return result.to_dict()

    def outputs(result):
        if args.stats_out:
            text = json.dumps(payload(result), indent=2, sort_keys=True)
            _write_text(args.stats_out, text + "\n", "serve stats")

    def render(result, _wall):
        cache = result.cache
        statuses = " ".join(
            f"{code}:{count}"
            for code, count in sorted(result.status_counts.items())
        )
        print(
            f"serve: strategy={args.strategy} requests={result.requests} "
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

    def gate(result):
        if result.cache["stale_reads"]:
            return 1, f"FAILED: {result.cache['stale_reads']:.0f} stale reads served"
        if result.failed_503:
            return 1, f"FAILED: {result.failed_503} requests hit engine faults (503)"
        return 0, None

    return _run_and_emit(args, execute, render, payload, outputs, gate=gate)


@_command("-o --no-simulation --operations", operations=dict(default=300))
def _cmd_report(args: argparse.Namespace) -> int:
    """regenerate everything into one markdown report"""
    from repro.experiments.summary import build_report

    report = build_report(
        include_simulation=not args.no_simulation,
        sim_operations=args.operations,
    )
    if args.output:
        _write_text(args.output, report)
        print(f"wrote reproduction report to {args.output}")
    else:
        print(report, end="")
    return 0 if "FAILED" not in report else 1


@_command("experiment -o")
def _cmd_export(args: argparse.Namespace) -> int:
    """export one experiment's data as CSV"""
    from repro.experiments.export import to_csv, write_csv

    result = run_experiment(args.experiment)
    if args.output:
        write_csv(result, args.output)
        print(f"wrote {args.experiment} data to {args.output}")
    else:
        print(to_csv(result), end="")
    return 0


@_command("-P -f --sharing-factor --model --uncertainty")
def _cmd_advise(args: argparse.Namespace) -> int:
    """recommend a strategy for a workload profile"""
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


@_command("-P --model --top", top=dict(default=15))
def _cmd_sensitivity(args: argparse.Namespace) -> int:
    """tornado analysis of the cost model"""
    from repro.model.sensitivity import analyze, render_tornado

    params = DEFAULT_PARAMS.with_update_probability(args.update_probability)
    results = analyze(params, model=args.model)
    print(
        f"tornado analysis around P={args.update_probability:g} "
        f"(model {args.model}); cost ratios for each parameter halved/doubled:"
    )
    print(render_tornado(results, top=args.top))
    return 0


@_command(
    "--strategy --model -P --operations --seed --buffer-capacity "
    "--batch-size --shards --top --json --attribution " + _ARTIFACTS
)
def _cmd_profile(args: argparse.Namespace) -> int:
    """run one strategy with cost attribution (per-phase profile)"""
    from repro.experiments.simcompare import (
        ATTRIBUTION_GROUPS,
        attribution_comparison,
        render_attribution,
    )
    from repro.obs.profile import profile_workload, render_profile

    strategy = args.strategy
    params = _sim_params(args)

    def execute():
        # A trace export needs every span; a profile only the recent ones.
        keep = None if (args.trace_out or args.span_log) else 1024
        return profile_workload(
            params, strategy, keep_events=keep, **_driver_kwargs(args)
        )

    def render(report, _wall):
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

    def artifacts(report):
        return dict(
            observation=report.observation,
            simulated_ms_total=report.total_ms,
            phase_costs=report.phase_costs,
            counters=report.observation.registry.counter_values(),
            metrics=report.run.metrics,
        )

    def gate(report):
        if report.is_consistent():
            return 0, None
        return 1, (
            f"attribution mismatch: phases sum to "
            f"{sum(report.phase_costs.values())!r}, clock charged "
            f"{report.total_ms!r}"
        )

    return _run_and_emit(
        args,
        execute,
        render,
        lambda report: report.to_dict(),
        artifacts=artifacts,
        gate=gate,
    )


@_command(
    "--strategy --shards --procedures --p2 --model -P --operations --seed "
    "--batch-size --json --report-out",
    strategy=dict(default="update_cache_rvm"),
    shards=dict(_INT_SWEEP, default="1,8"),
    operations=dict(default=60),
)
def _cmd_shard(args: argparse.Namespace) -> int:
    """sharded-engine sizing sweep: bytes per relation/shard/procedure,
    Rete sharing, router fan-out"""
    from repro.shard import measure_sizing, render_sizing, scale_params

    strategy = args.strategy
    if args.procedures is not None:
        params = scale_params(args.procedures, num_p2=args.p2)
    else:
        params = _sim_params(args)

    def execute():
        reports = []
        for num_shards in args.shards:
            run = run_workload(
                params,
                strategy,
                warm_caches=False,
                keep_manager=True,
                **{**_driver_kwargs(args), "shards": num_shards},
            )
            sizing = measure_sizing(run.database, run.manager.strategy, seed=args.seed)
            payload = sizing.to_dict()
            payload["maint_ms_per_update"] = run.maintenance_cost_ms / max(
                1, run.num_updates
            )
            payload["cost_per_access_ms"] = run.cost_per_access_ms
            payload["operations"] = args.operations
            payload["seed"] = args.seed
            reports.append((sizing, payload))
        return reports

    def sweep(reports):
        return {
            "kind": "shard_sizing_sweep",
            "strategy": strategy,
            "model": args.model,
            "shard_counts": args.shards,
            "reports": [payload for _sizing, payload in reports],
        }

    def outputs(reports):
        if args.report_out:
            text = json.dumps(sweep(reports), indent=2, sort_keys=True)
            _write_text(args.report_out, text, "sizing report")

    def render(reports, wall):
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

    return _run_and_emit(args, execute, render, sweep, outputs)


@_command("--model -P --operations --seed")
def _cmd_compare(args: argparse.Namespace) -> int:
    """simulator vs analytical model, all strategies"""
    params = _sim_params(args)
    points = sim_model_comparison(params, **_driver_kwargs(args))
    print(
        f"simulator vs analytical model "
        f"(model {args.model}, P={args.update_probability:g}, "
        f"N={params.n_tuples}, ops={args.operations})"
    )
    print(render_comparison(points))
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a rejected value raises ``ValueError`` so
    ``main()`` reports it like every other usage error (``error:`` line,
    exit 2) instead of argparse's usage dump + ``SystemExit``."""

    def error(self, message: str):
        if message.startswith("argument "):
            # "argument --flag: reason" -> "--flag reason"
            message = message[len("argument ") :].replace(": ", " ", 1)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-procs",
        description=(
            "Reproduction of Hanson, 'Processing Queries Against Database "
            "Procedures: A Performance Analysis' (SIGMOD 1988)."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )
    vocabulary = {name: key for key in _FLAGS for name in key.split()}
    for name, body, flags, own in _COMMANDS:
        command = sub.add_parser(name, help=" ".join(body.__doc__.split()))
        for flag in flags:
            key = vocabulary[flag]
            kwargs = {**_FLAGS[key], **own.get(_dest(key), {})}
            command.add_argument(*key.split(), **kwargs)
        command.set_defaults(func=body)
    parser.epilog = "subcommands: " + ", ".join(sorted(sub.choices))
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        _check_cross_flags(args)
        # Every requested output's directory exists (or fails) before
        # anything is simulated or printed.
        for key, kwargs in _FLAGS.items():
            path = getattr(args, _dest(key), None)
            if kwargs.get("metavar") == "PATH" and path:
                ensure_parent_dir(path)
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Invalid usage, whether a flag's validator, a cross-flag rule or
        # a driver raised it (``build_stack``'s shard/replica rules) —
        # one protocol for all.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
