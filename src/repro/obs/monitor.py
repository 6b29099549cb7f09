"""The live monitor: replay a workload, stream it, render shard health.

Backs the ``repro-procs monitor`` CLI subcommand. One call to
:func:`run_monitor` builds a :class:`~repro.obs.CostAttribution` and a
:class:`~repro.obs.telemetry.TelemetryBus`, replays a workload through
either the plain runner (:func:`repro.workload.runner.run_workload`) or
the chaos harness (:func:`repro.faults.chaos.run_chaos` — multi-client,
fault-injected, optionally with a scheduled shard kill), evaluates
per-shard health over the windowed series, and checks that the summed
phase series reconcile exactly with the attribution cost pie.

Everything here is deterministic under a fixed seed: the rendered
table, the JSON report, the JSONL series log, and the OpenMetrics
export are all byte-identical across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.params import ModelParams
from repro.obs.attribution import CostAttribution
from repro.obs.flight import SCHEMA_VERSION
from repro.obs.telemetry import (
    STATE_NAMES,
    HealthEvaluator,
    HealthReport,
    HealthThresholds,
    TelemetryBus,
    reconciles,
)


@dataclass
class MonitorReport:
    """One monitored run: the bus, the health walk, and the books."""

    strategy: str
    mode: str
    seed: int
    num_shards: int
    bus: TelemetryBus
    health: HealthReport
    observation: CostAttribution
    clock_total_ms: float
    #: Summed windowed phase series == attribution cost pie (the
    #: telemetry analogue of the flight recorder's exactness check).
    reconciliation_ok: bool
    result_summary: dict

    @property
    def ok(self) -> bool:
        return self.reconciliation_ok and not self.health.any_critical


def run_monitor(
    strategy_name: str,
    params: ModelParams,
    model: int = 1,
    num_operations: int = 200,
    seed: int = 0,
    shards: Optional[int] = None,
    replicas: int = 0,
    batch_size: Optional[int] = None,
    window_ms: float = 100.0,
    chaos: bool = False,
    mpl: int = 1,
    fault_events: int = 25,
    kill_shard: Optional[int] = None,
    degrade: bool = False,
    thresholds: HealthThresholds | None = None,
) -> MonitorReport:
    """Replay one workload with the telemetry bus wired in.

    ``chaos=False`` replays the plain single-client stream;
    ``chaos=True`` runs the multi-client fault campaign (``mpl``,
    ``fault_events``, optional ``kill_shard`` scheduling one fail-stop
    of that shard, ``degrade`` attaching the overload ladder — the same
    knobs as ``repro-procs chaos``).
    """
    bus = TelemetryBus(window_ms=window_ms)
    observation = CostAttribution()
    if chaos:
        from repro.faults.chaos import run_chaos
        from repro.faults.injector import FaultPlan

        plan = FaultPlan.seeded(seed, max_faults=fault_events)
        if kill_shard is not None:
            plan = plan.with_shard_kill(kill_shard)
        result = run_chaos(
            params,
            strategy_name,
            plan=plan,
            mpl=mpl,
            model=model,
            num_operations=num_operations,
            seed=seed,
            observation=observation,
            shards=shards,
            replicas=replicas,
            degrade=degrade,
            telemetry=bus,
        )
        clock_total_ms = result.clock_total_ms
        summary = result.to_dict()
        mode = "chaos"
    else:
        from repro.workload.runner import run_workload

        result = run_workload(
            params,
            strategy_name,
            model=model,
            num_operations=num_operations,
            seed=seed,
            observation=observation,
            batch_size=batch_size,
            shards=shards,
            replicas=replicas,
            telemetry=bus,
        )
        clock_total_ms = result.clock_total_ms
        summary = {
            "num_accesses": result.num_accesses,
            "num_updates": result.num_updates,
            "cost_per_access_ms": result.cost_per_access_ms,
            "clock_total_ms": result.clock_total_ms,
        }
        mode = "plain"
    health = HealthEvaluator(thresholds).evaluate(bus)
    return MonitorReport(
        strategy=strategy_name,
        mode=mode,
        seed=seed,
        num_shards=bus.num_shards,
        bus=bus,
        health=health,
        observation=observation,
        clock_total_ms=clock_total_ms,
        reconciliation_ok=reconciles(bus, observation.phase_costs()),
        result_summary=summary,
    )


def render_monitor_table(report: MonitorReport) -> str:
    """The per-window, per-shard health table, consecutive identical
    window rows run-length compressed so long quiet stretches stay one
    line."""
    health = report.health
    bus = report.bus
    shard_ids = list(range(health.num_shards))
    header = f"{'window':>12s}  {'t [ms]':>14s}  " + "  ".join(
        f"{f'shard{s}':>8s}" for s in shard_ids
    )
    lines = [header, "-" * len(header)]

    def row_states(window: int) -> tuple[str, ...]:
        return tuple(
            STATE_NAMES[health.timeline.get(shard, [])[window]]
            if window < len(health.timeline.get(shard, []))
            else STATE_NAMES[0]
            for shard in shard_ids
        )

    def emit(first: int, last: int, states: tuple[str, ...]) -> None:
        span = (
            f"{first}" if first == last else f"{first}-{last}"
        )
        t0 = first * bus.window_ms
        t1 = (last + 1) * bus.window_ms
        lines.append(
            f"{span:>12s}  {f'{t0:.0f}..{t1:.0f}':>14s}  "
            + "  ".join(f"{state:>8s}" for state in states)
        )

    run_start: Optional[int] = None
    run_states: tuple[str, ...] = ()
    for window in range(health.num_windows):
        states = row_states(window)
        if run_start is None:
            run_start, run_states = window, states
        elif states != run_states:
            emit(run_start, window - 1, run_states)
            run_start, run_states = window, states
    if run_start is not None:
        emit(run_start, health.num_windows - 1, run_states)

    finals = " ".join(
        f"shard{shard}={STATE_NAMES[state]}"
        for shard, state in sorted(health.final_states().items())
    )
    lines.append("")
    lines.append(
        f"final: {finals}  "
        f"(windows={health.num_windows} window_ms={bus.window_ms:g} "
        f"series={len(bus.series)} samples={bus.samples_received})"
    )
    lines.append(
        "series<->cost-pie reconciliation: "
        + ("OK" if report.reconciliation_ok else "FAILED")
    )
    if health.transitions:
        lines.append("")
        lines.append("transitions:")
        for t in health.transitions:
            lines.append(
                f"  t={t.start_ms:>10.0f}ms shard{t.shard} "
                f"{STATE_NAMES[t.from_state]} -> "
                f"{STATE_NAMES[t.to_state]} ({t.reason})"
            )
    return "\n".join(lines)


def monitor_to_dict(report: MonitorReport) -> dict:
    """JSON-ready export (what ``repro-procs monitor --json`` emits)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "monitor_report",
        "strategy": report.strategy,
        "mode": report.mode,
        "seed": report.seed,
        "num_shards": report.num_shards,
        "window_ms": report.bus.window_ms,
        "num_windows": report.health.num_windows,
        "num_series": len(report.bus.series),
        "samples": report.bus.samples_received,
        "clock_total_ms": report.clock_total_ms,
        "reconciliation_ok": report.reconciliation_ok,
        "health": report.health.to_json(),
        "result": report.result_summary,
    }
