"""Load generation for the serving tier, in two modes.

- :func:`run_serve_load` — the **open-loop wall-clock driver**: a seeded
  Zipf-skewed request plan fired at the asyncio app (optionally at a
  target arrival rate, arrivals independent of completions), reporting
  real throughput and latency percentiles alongside the simulated-clock
  totals. This feeds the ``serve`` CLI and the wall-clock bench lane.
- :func:`run_served_workload` — the **differential replay**: the exact
  operation stream :func:`repro.workload.runner.run_workload` would
  execute (same database build, warm-up, rng streams, and generator),
  served through the front-tier cache (or not), recording every access's
  ``(procedure, rows)``. Cache-on and cache-off replays of the same seed
  must produce identical logs — the headline correctness harness.

The replay is deliberately synchronous: determinism needs no event loop,
and the app's handlers execute engine work in arrival order anyway.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core import ProcedureManager
from repro.serve.app import ProcedureApp
from repro.serve.cache import ResultCache, canonical_rows
from repro.workload.generator import OperationKind, generate_operations
from repro.workload.runner import build_stack, perform_update

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.params import ModelParams
    from repro.obs.registry import MetricsRegistry
    from repro.obs.telemetry import TelemetryBus


def build_serving_stack(
    params: "ModelParams",
    strategy_name: str,
    model: int = 1,
    seed: int = 0,
    shards: Optional[int] = None,
    capacity: int = 256,
    ttl_ms: Optional[float] = None,
    max_inflight: Optional[int] = None,
    audit: bool = False,
    warm_caches: bool = True,
    invalidation_scheme: Optional[str] = None,
    registry: "MetricsRegistry | None" = None,
    telemetry: "TelemetryBus | None" = None,
) -> ProcedureApp:
    """Build database + engine + front-tier cache + app from one seed,
    with the same construction conventions as ``run_workload`` (identical
    initial universe for a given ``(params, model, seed)``)."""
    db, _pop, _strategy, manager = build_stack(
        params, strategy_name, model=model, seed=seed, shards=shards,
        invalidation_scheme=invalidation_scheme, warm_caches=warm_caches,
    )
    cache = ResultCache(
        db.clock,
        catalog=db.catalog,
        capacity=capacity,
        ttl_ms=ttl_ms,
        registry=registry,
        telemetry=telemetry,
        audit=audit,
    )
    return ProcedureApp(
        manager, db, cache, max_inflight=max_inflight, seed=seed
    )


# -- open-loop wall-clock driver ------------------------------------------


def plan_requests(
    names: list[str],
    num_requests: int,
    seed: int = 0,
    update_probability: float = 0.1,
    zipf_s: float = 1.1,
    tuples_per_update: int = 10,
) -> list[tuple[str, str, Optional[dict]]]:
    """A seeded request plan: Zipf-skewed reads (rank order shuffled by
    the seed, weight ``1/rank^s``) mixed with update transactions."""
    rng = random.Random(seed + 29)
    ranked = list(names)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(ranked))]
    plan: list[tuple[str, str, Optional[dict]]] = []
    for _ in range(num_requests):
        if rng.random() < update_probability:
            plan.append(
                (
                    "POST",
                    "/updates",
                    {"relation": "R1", "tuples": tuples_per_update},
                )
            )
        else:
            name = rng.choices(ranked, weights=weights)[0]
            plan.append(("GET", f"/procedures/{name}", None))
    return plan


@dataclass
class ServeLoadResult:
    """One open-loop run against the serving app."""

    strategy: str
    seed: int
    requests: int
    status_counts: dict[int, int]
    cache: dict[str, float]
    admission: Optional[dict]
    rejected_429: int
    failed_503: int
    clock_total_ms: float
    wall_s: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p99_ms: float

    @property
    def hit_rate(self) -> float:
        return float(self.cache.get("hit_rate", 0.0))

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "requests": self.requests,
            "status_counts": {
                str(code): count
                for code, count in sorted(self.status_counts.items())
            },
            "cache": self.cache,
            "admission": self.admission,
            "rejected_429": self.rejected_429,
            "failed_503": self.failed_503,
            "clock_total_ms": self.clock_total_ms,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
        }


def _percentile(ascending: list[float], q: float) -> float:
    if not ascending:
        return 0.0
    index = min(len(ascending) - 1, round(q * (len(ascending) - 1)))
    return ascending[index]


async def _drive(
    app: ProcedureApp,
    plan: list[tuple[str, str, Optional[dict]]],
    rate_rps: Optional[float],
) -> list[float]:
    latencies: list[float] = []

    async def one(method: str, path: str, body: Optional[dict]) -> None:
        start = time.perf_counter()
        await app.handle(method, path, body)
        latencies.append((time.perf_counter() - start) * 1000.0)

    if rate_rps is None:
        # Burst mode: everything arrives at t=0.
        await asyncio.gather(*(one(*request) for request in plan))
        return latencies
    loop = asyncio.get_running_loop()
    origin = loop.time()
    tasks = []
    for index, request in enumerate(plan):
        delay = origin + index / rate_rps - loop.time()
        if delay > 0:
            # Open loop: the next arrival never waits on completions.
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(*request)))
    await asyncio.gather(*tasks)
    return latencies


def run_serve_load(
    params: "ModelParams",
    strategy_name: str,
    model: int = 1,
    num_requests: int = 200,
    seed: int = 0,
    shards: Optional[int] = None,
    capacity: int = 256,
    ttl_ms: Optional[float] = None,
    max_inflight: Optional[int] = None,
    rate_rps: Optional[float] = None,
    zipf_s: float = 1.1,
    update_probability: Optional[float] = None,
    audit: bool = False,
    registry: "MetricsRegistry | None" = None,
    telemetry: "TelemetryBus | None" = None,
) -> ServeLoadResult:
    """Drive an open-loop request plan at a fresh serving stack."""
    app = build_serving_stack(
        params,
        strategy_name,
        model=model,
        seed=seed,
        shards=shards,
        capacity=capacity,
        ttl_ms=ttl_ms,
        max_inflight=max_inflight,
        audit=audit,
        registry=registry,
        telemetry=telemetry,
    )
    if update_probability is None:
        update_probability = params.update_probability
    plan = plan_requests(
        sorted(app.manager.strategy.procedures),
        num_requests,
        seed=seed,
        update_probability=update_probability,
        zipf_s=zipf_s,
        tuples_per_update=int(params.tuples_per_update),
    )
    clock_start = app.manager.clock.elapsed_ms
    wall_start = time.perf_counter()
    latencies = asyncio.run(_drive(app, plan, rate_rps))
    wall_s = time.perf_counter() - wall_start
    latencies.sort()
    return ServeLoadResult(
        strategy=strategy_name,
        seed=seed,
        requests=len(plan),
        status_counts=dict(sorted(app.status_counts.items())),
        cache=app.cache.stats(),
        admission=app.gate.stats() if app.gate is not None else None,
        rejected_429=app.rejected_429,
        failed_503=app.failed_503,
        clock_total_ms=app.manager.clock.elapsed_ms - clock_start,
        wall_s=wall_s,
        throughput_rps=len(plan) / wall_s if wall_s > 0 else 0.0,
        latency_p50_ms=_percentile(latencies, 0.50),
        latency_p99_ms=_percentile(latencies, 0.99),
    )


# -- differential replay ---------------------------------------------------


@dataclass
class ServedRunResult:
    """One synchronous replay of the runner's stream through the tier."""

    strategy: str
    seed: int
    shards: Optional[int]
    cached: bool
    access_log: list[tuple[str, tuple]] = field(default_factory=list)
    cache: Optional[ResultCache] = None
    manager: Optional[ProcedureManager] = None
    clock_total_ms: float = 0.0


def run_served_workload(
    params: "ModelParams",
    strategy_name: str,
    model: int = 1,
    num_operations: int = 120,
    seed: int = 0,
    shards: Optional[int] = None,
    cached: bool = True,
    capacity: int = 256,
    ttl_ms: Optional[float] = None,
    audit: bool = False,
    invalidation_scheme: Optional[str] = None,
) -> ServedRunResult:
    """Replay ``run_workload``'s exact operation stream through the
    front tier. With ``cached=False`` every access recomputes through
    the engine; with ``cached=True`` reads go through the result cache.
    Same seed → same stream → the two access logs must be identical.
    """
    db, pop, strategy, manager = build_stack(
        params, strategy_name, model=model, seed=seed, shards=shards,
        invalidation_scheme=invalidation_scheme,
    )

    cache: Optional[ResultCache] = None
    if cached:
        cache = ResultCache(
            db.clock,
            catalog=db.catalog,
            capacity=capacity,
            ttl_ms=ttl_ms,
            audit=audit,
        )
        for procedure in strategy.procedures.values():
            cache.register(procedure)
        manager.update_listener = cache.on_update

    rng = random.Random(seed + 3)  # the runner's update rng stream
    access_log: list[tuple[str, tuple]] = []
    measure_start = db.clock.snapshot()
    operations = generate_operations(params, pop.names, num_operations, seed=seed)
    for op in operations:
        if op.kind is OperationKind.UPDATE:
            perform_update(
                db, manager, rng, op.tuples_to_modify, relation=op.relation
            )
            continue
        name = op.procedure
        if cache is not None:
            rows, _ = cache.get_or_compute(
                name, lambda: canonical_rows(manager.access(name).rows)
            )
        else:
            rows = canonical_rows(manager.access(name).rows)
        access_log.append((name, tuple(rows)))
    return ServedRunResult(
        strategy=strategy_name,
        seed=seed,
        shards=shards,
        cached=cached,
        access_log=access_log,
        cache=cache,
        manager=manager,
        clock_total_ms=db.clock.elapsed_since(measure_start),
    )
