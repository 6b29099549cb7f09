"""Seed-determinism regression: same seed → byte-identical serial runs.

Every paired comparison in the repo (strategy A vs strategy B at one
parameter point) leans on the runner being a pure function of
``(params, strategy, seed)``. This pins that property for every
strategy, including the hybrid router.
"""

import pytest

from repro.model.params import ModelParams
from repro.workload.runner import run_workload

PARAMS = ModelParams(
    n_tuples=1200,
    num_p1=5,
    num_p2=5,
    selectivity_f=0.01,
    selectivity_f2=0.1,
    tuples_per_update=5,
)

STRATEGIES = (
    "always_recompute",
    "cache_invalidate",
    "update_cache_avm",
    "update_cache_rvm",
    "hybrid",
)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_same_seed_is_byte_identical(strategy):
    a = run_workload(PARAMS, strategy, model=1, num_operations=70, seed=9)
    b = run_workload(PARAMS, strategy, model=1, num_operations=70, seed=9)
    assert a.cost_per_access_ms == b.cost_per_access_ms
    assert a.access_cost_ms == b.access_cost_ms
    assert a.maintenance_cost_ms == b.maintenance_cost_ms
    assert a.base_update_cost_ms == b.base_update_cost_ms
    assert a.clock_total_ms == b.clock_total_ms
    assert a.num_accesses == b.num_accesses
    assert a.num_updates == b.num_updates
    assert a.space_pages == b.space_pages
    assert a.metrics.as_means() == b.metrics.as_means()
    for name in a.metrics.names():
        assert a.metrics.percentile(name, 95) == b.metrics.percentile(name, 95)


def test_different_seeds_differ():
    a = run_workload(PARAMS, "cache_invalidate", num_operations=70, seed=9)
    b = run_workload(PARAMS, "cache_invalidate", num_operations=70, seed=10)
    assert a.clock_total_ms != b.clock_total_ms


@pytest.mark.parametrize("strategy", ("cache_invalidate", "hybrid"))
def test_chaos_runs_are_seed_deterministic(strategy):
    """Same seed + same FaultPlan => identical fault firings, identical
    metrics, identical final database state (digest included)."""
    from repro.faults.chaos import run_chaos
    from repro.faults.injector import FaultPlan

    plan = FaultPlan.seeded(9, max_faults=40, scale=3.0)
    a = run_chaos(PARAMS, strategy, plan=plan, mpl=2, num_operations=40, seed=9)
    b = run_chaos(PARAMS, strategy, plan=plan, mpl=2, num_operations=40, seed=9)
    assert a.to_dict() == b.to_dict()
    assert a.fault_counts == b.fault_counts
    assert a.database_digest == b.database_digest
    assert a.clock_total_ms == b.clock_total_ms


_WAL_RECORDS = """
import json
from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.workload.runner import run_workload

logs = []
for batch_size in (None, 3):
    result = run_workload(
        SIM_SCALE_PARAMS.with_update_probability(0.6), "cache_invalidate",
        num_operations=60, seed=1, invalidation_scheme="wal",
        batch_size=batch_size, keep_manager=True,
    )
    wal = result.manager.strategy.scheme.wal
    logs.append([
        (record.lsn, record.kind.name, repr(record.payload))
        for record in (*wal._records, *wal._tail)
    ])
print(json.dumps(logs))
"""


def test_wal_record_order_ignores_string_hashing():
    """CI records its invalidations in one order whatever
    ``PYTHONHASHSEED`` is, unbatched and at batch size 3: the names a
    probe breaks come back as a set, and iterating that set would make
    the WAL follow string hashing."""
    import json
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    logs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", _WAL_RECORDS],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        logs.append(json.loads(out))
    unbatched, batched = logs[0]
    assert unbatched and batched
    assert logs[0] == logs[1]
