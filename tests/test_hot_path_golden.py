"""Golden digests of the hot path's simulated output.

The cost model charges three counts — ``C1`` per screen, ``C2`` per page
I/O, ``C3`` per delta tuple — and every inner loop that charges them is
vectorised (struct-of-arrays batches and compiled predicates). This file
pins what those loops produce, one SHA-256 per cell of the matrix below
(SIM scale, P=0.6, 60 operations):

- each strategy × seeds {0, 1, 2}: the access log, the simulated clock
  total, the access/maintenance/base-update cost and the access/update
  counts;
- each strategy under ``CostAttribution``: the per-phase and
  per-procedure cost pie;
- each strategy × batch sizes {1, 3}: the batched-update pipeline's
  access log, clock total and maintenance cost;
- Cache and Invalidate under schemes {None, ``wal``}: the validity map,
  the invalidation and false-invalidation counts and the access log.

The fixture was written once by ``--regen`` (below) on the commit that
still carried a dict-walking twin of every vectorised loop, and there
each digest was checked equal on both paths; it is never regenerated to
make a change pass. Batched charging is float-exact because the cost
constants are integer-valued milliseconds, so even the totals may not
drift by an ulp.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.obs import CostAttribution
from repro.workload.runner import run_workload

STRATEGIES = (
    "always_recompute",
    "cache_invalidate",
    "update_cache_avm",
    "update_cache_rvm",
    "hybrid",
)

SEEDS = (0, 1, 2)
BATCH_SIZES = (1, 3)
SCHEMES = (None, "wal")

_PARAMS = SIM_SCALE_PARAMS.with_update_probability(0.6)
_OPERATIONS = 60

_GOLDEN_PATH = pathlib.Path(__file__).parent / "fixtures" / "hot_path_golden.json"


def _run(strategy, seed, observe=False, batch_size=None, scheme=None):
    return run_workload(
        _PARAMS,
        strategy,
        num_operations=_OPERATIONS,
        seed=seed,
        invalidation_scheme=scheme,
        observation=CostAttribution() if observe else None,
        batch_size=batch_size,
        record_accesses=True,
        keep_manager=True,
    )


def _sha(*parts) -> str:
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_digest(result) -> str:
    return _sha(
        result.access_log,
        result.clock_total_ms,
        result.access_cost_ms,
        result.maintenance_cost_ms,
        result.base_update_cost_ms,
        result.num_accesses,
        result.num_updates,
    )


def _pie_digest(result) -> str:
    return _sha(result.phase_costs, result.procedure_costs)


def _batch_digest(result) -> str:
    return _sha(
        result.access_log, result.clock_total_ms, result.maintenance_cost_ms
    )


def _ci_state_digest(result) -> str:
    strategy = result.manager.strategy
    return _sha(
        strategy._valid,
        strategy.invalidation_count,
        strategy.false_invalidation_count,
        result.access_log,
    )


def _cells():
    for strategy in STRATEGIES:
        for seed in SEEDS:
            yield f"run/{strategy}/seed{seed}", _run_digest, {
                "strategy": strategy,
                "seed": seed,
            }
    for strategy in STRATEGIES:
        yield f"pie/{strategy}", _pie_digest, {
            "strategy": strategy,
            "seed": 0,
            "observe": True,
        }
    for strategy in STRATEGIES:
        for batch_size in BATCH_SIZES:
            yield f"batch/{strategy}/b{batch_size}", _batch_digest, {
                "strategy": strategy,
                "seed": 1,
                "batch_size": batch_size,
            }
    for scheme in SCHEMES:
        yield f"ci_state/{scheme}", _ci_state_digest, {
            "strategy": "cache_invalidate",
            "seed": 2,
            "scheme": scheme,
        }


_CELLS = {cell: (digest, kwargs) for cell, digest, kwargs in _cells()}


def _cell_digest(cell: str) -> str:
    digest, kwargs = _CELLS[cell]
    return digest(_run(**kwargs))


def _compute_golden() -> dict:
    return {cell: _cell_digest(cell) for cell in _CELLS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(_GOLDEN_PATH.read_text())


def _check(cell: str, golden: dict) -> None:
    assert _cell_digest(cell) == golden[cell]


def test_golden_names_every_cell(golden):
    assert sorted(golden) == sorted(_CELLS)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_run_matches_golden(strategy, seed, golden):
    """Same access rows in the same order, same simulated clock, same
    cost buckets."""
    _check(f"run/{strategy}/seed{seed}", golden)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cost_pie_matches_golden(strategy, golden):
    """Under cost attribution, vectorised work lands in the same spans."""
    _check(f"pie/{strategy}", golden)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batched_pipeline_matches_golden(strategy, batch_size, golden):
    """Group invalidation and netted token waves reproduce too."""
    _check(f"batch/{strategy}/b{batch_size}", golden)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ci_invalidation_state_matches_golden(scheme, golden):
    """Which caches are valid and how many invalidations fired — the
    i-lock probe flags the same procedures in the same sweep."""
    _check(f"ci_state/{scheme}", golden)


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_hot_path_golden --regen
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.test_hot_path_golden --regen")
    _GOLDEN_PATH.parent.mkdir(exist_ok=True)
    _GOLDEN_PATH.write_text(
        json.dumps(_compute_golden(), indent=1, sort_keys=True) + "\n"
    )
