"""Shared fixtures: a clock/disk/buffer/catalog stack and small databases."""

from __future__ import annotations

import random

import pytest

from repro.model import ModelParams
from repro.sim import CostClock, CostParams
from repro.storage import BufferPool, Catalog, DiskManager, Field, Schema


@pytest.fixture(scope="session")
def bench_snapshot() -> dict:
    """The session's one shared execution of the pinned bench suite
    (deterministic, and it simulates real work). Treat it as read-only;
    ``tests/test_ledger.py`` deliberately runs the suite a second time
    to prove the determinism that sharing relies on."""
    from repro.obs.ledger import run_bench_suite

    return run_bench_suite(operations=60, seed=7)


@pytest.fixture
def clock() -> CostClock:
    return CostClock(CostParams(c1=1.0, c2=30.0, c3=1.0))


@pytest.fixture
def disk(clock: CostClock) -> DiskManager:
    return DiskManager(clock, block_bytes=4000)


@pytest.fixture
def buffer(disk: DiskManager) -> BufferPool:
    return BufferPool(disk, capacity=0)


@pytest.fixture
def catalog(buffer: BufferPool) -> Catalog:
    return Catalog(buffer)


@pytest.fixture
def r1_schema() -> Schema:
    return Schema([Field("id1"), Field("sel"), Field("a")], tuple_bytes=100)


@pytest.fixture
def r2_schema() -> Schema:
    return Schema(
        [Field("id2"), Field("b"), Field("sel2"), Field("c")], tuple_bytes=100
    )


@pytest.fixture
def r3_schema() -> Schema:
    return Schema([Field("id3"), Field("d"), Field("pay")], tuple_bytes=100)


@pytest.fixture
def tiny_joined_catalog(catalog, r1_schema, r2_schema, r3_schema):
    """R1 (300 rows, B-tree on sel), R2 (60, hash on b), R3 (30, hash on d)
    with FK chains R1.a -> R2.b and R2.c -> R3.d."""
    rng = random.Random(5)
    r3 = catalog.create_relation("R3", r3_schema)
    for m in range(30):
        r3.insert((m, m, rng.randrange(100)))
    r3.create_hash_index("d")
    r2 = catalog.create_relation("R2", r2_schema)
    for j in range(60):
        r2.insert((j, j, rng.randrange(60), rng.randrange(30)))
    r2.create_hash_index("b")
    r1 = catalog.create_relation("R1", r1_schema)
    sels = sorted(rng.randrange(1000) for _ in range(300))
    for i, sel in enumerate(sels):
        r1.insert((i, sel, rng.randrange(60)))
    r1.create_btree_index("sel", fanout=16)
    return catalog


def small_params(**overrides) -> ModelParams:
    """Simulation-scale parameters for strategy tests."""
    base = dict(
        n_tuples=2000,
        num_p1=8,
        num_p2=8,
        selectivity_f=0.01,
        selectivity_f2=0.2,
        tuples_per_update=5,
        num_updates=100,
        num_queries=100,
    )
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture
def sim_params() -> ModelParams:
    return small_params()
