"""Gates on the define path: one compile per distinct query, no cold RNG.

The paper compiles a procedure's plan "in advance and stored with the
procedure", so definition is one-time work outside the cost model; in
wall time it is most of what a 10^5-procedure set-up waits on. These
gates pin what definition produces and count what it allocates:

- **the population digest** — sha256 over the sorted procedure names of
  ``repr((name, plan, store.schema.fields, store.schema.tuple_bytes,
  store.tuples_per_page))`` under Cache and Invalidate, first 16 hex.
  Pinned on the commit that still compiled every procedure from scratch
  (10^4 here; 10^5 under ``-m slow``, 503 distinct plans either way).
- **a cold store builds no RNG** — after every define and no read, no
  ``MaterializedStore`` holds a ``random.Random``; one read fills one.
- **GC-tracked objects per define** — counted with the collector off, so
  the count is exact.
- **memo keys** — each definition memo is checked against a fresh,
  unmemoised compile (``normalize_spj`` plus a new ``Optimizer``) on the
  inputs a naively keyed memo would confuse: constants equal across
  types, an index created between two defines, statistics refreshed.
- **definition is cost-free on every counter**, not only in milliseconds.
"""

from __future__ import annotations

import gc
import hashlib
import random

import pytest

from repro.core import AlwaysRecompute, ProcedureManager
from repro.query import Interval, Optimizer, RelationRef, Select
from repro.query.analysis import normalize_spj
from repro.query.predicate import Comparison
from repro.shard.sizing import scale_params
from repro.sim import CostClock, CostParams
from repro.storage import BufferPool, DiskManager
from repro.storage.matstore import MaterializedStore
from repro.workload.database import build_database
from repro.workload.procedures import build_procedures
from repro.workload.runner import make_strategy

SEED = 7

#: Pinned while every define still compiled from scratch.
DIGEST_1E4 = "0f92828aa822c19b"
DIGEST_1E5 = "4df094439a3971fd"
DISTINCT_PLANS = 503

#: GC-tracked objects created per Cache and Invalidate define (23.0 when
#: every define built its own normal form, access path, schema and RNG).
MAX_OBJECTS_PER_DEFINE = 6


def _define_population(num_procedures: int):
    params = scale_params(num_procedures)
    db = build_database(params, seed=SEED)
    population = build_procedures(db, params, model=1, seed=SEED)
    strategy = make_strategy("cache_invalidate", db, params)
    manager = ProcedureManager(strategy)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for name, expression in population.definitions:
            manager.define_procedure(name, expression)
        created = len(gc.get_objects()) - before
    finally:
        gc.enable()
    return manager, created / len(population.definitions)


def _digest(strategy) -> str:
    digest = hashlib.sha256()
    for name in sorted(strategy.procedures):
        store = strategy._caches[name]
        entry = (
            name,
            strategy._plans[name],
            store.schema.fields,
            store.schema.tuple_bytes,
            store.tuples_per_page,
        )
        digest.update(repr(entry).encode())
    return digest.hexdigest()[:16]


def _stores_with_rng(strategy) -> int:
    return sum(
        any(isinstance(value, random.Random) for value in vars(store).values())
        for store in strategy._caches.values()
    )


@pytest.fixture(scope="module")
def defined_1e4():
    return _define_population(10_000)


class TestPopulationDigest:
    def test_digest_1e4_is_pinned(self, defined_1e4):
        manager, _ = defined_1e4
        assert _digest(manager.strategy) == DIGEST_1E4
        plans = {repr(plan) for plan in manager.strategy._plans.values()}
        assert len(plans) == DISTINCT_PLANS

    @pytest.mark.slow
    def test_digest_1e5_is_pinned(self):
        manager, _ = _define_population(100_000)
        assert _digest(manager.strategy) == DIGEST_1E5


class TestColdDefinition:
    def test_objects_per_define(self, defined_1e4):
        _, per_define = defined_1e4
        assert per_define <= MAX_OBJECTS_PER_DEFINE, per_define

    def test_cold_stores_hold_no_rng(self, defined_1e4):
        manager, _ = defined_1e4
        assert all(
            isinstance(store, MaterializedStore)
            for store in manager.strategy._caches.values()
        )
        assert _stores_with_rng(manager.strategy) == 0

    def test_one_read_builds_one_rng(self):
        # Its own population: the read mutates the stack.
        manager, _ = _define_population(200)
        name = manager.procedure_names[0]
        assert manager.access(name).rows
        assert _stores_with_rng(manager.strategy) == 1


# -- memo keys against a fresh compile ----------------------------------------


def _fresh_plan(expression, catalog) -> str:
    query = normalize_spj(expression, catalog)
    return repr(Optimizer(catalog).compile_normalized(query))


class TestMemoKeys:
    def test_constants_equal_across_types_keep_their_plans(
        self, tiny_joined_catalog, buffer, clock
    ):
        manager = ProcedureManager(AlwaysRecompute(tiny_joined_catalog, buffer, clock))
        constants = (1, 1.0, True)
        for i, constant in enumerate(constants):
            expression = Select(RelationRef("R1"), Comparison("sel", ">=", constant))
            manager.define_procedure(f"p{i}", expression)
        plans = [manager.strategy.plan_of(f"p{i}") for i in range(len(constants))]
        for constant, plan in zip(constants, plans):
            expression = Select(RelationRef("R1"), Comparison("sel", ">=", constant))
            assert repr(plan) == _fresh_plan(expression, tiny_joined_catalog)
        assert len({repr(plan) for plan in plans}) == len(constants)

    def test_index_created_between_defines(self, tiny_joined_catalog, buffer, clock):
        manager = ProcedureManager(AlwaysRecompute(tiny_joined_catalog, buffer, clock))
        expression = Select(RelationRef("R2"), Interval("sel2", 0, 2))
        manager.define_procedure("before", expression)
        tiny_joined_catalog.get("R2").create_btree_index("sel2", fanout=16)
        manager.define_procedure("after", expression)
        fresh = _fresh_plan(expression, tiny_joined_catalog)
        assert "BTreeScan" in fresh
        assert repr(manager.strategy.plan_of("after")) == fresh
        assert "SeqScan" in repr(manager.strategy.plan_of("before"))

    def test_refreshed_statistics_reprice(self, tiny_joined_catalog):
        optimizer = Optimizer(tiny_joined_catalog)
        expression = Select(RelationRef("R1"), Interval("sel", 0, 500))
        stale = repr(optimizer.compile(expression))
        r1 = tiny_joined_catalog.get("R1")
        for i in range(300, 600):
            r1.insert((i, 10_000 + i, 0))
        optimizer.estimator.refresh()
        fresh = _fresh_plan(expression, tiny_joined_catalog)
        assert fresh != stale
        assert repr(optimizer.compile(expression)) == fresh


# -- definition is cost-free on every counter ------------------------------------


class _ReadsWhileDefining(AlwaysRecompute):
    def _after_define(self, procedure) -> None:
        super()._after_define(procedure)
        self.clock.charge_read(3)


def test_definition_charging_a_counter_is_rejected(tiny_joined_catalog):
    # C2 = 0 ms (ModelParams(io_ms=0)): three reads cost 0 ms, so only
    # the read counter shows them.
    clock = CostClock(CostParams(c1=1.0, c2=0.0, c3=1.0))
    buffer = BufferPool(DiskManager(clock, block_bytes=4000), capacity=0)
    strategy = _ReadsWhileDefining(tiny_joined_catalog, buffer, clock)
    manager = ProcedureManager(strategy)
    with pytest.raises(RuntimeError, match="disk_reads"):
        manager.define_procedure("p", Select(RelationRef("R1"), Interval("sel", 0, 9)))
