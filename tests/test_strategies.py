"""Unit tests for the four query-processing strategies."""

import random

import pytest

from repro.core import (
    AlwaysRecompute,
    CacheAndInvalidate,
    ProcedureManager,
    UpdateCacheAVM,
    UpdateCacheRVM,
)
from repro.core.strategy import ProcedureStrategy, StrategyName
from repro.query import Interval, Join, RelationRef, Select
from repro.query.predicate import And

P1_EXPR = Select(RelationRef("R1"), Interval("sel", 100, 300))
P2_EXPR = Select(
    Join(RelationRef("R1"), RelationRef("R2"), "a", "b"),
    And(Interval("sel", 100, 300), Interval("sel2", 0, 30)),
)
P2_3WAY_EXPR = Select(
    Join(
        Join(RelationRef("R1"), RelationRef("R2"), "a", "b"),
        RelationRef("R3"),
        "c",
        "d",
    ),
    And(Interval("sel", 100, 300), Interval("sel2", 0, 30)),
)


def brute_p1(catalog, lo=100, hi=300):
    r1 = catalog.get("R1")
    return sorted(
        row for _r, row in r1.heap.scan_uncharged() if lo <= row[1] < hi
    )


def brute_p2(catalog, lo=100, hi=300, lo2=0, hi2=30, three_way=False):
    r2_by_b = {}
    for _r, row in catalog.get("R2").heap.scan_uncharged():
        r2_by_b.setdefault(row[1], []).append(row)
    r3_by_d = {}
    for _r, row in catalog.get("R3").heap.scan_uncharged():
        r3_by_d.setdefault(row[1], []).append(row)
    out = []
    for _r, row in catalog.get("R1").heap.scan_uncharged():
        if lo <= row[1] < hi:
            for r2row in r2_by_b.get(row[2], ()):
                if lo2 <= r2row[2] < hi2:
                    if three_way:
                        for r3row in r3_by_d.get(r2row[3], ()):
                            out.append(row + r2row + r3row)
                    else:
                        out.append(row + r2row)
    return sorted(out)


def apply_update(catalog, manager, rng, count=8):
    """One update transaction through the manager."""
    r1 = catalog.get("R1")
    rids = [rid for rid, _row in r1.heap.scan_uncharged()]
    changes = []
    for rid in rng.sample(rids, count):
        old = r1.heap.read(rid)
        changes.append((rid, (old[0], rng.randrange(1000), old[2])))
    manager.update("R1", changes)


def make(strategy_cls, catalog, clock, buffer, **kwargs):
    strategy = strategy_cls(catalog, buffer, clock, **kwargs)
    manager = ProcedureManager(strategy)
    manager.define_procedure("P1", P1_EXPR)
    manager.define_procedure("P2", P2_EXPR)
    return manager, strategy


class TestAlwaysRecompute:
    def test_access_matches_bruteforce(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        assert sorted(manager.access("P1").rows) == brute_p1(tiny_joined_catalog)
        assert sorted(manager.access("P2").rows) == brute_p2(tiny_joined_catalog)

    def test_every_access_pays_full_cost(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        first = manager.access("P1").cost_ms
        second = manager.access("P1").cost_ms
        assert first == second > 0

    def test_updates_are_free(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        rng = random.Random(0)
        apply_update(tiny_joined_catalog, manager, rng)
        assert manager.maintenance_cost_ms == 0.0

    def test_tracks_updates_implicitly(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        rng = random.Random(0)
        for _ in range(5):
            apply_update(tiny_joined_catalog, manager, rng)
        assert sorted(manager.access("P2").rows) == brute_p2(tiny_joined_catalog)

    def test_plan_is_precompiled_and_stable(
        self, tiny_joined_catalog, clock, buffer
    ):
        _, strategy = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        assert strategy.plan_of("P1") is strategy.plan_of("P1")


class TestCacheAndInvalidate:
    def test_first_access_fills_cache(self, tiny_joined_catalog, clock, buffer):
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer
        )
        assert not strategy.is_valid("P1")
        rows = manager.access("P1").rows
        assert sorted(rows) == brute_p1(tiny_joined_catalog)
        assert strategy.is_valid("P1")

    def test_valid_cache_read_is_cheaper(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(CacheAndInvalidate, tiny_joined_catalog, clock, buffer)
        fill = manager.access("P1").cost_ms
        hit = manager.access("P1").cost_ms
        assert hit < fill
        assert sorted(manager.access("P1").rows) == brute_p1(tiny_joined_catalog)

    def test_conflicting_update_invalidates(self, tiny_joined_catalog, clock, buffer):
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer
        )
        manager.access("P1")
        r1 = tiny_joined_catalog.get("R1")
        rid, old = next(iter(r1.heap.scan_uncharged()))
        manager.update("R1", [(rid, (old[0], 150, old[2]))])  # into [100,300)
        assert not strategy.is_valid("P1")
        assert strategy.invalidation_count >= 1

    def test_nonconflicting_update_keeps_cache(
        self, tiny_joined_catalog, clock, buffer
    ):
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer
        )
        manager.access("P1")
        r1 = tiny_joined_catalog.get("R1")
        rid, old = next(
            (rid, row)
            for rid, row in r1.heap.scan_uncharged()
            if not 100 <= row[1] < 300
        )
        manager.update("R1", [(rid, (old[0], 999, old[2]))])  # stays outside
        assert strategy.is_valid("P1")

    def test_access_after_invalidation_recomputes(
        self, tiny_joined_catalog, clock, buffer
    ):
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer
        )
        manager.access("P1")
        rng = random.Random(1)
        for _ in range(5):
            apply_update(tiny_joined_catalog, manager, rng)
        assert sorted(manager.access("P1").rows) == brute_p1(tiny_joined_catalog)
        assert strategy.is_valid("P1")

    def test_c_inval_charged_per_invalidation(
        self, tiny_joined_catalog, clock, buffer
    ):
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer, c_inval=60.0
        )
        manager.access("P1")
        r1 = tiny_joined_catalog.get("R1")
        rid, old = next(iter(r1.heap.scan_uncharged()))
        before = manager.maintenance_cost_ms
        manager.update("R1", [(rid, (old[0], 150, old[2]))])
        assert manager.maintenance_cost_ms - before == pytest.approx(60.0)

    def test_already_invalid_procedure_not_recharged(
        self, tiny_joined_catalog, clock, buffer
    ):
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer, c_inval=60.0
        )
        manager.access("P1")
        r1 = tiny_joined_catalog.get("R1")
        rid, old = next(iter(r1.heap.scan_uncharged()))
        manager.update("R1", [(rid, (old[0], 150, old[2]))])
        count_after_first = strategy.invalidation_count
        rid2, old2 = next(
            (r, row) for r, row in r1.heap.scan_uncharged() if r != rid
        )
        manager.update("R1", [(rid2, (old2[0], 151, old2[2]))])
        assert strategy.invalidation_count == count_after_first

    def test_false_invalidation_possible_for_p2(
        self, tiny_joined_catalog, clock, buffer
    ):
        """A sel change into C_f's interval invalidates P2 even when the
        joined row fails C_f2 — the paper's false invalidation."""
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer
        )
        before = sorted(manager.access("P2").rows)
        r1 = tiny_joined_catalog.get("R1")
        r2 = tiny_joined_catalog.get("R2")
        # Find an R1 tuple outside C_f joined to an R2 row failing C_f2.
        failing_bs = {
            row[1]
            for _r, row in r2.heap.scan_uncharged()
            if not 0 <= row[2] < 30
        }
        rid, old = next(
            (rid, row)
            for rid, row in r1.heap.scan_uncharged()
            if row[2] in failing_bs and not 100 <= row[1] < 300
        )
        manager.update("R1", [(rid, (old[0], 200, old[2]))])  # into C_f
        assert not strategy.is_valid("P2")  # invalidated...
        after = sorted(manager.access("P2").rows)
        assert after == before  # ...but the value never changed

    def test_negative_c_inval_rejected(self, tiny_joined_catalog, clock, buffer):
        with pytest.raises(ValueError):
            CacheAndInvalidate(tiny_joined_catalog, buffer, clock, c_inval=-1)

    def test_valid_fraction(self, tiny_joined_catalog, clock, buffer):
        manager, strategy = make(
            CacheAndInvalidate, tiny_joined_catalog, clock, buffer
        )
        assert strategy.valid_fraction() == 0.0
        manager.access("P1")
        assert strategy.valid_fraction() == pytest.approx(0.5)


@pytest.mark.parametrize("strategy_cls", [UpdateCacheAVM, UpdateCacheRVM])
class TestUpdateCacheVariants:
    def test_access_reads_materialised_value(
        self, strategy_cls, tiny_joined_catalog, clock, buffer
    ):
        manager, _ = make(strategy_cls, tiny_joined_catalog, clock, buffer)
        assert sorted(manager.access("P1").rows) == brute_p1(tiny_joined_catalog)
        assert sorted(manager.access("P2").rows) == brute_p2(tiny_joined_catalog)

    def test_value_stays_current_across_updates(
        self, strategy_cls, tiny_joined_catalog, clock, buffer
    ):
        manager, _ = make(strategy_cls, tiny_joined_catalog, clock, buffer)
        rng = random.Random(7)
        for _ in range(10):
            apply_update(tiny_joined_catalog, manager, rng)
        assert sorted(manager.access("P1").rows) == brute_p1(tiny_joined_catalog)
        assert sorted(manager.access("P2").rows) == brute_p2(tiny_joined_catalog)

    def test_maintenance_has_nonzero_cost(
        self, strategy_cls, tiny_joined_catalog, clock, buffer
    ):
        manager, _ = make(strategy_cls, tiny_joined_catalog, clock, buffer)
        rng = random.Random(7)
        for _ in range(5):
            apply_update(tiny_joined_catalog, manager, rng)
        assert manager.maintenance_cost_ms > 0

    def test_access_cost_is_small_and_stable(
        self, strategy_cls, tiny_joined_catalog, clock, buffer
    ):
        manager, _ = make(strategy_cls, tiny_joined_catalog, clock, buffer)
        first = manager.access("P1").cost_ms
        second = manager.access("P1").cost_ms
        assert first == second
        recompute = AlwaysRecompute(tiny_joined_catalog, buffer, clock)

    def test_three_way_join_supported(
        self, strategy_cls, tiny_joined_catalog, clock, buffer
    ):
        strategy = strategy_cls(tiny_joined_catalog, buffer, clock)
        manager = ProcedureManager(strategy)
        manager.define_procedure("P2x", P2_3WAY_EXPR)
        rng = random.Random(3)
        for _ in range(5):
            apply_update(tiny_joined_catalog, manager, rng)
        assert sorted(manager.access("P2x").rows) == brute_p2(
            tiny_joined_catalog, three_way=True
        )


class TestRVMSharing:
    def test_shared_population_reports_sharing(
        self, tiny_joined_catalog, clock, buffer
    ):
        strategy = UpdateCacheRVM(tiny_joined_catalog, buffer, clock)
        manager = ProcedureManager(strategy)
        manager.define_procedure("P1", P1_EXPR)
        manager.define_procedure("P2", P2_EXPR)  # same C_f interval as P1
        report = strategy.sharing_report()
        assert report["shared_memories"] >= 1

    def test_shared_screening_is_cheaper_than_avm(
        self, tiny_joined_catalog, clock, buffer
    ):
        """With full sharing, RVM screens each changed tuple once where AVM
        screens it once per procedure."""
        rvm = UpdateCacheRVM(tiny_joined_catalog, buffer, clock)
        rvm_mgr = ProcedureManager(rvm)
        rvm_mgr.define_procedure("P1", P1_EXPR)
        rvm_mgr.define_procedure("P2", P2_EXPR)

        r1 = tiny_joined_catalog.get("R1")
        rid, old = next(
            (rid, row)
            for rid, row in r1.heap.scan_uncharged()
            if 100 <= row[1] < 300
        )
        before = clock.snapshot()
        rvm_mgr.update("R1", [(rid, (old[0], 150, old[2]))])
        rvm_screens = (clock.snapshot() - before).cpu_tests
        # The shared t-const screens the old and new values once each (2);
        # each may then charge one and-node join pair (2 more). AVM would
        # pay 2 t-const screens per procedure (4) before any join work.
        assert rvm_screens <= 4


class TestManagerAttribution:
    def test_cost_per_access_formula(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(UpdateCacheAVM, tiny_joined_catalog, clock, buffer)
        rng = random.Random(11)
        manager.access("P1")
        apply_update(tiny_joined_catalog, manager, rng)
        manager.access("P2")
        expected = (
            manager.access_cost_ms + manager.maintenance_cost_ms
        ) / manager.num_accesses
        assert manager.cost_per_access() == pytest.approx(expected)

    def test_no_accesses_gives_zero(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        assert manager.cost_per_access() == 0.0

    def test_base_update_cost_excluded_from_metric(
        self, tiny_joined_catalog, clock, buffer
    ):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        rng = random.Random(11)
        apply_update(tiny_joined_catalog, manager, rng)
        manager.access("P1")
        assert manager.base_update_cost_ms > 0
        assert manager.cost_per_access() == pytest.approx(
            manager.access_cost_ms / 1
        )

    def test_reset_counters(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        manager.access("P1")
        manager.reset_counters()
        assert manager.num_accesses == 0
        assert manager.access_cost_ms == 0.0

    def test_define_must_be_cost_free(self, tiny_joined_catalog, clock, buffer):
        class ChargingStrategy(ProcedureStrategy):
            strategy_name = StrategyName.ALWAYS_RECOMPUTE

            def _after_define(self, procedure):
                self.clock.charge_read(1)

            def access(self, name):
                return []

            def on_update(self, batch):
                pass

        manager = ProcedureManager(
            ChargingStrategy(tiny_joined_catalog, buffer, clock)
        )
        with pytest.raises(RuntimeError):
            manager.define_procedure("P", P1_EXPR)

    def test_duplicate_definition_rejected(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        with pytest.raises(ValueError):
            manager.define_procedure("P1", P1_EXPR)

    def test_unknown_access_rejected(self, tiny_joined_catalog, clock, buffer):
        manager, _ = make(AlwaysRecompute, tiny_joined_catalog, clock, buffer)
        with pytest.raises(KeyError):
            manager.access("ghost")


class _ChargingMaintenance(ProcedureStrategy):
    """Charges a fixed 7 ms per maintenance call, or raises ``fault``."""

    strategy_name = StrategyName.ALWAYS_RECOMPUTE
    fault = None

    def _after_define(self, procedure):
        pass

    def access(self, name):
        return []

    def on_update(self, *args):
        if self.fault is not None:
            raise self.fault
        self.clock.charge_fixed(7.0)


def _accrued(manager):
    return (
        manager.clock.elapsed_ms,
        manager.num_updates,
        manager.base_update_cost_ms,
        manager.maintenance_cost_ms,
    )


def _listen(manager):
    seen = []
    manager.update_listener = lambda *delta: seen.append(_accrued(manager))
    return seen


class TestManagerAccrualOrder:
    """``update``/``insert``/``delete`` accrue their buckets and
    ``num_updates`` and call ``update_listener`` only after maintenance
    returns; ``update_deferred`` does so right after the base changes, and
    ``maintain_batch`` accrues maintenance alone. So ``update`` is not
    ``update_deferred`` + ``maintain_batch``."""

    def test_maintained_transactions_accrue_after_maintenance(
        self, tiny_joined_catalog, clock, buffer
    ):
        manager = ProcedureManager(
            _ChargingMaintenance(tiny_joined_catalog, buffer, clock)
        )
        clock.reset()
        seen = _listen(manager)
        inserted = manager.insert("R1", [(1000, 5, 1)])
        rid = manager.last_rids[0]
        updated = manager.update("R1", [(rid, (1000, 6, 1))])
        deleted = manager.delete("R1", [manager.last_rids[0]])
        results = (inserted, updated, deleted)
        assert len(seen) == 3
        assert seen[-1] == _accrued(manager)
        assert [state[1] for state in seen] == [1, 2, 3]
        assert [state[3] for state in seen] == [7.0, 14.0, 21.0]
        bases = [result.base_cost_ms for result in results]
        assert all(base > 0 for base in bases)
        assert [state[2] for state in seen] == [
            sum(bases[:1]), sum(bases[:2]), sum(bases),
        ]
        assert [state[0] for state in seen] == [
            sum(bases[:n]) + 7.0 * n for n in (1, 2, 3)
        ]
        assert [r.maintenance_cost_ms for r in results] == [7.0] * 3
        assert [r.tuples_modified for r in results] == [1, 1, 1]

    def test_deferred_update_accrues_before_its_batch(
        self, tiny_joined_catalog, clock, buffer
    ):
        from repro.core.batch import DeltaBatch

        manager = ProcedureManager(
            _ChargingMaintenance(tiny_joined_catalog, buffer, clock)
        )
        rid = tiny_joined_catalog.get("R1").insert((1000, 5, 1))
        clock.reset()
        seen = _listen(manager)
        inserts, deletes = manager.update_deferred(
            "R1", [(rid, (1000, 6, 1))]
        )
        assert seen == [_accrued(manager)]
        elapsed, updates, base, maintained = seen[0]
        assert updates == 1 and base == elapsed > 0 and maintained == 0.0
        batch = DeltaBatch("R1")
        batch.add_transaction(inserts, deletes)
        assert manager.maintain_batch(batch) == 7.0
        assert len(seen) == 1
        assert _accrued(manager) == (elapsed + 7.0, 1, base, 7.0)

    def test_supervised_update_aborted_in_maintenance_counts_once(
        self, tiny_joined_catalog, clock, buffer
    ):
        from repro.faults.errors import FaultError
        from repro.faults.injector import FaultInjector, FaultPlan
        from repro.faults.supervisor import (
            RecoverySupervisor,
            SupervisedManager,
        )

        strategy = _ChargingMaintenance(tiny_joined_catalog, buffer, clock)
        strategy.fault = FaultError("maintenance died")
        supervisor = RecoverySupervisor(strategy, FaultInjector(FaultPlan()))
        manager = SupervisedManager(strategy, supervisor)
        seen = _listen(manager)
        rid = tiny_joined_catalog.get("R1").insert((1000, 5, 1))
        result = manager.update("R1", [(rid, (1000, 6, 1))])
        assert supervisor.update_aborts == 1
        assert manager.num_updates == 1
        assert manager.base_update_cost_ms == 0.0
        assert manager.maintenance_cost_ms == 0.0
        assert result.base_cost_ms == result.maintenance_cost_ms == 0.0
        assert seen == []


class TestCrossStrategyEquivalence:
    def test_all_strategies_return_identical_results(self, sim_params):
        """The load-bearing integration property: four different engines,
        one answer."""
        from repro.workload import build_database, build_procedures
        from repro.workload.runner import make_strategy

        outputs = {}
        for name in (
            "always_recompute",
            "cache_invalidate",
            "update_cache_avm",
            "update_cache_rvm",
        ):
            db = build_database(sim_params, seed=9)
            pop = build_procedures(db, sim_params, model=2, seed=9)
            strategy = make_strategy(name, db, sim_params)
            manager = ProcedureManager(strategy)
            for proc_name, expr in pop.definitions:
                manager.define_procedure(proc_name, expr)
            rng = random.Random(9)
            trace = []
            for step in range(30):
                if step % 3 == 0:
                    apply_update(db.catalog, manager, rng, count=4)
                else:
                    proc = pop.names[rng.randrange(len(pop.names))]
                    trace.append((proc, sorted(manager.access(proc).rows)))
            outputs[name] = trace
        baseline = outputs.pop("always_recompute")
        for name, trace in outputs.items():
            assert trace == baseline, f"{name} diverged from always_recompute"
