"""Unit tests for the fault-injection subsystem: plans, the injector,
page checksums, retry/backoff, and the supervisor's degradation ladder."""

import pytest

from repro.faults.errors import PageCorruptionError, PersistentIOError
from repro.faults.injector import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    ScheduledFault,
)
from repro.faults.supervisor import RecoverySupervisor, SupervisedManager
from repro.model.params import ModelParams
from repro.obs import CostAttribution
from repro.storage.page import Page
from repro.workload.database import build_database
from repro.workload.procedures import build_procedures
from repro.workload.runner import make_strategy

PARAMS = ModelParams(
    n_tuples=600,
    num_p1=3,
    num_p2=3,
    selectivity_f=0.01,
    selectivity_f2=0.1,
    tuples_per_update=4,
)


def _chaos_fixture(strategy_name, plan, invalidation_scheme=None):
    """A tiny warmed database with a supervised manager wired for faults."""
    db = build_database(PARAMS, seed=1, buffer_capacity=0)
    pop = build_procedures(db, PARAMS, model=1, seed=1)
    strategy = make_strategy(
        strategy_name, db, PARAMS, invalidation_scheme=invalidation_scheme
    )
    injector = FaultInjector(plan)
    supervisor = RecoverySupervisor(strategy, injector)
    manager = SupervisedManager(strategy, supervisor)
    for name, expr in pop.definitions:
        manager.define_procedure(name, expr)
    for name in pop.names:
        manager.access(name)
    db.clock.reset()
    db.disk.injector = injector
    injector.arm()
    return db, manager, supervisor, injector, pop


class TestPageChecksums:
    def test_fresh_page_checks_out(self):
        page = Page(0, 4)
        page.insert((1, 2))
        assert page.checksum_ok()
        assert not page.is_torn

    def test_mark_torn_is_detected(self):
        page = Page(0, 4)
        page.insert((1, 2))
        page.mark_torn()
        assert page.is_torn
        assert not page.checksum_ok()

    def test_any_mutation_heals_a_torn_page(self):
        page = Page(0, 4)
        slot = page.insert((1, 2))
        page.mark_torn()
        page.overwrite(slot, (3, 4))
        assert page.checksum_ok()
        page.mark_torn()
        page.delete(slot)
        assert page.checksum_ok()

    def test_checksum_is_content_deterministic(self):
        a, b = Page(0, 4), Page(0, 4)
        a.insert(("x", 1))
        b.insert(("x", 1))
        assert a.compute_checksum() == b.compute_checksum()


class TestFaultInjector:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan.seeded(11)
        seq = []
        for _ in range(2):
            injector = FaultInjector(plan)
            injector.arm()
            seq.append([injector.decide("disk.write") for _ in range(300)])
        assert seq[0] == seq[1]
        assert any(kind is not None for kind in seq[0])

    def test_with_shard_kill_appends_one_scheduled_crash(self):
        plan = FaultPlan.seeded(11, max_faults=40)
        killed = plan.with_shard_kill(2)
        assert killed.schedule == (
            *plan.schedule,
            ScheduledFault("shard.2.shard.crash", 1, FaultKind.CRASH),
        )
        # Everything else is the campaign it was derived from, and only
        # shard 2's own plan carries the kill.
        assert (killed.seed, killed.rates, killed.max_faults) == (
            plan.seed, plan.rates, plan.max_faults,
        )
        assert killed.for_shard(2).schedule == (
            ScheduledFault("shard.crash", 1, FaultKind.CRASH),
        )
        assert killed.for_shard(0).schedule == ()

    def test_unarmed_injector_is_inert(self):
        injector = FaultInjector(FaultPlan.seeded(11))
        assert all(injector.decide("disk.write") is None for _ in range(300))
        assert injector.occurrences == {}

    def test_schedule_fires_at_exact_occurrence(self):
        plan = FaultPlan(
            schedule=(ScheduledFault("disk.read", 3, FaultKind.TORN_PAGE),)
        )
        injector = FaultInjector(plan)
        injector.arm()
        decisions = [injector.decide("disk.read") for _ in range(5)]
        assert decisions == [None, None, FaultKind.TORN_PAGE, None, None]

    def test_max_faults_budget_caps_injection(self):
        plan = FaultPlan(
            seed=2,
            rates={"disk.read": {FaultKind.TRANSIENT: 1.0}},
            max_faults=4,
        )
        injector = FaultInjector(plan)
        injector.arm()
        fired = [injector.decide("disk.read") for _ in range(10)]
        assert sum(kind is not None for kind in fired) == 4
        assert injector.total_injected == 4

    def test_suspended_neither_draws_nor_counts(self):
        plan = FaultPlan(seed=5, rates={"disk.read": {FaultKind.TRANSIENT: 0.5}})
        reference = FaultInjector(plan)
        reference.arm()
        expected = [reference.decide("disk.read") for _ in range(50)]

        injector = FaultInjector(plan)
        injector.arm()
        observed = []
        for i in range(50):
            if i % 7 == 0:
                with injector.suspended():
                    assert injector.decide("disk.read") is None
            observed.append(injector.decide("disk.read"))
        assert observed == expected
        assert injector.occurrences["disk.read"] == 50

    def test_retry_backoff_exhaustion_raises_persistent(self, clock):
        plan = FaultPlan(
            rates={"disk.read": {FaultKind.TRANSIENT: 1.0}},
            max_retries=3,
            backoff_base_ms=5.0,
        )
        injector = FaultInjector(plan)
        injector.arm()
        page = Page(0, 4)
        with pytest.raises(PersistentIOError):
            injector.before_read("R1", page, clock)
        assert injector.retries == 4
        # 5 + 10 + 20: three charged backoffs before the fourth gives up.
        assert injector.backoff_ms_total == 35.0
        assert clock.elapsed_ms == 35.0

    def test_backoff_charged_under_fault_recovery_phase(self, clock):
        plan = FaultPlan(
            schedule=(ScheduledFault("disk.read", 1, FaultKind.TRANSIENT),),
            backoff_base_ms=5.0,
        )
        injector = FaultInjector(plan)
        injector.arm()
        observation = CostAttribution().attach(clock)
        injector.before_read("R1", Page(0, 4), clock)
        observation.detach()
        assert observation.phase_costs() == {"fault.recovery": 5.0}

    def test_torn_on_base_relation_downgrades_to_transient(self, clock):
        plan = FaultPlan(
            schedule=(ScheduledFault("disk.write", 1, FaultKind.TORN_PAGE),)
        )
        injector = FaultInjector(plan)
        injector.arm()
        page = Page(0, 4)
        page.insert((1,))
        injector.before_write("R1", page, clock)  # not torn-eligible
        assert page.checksum_ok()
        assert injector.torn_pages == 0
        assert injector.retries == 1

    def test_torn_on_cache_file_corrupts_in_place(self, clock):
        plan = FaultPlan(
            schedule=(ScheduledFault("disk.write", 1, FaultKind.TORN_PAGE),)
        )
        injector = FaultInjector(plan)
        injector.arm()
        page = Page(0, 4)
        page.insert((1,))
        injector.before_write("cache.P1", page, clock)
        assert page.is_torn
        assert injector.torn_pages == 1


class TestCorruptionDetection:
    def test_disk_read_detects_torn_page_only_with_injector(self):
        db = build_database(PARAMS, seed=0, buffer_capacity=0)
        page = db.disk.peek_page("R1", 0)
        page.mark_torn()
        # No injector installed: the integrity check is skipped entirely
        # (the zero-overhead guard), so the read sails through.
        db.disk.read_page("R1", 0)
        db.disk.injector = FaultInjector(FaultPlan())
        with pytest.raises(PageCorruptionError):
            db.disk.read_page("R1", 0)
        assert db.disk.injector.corruptions_detected == 1


class TestDegradationLadder:
    def test_torn_cache_read_degrades_to_repair(self):
        """UC -> CI rung: a torn cache page is detected, the value is
        recomputed from base, the cache repaired, and the access still
        answers correctly."""
        plan = FaultPlan(
            seed=3,
            schedule=(ScheduledFault("cache.read", 1, FaultKind.TORN_PAGE),),
        )
        db, manager, supervisor, injector, pop = _chaos_fixture(
            "update_cache_avm", plan
        )
        name = pop.names[0]
        with injector.suspended():
            expected = sorted(manager.strategy.access(name))  # pre-fault truth
        result = manager.access(name)
        assert sorted(result.rows) == expected
        assert injector.torn_pages == 1
        assert injector.corruptions_detected == 1
        assert supervisor.degraded_accesses == 1
        assert supervisor.repairs == 1
        assert supervisor.ar_fallbacks == 0
        # The repair healed the store: the next access is fault-free.
        again = manager.access(name)
        assert sorted(again.rows) == expected

    def test_persistent_repair_fault_falls_back_to_ar(self):
        """CI -> AR rung: when the repair recompute itself faults
        persistently, the access is served Always-Recompute style on a
        quiesced system."""
        plan = FaultPlan(
            seed=3,
            schedule=(ScheduledFault("cache.read", 1, FaultKind.TORN_PAGE),),
            rates={"disk.read": {FaultKind.TRANSIENT: 1.0}},
            max_retries=1,
        )
        db, manager, supervisor, injector, pop = _chaos_fixture(
            "update_cache_avm", plan
        )
        name = pop.names[0]
        with injector.suspended():
            expected = sorted(manager.strategy.access(name))
        result = manager.access(name)
        assert sorted(result.rows) == expected
        assert supervisor.degraded_accesses == 1
        assert supervisor.ar_fallbacks == 1
        assert supervisor.repairs == 0

    def test_recompute_retry_exhaustion_is_terminal(self):
        """The supervisor's own recompute path exhausts the retry budget
        against an always-transient disk: the terminal
        ``PersistentIOError`` propagates and every charged backoff round
        lands on the simulated clock under ``fault.recovery``."""
        plan = FaultPlan(
            rates={"disk.read": {FaultKind.TRANSIENT: 1.0}},
            max_retries=4,
            backoff_base_ms=5.0,
        )
        db, manager, supervisor, injector, pop = _chaos_fixture(
            "update_cache_avm", plan
        )
        observation = CostAttribution().attach(db.clock)
        with pytest.raises(PersistentIOError):
            supervisor.recompute(pop.names[0])
        observation.detach()
        assert injector.retries == 5
        # 5 + 10 + 20 + 40: four charged backoffs before the fifth
        # attempt gives up, all attributed to the recovery phase.
        assert injector.backoff_ms_total == 75.0
        # The clock carries the backoff on top of the recompute's own
        # I/O charges, all of it attributed to the recovery phase.
        assert db.clock.elapsed_ms >= 75.0
        assert observation.phase_costs()["fault.recovery"] == 75.0

    def test_op_crash_point_triggers_restart_and_oracle(self):
        plan = FaultPlan(
            schedule=(ScheduledFault("op.access", 1, FaultKind.CRASH),)
        )
        db, manager, supervisor, injector, pop = _chaos_fixture(
            "cache_invalidate", plan, invalidation_scheme="wal"
        )
        result = manager.access(pop.names[0])
        assert result.rows
        assert supervisor.crash_restarts == 1
        assert supervisor.oracle_checks == 1
        assert supervisor.oracle_failures == 0

    def test_update_crash_aborts_into_rebuild(self):
        """A crash mid-update (on the base-relation page write) aborts
        the transaction into redo-style recovery: every cache is
        recompute-repaired against the post-crash base state and the
        oracle passes."""
        plan = FaultPlan(
            schedule=(ScheduledFault("disk.write", 1, FaultKind.CRASH),)
        )
        db, manager, supervisor, injector, pop = _chaos_fixture(
            "cache_invalidate", plan, invalidation_scheme="wal"
        )
        rid = db.r2_rids[0]
        old = db.r2.heap.read(rid)
        new = (old[0], old[1], (old[2] + 1) % db.sel2_domain, old[3])
        result = manager.update("R2", [(rid, new)])
        assert result.tuples_modified == 0  # the aborted transaction
        assert supervisor.update_aborts == 1
        assert supervisor.oracle_failures == 0
        # No undo: the base change that landed before the crash stands.
        assert db.r2.heap.read(rid) == new


class TestZeroOverhead:
    def test_empty_plan_injector_changes_nothing(self):
        """With an injector installed but an empty plan, every charge is
        bit-identical to a run with no injector at all."""
        totals = []
        for install in (False, True):
            db = build_database(PARAMS, seed=4, buffer_capacity=0)
            pop = build_procedures(db, PARAMS, model=1, seed=4)
            strategy = make_strategy("update_cache_avm", db, PARAMS)
            from repro.core import ProcedureManager

            manager = ProcedureManager(strategy)
            for name, expr in pop.definitions:
                manager.define_procedure(name, expr)
            if install:
                db.disk.injector = FaultInjector(FaultPlan())
                db.disk.injector.arm()
            for name in pop.names:
                manager.access(name)
            rid = db.r2_rids[3]
            old = db.r2.heap.read(rid)
            manager.update(
                "R2", [(rid, (old[0], old[1], 0, old[3]))]
            )
            totals.append(db.clock.elapsed_ms)
        assert totals[0] == totals[1]
