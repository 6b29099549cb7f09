"""Shard fault domains: the shards=1 differential, the crash-recovery
matrix across shard counts and replica settings, and the β-tier retry
queue's no-drop property.

The differential class is the CI-named step: chaos behind a 1-shard
facade must be *bit-identical* to the plain chaos path — same clock,
same phase pie, same fault firings, same final database bytes — across
all five strategies and three seeds.
"""

import dataclasses

import pytest

from repro.core import ProcedureManager
from repro.core.batch import DeltaBatch
from repro.faults.chaos import CHAOS_STRATEGIES, run_chaos
from repro.faults.injector import FaultKind, FaultPlan, ScheduledFault
from repro.model.params import ModelParams
from repro.shard import make_sharded_strategy
from repro.workload.database import build_database
from repro.workload.procedures import build_procedures

PARAMS = ModelParams(
    n_tuples=800,
    num_p1=4,
    num_p2=4,
    selectivity_f=0.01,
    selectivity_f2=0.1,
    tuples_per_update=4,
)

SEEDS = (3, 5, 9)


def _kill_plan(seed: int, shard_id: int = 0) -> FaultPlan:
    """The seeded background campaign plus one scheduled fail-stop of
    ``shard_id`` (its first ``shard.crash`` boundary decision)."""
    plan = FaultPlan.seeded(seed, max_faults=60)
    return dataclasses.replace(
        plan,
        schedule=[
            *plan.schedule,
            ScheduledFault(
                f"shard.{shard_id}.shard.crash", 1, FaultKind.CRASH
            ),
        ],
    )


class TestShardsOneDifferential:
    """shards=1 chaos is bit-identical to the plain chaos path."""

    @pytest.mark.parametrize("strategy", CHAOS_STRATEGIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_to_unsharded(self, strategy, seed):
        plain = run_chaos(
            PARAMS, strategy, mpl=2, num_operations=30, seed=seed
        )
        sharded = run_chaos(
            PARAMS, strategy, mpl=2, num_operations=30, seed=seed, shards=1
        )
        a, b = plain.to_dict(), sharded.to_dict()
        assert a.pop("shards") is None
        assert b.pop("shards") == 1
        assert a == b
        assert plain.database_digest == sharded.database_digest
        assert plain.engine_ms == sharded.engine_ms
        assert plain.phase_costs == sharded.phase_costs
        assert plain.fault_counts == sharded.fault_counts


class TestShardCrashMatrix:
    """Scheduled shard fail-stop mid-workload: zero oracle violations at
    every shard count, with WAL rebuild and with replica failover."""

    @pytest.mark.parametrize("strategy", CHAOS_STRATEGIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_oracle_holds_after_shard_crash(self, strategy, seed):
        for shards in (2, 4, 8):
            for replicas in (0, 1):
                result = run_chaos(
                    PARAMS,
                    strategy,
                    plan=_kill_plan(seed),
                    mpl=2,
                    num_operations=24,
                    seed=seed,
                    shards=shards,
                    replicas=replicas,
                )
                label = (strategy, seed, shards, replicas)
                assert result.shard_crashes >= 1, label
                assert result.oracle_ok, label
                assert result.oracle_failures == 0, label
                assert result.attribution_consistent, label
                # The β-tier no-drop invariant: everything parked for the
                # down shard drained at recovery.
                assert (
                    result.deliveries_queued == result.deliveries_drained
                ), label

    def test_failover_promotes_the_replica(self):
        """At a pinned configuration the crashed shard recovers through
        promotion: the standby is swapped in (charged to the
        ``shard.failover`` phase) and the dead engine is rebuilt as the
        new standby (``fault.replica``)."""
        result = run_chaos(
            PARAMS,
            "update_cache_avm",
            plan=_kill_plan(1),
            mpl=2,
            num_operations=30,
            seed=1,
            shards=2,
            replicas=1,
        )
        assert result.shard_crashes >= 1
        assert result.promotions >= 1
        assert result.wal_rebuilds == 0
        assert result.failover_ms > 0
        assert result.replica_ms > 0
        assert result.oracle_ok

    def test_no_replica_rebuilds_from_wal(self):
        result = run_chaos(
            PARAMS,
            "update_cache_avm",
            plan=_kill_plan(1),
            mpl=2,
            num_operations=30,
            seed=1,
            shards=2,
            replicas=0,
        )
        assert result.shard_crashes >= 1
        assert result.wal_rebuilds >= 1
        assert result.promotions == 0
        assert result.failover_ms == 0.0
        assert result.oracle_ok

    def test_determinism(self):
        """Same seed + same plan => identical sharded chaos reports."""
        kwargs = dict(
            plan=_kill_plan(5),
            mpl=2,
            num_operations=24,
            seed=5,
            shards=4,
            replicas=1,
        )
        a = run_chaos(PARAMS, "cache_invalidate", **kwargs)
        b = run_chaos(PARAMS, "cache_invalidate", **kwargs)
        assert a.to_dict() == b.to_dict()
        assert a.database_digest == b.database_digest

    def test_replica_validation(self):
        with pytest.raises(ValueError):
            run_chaos(PARAMS, "cache_invalidate", replicas=1)
        with pytest.raises(ValueError):
            run_chaos(PARAMS, "cache_invalidate", shards=1, replicas=1)
        with pytest.raises(ValueError):
            run_chaos(PARAMS, "cache_invalidate", shards=0)
        with pytest.raises(ValueError):
            run_chaos(PARAMS, "cache_invalidate", degrade=True)


class TestBetaQueueNoDrop:
    """Deliveries aimed at a down shard queue with simulated-time backoff
    and drain at recovery — no update is ever silently dropped."""

    def _facade(self, replicas=0):
        db = build_database(PARAMS, seed=2, buffer_capacity=0)
        pop = build_procedures(db, PARAMS, model=1, seed=2)
        facade = make_sharded_strategy(
            "update_cache_avm",
            db,
            PARAMS,
            num_shards=2,
            seed=2,
            replicas=replicas,
        )
        manager = ProcedureManager(facade)
        for name, expr in pop.definitions:
            manager.define_procedure(name, expr)
        for name in facade.procedures:
            facade.access(name)
        return db, facade

    def _touch_all_shards(self, db, facade):
        """One delta inside each shard's ``(R1, sel)`` coverage hull so
        every shard sees a delivery (the strategy-level hook takes a
        one-transaction batch of explicit old/new rows)."""
        hulls = facade.router.coverage_hulls()["hulls"][("R1", "sel")]
        for shard_id, hull in enumerate(hulls):
            assert hull is not None and hull.lo is not None
            batch = DeltaBatch("R1")
            batch.add_transaction([(10_000 + shard_id, hull.lo, 0)], [])
            facade.on_update(batch)

    def test_queue_then_drain_preserves_every_update(self):
        db, facade = self._facade()
        facade.crash_shard(0)
        before = facade.deliveries_queued
        clock_before = db.clock.elapsed_ms
        self._touch_all_shards(db, facade)
        assert facade.deliveries_queued > before
        # Queueing charges exponential backoff in simulated time.
        assert db.clock.elapsed_ms > clock_before
        assert 0 in facade.down_shards()
        dirty = facade.recover_shard_engine(0)
        assert facade.deliveries_drained == facade.deliveries_queued
        assert not facade.down_shards()
        # Every procedure homed on the crashed shard is reported dirty:
        # the queued deltas are provably covered by recompute-from-base.
        homes = {
            name
            for name in facade.procedures
            if facade.shard_of(name) == 0
        }
        assert homes <= set(dirty)

    def test_queue_backoff_grows_with_depth(self):
        db, facade = self._facade()
        facade.crash_shard(0)
        delays = []
        for _ in range(3):
            before = db.clock.elapsed_ms
            self._touch_all_shards(db, facade)
            delays.append(db.clock.elapsed_ms - before)
        assert delays == sorted(delays)
        assert delays[0] < delays[-1]

    def test_replica_absorbs_deliveries_without_queueing(self):
        db, facade = self._facade(replicas=1)
        facade.crash_shard(0)
        self._touch_all_shards(db, facade)
        # The standby keeps absorbing the fan-out: nothing queues.
        assert facade.deliveries_queued == 0
