"""ShardRouter: partitioning totality/disjointness and routing safety.

The hypothesis property pins the partition function's contract — every
key in (and around) the domain maps to exactly one shard, shard key
ranges tile the domain without gaps or overlaps, and boundaries are
deterministic functions of ``(num_shards, domain)`` alone. The unit
tests cover home-shard assignment, the router i-locks' conservative
hulls, and catch-all (whole-relation) registration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks.ilocks import SortedValueRuns
from repro.query.plan import LockSpec
from repro.query.predicate import KeyInterval
from repro.shard import ShardRouter


def interval(lo, hi, field="sel"):
    return KeyInterval(field, lo, hi, True, False)


@settings(max_examples=200, deadline=None)
@given(
    num_shards=st.integers(min_value=1, max_value=16),
    domain=st.integers(min_value=1, max_value=5_000),
    probes=st.lists(
        st.integers(min_value=-100, max_value=5_100), max_size=20
    ),
)
def test_partitioning_is_total_disjoint_and_deterministic(
    num_shards, domain, probes
):
    router = ShardRouter(num_shards, domain=domain)
    ranges = router.key_ranges()

    # The ranges tile [0, domain): contiguous, disjoint, in order.
    assert len(ranges) == num_shards
    assert ranges[0][0] == 0
    assert ranges[-1][1] == domain
    for (_, prev_hi), (lo, hi) in zip(ranges, ranges[1:]):
        assert lo == prev_hi
        assert lo <= hi

    # Every in-domain key lands in exactly the one range that holds it;
    # out-of-domain keys clamp to the edge shards. Totality: the result
    # is always a valid shard id.
    for value in probes:
        shard = router.shard_of_key(value)
        assert 0 <= shard < num_shards
        if value < 0:
            assert shard == 0
        elif value >= domain:
            assert shard == num_shards - 1
        else:
            owners = [
                s for s, (lo, hi) in enumerate(ranges) if lo <= value < hi
            ]
            assert owners == [shard]

    # Boundaries are deterministic: a rebuilt router agrees everywhere.
    rebuilt = ShardRouter(num_shards, domain=domain)
    assert rebuilt.key_ranges() == ranges
    assert [rebuilt.shard_of_key(v) for v in probes] == [
        router.shard_of_key(v) for v in probes
    ]


@settings(max_examples=100, deadline=None)
@given(
    num_shards=st.integers(min_value=1, max_value=12),
    domain=st.integers(min_value=2, max_value=2_000),
    data=st.data(),
)
def test_routing_is_a_conservative_superset(num_shards, domain, data):
    """Any shard hosting a procedure whose interval contains a changed
    value must be routed (misses would be correctness bugs; extra shards
    are only wasted work)."""
    router = ShardRouter(num_shards, domain=domain)
    n_procs = data.draw(st.integers(min_value=1, max_value=10))
    homes = {}
    intervals = {}
    for i in range(n_procs):
        lo = data.draw(st.integers(min_value=0, max_value=domain - 1))
        width = data.draw(st.integers(min_value=1, max_value=domain))
        name = f"P{i}"
        intervals[name] = (lo, lo + width)
        homes[name] = router.assign(name, [LockSpec("R1", interval(lo, lo + width))])
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=domain - 1),
            min_size=1,
            max_size=6,
        )
    )
    routed = set(router.route_values("R1", [{"sel": v} for v in values]))
    for name, (lo, hi) in intervals.items():
        if any(lo <= v < hi for v in values):
            assert homes[name] in routed


def _is_conservative_superset(after: dict, before: dict) -> bool:
    """``after`` routes at least everything ``before`` did: every hull
    only ever widened (or appeared) and no catch-all registration was
    lost."""
    for key, hulls in before["hulls"].items():
        wide = after["hulls"].get(key)
        if wide is None:
            return False
        for narrow_hull, wide_hull in zip(hulls, wide):
            if narrow_hull is None:
                continue
            if wide_hull is None:
                return False
            if wide_hull.lo is not None and (
                narrow_hull.lo is None or wide_hull.lo > narrow_hull.lo
            ):
                return False
            if wide_hull.hi is not None and (
                narrow_hull.hi is None or wide_hull.hi < narrow_hull.hi
            ):
                return False
    for relation, shards in before["catch_all"].items():
        if not shards <= after["catch_all"].get(relation, frozenset()):
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(
    num_shards=st.integers(min_value=2, max_value=12),
    domain=st.integers(min_value=2, max_value=2_000),
    data=st.data(),
)
def test_hulls_stay_conservative_across_failover_reregistration(
    num_shards, domain, data
):
    """A rebuilt standby re-registers its procedures' coverage after a
    crash + promotion; re-registration is additive (hulls only widen),
    so the post-failover snapshot is always a conservative superset of
    the pre-crash one and no probe that routed before stops routing."""
    router = ShardRouter(num_shards, domain=domain)
    n_procs = data.draw(st.integers(min_value=1, max_value=10))
    coverages = {}
    for i in range(n_procs):
        lo = data.draw(st.integers(min_value=0, max_value=domain - 1))
        width = data.draw(st.integers(min_value=1, max_value=domain))
        coverages[f"P{i}"] = [LockSpec("R1", interval(lo, lo + width))]
        router.assign(f"P{i}", coverages[f"P{i}"])
    probes = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=domain - 1),
            min_size=1,
            max_size=6,
        )
    )
    before = router.coverage_hulls()
    routed_before = set(router.route_values("R1", [{"sel": v} for v in probes]))

    # The crashed shard's procedures re-register on the promoted engine.
    crashed = data.draw(st.integers(min_value=0, max_value=num_shards - 1))
    for name, coverage in coverages.items():
        if router.home_of(name) == crashed:
            router.assign(name, coverage)

    after = router.coverage_hulls()
    assert _is_conservative_superset(after, before)
    routed_after = set(router.route_values("R1", [{"sel": v} for v in probes]))
    assert routed_before <= routed_after


def test_failover_leaves_facade_coverage_intact():
    """End to end on the real facade: crash + replica promotion never
    touches the router's i-locks, so the promoted shard keeps receiving
    exactly the updates its procedures cover."""
    from repro.core import ProcedureManager
    from repro.model.params import ModelParams
    from repro.shard import make_sharded_strategy
    from repro.workload.database import build_database
    from repro.workload.procedures import build_procedures

    params = ModelParams(
        n_tuples=400,
        num_p1=3,
        num_p2=3,
        selectivity_f=0.01,
        selectivity_f2=0.1,
        tuples_per_update=4,
    )
    db = build_database(params, seed=6, buffer_capacity=0)
    pop = build_procedures(db, params, model=1, seed=6)
    facade = make_sharded_strategy(
        "update_cache_avm", db, params, num_shards=2, seed=6, replicas=1
    )
    manager = ProcedureManager(facade)
    for name, expr in pop.definitions:
        manager.define_procedure(name, expr)
    before = facade.router.coverage_hulls()

    facade.crash_shard(0)
    facade.promote_replica(0)
    facade.recover_shard_engine(0)

    after = facade.router.coverage_hulls()
    assert after == before
    assert _is_conservative_superset(after, before)
    # Probing each surviving hull still routes its owner shard.
    for (relation, _), hulls in after["hulls"].items():
        for shard, hull in enumerate(hulls):
            if hull is not None and hull.lo is not None:
                field = hull.field
                routed = facade.router.route_values(
                    relation, [{field: hull.lo}]
                )
                assert shard in routed


class TestAssignment:
    def test_home_is_range_owner_of_interval_lo(self):
        router = ShardRouter(4, domain=100)
        home = router.assign("P", [LockSpec("R1", interval(55, 60))])
        assert home == router.shard_of_key(55)
        assert router.home_of("P") == home

    def test_shared_interval_means_shared_home(self):
        """Same C_f interval -> same home shard, so Rete sharing
        survives partitioning."""
        router = ShardRouter(8, domain=512)
        a = router.assign("A", [LockSpec("R1", interval(40, 50))])
        b = router.assign("B", [LockSpec("R1", interval(40, 50))])
        assert a == b

    def test_no_partition_interval_hashes_stably(self):
        router = ShardRouter(8, domain=512)
        home = router.assign("Q", [LockSpec("R2", interval(1, 2, field="b"))])
        rebuilt = ShardRouter(8, domain=512)
        assert rebuilt.assign("Q", [LockSpec("R2", interval(1, 2, field="b"))]) == home

    def test_procedures_per_shard_counts_homes(self):
        router = ShardRouter(2, domain=100)
        router.assign("A", [LockSpec("R1", interval(0, 10))])
        router.assign("B", [LockSpec("R1", interval(0, 10))])
        router.assign("C", [LockSpec("R1", interval(90, 99))])
        assert router.procedures_per_shard() == [2, 1]
        assert router.num_procedures == 3


class TestRouting:
    def test_miss_routes_nowhere(self):
        router = ShardRouter(4, domain=100)
        router.assign("P", [LockSpec("R1", interval(10, 20))])
        assert router.route_values("R1", [{"sel": 70}]) == ()

    def test_hit_routes_home(self):
        router = ShardRouter(4, domain=100)
        home = router.assign("P", [LockSpec("R1", interval(10, 20))])
        assert router.route_values("R1", [{"sel": 15}]) == (home,)

    def test_whole_relation_coverage_is_catch_all(self):
        router = ShardRouter(4, domain=100)
        home = router.assign("P", [LockSpec("R3")])
        assert home in router.route_values("R3", [{"c": 1}])

    def test_unbounded_interval_is_catch_all(self):
        router = ShardRouter(4, domain=100)
        home = router.assign("P", [LockSpec("R2", KeyInterval("b", None, None))])
        assert home in router.route_values("R2", [{"b": 123456}])

    def test_route_runs_matches_route_values(self):
        router = ShardRouter(8, domain=512)
        for i in range(20):
            lo = (i * 37) % 500
            router.assign(f"P{i}", [LockSpec("R1", interval(lo, lo + 11))])
        changed = [{"sel": v} for v in (3, 88, 200, 311, 499)]
        by_values = router.route_values("R1", changed)
        by_runs = router.route_runs("R1", SortedValueRuns.from_dicts(changed))
        assert by_runs == by_values

    def test_empty_write_routes_nowhere(self):
        """Zero changed rows break no i-lock, not even a catch-all."""
        router = ShardRouter(4, domain=100)
        router.assign("P", [LockSpec("R1")])
        assert router.route_runs("R1", SortedValueRuns(("sel",), [])) == ()

    def test_stats_track_fanout(self):
        router = ShardRouter(4, domain=100)
        router.assign("P", [LockSpec("R1", interval(10, 20))])
        router.route_values("R1", [{"sel": 15}])
        router.route_values("R1", [{"sel": 70}])
        stats = router.stats()
        assert stats["routed_updates"] == 2.0
        assert stats["routed_shard_visits"] == 1.0
        assert stats["mean_fanout"] == 0.5


class TestValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(0, domain=100)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            ShardRouter(2, domain=0)
