"""Unit contract for the front-tier result cache.

Key normalization, footprint derivation from bound procedures, the
get_or_compute mode vocabulary, TTL on the simulated clock, LRU
eviction, interval vs table invalidation, audit mode's stale-read
self-repair, and the stats/telemetry wiring. The oracle properties live
in ``test_serve_cache_property``; the engine-integrated proof in
``test_serve_differential``.
"""

from __future__ import annotations

import pytest

from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.locks.ilocks import footprint_of
from repro.obs.registry import MetricsRegistry
from repro.query.plan import LockSpec
from repro.query.predicate import KeyInterval
from repro.serve.cache import (
    MODE_EXPIRED,
    MODE_HIT,
    MODE_MISS,
    MODE_UNCACHED,
    ResultCache,
    canonical_key,
    canonical_rows,
)
from repro.workload.database import build_database
from repro.workload.procedures import build_procedures
from repro.workload.runner import make_strategy


class _TickClock:
    def __init__(self) -> None:
        self.elapsed_ms = 0.0


class _Schema:
    def names(self):
        return ("k", "v")


class _Table:
    schema = _Schema()


class _Catalog:
    def get(self, relation):
        return _Table()


def _plain_cache(**kwargs) -> ResultCache:
    return ResultCache(_TickClock(), _Catalog(), **kwargs)


def _register(cache: ResultCache, name: str) -> str:
    return cache.register_key(name, (LockSpec("R", None),))


class TestCanonicalKey:
    def test_whitespace_and_terminator_collapse(self):
        assert canonical_key("  P1_007 ;") == "P1_007"
        assert canonical_key("P1_007") == "P1_007"
        assert canonical_key("a  b\t c ;;") == "a b c"

    def test_rows_sorted(self):
        assert canonical_rows([(3, 1), (1, 2), (2, 0)]) == (
            (1, 2),
            (2, 0),
            (3, 1),
        )


class TestGetOrCompute:
    def test_unregistered_key_passes_through(self):
        cache = _plain_cache()
        calls = []
        rows, mode = cache.get_or_compute(
            "nope", lambda: calls.append(1) or ((1,),)
        )
        assert mode == MODE_UNCACHED
        assert rows == ((1,),)
        assert cache.lookups == 0  # passthrough is not a lookup

    def test_miss_then_hit_shares_one_compute(self):
        cache = _plain_cache()
        _register(cache, "Q")
        computes = []

        def compute():
            computes.append(1)
            return ((1, 2),)

        rows, mode = cache.get_or_compute("Q", compute)
        assert (rows, mode) == (((1, 2),), MODE_MISS)
        rows, mode = cache.get_or_compute(" Q ;", compute)  # normalized
        assert (rows, mode) == (((1, 2),), MODE_HIT)
        assert len(computes) == 1

    def test_ttl_expires_on_simulated_clock(self):
        cache = _plain_cache(ttl_ms=10.0)
        _register(cache, "Q")
        cache.get_or_compute("Q", lambda: ((1,),))
        cache.clock.elapsed_ms += 9.0
        _, mode = cache.get_or_compute("Q", lambda: ((2,),))
        assert mode == MODE_HIT
        cache.clock.elapsed_ms += 1.0  # now exactly at expiry
        rows, mode = cache.get_or_compute("Q", lambda: ((3,),))
        assert mode == MODE_EXPIRED
        assert rows == ((3,),)
        assert cache.expirations == 1

    def test_lru_eviction_order(self):
        cache = _plain_cache(capacity=2)
        for name in ("A", "B"):
            _register(cache, name)
            cache.get_or_compute(name, lambda: ((name,),))
        cache.get_or_compute("A", lambda: (("A",),))  # A is now MRU
        _register(cache, "C")
        cache.get_or_compute("C", lambda: (("C",),))  # evicts B
        assert cache.evictions == 1
        _, mode = cache.get_or_compute("A", lambda: (("A2",),))
        assert mode == MODE_HIT
        _, mode = cache.get_or_compute("B", lambda: (("B2",),))
        assert mode == MODE_MISS

    def test_audit_repairs_and_counts_stale(self):
        cache = _plain_cache(audit=True)
        _register(cache, "Q")
        value = [((1,),)]
        cache.get_or_compute("Q", lambda: value[0])
        value[0] = ((2,),)  # mutate the world behind the cache's back
        rows, mode = cache.get_or_compute("Q", lambda: value[0])
        assert mode == MODE_HIT
        assert rows == ((2,),)  # repaired, not served stale
        assert cache.stale_reads == 1
        rows, _ = cache.get_or_compute("Q", lambda: value[0])
        assert rows == ((2,),)
        assert cache.stale_reads == 1  # repair stuck


class TestInvalidation:
    def _cache(self) -> ResultCache:
        cache = _plain_cache()
        cache.register_key(
            "lo", (LockSpec("R", KeyInterval("k", lo=0, hi=4)),)
        )
        cache.register_key(
            "hi", (LockSpec("R", KeyInterval("k", lo=10, hi=14)),)
        )
        cache.register_key("whole", (LockSpec("R", None),))
        cache.register_key("other", (LockSpec("S", None),))
        for name in ("lo", "hi", "whole", "other"):
            cache.get_or_compute(name, lambda: ((name,),))
        return cache

    def test_interval_hit_drops_only_stabbed_entries(self):
        cache = self._cache()
        dropped = cache.on_update("R", inserts=[(2, 9)], deletes=[])
        # 2 stabs "lo" only; "whole" is table-level on R so it drops too.
        assert dropped == 2
        assert cache.get_or_compute("hi", lambda: (("x",),))[1] == MODE_HIT
        assert (
            cache.get_or_compute("other", lambda: (("x",),))[1] == MODE_HIT
        )
        assert (
            cache.get_or_compute("lo", lambda: (("x",),))[1] == MODE_MISS
        )

    def test_out_of_footprint_update_drops_only_table_level(self):
        cache = self._cache()
        dropped = cache.on_update("R", inserts=[(7, 0)], deletes=[])
        assert dropped == 1  # just "whole"
        assert cache.get_or_compute("lo", lambda: (("x",),))[1] == MODE_HIT
        assert cache.get_or_compute("hi", lambda: (("x",),))[1] == MODE_HIT

    def test_empty_delta_is_free(self):
        cache = self._cache()
        assert cache.on_update("R", inserts=[], deletes=[]) == 0
        assert cache.invalidations == 0

    def test_deletes_probe_old_values(self):
        cache = self._cache()
        dropped = cache.on_update("R", inserts=[], deletes=[(12, 1)])
        assert dropped == 2  # "hi" + "whole"

    def test_invalidate_table_is_coarse(self):
        cache = self._cache()
        assert cache.invalidate_table("R") == 3
        assert (
            cache.get_or_compute("other", lambda: (("x",),))[1] == MODE_HIT
        )

    def test_clear_counts_invalidations(self):
        cache = self._cache()
        assert cache.clear() == 4
        assert cache.invalidations == 4


class TestFootprints:
    def test_derived_from_bound_queries(self):
        params = SIM_SCALE_PARAMS
        db = build_database(params, seed=0)
        pop = build_procedures(db, params, model=1, seed=0)
        strategy = make_strategy("cache_invalidate", db, params)
        from repro.core import ProcedureManager

        manager = ProcedureManager(strategy)
        for name, expr in pop.definitions:
            manager.define_procedure(name, expr)
        for procedure in strategy.procedures.values():
            prints = footprint_of(procedure)
            assert prints  # every member relation contributes
            assert {fp.relation for fp in prints} <= {"R1", "R2", "R3"}
            # Model 1 selections restrict their member relation: at
            # least one footprint must carry a real interval.
        intervals = [
            fp
            for procedure in strategy.procedures.values()
            for fp in footprint_of(procedure)
            if fp.interval is not None
        ]
        assert intervals

    def test_unbound_procedure_rejected(self):
        class Unbound:
            name = "ghost"
            query = None

        with pytest.raises(ValueError, match="unbound"):
            footprint_of(Unbound())


class TestStatsAndTelemetry:
    def test_stats_shape_and_hit_rate(self):
        cache = _plain_cache()
        _register(cache, "Q")
        cache.get_or_compute("Q", lambda: ((1,),))
        cache.get_or_compute("Q", lambda: ((1,),))
        stats = cache.stats()
        assert stats["lookups"] == 2
        assert stats["hits"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["stale_reads"] == 0

    def test_counters_reach_registry(self):
        registry = MetricsRegistry()
        cache = _plain_cache(registry=registry, capacity=1)
        for name in ("A", "B"):
            _register(cache, name)
            cache.get_or_compute(name, lambda: ((1,),))
        cache.get_or_compute("B", lambda: ((1,),))
        snapshot = registry.counter_values()
        assert snapshot["serve.cache.miss"] == 2
        assert snapshot["serve.cache.hit"] == 1
        assert snapshot["serve.cache.eviction"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            _plain_cache(capacity=0)
        with pytest.raises(ValueError):
            _plain_cache(ttl_ms=0.0)
