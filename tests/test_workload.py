"""Unit tests for the synthetic workload layer."""

import random
from collections import Counter

import pytest

from repro.model import ModelParams
from repro.workload import (
    build_database,
    build_procedures,
    generate_operations,
)
from repro.workload.generator import LocalityChooser, Operation, OperationKind
from repro.workload.runner import (
    build_stack,
    draw_update,
    make_strategy,
    run_workload,
)

PARAMS = ModelParams(
    n_tuples=2000,
    num_p1=10,
    num_p2=10,
    selectivity_f=0.01,
    selectivity_f2=0.2,
    tuples_per_update=5,
)


@pytest.fixture(scope="module")
def db():
    return build_database(PARAMS, seed=3)


class TestDatabaseBuilder:
    def test_relation_sizes(self, db):
        assert db.r1.num_rows == 2000
        assert db.r2.num_rows == 200
        assert db.r3.num_rows == 200

    def test_access_methods(self, db):
        assert "sel" in db.r1.btree_indexes
        assert "b" in db.r2.hash_indexes
        assert "d" in db.r3.hash_indexes

    def test_foreign_keys_resolve(self, db):
        r2_keys = {row[1] for _r, row in db.r2.heap.scan_uncharged()}
        r3_keys = {row[1] for _r, row in db.r3.heap.scan_uncharged()}
        for _rid, row in db.r1.heap.scan_uncharged():
            assert row[2] in r2_keys
        for _rid, row in db.r2.heap.scan_uncharged():
            assert row[3] in r3_keys

    def test_r1_is_clustered_on_sel(self, db):
        """Initial load inserts in sel order: page means must be sorted."""
        by_page: dict[int, list[int]] = {}
        for rid, row in db.r1.heap.scan_uncharged():
            by_page.setdefault(rid.page_no, []).append(row[1])
        means = [sum(v) / len(v) for _p, v in sorted(by_page.items())]
        assert means == sorted(means)

    def test_clock_reset_after_build(self, db):
        # Fixture is module-scoped: tests above charge nothing.
        assert db.clock.elapsed_ms == 0.0 or db.clock.elapsed_ms >= 0

    def test_rid_list_covers_relation(self, db):
        assert len(db.r1_rids) == db.r1.num_rows

    def test_deterministic_given_seed(self):
        db_a = build_database(PARAMS, seed=11)
        db_b = build_database(PARAMS, seed=11)
        rows_a = sorted(row for _r, row in db_a.r1.heap.scan_uncharged())
        rows_b = sorted(row for _r, row in db_b.r1.heap.scan_uncharged())
        assert rows_a == rows_b


class TestProcedurePopulation:
    def test_counts(self, db):
        pop = build_procedures(db, PARAMS, model=1, seed=3)
        assert len(pop.p1_names) == PARAMS.num_p1
        assert len(pop.p2_names) == PARAMS.num_p2
        assert pop.size == PARAMS.num_objects

    def test_sharing_fraction(self, db):
        params = PARAMS.replace(sharing_factor=0.6)
        pop = build_procedures(db, params, model=1, seed=3)
        assert len(pop.shared_p2_names) == round(0.6 * params.num_p2)

    def test_no_sharing(self, db):
        pop = build_procedures(
            db, PARAMS.replace(sharing_factor=0.0), model=1, seed=3
        )
        assert pop.shared_p2_names == []

    def test_model2_produces_three_way_joins(self, db):
        from repro.query.analysis import normalize_spj

        pop = build_procedures(db, PARAMS, model=2, seed=3)
        name, expr = next(
            (n, e) for n, e in pop.definitions if n in pop.p2_names
        )
        query = normalize_spj(expr, db.catalog)
        assert query.relations == ["R1", "R2", "R3"]

    def test_invalid_model_rejected(self, db):
        with pytest.raises(ValueError):
            build_procedures(db, PARAMS, model=3, seed=3)

    def test_p1_selectivity_close_to_f(self, db):
        """Interval widths target selectivity f; realised cardinalities
        should scatter around f*N."""
        from repro.query.analysis import normalize_spj

        pop = build_procedures(db, PARAMS, model=1, seed=3)
        target = PARAMS.selectivity_f * PARAMS.n_tuples
        sizes = []
        for name in pop.p1_names:
            expr = dict(pop.definitions)[name]
            query = normalize_spj(expr, db.catalog)
            matcher = query.restriction_of("R1").bind(db.r1.schema)
            sizes.append(
                sum(1 for _r, row in db.r1.heap.scan_uncharged() if matcher(row))
            )
        mean_size = sum(sizes) / len(sizes)
        assert 0.3 * target <= mean_size <= 3.0 * target


class TestOperationGenerator:
    def test_mix_respects_update_probability(self):
        params = PARAMS.with_update_probability(0.3)
        ops = list(generate_operations(params, ["A", "B"], 4000, seed=1))
        updates = sum(1 for op in ops if op.kind is OperationKind.UPDATE)
        assert 0.25 <= updates / len(ops) <= 0.35

    def test_zero_update_probability(self):
        params = PARAMS.with_update_probability(0.0)
        ops = list(generate_operations(params, ["A"], 200, seed=1))
        assert all(op.kind is OperationKind.ACCESS for op in ops)

    def test_update_carries_l(self):
        op = Operation.update(25)
        assert op.tuples_to_modify == 25 and op.procedure is None

    def test_locality_skews_accesses(self):
        rng = random.Random(0)
        names = [f"P{i}" for i in range(100)]
        chooser = LocalityChooser(names, locality=0.1, rng=rng)
        counts = Counter(chooser.choose(rng) for _ in range(20000))
        hot_total = sum(counts[name] for name in chooser.hot)
        assert 0.85 <= hot_total / 20000 <= 0.95
        assert len(chooser.hot) == 10

    def test_uniform_at_z_half(self):
        rng = random.Random(0)
        names = [f"P{i}" for i in range(10)]
        chooser = LocalityChooser(names, locality=0.5, rng=rng)
        counts = Counter(chooser.choose(rng) for _ in range(20000))
        assert max(counts.values()) < 2.0 * min(counts.values())

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            LocalityChooser([], 0.2, random.Random(0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            list(generate_operations(PARAMS, ["A"], -1))

    def test_deterministic_given_seed(self):
        ops_a = list(generate_operations(PARAMS, ["A", "B"], 100, seed=5))
        ops_b = list(generate_operations(PARAMS, ["A", "B"], 100, seed=5))
        assert ops_a == ops_b


class TestRunner:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_workload(PARAMS, "bogus", num_operations=1)

    def test_run_produces_positive_costs(self):
        result = run_workload(
            PARAMS, "always_recompute", num_operations=60, seed=2
        )
        assert result.num_accesses + result.num_updates == 60
        assert result.cost_per_access_ms > 0
        assert result.metrics.get("access_ms").count == result.num_accesses

    def test_warm_caches_makes_ci_start_valid(self):
        cold = run_workload(
            PARAMS.with_update_probability(0.0),
            "cache_invalidate",
            num_operations=40,
            seed=2,
            warm_caches=False,
        )
        warm = run_workload(
            PARAMS.with_update_probability(0.0),
            "cache_invalidate",
            num_operations=40,
            seed=2,
            warm_caches=True,
        )
        # With no updates, a warm CI run only ever reads caches.
        assert warm.cost_per_access_ms < cold.cost_per_access_ms

    def test_observed_update_probability(self):
        result = run_workload(
            PARAMS.with_update_probability(0.5),
            "always_recompute",
            num_operations=300,
            seed=2,
        )
        assert 0.4 <= result.observed_update_probability <= 0.6

    def test_make_strategy_configures_c_inval(self):
        db = build_database(PARAMS, seed=0)
        strategy = make_strategy(
            "cache_invalidate", db, PARAMS.replace(inval_cost_ms=60.0)
        )
        assert strategy.c_inval == 60.0


def _drivers():
    """``name -> callable(**kwargs)`` running each ``build_stack`` caller
    with an empty stream (the assembly is all that executes)."""
    from repro.concurrent.engine import run_concurrent_workload
    from repro.faults.chaos import run_chaos
    from repro.serve.load import build_serving_stack, run_served_workload

    strategy = "update_cache_rvm"
    return {
        "run_workload": lambda **kw: run_workload(
            PARAMS, strategy, num_operations=0, seed=5, **kw
        ),
        "run_concurrent_workload": lambda **kw: run_concurrent_workload(
            PARAMS, strategy, mpl=2, num_operations=0, seed=5, **kw
        ),
        "run_chaos": lambda **kw: run_chaos(
            PARAMS, strategy, num_operations=0, seed=5, **kw
        ),
        "build_serving_stack": lambda **kw: build_serving_stack(
            PARAMS, strategy, seed=5, **kw
        ),
        "run_served_workload": lambda **kw: run_served_workload(
            PARAMS, strategy, num_operations=0, seed=5, **kw
        ),
    }


class TestBuildStack:
    def test_every_driver_starts_from_the_same_universe(self, monkeypatch):
        """Each driver's own call to ``build_stack`` hands back the same
        warmed database, a zeroed clock and zeroed counters."""
        import repro.concurrent.engine as engine
        import repro.faults.chaos as chaos
        import repro.serve.load as load
        import repro.workload.runner as runner

        seen = []

        def recording(*args, **kwargs):
            stack = build_stack(*args, **kwargs)
            db, pop, strategy, manager = stack
            seen.append((
                chaos.database_digest(db),
                db.clock.elapsed_ms,
                manager.num_accesses,
                pop.names,
                sorted(strategy.procedures),
            ))
            return stack

        for module in (runner, engine, chaos, load):
            monkeypatch.setattr(module, "build_stack", recording)
        for run in _drivers().values():
            run()
        assert len(seen) == 5
        assert all(universe == seen[0] for universe in seen)
        digest, clock_ms, accesses, names, defined = seen[0]
        assert clock_ms == 0.0 and accesses == 0
        assert sorted(names) == defined

    def test_warm_up_fills_caches_off_the_books(self):
        from repro.faults.chaos import database_digest

        cold = build_stack(
            PARAMS, "cache_invalidate", seed=5, warm_caches=False
        )
        warm = build_stack(PARAMS, "cache_invalidate", seed=5)
        assert database_digest(cold[0]) != database_digest(warm[0])
        for db, _pop, _strategy, manager in (cold, warm):
            assert db.clock.elapsed_ms == 0.0
            assert manager.num_accesses == 0
            assert manager.access_cost_ms == 0.0

    @pytest.mark.parametrize("driver", sorted(_drivers()))
    def test_bad_shard_count_is_one_error(self, driver):
        with pytest.raises(ValueError, match="^shards must be >= 1$"):
            _drivers()[driver](shards=0)

    @pytest.mark.parametrize("driver", ["run_workload", "run_chaos"])
    @pytest.mark.parametrize("shards", [None, 1])
    def test_replicas_need_two_shards(self, driver, shards):
        with pytest.raises(ValueError, match="^replicas require shards >= 2$"):
            _drivers()[driver](shards=shards, replicas=1)

    def test_manager_factory_is_honoured(self):
        from repro.core import ProcedureManager

        built_over = []

        class Recording(ProcedureManager):
            def __init__(self, strategy):
                super().__init__(strategy)
                built_over.append(len(strategy.procedures))

        db, pop, strategy, manager = build_stack(
            PARAMS, "cache_invalidate", seed=1, manager_factory=Recording
        )
        assert isinstance(manager, Recording)
        assert manager.strategy is strategy
        # Built over the bare strategy; procedures are defined through it.
        assert built_over == [0]
        assert len(strategy.procedures) == len(pop.names)

    def test_prebuilt_database_and_population_are_used(self, db):
        pop = build_procedures(db, PARAMS, model=1, seed=3)
        built = build_stack(
            PARAMS, "always_recompute", seed=3, database=db, population=pop
        )
        assert built[0] is db and built[1] is pop


# First change-set drawn from ``Random(seed + 3)`` over a fresh database,
# as ``[((page, slot), new_row), ...]``, then the rng's next ``random()`` —
# captured from the pre-``draw_update`` serial runner (parent commit).
PINNED_DRAWS = {
    (0, "R1"): (
        [((13, 19), (487, 267, 162)), ((33, 25), (1213, 757, 145)),
         ((30, 34), (1114, 1875, 197))],
        0.6039200385961945,
    ),
    (3, "R2"): (
        [((3, 26), (146, 146, 195, 170)), ((0, 20), (20, 20, 66, 116)),
         ((3, 4), (124, 124, 9, 154))],
        0.00045171488507100843,
    ),
    (11, "R3"): (
        [((0, 27), (27, 27, 791890)), ((3, 37), (157, 157, 683715)),
         ((4, 19), (179, 179, 552716))],
        0.9403523895661179,
    ),
}


class TestDrawUpdate:
    @pytest.mark.parametrize("seed,relation", sorted(PINNED_DRAWS))
    def test_rng_sequence_is_the_pre_refactor_one(self, seed, relation):
        db = build_database(PARAMS, seed=seed)
        rng = random.Random(seed + 3)
        keys, old_rows, new_rows = draw_update(db, rng, relation, 3)
        rids = [db.r1_rids[pos] for pos in keys] if relation == "R1" else keys
        changes = [
            ((rid.page_no, rid.slot_no), new)
            for rid, new in zip(rids, new_rows)
        ]
        assert (changes, rng.random()) == PINNED_DRAWS[seed, relation]
        heap = db.relations[relation].heap
        assert old_rows == [heap.read(rid) for rid in rids]

    def test_pre_reads_are_charged_as_base_update(self):
        db = build_database(PARAMS, seed=0)
        before = db.clock.snapshot()
        draw_update(db, random.Random(3), "R1", 4)
        assert db.clock.elapsed_since(before) > 0.0

    def test_unknown_relation_rejected(self, db):
        with pytest.raises(ValueError, match="unknown update target"):
            draw_update(db, random.Random(0), "R9", 1)
