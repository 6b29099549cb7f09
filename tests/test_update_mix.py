"""Tests for mixed-relation update workloads (the paper's §8 unanalyzed
factor: "the relative frequency of updates to different relations")."""

import random
from collections import Counter

import pytest

from repro.core import ProcedureManager
from repro.model import ModelParams
from repro.workload import build_database, build_procedures, generate_operations
from repro.workload.generator import OperationKind
from repro.workload.runner import make_strategy, run_workload

PARAMS = ModelParams(
    n_tuples=2000,
    num_p1=6,
    num_p2=6,
    selectivity_f=0.01,
    selectivity_f2=0.2,
    tuples_per_update=4,
)


class TestGeneratorWeights:
    def test_default_sends_all_updates_to_r1(self):
        ops = [
            op
            for op in generate_operations(PARAMS, ["A"], 400, seed=1)
            if op.kind is OperationKind.UPDATE
        ]
        assert ops and all(op.relation == "R1" for op in ops)

    def test_weights_distribute_updates(self):
        ops = [
            op
            for op in generate_operations(
                PARAMS, ["A"], 4000, seed=1,
                update_weights={"R1": 0.5, "R2": 0.5},
            )
            if op.kind is OperationKind.UPDATE
        ]
        counts = Counter(op.relation for op in ops)
        total = sum(counts.values())
        assert 0.4 <= counts["R1"] / total <= 0.6
        assert 0.4 <= counts["R2"] / total <= 0.6

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            list(
                generate_operations(
                    PARAMS, ["A"], 10, update_weights={"R1": -1.0}
                )
            )
        with pytest.raises(ValueError):
            list(generate_operations(PARAMS, ["A"], 10, update_weights={}))


class TestRunnerMixedUpdates:
    @pytest.mark.parametrize("relation", ["R2", "R3"])
    def test_single_relation_smoke(self, relation):
        result = run_workload(
            PARAMS,
            "always_recompute",
            model=2,
            num_operations=60,
            seed=6,
            update_weights={relation: 1.0},
        )
        assert result.num_updates > 0

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            run_workload(
                PARAMS,
                "always_recompute",
                num_operations=40,
                seed=6,
                update_weights={"R9": 1.0},
            )


@pytest.mark.slow
class TestCrossStrategyEquivalenceUnderMixedUpdates:
    def test_all_strategies_agree_with_r2_and_r3_updates(self):
        """Correctness of CI's i-locks, AVM's inner-relation delta joins,
        and RVM's right-side propagation, all at once: every strategy must
        return identical rows on an identical mixed-update stream."""
        from repro.workload.generator import generate_operations
        from repro.workload.runner import perform_update

        traces = {}
        for name in (
            "always_recompute",
            "cache_invalidate",
            "update_cache_avm",
            "update_cache_rvm",
        ):
            db = build_database(PARAMS, seed=8)
            pop = build_procedures(db, PARAMS, model=2, seed=8)
            strategy = make_strategy(name, db, PARAMS)
            manager = ProcedureManager(strategy)
            for proc_name, expr in pop.definitions:
                manager.define_procedure(proc_name, expr)
            rng = random.Random(8)
            trace = []
            ops = generate_operations(
                PARAMS,
                pop.names,
                80,
                seed=8,
                update_weights={"R1": 0.4, "R2": 0.4, "R3": 0.2},
            )
            for op in ops:
                if op.kind is OperationKind.UPDATE:
                    perform_update(
                        db, manager, rng, op.tuples_to_modify, op.relation
                    )
                else:
                    trace.append(
                        (op.procedure, sorted(manager.access(op.procedure).rows))
                    )
            traces[name] = trace
        baseline = traces.pop("always_recompute")
        assert baseline, "stream produced no accesses"
        for name, trace in traces.items():
            assert trace == baseline, f"{name} diverged under mixed updates"
