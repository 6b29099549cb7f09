"""The oracle's sample: it must look where a stale result could be, and
it must fail a run whose invalidation is broken."""

from wall import harness, oracle
from wall.workloads import BY_NAME, scaled


def _definitions(count):
    return [(f"p{index}", object()) for index in range(count)]


def test_a_sample_is_drawn_mostly_from_the_procedures_in_use():
    definitions = _definitions(10_000)
    in_use = [f"p{index}" for index in range(0, 10_000, 40)]  # 250 of them
    chosen = oracle.choose(definitions, in_use, 200, seed=7)
    names = [name for name, _expression in chosen]
    assert len(names) == len(set(names)) == 200
    warm = len(set(names) & set(in_use))
    assert warm == round(200 * oracle.IN_USE_SHARE)
    assert chosen == oracle.choose(definitions, in_use, 200, seed=7)
    assert chosen != oracle.choose(definitions, in_use, 200, seed=8)


def test_a_sample_is_topped_up_from_whichever_side_has_enough():
    definitions = _definitions(300)
    few_warm = oracle.choose(definitions, ["p1", "p2"], 200, seed=1)
    assert {"p1", "p2"} <= {name for name, _ in few_warm}
    assert len(few_warm) == 200
    few_cold = oracle.choose(
        definitions, [f"p{index}" for index in range(290)], 200, seed=1
    )
    assert len({name for name, _ in few_cold} - {"p290"}) >= 190
    assert oracle.choose(definitions, [], None, seed=1) is definitions
    assert oracle.choose(definitions, [], 300, seed=1) is definitions


def test_scale_workload_fails_when_ilocks_stop_invalidating(monkeypatch):
    workload = scaled(BY_NAME["scale_ci_1e5"], 0.02)
    assert workload.oracle_sample < workload.params.num_p1
    sound = harness.measure(workload, 7, 0.0, passes=2)
    assert sound.compared == workload.oracle_sample and not sound.wrong

    for probe in ("conflicting_procedures", "conflicting_procedures_batch",
                  "conflicting_procedures_swept"):
        monkeypatch.setattr(
            f"repro.locks.ilocks.ILockTable.{probe}",
            lambda self, *args, **kwargs: set(),
        )
    broken = harness.measure(workload, 7, 0.0, passes=2)
    assert broken.wrong and broken.failed == len(broken.wrong)
