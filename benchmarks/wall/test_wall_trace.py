"""The tracer: self-time arithmetic, survival of a vanished target,
clean removal, and no effect on what the program counts."""

import asyncio
import importlib

from wall import harness
from wall.trace import TABLE, Tracer
from wall.workloads import BY_NAME, scaled


def _resolve(module_name, qualname):
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def test_self_time_is_running_time_minus_children():
    tracer = Tracer(table=())

    def leaf():
        return 1

    def numbers():
        yield leaf()
        yield leaf()

    async def waits():
        await asyncio.sleep(0)
        return leaf()

    leaf = tracer.wrap("storage", "leaf", leaf)
    numbers = tracer.wrap("query", "numbers", numbers)
    waits = tracer.wrap("serve", "waits", waits)
    root = tracer.wrap("workload", "root", lambda: (
        list(numbers()), asyncio.run(waits())
    ))
    tracer.op_id = 0
    assert root() == ([1, 1], 1)

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(tracer.targets[span[3]][1], []).append(span)
    assert {name: len(spans) for name, spans in by_name.items()} == {
        "leaf": 3, "numbers": 1, "waits": 1, "root": 1,
    }
    root_span = by_name["root"][0]
    numbers_span, waits_span = by_name["numbers"][0], by_name["waits"][0]
    # Generator and coroutine spans hang off whoever first ran them, and
    # the leaves off the slice that called them.
    assert numbers_span[1] == waits_span[1] == root_span[0]
    assert sorted(span[1] for span in by_name["leaf"]) == sorted(
        [numbers_span[0], numbers_span[0], waits_span[0]]
    )
    # Self times partition the root's running time.
    summary = tracer.summarize(first_pass_ops=1)
    assert abs(sum(summary.self_s.values()) - root_span[6]) < 1e-9
    assert all(value >= 0 for value in summary.self_s.values())


def test_missing_target_is_counted_not_fatal(monkeypatch):
    monkeypatch.delattr(
        "repro.locks.ilocks.ILockTable.conflicting_procedures_swept"
    )
    table = TABLE + (("core", "repro.no_such_module", "gone"),)
    originals = {
        (module, name): _resolve(module, name)
        for _layer, module, name in TABLE
        if not name.endswith("conflicting_procedures_swept")
    }
    with Tracer(table=table) as tracer:
        assert tracer.missing == 2
        wrapped = [
            key for key, original in originals.items()
            if _resolve(*key) is not original
        ]
        assert len(wrapped) == len(originals)
    for key, original in originals.items():
        assert _resolve(*key) is original, key
    import repro.core.cache_invalidate as importer
    import repro.query.executor as owner

    assert importer.execute_plan is owner.execute_plan


def test_untraced_run_after_a_traced_one_counts_the_same():
    workload = scaled(BY_NAME["serve_zipf"], 0.02)
    tracer = Tracer()
    traced = harness.measure(workload, 7, 0.0, passes=2, tracer=tracer)
    spans = len(tracer.spans)
    plain = harness.measure(workload, 7, 0.0, passes=2)
    assert spans and len(tracer.spans) == spans  # wrappers are gone
    assert tracer.missing == 0
    assert traced.failed == plain.failed == 0
    assert traced.log.counts == plain.log.counts
    assert traced.log.op_digests == plain.log.op_digests
    layers = tracer.summarize(traced.log.ops[0]).self_s
    assert {"workload", "serve", "concurrent", "core", "query"} <= set(layers)
