"""The storage row-path gate: what moving a tuple costs in Python calls.

ROADMAP item 3a makes the engine pay for a row once — one validation per
row, one frame per page touch. Wall time on a shared box is neither exact
nor stable, so this gate counts instead (``tests/test_obs_overhead.py`` is
the template), over one fixed unobserved run: RVM at the wall benchmark's
l=100 maintenance point, five update transactions = 500 moved tuples,
seed 7.

- **calls/tuple** — Python-level function calls whose code lives in
  ``repro/storage/`` per moved tuple (``sys.setprofile``). The parent of
  the row-path PR made 54 256 (108.5 per tuple): 2.3 validations per row,
  three or four frames per page touch.
- **the simulated side** — page reads, page writes, CPU screens and the
  clock total are literals captured at that parent: the cheaper row path
  must charge exactly what the old one charged.
"""

from __future__ import annotations

import os
import random
import sys
from types import SimpleNamespace

import pytest

from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.query import predicate as compiled_predicates
from repro.workload.runner import build_stack, perform_update

_PARAMS = SIM_SCALE_PARAMS.replace(
    tuples_per_update=100
).with_update_probability(0.5)
_TRANSACTIONS = 5
_TUPLES = 100

#: Captured at the parent commit (row re-validated per hop, three frames
#: per page touch): 54 256 storage calls over the same five transactions.
PARENT_READS = 5_132
PARENT_WRITES = 2_124
PARENT_CPU_TESTS = 162
PARENT_ELAPSED_MS = 217_842.0

#: Pinned for this row path; the gate itself is the ceiling. 28 135 until
#: the columnar toggle was deleted: its 110 checks over these five
#: transactions were calls into ``repro/storage/columnar.py``.
STORAGE_CALLS = 28_025
MAX_STORAGE_CALLS = 32_000

_COUNTED = os.path.join("repro", "storage") + os.sep


@pytest.fixture(scope="module")
def gate() -> SimpleNamespace:
    # A matcher cached by an earlier test is found through Schema.__eq__
    # (a storage call); start cold so the count does not depend on order.
    compiled_predicates._matcher_cache.clear()
    compiled_predicates._column_matcher_cache.clear()
    db, _population, _strategy, manager = build_stack(
        _PARAMS, "update_cache_rvm", seed=7
    )
    rng = random.Random(7)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and _COUNTED in frame.f_code.co_filename:
            calls += 1

    before = db.clock.snapshot()
    sys.setprofile(profile)
    try:
        for _ in range(_TRANSACTIONS):
            perform_update(db, manager, rng, _TUPLES)
    finally:
        sys.setprofile(None)
    return SimpleNamespace(calls=calls, cost=db.clock.snapshot() - before)


def test_storage_calls_per_tuple(gate):
    assert gate.calls <= MAX_STORAGE_CALLS
    # Moved on purpose? Re-pin here and in DESIGN.md "Row path".
    assert gate.calls == STORAGE_CALLS


def test_simulated_side_unchanged(gate):
    assert gate.cost.disk_reads == PARENT_READS
    assert gate.cost.disk_writes == PARENT_WRITES
    assert gate.cost.cpu_tests == PARENT_CPU_TESTS
    assert gate.cost.elapsed_ms == PARENT_ELAPSED_MS
