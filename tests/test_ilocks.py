"""Unit tests for the i-lock table (rule indexing)."""

from repro.locks import ILockTable
from repro.query.plan import LockSpec
from repro.query.predicate import KeyInterval


def interval_lock(lo, hi):
    return LockSpec("R1", KeyInterval("sel", lo, hi, True, False))


class TestLockLifecycle:
    def test_set_and_read_back(self):
        table = ILockTable()
        table.set_locks("P", [interval_lock(0, 10)])
        assert table.locks_of("P") == [interval_lock(0, 10)]
        assert table.num_locks() == 1

    def test_set_replaces_previous_locks(self):
        table = ILockTable()
        table.set_locks("P", [interval_lock(0, 10)])
        table.set_locks("P", [interval_lock(50, 60)])
        assert table.locks_of("P") == [interval_lock(50, 60)]
        assert not table.conflicting_procedures("R1", [{"sel": 5}])

    def test_clear(self):
        table = ILockTable()
        table.set_locks("P", [interval_lock(0, 10)])
        table.clear_locks("P")
        assert table.locks_of("P") == []
        assert table.num_locks() == 0
        table.clear_locks("P")  # idempotent

    def test_unknown_procedure_has_no_locks(self):
        assert ILockTable().locks_of("ghost") == []


class TestConflictDetection:
    def test_value_inside_interval_conflicts(self):
        table = ILockTable()
        table.set_locks("P", [interval_lock(10, 20)])
        assert table.conflicting_procedures("R1", [{"sel": 15}]) == {"P"}

    def test_value_outside_interval_does_not_conflict(self):
        table = ILockTable()
        table.set_locks("P", [interval_lock(10, 20)])
        assert table.conflicting_procedures("R1", [{"sel": 25}]) == set()
        assert table.conflicting_procedures("R1", [{"sel": 20}]) == set()  # half-open

    def test_old_or_new_value_breaks_lock(self):
        """The paper's 2l accounting: both the before- and after-image can
        break a lock."""
        table = ILockTable()
        table.set_locks("P", [interval_lock(10, 20)])
        # old inside, new outside
        assert table.conflicting_procedures(
            "R1", [{"sel": 15}, {"sel": 99}]
        ) == {"P"}
        # old outside, new inside
        assert table.conflicting_procedures(
            "R1", [{"sel": 99}, {"sel": 15}]
        ) == {"P"}

    def test_other_relation_never_conflicts(self):
        table = ILockTable()
        table.set_locks("P", [interval_lock(10, 20)])
        assert table.conflicting_procedures("R2", [{"sel": 15}]) == set()

    def test_whole_relation_lock_conflicts_with_everything(self):
        table = ILockTable()
        table.set_locks("P", [LockSpec("R1", None)])
        assert table.conflicting_procedures("R1", [{"anything": 1}]) == {"P"}

    def test_point_lock(self):
        table = ILockTable()
        table.set_locks("P", [LockSpec("R2", KeyInterval.point("b", 7))])
        assert table.conflicting_procedures("R2", [{"b": 7}]) == {"P"}
        assert table.conflicting_procedures("R2", [{"b": 8}]) == set()

    def test_missing_field_in_write_does_not_conflict(self):
        table = ILockTable()
        table.set_locks("P", [interval_lock(10, 20)])
        assert table.conflicting_procedures("R1", [{"other": 15}]) == set()

    def test_multiple_procedures(self):
        table = ILockTable()
        table.set_locks("A", [interval_lock(0, 10)])
        table.set_locks("B", [interval_lock(5, 15)])
        table.set_locks("C", [interval_lock(90, 95)])
        assert table.conflicting_procedures("R1", [{"sel": 7}]) == {"A", "B"}

    def test_procedure_with_multiple_locks(self):
        table = ILockTable()
        table.set_locks(
            "P",
            [interval_lock(0, 10), LockSpec("R2", KeyInterval.point("b", 3))],
        )
        assert table.conflicting_procedures("R2", [{"b": 3}]) == {"P"}
        assert table.conflicting_procedures("R1", [{"sel": 3}]) == {"P"}


class TestSortedValueRuns:
    """The memoized per-batch sorted value runs behind the swept probe
    and the shard router."""

    def test_swept_probe_over_runs_matches_naive_probe(self):
        from repro.locks import SortedValueRuns

        table = ILockTable()
        table.set_locks("P", [interval_lock(10, 20)])
        changed = [{"sel": 15}, {"sel": 99}]
        rows = [(None, 15, 0), (None, 99, 0)]
        by_rows = table.conflicting_procedures_swept(
            "R1", SortedValueRuns(["rid", "sel", "pad"], rows)
        )
        by_dicts = table.conflicting_procedures_swept(
            "R1", SortedValueRuns.from_dicts(changed)
        )
        naive = table.conflicting_procedures("R1", changed)
        assert by_rows == by_dicts == naive == {"P"}
        # No rows means no write: even a whole-relation lock survives.
        table.set_locks("W", [LockSpec("R1", None)])
        empty = SortedValueRuns(["rid", "sel", "pad"], [])
        assert table.conflicting_procedures_swept("R1", empty) == set()

    def test_a_field_sorts_once_on_first_probe(self):
        from repro.locks import SortedValueRuns

        runs = SortedValueRuns(["rid", "sel"], [(1, 30), (2, None), (3, 10)])
        assert runs._by_field == {}
        assert runs.values_for("sel") == [10, 30]
        assert runs.values_for("sel") is runs.values_for("sel")
        assert runs.values_for("ghost") == []
        assert set(runs._by_field) == {"sel", "ghost"}

    def test_one_runs_build_serves_many_tables(self):
        """The memoization regression: a batch's runs are built once and
        probed against any number of (per-shard) lock tables."""
        from repro.core.batch import DeltaBatch
        from repro.locks import SortedValueRuns

        batch = DeltaBatch("R1")
        batch.add_transaction(
            inserts=[(1, 15, 0), (2, 55, 0)], deletes=[(1, 5, 0)]
        )
        tables = []
        for shard in range(4):
            table = ILockTable()
            table.set_locks(
                f"P{shard}", [interval_lock(shard * 25, shard * 25 + 25)]
            )
            tables.append(table)
        before = SortedValueRuns.builds
        runs = batch.sorted_value_runs(["rid", "sel", "pad"])
        broken = [
            table.conflicting_procedures_swept("R1", runs=runs)
            for table in tables
        ]
        # Same cached object on re-request; exactly one build total.
        assert batch.sorted_value_runs(["rid", "sel", "pad"]) is runs
        assert SortedValueRuns.builds == before + 1
        # sel values {5, 15, 55} break exactly the [0,25) and [50,75)
        # procedures.
        assert broken == [{"P0"}, set(), {"P2"}, set()]

    def test_probe_charges_nothing(self):
        """i-lock probing is memory-resident bookkeeping: neither the
        build nor the sweep may charge the simulated clock."""
        from repro.locks import SortedValueRuns
        from repro.sim import CostClock

        clock = CostClock()
        before = clock.elapsed_ms
        table = ILockTable()
        table.set_locks("P", [interval_lock(10, 20)])
        runs = SortedValueRuns(["sel"], [(v,) for v in (1, 15, 40)])
        table.conflicting_procedures_swept("R1", runs=runs)
        assert clock.elapsed_ms == before

    def test_interval_hits_respects_bounds(self):
        from repro.locks import SortedValueRuns
        from repro.query.predicate import KeyInterval

        runs = SortedValueRuns(["sel"], [(v,) for v in (3, 9, 27)])
        assert runs.interval_hits(KeyInterval("sel", 4, 10, True, False))
        assert not runs.interval_hits(
            KeyInterval("sel", 10, 27, True, False)
        )
        assert runs.interval_hits(KeyInterval("sel", None, None))
        assert not runs.interval_hits(KeyInterval("other", 0, 100))
