"""Edge-case coverage for corners the main suites don't reach."""

import pytest

from repro.core.delta import DeltaJoinError, DeltaJoiner
from repro.query.analysis import JoinEdge, SPJQuery
from repro.recovery import RecordKind, WriteAheadLog
from repro.sim import CostClock
from repro.storage import ColumnBatch, Field, FieldKind, Schema


class TestDeltaJoinerEdgeCases:
    def test_disconnected_join_graph_detected(self, tiny_joined_catalog, clock):
        # Hand-build a query whose edge connects two relations, neither of
        # which is the delta's relation and neither reachable from it.
        query = SPJQuery(
            relations=["R1", "R2", "R3"],
            joins=[JoinEdge("c", "R3", "d")],  # R2-R3 only; R1 floats
        )
        joiner = DeltaJoiner(query, tiny_joined_catalog, clock)
        with pytest.raises(DeltaJoinError):
            joiner.compute("R1", [(1, 2, 3)])

    def test_ambiguous_edge_owner_detected(self, catalog, clock):
        from repro.storage import Field, Schema

        catalog.create_relation("X", Schema([Field("k"), Field("v")]))
        catalog.create_relation("Y", Schema([Field("k2"), Field("v")]))
        query = SPJQuery(
            relations=["X", "Y"], joins=[JoinEdge("v", "Y", "k2")]
        )
        with pytest.raises(DeltaJoinError):
            DeltaJoiner(query, catalog, clock)

    def test_btree_fallback_lookup(self, tiny_joined_catalog, clock):
        """When the inner field has only a B-tree (not hash), the joiner
        uses point range-scans."""
        query = SPJQuery(
            relations=["R2", "R1"],
            joins=[JoinEdge("b", "R1", "sel")],  # R1.sel has a B-tree
        )
        joiner = DeltaJoiner(query, tiny_joined_catalog, clock)
        out = joiner.compute("R2", [(7, 7, 10, 3)])
        expected = sorted(
            (7, 7, 10, 3) + row
            for _r, row in tiny_joined_catalog.get("R1").heap.scan_uncharged()
            if row[1] == 7
        )
        assert sorted(out) == expected


class TestWalReplayCharging:
    def test_records_after_charges_log_pages(self, clock):
        wal = WriteAheadLog(clock, records_per_page=4)
        for i in range(10):
            wal.append(RecordKind.INVALIDATE, f"P{i}")
        wal.flush()
        clock.reset()
        list(wal.records_after(2))  # 8 records -> 2 log pages
        assert clock.disk_reads == 2

    def test_empty_replay_charges_nothing(self, clock):
        wal = WriteAheadLog(clock, records_per_page=4)
        wal.append(RecordKind.INVALIDATE, "P")
        wal.flush()
        clock.reset()
        assert list(wal.records_after(10)) == []
        assert clock.disk_reads == 0


@pytest.mark.slow
class TestCliCompare:
    def test_compare_smoke(self, capsys):
        from repro.cli import main

        assert main(["compare", "--operations", "40", "-P", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "sim/model" in out
        assert "update_cache_rvm" in out


class TestMakeStrategyGuards:
    def test_scheme_with_non_ci_strategy_rejected(self, sim_params):
        from repro.workload import build_database
        from repro.workload.runner import make_strategy

        db = build_database(sim_params, seed=1)
        with pytest.raises(ValueError):
            make_strategy(
                "always_recompute", db, sim_params, invalidation_scheme="wal"
            )


def _candidates(index, relation, field_values):
    """The handles ``index`` routes one tuple with ``field_values`` to."""
    schema = Schema(
        [
            Field(name, FieldKind.STR if isinstance(value, str) else FieldKind.INT)
            for name, value in field_values.items()
        ]
    )
    batch = ColumnBatch(schema, [tuple(field_values.values())])
    return {handle for handle, _rows in index.candidates_batch(relation, batch)}


class TestDiscriminationEdgeCases:
    def test_string_interval_candidates(self):
        """t-const constants over string domains (the paper's 'job =
        Programmer') discriminate correctly."""
        from repro.query.predicate import KeyInterval
        from repro.rete import ConstantTestIndex

        index = ConstantTestIndex()
        index.add_interval("EMP", KeyInterval.point("job", "Clerk"), "h1")
        index.add_interval("EMP", KeyInterval.point("job", "Programmer"), "h2")
        assert _candidates(index, "EMP", {"job": "Programmer"}) == {"h2"}
        assert _candidates(index, "EMP", {"job": "Clerk"}) == {"h1"}
        assert _candidates(index, "EMP", {"job": "Manager"}) == set()

    def test_missing_field_values_yield_no_interval_candidates(self):
        from repro.query.predicate import KeyInterval
        from repro.rete import ConstantTestIndex

        index = ConstantTestIndex()
        index.add_interval("R1", KeyInterval("sel", 0, 10), "h")
        assert _candidates(index, "R1", {"other": 5}) == set()
