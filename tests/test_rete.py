"""Unit tests for Rete tokens, nodes, discrimination, and the network."""

import random

import pytest

from repro.query import RelationRef, Select, Join, Interval
from repro.query.analysis import normalize_spj
from repro.query.predicate import And, Comparison, KeyInterval
from repro.rete import ConstantTestIndex, ReteNetwork
from repro.rete.network import ReteBuildError
from repro.rete.tokens import Tag, Token, deltas_to_tokens
from repro.storage import ColumnBatch, Field, FieldKind, Schema


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


class TestTokens:
    def test_tags(self):
        assert Token.insert((1,)).is_insert
        assert not Token.delete((1,)).is_insert
        assert Token.insert((1,)).tag is Tag.INSERT

    def test_combined_with_preserves_tag_and_orders_rows(self):
        token = Token.delete((1, 2))
        right = token.combined_with((3, 4), other_on_right=True)
        assert right.row == (1, 2, 3, 4) and right.tag is Tag.DELETE
        left = token.combined_with((3, 4), other_on_right=False)
        assert left.row == (3, 4, 1, 2)

    def test_deltas_order_deletes_first(self):
        tokens = deltas_to_tokens(inserts=[(2,)], deletes=[(1,)])
        assert [t.tag for t in tokens] == [Tag.DELETE, Tag.INSERT]


class TestConstantTestIndex:
    def test_interval_candidates(self):
        index = ConstantTestIndex()
        index.add_interval("R1", KeyInterval("sel", 10, 20, True, False), "h1")
        index.add_interval("R1", KeyInterval("sel", 15, 30, True, False), "h2")
        assert _candidates(index, "R1", {"sel": 12}) == {"h1"}
        assert _candidates(index, "R1", {"sel": 17}) == {"h1", "h2"}
        assert _candidates(index, "R1", {"sel": 25}) == {"h2"}
        assert _candidates(index, "R1", {"sel": 99}) == set()

    def test_relation_scoping(self):
        index = ConstantTestIndex()
        index.add_interval("R1", KeyInterval("sel", 0, 100), "h1")
        assert _candidates(index, "R2", {"sel": 5}) == set()

    def test_catch_all(self):
        index = ConstantTestIndex()
        index.add_catch_all("R3", "h")
        assert _candidates(index, "R3", {"d": 1}) == {"h"}

    def test_unbounded_lower(self):
        index = ConstantTestIndex()
        index.add_interval("R1", KeyInterval("sel", None, 10), "h")
        assert _candidates(index, "R1", {"sel": -100}) == {"h"}
        assert _candidates(index, "R1", {"sel": 11}) == set()

    def test_size(self):
        index = ConstantTestIndex()
        index.add_interval("R1", KeyInterval("sel", 0, 1), "a")
        index.add_catch_all("R1", "b")
        assert index.size == 2


def _network(catalog, clock, buffer):
    return ReteNetwork(catalog, buffer, clock, result_tuple_bytes=100)


def _brute_p1(catalog, lo, hi):
    r1 = catalog.get("R1")
    return sorted(
        row for _r, row in r1.heap.scan_uncharged() if lo <= row[1] < hi
    )


def _brute_p2(catalog, lo, hi, lo2, hi2, three_way=False):
    r2_by_b = {}
    for _r, row in catalog.get("R2").heap.scan_uncharged():
        r2_by_b.setdefault(row[1], []).append(row)
    r3_by_d = {}
    for _r, row in catalog.get("R3").heap.scan_uncharged():
        r3_by_d.setdefault(row[1], []).append(row)
    out = []
    for _r, row in catalog.get("R1").heap.scan_uncharged():
        if not (lo <= row[1] < hi):
            continue
        for r2row in r2_by_b.get(row[2], ()):
            if not (lo2 <= r2row[2] < hi2):
                continue
            if three_way:
                for r3row in r3_by_d.get(r2row[3], ()):
                    out.append(row + r2row + r3row)
            else:
                out.append(row + r2row)
    return sorted(out)


class TestNetworkConstruction:
    def test_p1_result_is_alpha_memory(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        expr = Select(RelationRef("R1"), Interval("sel", 100, 300))
        net.add_procedure("P", normalize_spj(expr, tiny_joined_catalog))
        assert sorted(net.result_memory("P").store.peek_all()) == _brute_p1(
            tiny_joined_catalog, 100, 300
        )
        assert net.num_memories == 1
        assert net.num_and_nodes == 0

    def test_p2_model1_initial_contents(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        expr = Select(
            Join(RelationRef("R1"), RelationRef("R2"), "a", "b"),
            And(Interval("sel", 0, 500), Interval("sel2", 0, 30)),
        )
        net.add_procedure("P", normalize_spj(expr, tiny_joined_catalog))
        assert sorted(net.result_memory("P").store.peek_all()) == _brute_p2(
            tiny_joined_catalog, 0, 500, 0, 30
        )
        # driver alpha + right alpha + result beta
        assert net.num_memories == 3
        assert net.num_and_nodes == 1

    def test_p2_model2_initial_contents(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        expr = Select(
            Join(
                Join(RelationRef("R1"), RelationRef("R2"), "a", "b"),
                RelationRef("R3"),
                "c",
                "d",
            ),
            And(Interval("sel", 0, 500), Interval("sel2", 0, 30)),
        )
        net.add_procedure("P", normalize_spj(expr, tiny_joined_catalog))
        assert sorted(net.result_memory("P").store.peek_all()) == _brute_p2(
            tiny_joined_catalog, 0, 500, 0, 30, three_way=True
        )
        # R1 alpha, R2 alpha, R3 alpha, R2xR3 beta, result beta
        assert net.num_memories == 5
        assert net.num_and_nodes == 2

    def test_shared_cf_reuses_alpha(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        cf = Interval("sel", 100, 300)
        p1 = Select(RelationRef("R1"), cf)
        p2 = Select(
            Join(RelationRef("R1"), RelationRef("R2"), "a", "b"),
            And(cf, Interval("sel2", 0, 30)),
        )
        net.add_procedure("P1", normalize_spj(p1, tiny_joined_catalog))
        net.add_procedure("P2", normalize_spj(p2, tiny_joined_catalog))
        report = net.sharing_report()
        assert report["shared_memories"] == 1
        assert report["shared_tconsts"] == 1
        assert net.result_memory("P1") is not net.result_memory("P2")

    def test_distinct_cf_not_shared(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        net.add_procedure(
            "A",
            normalize_spj(
                Select(RelationRef("R1"), Interval("sel", 0, 100)),
                tiny_joined_catalog,
            ),
        )
        net.add_procedure(
            "B",
            normalize_spj(
                Select(RelationRef("R1"), Interval("sel", 100, 200)),
                tiny_joined_catalog,
            ),
        )
        assert net.sharing_report()["shared_memories"] == 0

    def test_duplicate_name_rejected(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        query = normalize_spj(
            Select(RelationRef("R1"), Interval("sel", 0, 10)), tiny_joined_catalog
        )
        net.add_procedure("P", query)
        with pytest.raises(ReteBuildError):
            net.add_procedure("P", query)

    def test_unknown_procedure_read_rejected(
        self, tiny_joined_catalog, clock, buffer
    ):
        net = _network(tiny_joined_catalog, clock, buffer)
        with pytest.raises(KeyError):
            net.read_result("nope")

    def test_definition_charges_nothing(self, tiny_joined_catalog, clock, buffer):
        clock.reset()
        net = _network(tiny_joined_catalog, clock, buffer)
        expr = Select(
            Join(RelationRef("R1"), RelationRef("R2"), "a", "b"),
            And(Interval("sel", 0, 500), Interval("sel2", 0, 30)),
        )
        net.add_procedure("P", normalize_spj(expr, tiny_joined_catalog))
        assert clock.elapsed_ms == 0.0


class TestNetworkMaintenance:
    def _updated(self, catalog, rng, count=10):
        """Apply `count` random in-place sel changes to R1; return deltas."""
        r1 = catalog.get("R1")
        rids = [rid for rid, _row in r1.heap.scan_uncharged()]
        deletes, inserts = [], []
        for rid in rng.sample(rids, count):
            old = r1.heap.read(rid)
            new = (old[0], rng.randrange(1000), old[2])
            r1.update(rid, new)
            deletes.append(old)
            inserts.append(new)
        return inserts, deletes

    def test_p1_tracks_updates(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        net.add_procedure(
            "P",
            normalize_spj(
                Select(RelationRef("R1"), Interval("sel", 100, 300)),
                tiny_joined_catalog,
            ),
        )
        rng = random.Random(1)
        for _ in range(10):
            inserts, deletes = self._updated(tiny_joined_catalog, rng)
            net.apply_update("R1", inserts, deletes)
        assert sorted(net.result_memory("P").store.peek_all()) == _brute_p1(
            tiny_joined_catalog, 100, 300
        )

    def test_p2_model2_tracks_updates(self, tiny_joined_catalog, clock, buffer):
        net = _network(tiny_joined_catalog, clock, buffer)
        expr = Select(
            Join(
                Join(RelationRef("R1"), RelationRef("R2"), "a", "b"),
                RelationRef("R3"),
                "c",
                "d",
            ),
            And(Interval("sel", 200, 700), Interval("sel2", 0, 40)),
        )
        net.add_procedure("P", normalize_spj(expr, tiny_joined_catalog))
        rng = random.Random(2)
        for _ in range(15):
            inserts, deletes = self._updated(tiny_joined_catalog, rng)
            net.apply_update("R1", inserts, deletes)
        assert sorted(net.result_memory("P").store.peek_all()) == _brute_p2(
            tiny_joined_catalog, 200, 700, 0, 40, three_way=True
        )

    def test_update_to_unrelated_relation_is_free(
        self, tiny_joined_catalog, clock, buffer
    ):
        net = _network(tiny_joined_catalog, clock, buffer)
        net.add_procedure(
            "P",
            normalize_spj(
                Select(RelationRef("R1"), Interval("sel", 0, 100)),
                tiny_joined_catalog,
            ),
        )
        clock.reset()
        net.apply_update("R3", [(99, 99, 99)], [])
        assert clock.elapsed_ms == 0.0

    def test_out_of_interval_update_costs_no_screen(
        self, tiny_joined_catalog, clock, buffer
    ):
        net = _network(tiny_joined_catalog, clock, buffer)
        net.add_procedure(
            "P",
            normalize_spj(
                Select(RelationRef("R1"), Interval("sel", 0, 10)),
                tiny_joined_catalog,
            ),
        )
        clock.reset()
        net.apply_update("R1", [(9999, 500, 0)], [(9999, 600, 0)])
        assert clock.cpu_tests == 0

    def test_read_result_charges_store_pages(
        self, tiny_joined_catalog, clock, buffer
    ):
        net = _network(tiny_joined_catalog, clock, buffer)
        net.add_procedure(
            "P",
            normalize_spj(
                Select(RelationRef("R1"), Interval("sel", 100, 300)),
                tiny_joined_catalog,
            ),
        )
        clock.reset()
        rows = net.read_result("P")
        assert rows
        assert clock.disk_reads >= 1
        assert clock.disk_writes == 0
