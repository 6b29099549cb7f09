"""The benchmark ledger: pinned suite, history files, regression gate."""

import copy
import json

import pytest

from repro.obs.flight import SCHEMA_VERSION
from repro.obs.ledger import (
    SUITE_VERSION,
    append_history,
    compare_snapshots,
    load_snapshot,
    regressions,
    render_delta_table,
    run_bench_suite,
    validate_snapshot,
    write_latest,
)


@pytest.fixture(scope="module")
def snapshot_again(bench_snapshot):
    """A second full suite execution in the same process, strictly after
    the session's shared one (``tests/conftest.py::bench_snapshot``) —
    the probe for mutable module-level state (caches warmed by the first
    run would skew this one's simulated costs)."""
    return run_bench_suite(operations=60, seed=7)


class TestSuite:
    def test_snapshot_shape(self, bench_snapshot):
        snap = bench_snapshot
        assert validate_snapshot(snap) == []
        assert snap["schema_version"] == SCHEMA_VERSION
        assert snap["suite_version"] == SUITE_VERSION
        assert snap["operations"] == 60
        # The pinned scenarios all contribute metrics.
        prefixes = {key.split(".")[0] for key in snap["metrics"]}
        assert {
            "fig05", "fig17", "concurrent", "chaos", "update", "serve",
        } <= prefixes
        for entry in snap["metrics"].values():
            assert entry["direction"] in ("lower", "higher")

    def test_suite_is_deterministic(self, bench_snapshot, snapshot_again):
        assert snapshot_again["metrics"] == bench_snapshot["metrics"]
        assert snapshot_again["checks"] == bench_snapshot["checks"]

    def test_double_run_latest_payload_byte_identical(
        self, tmp_path, bench_snapshot, snapshot_again
    ):
        """Two suite executions in one process write byte-identical
        ``BENCH_latest`` files once run provenance (wall-clock stamps,
        git sha) is pinned — so no scenario leaks mutable module-level
        state (e.g. batching caches) into a later run's measurements."""
        first = tmp_path / "BENCH_latest_1.json"
        second = tmp_path / "BENCH_latest_2.json"
        pinned = {"created_unix": 0.0, "created_iso": "", "git_sha": ""}
        write_latest(str(first), {**bench_snapshot, **pinned})
        write_latest(str(second), {**snapshot_again, **pinned})
        assert first.read_bytes() == second.read_bytes()

    def test_checks_pass_on_healthy_tree(self, bench_snapshot):
        assert all(bench_snapshot["checks"].values())


class TestValidate:
    def test_rejects_malformed(self, bench_snapshot):
        bad = copy.deepcopy(bench_snapshot)
        del bad["suite_version"]
        bad["metrics"]["fig05.always_recompute.cost_ms"]["direction"] = "up"
        problems = validate_snapshot(bad)
        assert any("suite_version" in p for p in problems)
        assert any("direction" in p for p in problems)

    def test_rejects_empty_metrics(self):
        assert validate_snapshot({"metrics": {}}) != []


class TestHistoryFiles:
    def test_append_and_latest_roundtrip(self, tmp_path, bench_snapshot):
        history = tmp_path / "BENCH_history.jsonl"
        latest = tmp_path / "BENCH_latest.json"
        append_history(str(history), bench_snapshot)
        append_history(str(history), bench_snapshot)
        write_latest(str(latest), bench_snapshot)
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "bench_snapshot"
        assert load_snapshot(str(latest))["metrics"] == bench_snapshot["metrics"]
        # A baseline may point at the history file: last line wins.
        assert load_snapshot(str(history))["metrics"] == \
            bench_snapshot["metrics"]


class TestCompare:
    def test_self_compare_is_clean(self, bench_snapshot):
        deltas = compare_snapshots(bench_snapshot, bench_snapshot, tolerance=0.0)
        assert deltas
        assert regressions(deltas) == []
        assert all(d.status == "ok" for d in deltas
                   if d.delta_frac is not None)

    def test_compare_output_is_insertion_order_independent(self, bench_snapshot):
        """The --compare table is a function of the key sets alone: a
        baseline whose dicts were written in a different order renders
        byte-identical output."""
        base = bench_snapshot
        shuffled = copy.deepcopy(base)
        shuffled["metrics"] = dict(
            reversed(list(shuffled["metrics"].items()))
        )
        shuffled["checks"] = dict(reversed(list(shuffled["checks"].items())))
        straight = compare_snapshots(base, base, tolerance=0.1)
        reordered = compare_snapshots(shuffled, base, tolerance=0.1)
        assert [d.key for d in straight] == [d.key for d in reordered]
        assert render_delta_table(
            straight, tolerance=0.1
        ) == render_delta_table(reordered, tolerance=0.1)

    def test_compare_survives_mixed_type_keys(self, bench_snapshot):
        """A hand-edited baseline with a non-string key cannot crash the
        union sort; the stray key is reported as missing coverage."""
        baseline = copy.deepcopy(bench_snapshot)
        baseline["metrics"][123] = {
            "value": 1.0, "unit": "ms", "direction": "lower",
        }
        deltas = compare_snapshots(baseline, bench_snapshot, tolerance=0.1)
        stray = [d for d in deltas if d.key == 123]
        assert len(stray) == 1
        assert stray[0].status == "missing"

    def test_injected_regression_detected(self, bench_snapshot):
        baseline = copy.deepcopy(bench_snapshot)
        key = "concurrent.cache_invalidate.mpl4.cost_per_access_ms"
        # The baseline was twice as cheap → current regressed by +100%.
        baseline["metrics"][key]["value"] /= 2.0
        deltas = compare_snapshots(baseline, bench_snapshot, tolerance=0.10)
        bad = regressions(deltas)
        assert [d.key for d in bad] == [key]
        assert bad[0].status == "regression"
        assert bad[0].delta_frac == pytest.approx(1.0)
        table = render_delta_table(deltas, tolerance=0.10)
        assert "REGRESSED" in table and key in table

    def test_higher_is_better_direction(self, bench_snapshot):
        baseline = copy.deepcopy(bench_snapshot)
        key = "concurrent.cache_invalidate.mpl4.throughput_ops_per_s"
        baseline["metrics"][key]["value"] *= 2.0  # throughput halved since
        deltas = compare_snapshots(baseline, bench_snapshot, tolerance=0.10)
        assert [d.key for d in regressions(deltas)] == [key]

    def test_tolerance_forgives_small_moves(self, bench_snapshot):
        baseline = copy.deepcopy(bench_snapshot)
        key = "chaos.cache_invalidate.mpl2.clock_total_ms"
        baseline["metrics"][key]["value"] *= 0.95  # +5.3% move
        assert regressions(
            compare_snapshots(baseline, bench_snapshot, tolerance=0.10)
        ) == []
        assert regressions(
            compare_snapshots(baseline, bench_snapshot, tolerance=0.01)
        ) != []

    def test_missing_metric_is_a_regression(self, bench_snapshot):
        baseline = copy.deepcopy(bench_snapshot)
        baseline["metrics"]["old.coverage.metric"] = {
            "value": 1.0, "unit": "ms", "direction": "lower",
        }
        deltas = compare_snapshots(baseline, bench_snapshot)
        missing = [d for d in deltas if d.key == "old.coverage.metric"]
        assert missing[0].status == "missing"
        assert missing[0].is_regression

    def test_new_metric_is_reported_not_failed(self, bench_snapshot):
        current = copy.deepcopy(bench_snapshot)
        current["metrics"]["brand.new.metric"] = {
            "value": 1.0, "unit": "ms", "direction": "lower",
        }
        deltas = compare_snapshots(bench_snapshot, current)
        new = [d for d in deltas if d.key == "brand.new.metric"]
        assert new[0].status == "new"
        assert not new[0].is_regression

    def test_missing_check_is_a_regression(self, bench_snapshot):
        baseline = copy.deepcopy(bench_snapshot)
        baseline["checks"]["old.coverage.check"] = True
        deltas = compare_snapshots(baseline, bench_snapshot)
        missing = [d for d in deltas if d.key == "old.coverage.check"]
        assert missing[0].status == "missing"
        assert missing[0].is_regression

    def test_new_check_is_reported_not_failed(self, bench_snapshot):
        current = copy.deepcopy(bench_snapshot)
        current["checks"]["brand.new.check"] = True
        deltas = compare_snapshots(bench_snapshot, current)
        new = [d for d in deltas if d.key == "brand.new.check"]
        assert new[0].status == "new"
        assert not new[0].is_regression

    def test_telemetry_overhead_checks_present(self, bench_snapshot):
        checks = bench_snapshot["checks"]
        for label in ("plain", "shard4"):
            for gate in (
                "clock_identical",
                "access_log_identical",
                "series_reconcile",
            ):
                assert f"telemetry.overhead.{label}.{gate}" in checks

    def test_failed_check_is_a_regression(self, bench_snapshot):
        current = copy.deepcopy(bench_snapshot)
        key = next(iter(current["checks"]))
        current["checks"][key] = False
        deltas = compare_snapshots(bench_snapshot, current)
        assert key in [d.key for d in regressions(deltas)]

    def test_suite_version_mismatch_rejected(self, bench_snapshot):
        other = copy.deepcopy(bench_snapshot)
        other["suite_version"] = "999"
        with pytest.raises(ValueError):
            compare_snapshots(other, bench_snapshot)

    def test_negative_tolerance_rejected(self, bench_snapshot):
        with pytest.raises(ValueError):
            compare_snapshots(bench_snapshot, bench_snapshot, tolerance=-0.1)
