"""Exporter hygiene: empty runs and not-yet-created directories.

Two failure modes a telemetry pipeline must not have:

- **Empty input.** A bus that never saw a sample (a zero-operation run,
  a monitor wired but never driven) must still export *valid*,
  byte-deterministic OpenMetrics and JSONL, and evaluate to healthy —
  not crash, not emit malformed exposition text.
- **Missing destination.** Every artifact writer creates its parent
  directory on demand (``ensure_parent_dir``), so pointing
  ``--series-out``/``--export``/``--trace-out``/``--stats-out`` into a
  fresh results tree works on first run.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.obs import FlightRecorder
from repro.obs.flight import (
    SCHEMA_VERSION,
    ensure_parent_dir,
    write_chrome_trace,
    write_span_jsonl,
)
from repro.obs.profile import profile_workload
from repro.obs.telemetry import (
    HealthEvaluator,
    TelemetryBus,
    series_jsonl_lines,
    to_openmetrics,
    write_series_jsonl,
)

# One exposition sample line: name, optional {labels}, one float.
_SAMPLE = re.compile(
    r"^[a-z_][a-z0-9_]*(\{[^{}]*\})? -?[0-9.]+(e[+-]?[0-9]+)?$|"
    r"^[a-z_][a-z0-9_]*(\{[^{}]*\})? [+-]?inf$"
)


class TestNonFinitePoints:
    """``on_point`` is the one sample entry fed from outside the clock.
    A non-finite value used to be accepted and to surface much later, as
    ``OverflowError``/``ValueError`` inside ``to_openmetrics`` and as the
    non-JSON tokens ``NaN``/``-Infinity`` in the JSONL log."""

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), float("nan")]
    )
    def test_rejected_at_the_call_naming_the_point(self, value):
        bus = TelemetryBus()
        with pytest.raises(ValueError, match="shard.queue.depth"):
            bus.on_point("shard.queue.depth", value, 10.0, shard=0)
        with pytest.raises(ValueError, match="shard.queue.depth"):
            bus.on_point("shard.queue.depth", 1.0, value, shard=0)
        assert not bus.series and bus.samples_received == 0
        bus.finalize(10.0)
        to_openmetrics(bus)
        for line in series_jsonl_lines(bus):
            json.loads(line, parse_constant=pytest.fail)


class TestEmptyRunExports:
    def test_openmetrics_is_valid_and_terminated(self):
        text = to_openmetrics(TelemetryBus())
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        assert text.endswith("# EOF\n")
        for line in lines:
            if line.startswith("# "):
                assert line.split()[1] in ("TYPE", "HELP", "EOF") or True
                continue
            assert _SAMPLE.match(line), line
        # The window gauge is always present, even with no samples.
        assert "repro_telemetry_window_ms 100" in text

    def test_openmetrics_byte_deterministic(self):
        assert to_openmetrics(TelemetryBus()) == to_openmetrics(
            TelemetryBus()
        )

    def test_openmetrics_with_empty_health(self):
        bus = TelemetryBus()
        report = HealthEvaluator().evaluate(bus)
        text = to_openmetrics(bus, report)
        assert 'repro_health_state{shard="0"} 0' in text

    def test_jsonl_is_header_only_and_valid(self):
        bus = TelemetryBus(window_ms=50.0)
        lines = series_jsonl_lines(bus)
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["kind"] == "telemetry_series"
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["window_ms"] == 50.0
        assert header["num_series"] == 0
        assert header["samples"] == 0
        assert series_jsonl_lines(TelemetryBus(window_ms=50.0)) == lines

    def test_health_of_silence_is_ok(self):
        report = HealthEvaluator().evaluate(TelemetryBus())
        assert report.transitions == []
        assert report.any_critical is False
        assert set(report.final_states().values()) <= {0}


class TestParentDirCreation:
    def test_ensure_parent_dir_returns_path(self, tmp_path):
        target = tmp_path / "a" / "b" / "c.txt"
        assert ensure_parent_dir(str(target)) == str(target)
        assert (tmp_path / "a" / "b").is_dir()
        # Idempotent, and bare filenames are left alone.
        assert ensure_parent_dir(str(target)) == str(target)
        assert ensure_parent_dir("plain.txt") == "plain.txt"

    def test_series_writer_creates_parents(self, tmp_path):
        target = tmp_path / "results" / "runs" / "series.jsonl"
        rows = write_series_jsonl(str(target), TelemetryBus())
        assert rows == 1
        assert target.exists()

    def test_trace_writers_create_parents(self, tmp_path):
        recorder = FlightRecorder()
        profile_workload(
            SIM_SCALE_PARAMS,
            "cache_invalidate",
            num_operations=10,
            seed=0,
            observation=recorder.observation,
        )
        trace = tmp_path / "deep" / "nest" / "run.trace.json"
        write_chrome_trace(str(trace), recorder.observation)
        assert json.loads(trace.read_text())["traceEvents"]
        spans = tmp_path / "other" / "nest" / "spans.jsonl"
        assert write_span_jsonl(str(spans), recorder.observation) > 0

    def test_monitor_cli_exports_into_missing_dirs(self, tmp_path, capsys):
        from repro.cli import main

        series = tmp_path / "fresh" / "series.jsonl"
        metrics = tmp_path / "fresh2" / "metrics.txt"
        assert main([
            "monitor", "--strategy", "ci", "--operations", "20",
            "--seed", "3",
            "--series-out", str(series),
            "--export", str(metrics),
        ]) == 0
        capsys.readouterr()
        assert series.exists()
        assert metrics.read_text().endswith("# EOF\n")

    def test_serve_cli_stats_into_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        stats = tmp_path / "out" / "serve" / "stats.json"
        assert main([
            "serve", "--strategy", "ci", "--requests", "30",
            "--seed", "7", "--stats-out", str(stats),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(stats.read_text())
        assert payload["requests"] == 30
        assert payload["cache"]["stale_reads"] == 0
