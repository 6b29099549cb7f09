"""The streaming telemetry bus: windows, health, exporters, monitor.

Covers: :class:`WindowedSeries` windowing semantics (boundaries, exact
sums, percentiles, finalize idempotence), :class:`TelemetryBus` shard
routing and phase reconciliation against the attribution cost pie,
telemetry-off bit-identity (the bus charges nothing to the simulated
clock), :class:`HealthEvaluator` watermark hysteresis (immediate
escalation, one-level-per-clear-window recovery), exporter determinism
across every strategy / seed / shard-count combination, and the
``repro-procs monitor`` CLI contract including its exit codes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.faults.chaos import run_chaos
from repro.faults.injector import FaultPlan
from repro.obs import CostAttribution, FlightRecorder
from repro.obs.flight import to_chrome_trace
from repro.obs.monitor import (
    monitor_to_dict,
    render_monitor_table,
    run_monitor,
)
from repro.obs.telemetry import (
    KIND_EVENT,
    KIND_PHASE,
    KIND_POINT,
    STATE_CRITICAL,
    STATE_OK,
    STATE_WARN,
    HealthEvaluator,
    HealthThresholds,
    TelemetryBus,
    WindowedSeries,
    reconciles,
    series_jsonl_lines,
    to_openmetrics,
    write_series_jsonl,
)
from repro.obs.tracer import Tracer
from repro.sim import CostClock, RunningStat
from repro.workload.runner import run_workload

_PARAMS = SIM_SCALE_PARAMS.with_update_probability(0.5)

#: Every workload strategy the runner accepts, including the router.
_ALL_STRATEGIES = (
    "always_recompute",
    "cache_invalidate",
    "update_cache_avm",
    "update_cache_rvm",
    "hybrid",
)


class TestWindowedSeries:
    def test_window_boundaries(self):
        series = WindowedSeries(window_ms=100.0)
        series.observe(1.0, 50.0)    # window 0
        series.observe(2.0, 99.9)    # still window 0
        series.observe(3.0, 100.0)   # window 1 — closes window 0
        assert len(series.windows) == 1
        first = series.windows[0]
        assert (first.window, first.count, first.total) == (0, 2, 3.0)
        assert first.start_ms == 0.0
        series.finalize(100.0)
        assert len(series.windows) == 2
        assert series.windows[1].window == 1
        assert series.windows[1].total == 3.0

    def test_exact_totals(self):
        # Powers of two stay exact under float addition, so the
        # window-level sums and the running total must match exactly.
        series = WindowedSeries(window_ms=10.0)
        values = [0.5, 0.25, 2.0, 0.125, 4.0, 0.0625]
        for step, value in enumerate(values):
            series.observe(value, step * 7.0)
        series.finalize(len(values) * 7.0)
        assert series.total == sum(values)
        assert sum(r.total for r in series.windows) == sum(values)

    def test_percentile_digest(self):
        series = WindowedSeries(window_ms=1000.0)
        for value in range(1, 101):
            series.observe(float(value), 5.0)
        series.finalize(5.0)
        record = series.windows[0]
        assert record.count == 100
        assert record.mean == pytest.approx(50.5)
        assert record.maximum == 100.0
        assert 49.0 <= record.p50 <= 52.0
        assert record.p99 >= 98.0
        assert record.last == 100.0

    def test_empty_windows_skipped(self):
        series = WindowedSeries(window_ms=100.0)
        series.observe(1.0, 10.0)    # window 0
        series.observe(1.0, 550.0)   # window 5 — 1..4 stay empty
        series.finalize(550.0)
        assert [r.window for r in series.windows] == [0, 5]

    def test_finalize_idempotent(self):
        series = WindowedSeries(window_ms=100.0)
        series.observe(1.0, 10.0)
        series.finalize(10.0)
        before = list(series.windows)
        series.finalize(10.0)
        assert series.windows == before

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedSeries(window_ms=0.0)
        with pytest.raises(ValueError):
            TelemetryBus(window_ms=-1.0)

    @pytest.mark.parametrize("make", [WindowedSeries, TelemetryBus])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ms": float("nan")},
            {"window_ms": float("inf")},
            {"window_ms": 100.0, "sample_limit": -1},
        ],
    )
    def test_bad_windowing_fails_in_the_constructor(self, make, kwargs):
        # Each of these used to be accepted and to fail (or quietly
        # decimate every sample) at the first observation.
        with pytest.raises(ValueError):
            make(**kwargs)

    def test_retention_off_digests_to_the_mean(self):
        """``sample_limit=0`` keeps moments only: it used to raise
        EmptySampleError from inside a clock charge at the first window
        close; p50/p99 are now defined as the window's mean."""
        bus = TelemetryBus(sample_limit=0)
        for step, value in enumerate([1.0, 2.0, 6.0]):
            bus.on_charge("io.read", None, value, 10.0 * step)
        bus.on_charge("io.read", None, 5.0, 150.0)  # closes window 0
        bus.finalize(150.0)
        first, second = bus.series[(KIND_PHASE, 0, None, "io.read")].windows
        assert (first.count, first.total, first.maximum) == (3, 9.0, 6.0)
        assert first.p50 == first.p99 == first.mean == 3.0
        assert second.p50 == second.p99 == 5.0
        json.loads(series_jsonl_lines(bus)[1])

    def test_windows_is_a_cached_growing_list(self):
        series = WindowedSeries(window_ms=100.0)
        series.observe(1.0, 10.0)
        series.observe(2.0, 110.0)
        windows = series.windows
        assert [r.window for r in windows] == [0]
        assert series.windows[0] is windows[0]
        series.finalize(110.0)
        assert [r.window for r in series.windows] == [0, 1]
        assert series.windows is windows
        assert series.count == 2 and series.num_closed == 2


def _reference_windows(stream, window_ms, sample_limit):
    """The receive side as it was before the packed-row store: one
    ``RunningStat`` per window, digested when the window closes."""
    records, state = [], {"index": 0, "sum": 0.0, "stat": None, "last": 0.0}

    def close(next_index):
        stat = state["stat"]
        if stat is not None:
            digest = (
                (stat.p50, stat.p99) if stat.has_samples
                else (stat.mean, stat.mean)
            )
            records.append((
                state["index"], state["index"] * window_ms, stat.count,
                state["sum"], stat.mean, *digest, stat.maximum,
                state["last"],
            ))
        state.update(index=next_index, sum=0.0, stat=None)

    for value, now_ms in stream:
        value = float(value)
        index = int(now_ms // window_ms)
        if index > state["index"]:
            close(index)
        if state["stat"] is None:
            state["stat"] = RunningStat(sample_limit=sample_limit)
        state["stat"].add(value)
        state["sum"] += value
        state["last"] = value
    end_ms = max((now for _value, now in stream), default=0.0)
    close(int(end_ms // window_ms) + 1)
    return records


_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6, allow_nan=False),
)
# Time mostly creeps forward inside a window, sometimes jumps windows
# ahead (gaps), sometimes runs backwards.
_steps = st.one_of(
    st.floats(0.0, 3.0), st.floats(0.0, 400.0), st.floats(-150.0, 0.0)
)


class TestWindowedSeriesMatchesRunningStat:
    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.tuples(_values, _steps), max_size=60),
        window_ms=st.sampled_from([100.0, 10.0, 0.3]),
        sample_limit=st.sampled_from([0, 1, 2, 3, 8, 256]),
    )
    def test_records_equal_the_reference_fold(
        self, samples, window_ms, sample_limit
    ):
        times = itertools.accumulate(
            (step for _value, step in samples),
            lambda now, step: max(0.0, now + step),
            initial=0.0,
        )
        stream = [(value, now) for (value, _), now in zip(samples, times)]
        series = WindowedSeries(window_ms, sample_limit=sample_limit)
        for value, now_ms in stream:
            series.observe(value, now_ms)
        end_ms = max((now for _value, now in stream), default=0.0)
        assert series.end_ms == end_ms
        series.finalize(end_ms)
        expected = _reference_windows(stream, window_ms, sample_limit)
        assert [dataclasses.astuple(r) for r in series.windows] == expected
        for record in series.windows:
            assert all(
                type(x) is float
                for x in dataclasses.astuple(record)[3:]
            )
        assert series.count == len(stream)
        total = 0.0
        for value, _now in stream:
            total += value
        assert series.total == total


class TestBusRouting:
    def test_single_shard_collapses_to_zero(self):
        bus = TelemetryBus(window_ms=100.0)
        bus.on_charge("io.read", "proc_a", 1.5, 10.0)
        bus.on_charge("io.read", None, 0.5, 20.0)
        bus.on_event("cache.hit", 1.0, 30.0, None)
        bus.finalize(30.0)
        shards = {key[1] for key in bus.series}
        assert shards == {0}

    def test_resolver_routes_named_procedures(self):
        bus = TelemetryBus(window_ms=100.0)
        bus.configure(num_shards=4, shard_resolver=lambda name: 3)
        bus.on_charge("io.read", "proc_a", 1.0, 10.0)
        bus.on_charge("io.read", None, 1.0, 10.0)  # unattributable
        bus.on_point("shard.queue.depth", 2.0, 10.0, shard=1)
        bus.finalize(10.0)
        assert (KIND_PHASE, 3, "proc_a", "io.read") in bus.series
        assert (KIND_PHASE, None, None, "io.read") in bus.series
        assert (KIND_POINT, 1, None, "shard.queue.depth") in bus.series

    def test_phase_totals_sum_across_shards(self):
        bus = TelemetryBus(window_ms=100.0)
        bus.configure(num_shards=2, shard_resolver=lambda n: hash(n) % 2)
        bus.on_charge("io.read", "a", 1.0, 5.0)
        bus.on_charge("io.read", "b", 2.0, 15.0)
        bus.on_event("cache.hit", 1.0, 5.0, "a")  # events excluded
        bus.finalize(15.0)
        assert bus.phase_totals() == {"io.read": 3.0}

    def test_num_windows_covers_span(self):
        bus = TelemetryBus(window_ms=100.0)
        assert bus.num_windows == 0
        bus.on_charge("io.read", None, 1.0, 450.0)
        bus.finalize(450.0)
        assert bus.num_windows == 5

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            TelemetryBus().configure(num_shards=0)

    def test_configure_re_resolves_pre_keyed_series(self):
        """A tracer holds its procedure's event series pre-keyed; a
        topology bound later must still decide the shard."""
        bus = TelemetryBus()
        tracer = Tracer(clock=CostClock())
        tracer.telemetry = bus
        with tracer.span(None, procedure="proc_a"):
            tracer.event("cache.hit")
            bus.configure(num_shards=4, shard_resolver=lambda name: 3)
            tracer.event("cache.hit")
        assert set(bus.series) == {
            (KIND_EVENT, 0, "proc_a", "cache.hit"),
            (KIND_EVENT, 3, "proc_a", "cache.hit"),
        }
        assert bus.samples_received == 2

    def test_bus_assigned_after_attach_sees_events_too(self):
        """Assigning ``telemetry`` after ``attach`` used to wire charges
        but not events: reconciliation passed with every event series
        missing."""
        clock = CostClock()
        observation = CostAttribution().attach(clock)
        bus = TelemetryBus()
        observation.telemetry = bus
        assert observation.tracer.telemetry is bus
        observation.tracer.event("cache.miss")
        clock.charge_read(1)
        observation.detach()
        assert {key[0] for key in bus.series} == {KIND_EVENT, KIND_PHASE}
        assert reconciles(bus, observation.phase_costs())

    def test_samples_received_and_end_ms_keep_their_meaning(self):
        bus = TelemetryBus()
        assert (bus.samples_received, bus.end_ms) == (0, 0.0)
        bus.on_charge("io.read", None, 1.0, 250.0)
        bus.on_event("cache.hit", 1, 40.0, None)   # earlier than the max
        bus.on_point("shard.queue.depth", 2, 300.0, shard=0)
        assert (bus.samples_received, bus.end_ms) == (3, 300.0)
        bus.finalize(120.0)                          # never moves it back
        assert bus.end_ms == 300.0
        bus.finalize(480.0)
        assert (bus.samples_received, bus.end_ms) == (3, 480.0)


class TestReconciliation:
    def test_series_reproduce_cost_pie(self):
        bus = TelemetryBus()
        observation = CostAttribution()
        run_workload(
            _PARAMS,
            "cache_invalidate",
            num_operations=30,
            seed=3,
            observation=observation,
            telemetry=bus,
        )
        pie = observation.phase_costs()
        assert pie  # the run attributed something
        assert bus.phase_totals().keys() == pie.keys()
        assert reconciles(bus, pie)

    def test_reconciliation_detects_corruption(self):
        bus = TelemetryBus()
        observation = CostAttribution()
        run_workload(
            _PARAMS,
            "cache_invalidate",
            num_operations=20,
            seed=3,
            observation=observation,
            telemetry=bus,
        )
        pie = dict(observation.phase_costs())
        phase = next(iter(pie))
        pie[phase] += 1.0
        assert not reconciles(bus, pie)


class TestTelemetryIsFree:
    @pytest.mark.parametrize("shards", [None, 4])
    def test_clock_and_access_log_bit_identical(self, shards):
        """Wiring the bus must not move the simulated clock or change a
        single access — the ``telemetry.overhead`` bench invariant."""
        plain = run_workload(
            _PARAMS,
            "cache_invalidate",
            num_operations=30,
            seed=7,
            record_accesses=True,
            shards=shards,
        )
        observed = run_workload(
            _PARAMS,
            "cache_invalidate",
            num_operations=30,
            seed=7,
            record_accesses=True,
            shards=shards,
            telemetry=TelemetryBus(),
        )
        assert observed.clock_total_ms == plain.clock_total_ms
        assert observed.access_log == plain.access_log


def _quiet_until(bus, end_ms):
    """Extend the run's span with signal-free charge samples so the
    health walk sees empty (all-clear) windows after the incident."""
    bus.on_charge("io.read", None, 0.1, end_ms)
    bus.finalize(end_ms)


class TestHealth:
    def test_fault_escalates_immediately(self):
        bus = TelemetryBus(window_ms=100.0)
        bus.on_point("shard.crash", 1.0, 50.0, shard=0)
        _quiet_until(bus, 450.0)
        report = HealthEvaluator().evaluate(bus)
        # w0 CRITICAL (crash), then one level back per clear window.
        assert report.timeline[0][:3] == [
            STATE_CRITICAL, STATE_WARN, STATE_OK,
        ]
        assert report.final_state(0) == STATE_OK
        assert not report.any_critical
        kinds = [
            (t.from_state, t.to_state, t.reason)
            for t in report.transitions
        ]
        assert kinds == [
            (STATE_OK, STATE_CRITICAL, "fault"),
            (STATE_CRITICAL, STATE_WARN, "recovered"),
            (STATE_WARN, STATE_OK, "recovered"),
        ]

    def test_invalidation_rate_watermarks(self):
        thresholds = HealthThresholds(
            warn_invalidation_rate=0.5,
            critical_invalidation_rate=2.0,
            low_invalidation_rate=0.1,
        )
        bus = TelemetryBus(window_ms=100.0)
        # w0: 60 invalidations → 0.6/ms, above warn, below critical.
        for step in range(60):
            bus.on_point("shard.invalidations", 1.0, float(step), shard=0)
        _quiet_until(bus, 350.0)
        report = HealthEvaluator(thresholds).evaluate(bus)
        assert report.timeline[0][0] == STATE_WARN
        assert report.transitions[0].reason == "invalidation-rate"
        assert report.final_state(0) == STATE_OK

    def test_sticky_signal_blocks_recovery(self):
        """A shard stays degraded while any signal sits above its low
        watermark — recovery needs *every* signal clear."""
        bus = TelemetryBus(window_ms=100.0)
        bus.on_point("shard.crash", 1.0, 50.0, shard=0)
        # Queue depth stays nonzero through w1..w2: no de-escalation.
        bus.on_point("shard.queue.depth", 2.0, 150.0, shard=0)
        bus.on_point("shard.queue.depth", 2.0, 250.0, shard=0)
        _quiet_until(bus, 550.0)
        report = HealthEvaluator().evaluate(bus)
        assert report.timeline[0][:5] == [
            STATE_CRITICAL,  # crash
            STATE_CRITICAL,  # queue still loaded — no recovery step
            STATE_CRITICAL,
            STATE_WARN,      # first clear window
            STATE_OK,
        ]

    def test_critical_in_final_window_flags_run(self):
        bus = TelemetryBus(window_ms=100.0)
        bus.on_charge("io.read", None, 0.1, 10.0)
        bus.on_point("shard.crash", 1.0, 260.0, shard=0)
        bus.finalize(260.0)
        report = HealthEvaluator().evaluate(bus)
        assert report.final_state(0) == STATE_CRITICAL
        assert report.any_critical

    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError):
            HealthThresholds(
                warn_invalidation_rate=0.05,  # below the low watermark
                low_invalidation_rate=0.1,
            )
        with pytest.raises(ValueError):
            HealthThresholds(warn_lock_wait=0.95, critical_lock_wait=0.9)


#: SHA-256 of every export of the determinism matrix, pinned once from
#: the parent of the columnar window store plus the float coercion at the
#: bus boundary (``--regen`` below) and never regenerated since: a change
#: to the receive side must reproduce every byte.
_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "fixtures" / "telemetry_golden.json"
)
# What TestDeterminism's three parametrize decorators span.
_MATRIX = list(itertools.product(_ALL_STRATEGIES, (3, 11), (None, 4)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _export_digests(report) -> dict[str, str]:
    return {
        "jsonl": _sha("\n".join(series_jsonl_lines(report.bus, report.health))),
        "openmetrics": _sha(to_openmetrics(report.bus, report.health)),
        "monitor": _sha(json.dumps(monitor_to_dict(report), sort_keys=True)),
    }


def _matrix_report(strategy, seed, shards):
    return run_monitor(
        strategy, _PARAMS, num_operations=25, seed=seed, shards=shards
    )


def _chaos_report():
    return run_monitor(
        "cache_invalidate",
        _PARAMS,
        num_operations=40,
        seed=3,
        shards=2,
        replicas=1,
        chaos=True,
        mpl=2,
        fault_events=20,
        kill_shard=0,
    )


def _chaos_trace_digest() -> str:
    """The complete Chrome trace of one chaos run with the bus riding
    along: pins every span's ``self_ms_by_phase``."""
    recorder = FlightRecorder()
    run_chaos(
        _PARAMS,
        "cache_invalidate",
        plan=FaultPlan.seeded(3, max_faults=20),
        mpl=2,
        num_operations=40,
        seed=3,
        observation=recorder.observation,
        telemetry=TelemetryBus(),
    )
    trace = to_chrome_trace(recorder.observation, label="golden")
    return _sha(json.dumps(trace, sort_keys=True))


def _case_id(strategy, seed, shards) -> str:
    return f"{strategy}-seed{seed}-shards{shards}"


def _compute_golden() -> dict:
    return {
        "matrix": {
            _case_id(*case): _export_digests(_matrix_report(*case))
            for case in _MATRIX
        },
        "chaos_monitor": _export_digests(_chaos_report()),
        "chaos_trace": _chaos_trace_digest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(_GOLDEN_PATH.read_text())


class TestDeterminism:
    @pytest.mark.parametrize("strategy", _ALL_STRATEGIES)
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("shards", [None, 4])
    def test_same_seed_runs_are_byte_identical(
        self, strategy, seed, shards, golden
    ):
        first, second = (
            _matrix_report(strategy, seed, shards) for _ in range(2)
        )
        assert _export_digests(first) == (
            golden["matrix"][_case_id(strategy, seed, shards)]
        )
        assert series_jsonl_lines(first.bus, first.health) == (
            series_jsonl_lines(second.bus, second.health)
        )
        assert to_openmetrics(first.bus, first.health) == (
            to_openmetrics(second.bus, second.health)
        )
        assert first.health.transitions == second.health.transitions
        assert monitor_to_dict(first) == monitor_to_dict(second)
        assert first.reconciliation_ok and second.reconciliation_ok

    def test_chaos_monitor_deterministic(self, golden):
        first, second = (_chaos_report() for _ in range(2))
        assert _export_digests(first) == golden["chaos_monitor"]
        assert series_jsonl_lines(first.bus, first.health) == (
            series_jsonl_lines(second.bus, second.health)
        )
        assert first.health.transitions == second.health.transitions
        assert first.reconciliation_ok
        # The scheduled kill produced per-shard fault points.
        fault_keys = [
            key for key in first.bus.series
            if key[0] == KIND_POINT and key[3] == "shard.crash"
        ]
        assert fault_keys

    def test_chaos_trace_matches_golden(self, golden):
        assert _chaos_trace_digest() == golden["chaos_trace"]

    def test_render_table_deterministic(self):
        reports = [
            run_monitor(
                "update_cache_rvm", _PARAMS, num_operations=25, seed=3
            )
            for _ in range(2)
        ]
        assert render_monitor_table(reports[0]) == (
            render_monitor_table(reports[1])
        )


class TestExporters:
    @pytest.fixture(scope="class")
    def report(self):
        return run_monitor(
            "cache_invalidate", _PARAMS, num_operations=25, seed=3
        )

    def test_jsonl_meta_and_records(self, report, tmp_path):
        path = tmp_path / "series.jsonl"
        rows = write_series_jsonl(str(path), report.bus, report.health)
        lines = path.read_text().splitlines()
        assert len(lines) == rows
        meta = json.loads(lines[0])
        assert meta["kind"] == "telemetry_series"
        assert meta["num_series"] == len(report.bus.series)
        record = json.loads(lines[1])
        assert record["kind"] in (KIND_PHASE, KIND_EVENT, KIND_POINT)
        assert {"window", "count", "total", "p50", "p99"} <= record.keys()

    def test_openmetrics_shape(self, report):
        text = to_openmetrics(report.bus, report.health)
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_phase_ms_total counter" in text
        assert "# TYPE repro_health_state gauge" in text
        assert 'repro_health_state{shard="0"}' in text

    def test_jsonl_numbers_are_doubles_whatever_the_call_site_passed(self):
        """``rete/network.py`` emits ``len(tokens)``: the row used to
        print ``"last": 20`` beside ``"mean": 20.0``."""
        bus = TelemetryBus()
        tracer = Tracer(clock=CostClock())
        tracer.telemetry = bus
        tracer.event("rete.tokens", 20)
        bus.on_event("rete.tokens", 20, 0.0, "proc_a")
        bus.on_point("shard.queue.depth", 3, 0.0, shard=0)
        bus.finalize(0.0)
        for line in series_jsonl_lines(bus)[1:]:
            row = json.loads(line)
            for name in ("total", "mean", "p50", "p99", "max", "last"):
                assert type(row[name]) is float, (name, line)

    def test_openmetrics_escapes_labels(self):
        bus = TelemetryBus()
        bus.on_charge("io.read", 'pro"c\nx', 1.0, 5.0)
        bus.finalize(5.0)
        text = to_openmetrics(bus)
        assert 'procedure="pro\\"c\\nx"' in text


class TestMonitorCLI:
    def test_healthy_run_exits_zero(self, capsys):
        assert main([
            "monitor", "--strategy", "ci", "--operations", "30",
            "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "reconciliation: OK" in out
        assert "final:" in out

    def test_json_contract(self, capsys):
        assert main([
            "monitor", "--strategy", "ci", "--operations", "30",
            "--seed", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "monitor_report"
        assert payload["reconciliation_ok"] is True
        assert payload["health"]["final_states"]["0"] in (
            "OK", "WARN", "CRITICAL",
        )

    def test_series_out_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for path in (first, second):
            assert main([
                "monitor", "--strategy", "rvm", "--operations", "30",
                "--seed", "3", "--series-out", str(path),
            ]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_export_writes_openmetrics(self, capsys, tmp_path):
        path = tmp_path / "series.txt"
        assert main([
            "monitor", "--strategy", "ci", "--operations", "30",
            "--seed", "3", "--export", str(path),
        ]) == 0
        capsys.readouterr()
        assert path.read_text().endswith("# EOF\n")

    def test_critical_end_state_exits_two(self, capsys):
        # Tight invalidation watermarks turn the run's final burst into
        # a CRITICAL end state (settings pinned by experiment; the run
        # is deterministic, so this is stable).
        assert main([
            "monitor", "--strategy", "ci", "--operations", "40",
            "--seed", "7", "--window-ms", "5",
            "--warn-invalidation-rate", "0.15",
            "--critical-invalidation-rate", "0.18",
        ]) == 2
        assert "CRITICAL at end of run" in capsys.readouterr().err

    def test_rejects_bad_arguments(self, capsys):
        assert main(["monitor", "--window-ms", "0"]) == 2
        assert main(["monitor", "--mpl", "2"]) == 2  # requires --chaos
        assert main(["monitor", "--chaos", "--batch-size", "4"]) == 2
        assert main([
            "monitor", "--chaos", "--kill-shard", "0",
        ]) == 2  # requires --shards >= 2
        assert main([
            "monitor", "--strategy", "ci",
            "--warn-lock-wait", "0.95",  # above critical: bad watermarks
        ]) == 2
        capsys.readouterr()

    def test_chaos_monitor_smoke(self, capsys):
        assert main([
            "monitor", "--strategy", "ci", "--chaos", "--mpl", "2",
            "--operations", "40", "--fault-events", "20", "--seed", "3",
            "--shards", "2", "--replicas", "1", "--kill-shard", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "mode=chaos" in out
        assert "shard0" in out and "shard1" in out


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_telemetry --regen
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.test_telemetry --regen")
    _GOLDEN_PATH.parent.mkdir(exist_ok=True)
    _GOLDEN_PATH.write_text(
        json.dumps(_compute_golden(), indent=1, sort_keys=True) + "\n"
    )
