"""Streaming telemetry: an event bus with windowed per-shard series.

Everything the attribution layer knows about a run is, until now, one
number per phase at the end. This module turns the same charge/event
stream into *time series*: a :class:`TelemetryBus` receives every
attributed charge, every tracer event, and explicit per-shard points
from the shard engine, lock manager, and overload controller, and folds
them into fixed-window rolling aggregates keyed by
``(kind, shard, procedure, point)``.

Four invariants make the bus safe to leave on:

- **Nothing is charged.** The bus is pure Python bookkeeping driven by
  timestamps the callers already hold; the simulated clock of a
  telemetry-on run is bit-identical to the telemetry-off run (the
  ``telemetry.overhead`` bench scenario gates this).
- **Zero overhead when off.** Every forwarding site guards on
  ``telemetry is not None`` — the same single-test discipline as the
  tracer — so an unwired run does no extra work.
- **A counted cost when on.** A sample is one :meth:`WindowedSeries.
  observe` on a series its emitter resolved once; a closed window is a
  packed row, not an object; percentiles are sorted out only when
  somebody reads them. ``tests/test_obs_overhead.py`` gates both as
  exact counts (Python calls per sample, objects per window).
- **Exact reconciliation.** Charge samples (``kind == "phase"``) land in
  exactly one series each, so summing every window of every phase
  series reproduces the attribution cost pie — the same invariant style
  as the flight recorder (:func:`reconciles` is the checker).

Windows are indexed over *simulated* milliseconds (``window index =
now_ms // window_ms``); empty windows are skipped, so series stay sparse
under bursty workloads. Per-window p50/p99 follow the repo's bounded
deterministic sampling (the retention and interpolation rules of
:class:`repro.sim.RunningStat`) beside an exact running sum for
reconciliation. Everything — window records, health transitions, both
export formats — is byte-identical across same-seed runs: no wall-clock
reads, no RNG, sorted keys.

On top of the series sits :class:`HealthEvaluator`: per-shard window
signals (invalidation rate, lock-wait fraction, aborts, fault
occurrences, β-retry queue depth, degradation rung) mapped against
watermark thresholds into OK/WARN/CRITICAL with hysteresis — escalation
is immediate at a window boundary, de-escalation happens one level at a
time and only once every signal is below its *low* watermark (the same
pattern as :class:`repro.shard.degrade.OverloadController`).

Exporters: :func:`to_openmetrics` (Prometheus/OpenMetrics text) and
:func:`write_series_jsonl` (one JSON object per closed window plus the
health transitions).
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.flight import SCHEMA_VERSION, ensure_parent_dir
from repro.obs.registry import Prekeyed

#: Sample kinds carried by the bus. ``phase`` samples are attributed
#: clock charges (and sum to the cost pie); ``event`` samples are tracer
#: event occurrences; ``point`` samples are explicit per-shard gauges
#: (queue depth, degradation rung) pushed by the engines.
KIND_PHASE = "phase"
KIND_EVENT = "event"
KIND_POINT = "point"

#: Health states, ordered by severity.
STATE_OK = 0
STATE_WARN = 1
STATE_CRITICAL = 2
STATE_NAMES: tuple[str, ...] = ("OK", "WARN", "CRITICAL")

#: Per-window sample retention backing p50/p99 (windows are short, so a
#: modest cap keeps percentiles exact in practice while bounding memory).
DEFAULT_SAMPLE_LIMIT = 256

#: Points the health evaluator treats as fault occurrences.
_FAULT_POINTS = ("shard.crash", "shard.failover", "shard.recovered")


@dataclass(frozen=True)
class WindowRecord:
    """One closed fixed window of one series: exact sum plus the
    deterministic sample digest. ``last`` is the final observation of
    the window — what gauge-style points carry forward."""

    window: int
    start_ms: float
    count: int
    total: float
    mean: float
    p50: float
    p99: float
    maximum: float
    last: float

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "start_ms": self.start_ms,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "max": self.maximum,
            "last": self.last,
        }


def _percentile(ascending: list[float], p: float) -> float:
    """Linearly-interpolated percentile of a non-empty sorted sample —
    the formula of :meth:`repro.sim.RunningStat.percentile`."""
    if len(ascending) == 1:
        return ascending[0]
    rank = (p / 100.0) * (len(ascending) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ascending[lo]
    frac = rank - lo
    return ascending[lo] * (1.0 - frac) + ascending[hi] * frac


def _check_windowing(window_ms: float, sample_limit: int) -> None:
    if not (math.isfinite(window_ms) and window_ms > 0):
        raise ValueError(
            f"window_ms must be finite and positive, got {window_ms!r}"
        )
    if sample_limit < 0:
        raise ValueError(f"sample_limit must be >= 0, got {sample_limit!r}")


#: One closed window: index (a whole number held as a double, as the
#: sample path computes it), count, sum, mean, max, last, and where its
#: retained samples end in the series' flat sample column.
_ROW = struct.Struct("=dqddddq")


class WindowedSeries:
    """Fixed-window rolling aggregates for one ``(kind, shard,
    procedure, point)`` key.

    Nearly every second sample closes a window (100 simulated ms against
    30-ms page I/Os), so a window costs no object: the *open* window is
    plain slots — count, exact running sum, Welford mean in arrival
    order, max, last — plus the tail of one flat sample column, and
    advancing time (every ``observe`` carries ``now_ms``) packs the
    slots into one typed :data:`_ROW` of a byte buffer. Empty windows
    produce no row. :class:`WindowRecord`\\ s, and the sort behind
    p50/p99, are built only when :attr:`windows` is read.

    The running sum is kept exactly (not reconstructed from the Welford
    mean), so summing ``total`` across windows reproduces the observed
    values to float-addition accuracy — what reconciliation needs.
    Retention is :class:`repro.sim.RunningStat`'s: past ``sample_limit``
    samples in one window every other retained one is dropped and the
    keep stride doubles. ``sample_limit=0`` retains nothing; p50/p99 are
    then the window's mean.
    """

    __slots__ = (
        "window_ms", "sample_limit", "total", "end_ms",
        "_index", "_count", "_sum", "_mean", "_max", "_last",
        "_stride", "_since_kept", "_rows", "_samples", "_records",
    )

    def __init__(
        self,
        window_ms: float,
        sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    ) -> None:
        _check_windowing(window_ms, sample_limit)
        self.window_ms = window_ms
        self.sample_limit = sample_limit
        #: Exact sum over every observation (all windows, open included).
        self.total = 0.0
        #: Largest ``now_ms`` observed.
        self.end_ms = 0.0
        self._index = 0.0
        self._count = 0
        self._sum = 0.0
        self._mean = 0.0
        self._max = -math.inf
        self._last = 0.0
        # Keep every ``_stride``-th sample; 0 when retention is off.
        self._stride = 1 if sample_limit else 0
        self._since_kept = 0
        self._rows = bytearray()
        self._samples = array("d")
        self._records: list[WindowRecord] = []

    def observe(self, value: float, now_ms: float) -> None:
        index = now_ms // self.window_ms
        if index > self._index:
            self._close(index)
        if now_ms > self.end_ms:
            self.end_ms = now_ms
        count = self._count = self._count + 1
        mean = self._mean
        self._mean = mean + (value - mean) / count
        self._sum += value
        if value > self._max:
            self._max = value
        self._last = value
        self.total += value
        stride = self._stride
        if stride == 1:
            self._samples.append(value)
            if count > self.sample_limit:
                self._decimate()
        elif stride:
            self._since_kept += 1
            if self._since_kept >= stride:
                self._since_kept = 0
                self._samples.append(value)
                if len(self._samples) - self._open_start() > self.sample_limit:
                    self._decimate()

    def _row(self, row: int) -> tuple:
        return _ROW.unpack_from(self._rows, row * _ROW.size)

    def _open_start(self) -> int:
        """Where the open window's retained samples start."""
        return self._row(self.num_closed - 1)[-1] if self._rows else 0

    def _decimate(self) -> None:
        """Keep every other retained sample of the open window and halve
        the future keep rate (percentiles degrade to an approximation
        past the cap but stay reproducible)."""
        start = self._open_start()
        kept = self._samples[start::2]
        del self._samples[start:]
        self._samples.extend(kept)
        self._stride *= 2

    def _close(self, next_index: float) -> None:
        if self._count:
            self._rows += _ROW.pack(
                self._index, self._count, self._sum, self._mean,
                self._max, self._last, len(self._samples),
            )
            self._count = 0
            self._sum = 0.0
            self._mean = 0.0
            self._max = -math.inf
            if self._stride > 1:
                self._stride = 1
                self._since_kept = 0
        self._index = next_index

    def finalize(self, end_ms: float) -> None:
        """Close the open window (idempotent for a given ``end_ms``)."""
        self._close(end_ms // self.window_ms + 1)

    @property
    def num_closed(self) -> int:
        return len(self._rows) // _ROW.size

    @property
    def count(self) -> int:
        """Observations folded so far (all windows, open included)."""
        return self._count + sum(
            row[1] for row in _ROW.iter_unpack(self._rows)
        )

    @property
    def windows(self) -> list[WindowRecord]:
        """The closed windows, oldest first. Records are digested from
        the rows on first read and cached; the list is this series' own
        and grows as later windows close."""
        records = self._records
        start = self._row(len(records) - 1)[-1] if records else 0
        for row in range(len(records), self.num_closed):
            window, count, total, mean, maximum, last, end = self._row(row)
            retained = sorted(self._samples[start:end])
            start = end
            records.append(
                WindowRecord(
                    window=int(window),
                    start_ms=window * self.window_ms,
                    count=count,
                    total=total,
                    mean=mean,
                    p50=_percentile(retained, 50.0) if retained else mean,
                    p99=_percentile(retained, 99.0) if retained else mean,
                    maximum=maximum,
                    last=last,
                )
            )
        return records


class TelemetryBus:
    """The receive side: samples in, windowed series out.

    Wire it by assigning it to a :class:`repro.obs.CostAttribution`'s
    ``telemetry`` attribute (the workload and chaos runners do this when
    handed a ``telemetry=`` argument); the attribution forwards every
    charge and propagates the bus to its tracer, which forwards every
    event. Both index :attr:`phase_series` / :attr:`event_series` — the
    series pre-keyed by procedure, then by point — so a sample is one
    :meth:`WindowedSeries.observe` call on an already-resolved object.
    Engines with per-shard context (the sharded facade, the lock
    manager, the overload controller) additionally push explicit points
    via :meth:`on_point`.

    ``shard_resolver`` maps a procedure name to its home shard; with a
    single shard (or no resolver) everything lands on shard 0, and in a
    multi-shard run samples with no procedure context land on shard
    ``None`` (reported, but outside per-shard health).
    """

    def __init__(
        self,
        window_ms: float = 100.0,
        sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    ) -> None:
        _check_windowing(window_ms, sample_limit)
        self.window_ms = window_ms
        self.sample_limit = sample_limit
        self.series: dict[tuple, WindowedSeries] = {}
        self.num_shards = 1
        self.shard_resolver: Optional[Callable[[str], int]] = None
        self._end_ms = 0.0
        #: ``[procedure][phase]`` / ``[procedure][event name]`` -> the
        #: series, resolved on first use (``procedure`` may be ``None``).
        self.phase_series = self._prekeyed(KIND_PHASE)
        self.event_series = self._prekeyed(KIND_EVENT)

    # -- wiring ----------------------------------------------------------

    def configure(
        self,
        num_shards: int = 1,
        shard_resolver: Optional[Callable[[str], int]] = None,
    ) -> None:
        """Bind the run's shard topology (call before the measured
        stream; the runners do)."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.shard_resolver = shard_resolver
        # Pre-keyed series carry the old topology's shard: resolve anew.
        self.phase_series.clear()
        self.event_series.clear()

    def _shard_of(self, procedure: Optional[str]) -> Optional[int]:
        if self.num_shards == 1 or self.shard_resolver is None:
            return 0
        if procedure is None:
            return None
        return self.shard_resolver(procedure)

    def _prekeyed(self, kind: str) -> Prekeyed:
        return Prekeyed(
            lambda procedure: Prekeyed(
                lambda point: self._series(
                    (kind, self._shard_of(procedure), procedure, point)
                )
            )
        )

    def _series(self, key: tuple) -> WindowedSeries:
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = WindowedSeries(
                self.window_ms, sample_limit=self.sample_limit
            )
        return series

    # -- the receive side ------------------------------------------------
    # Every sample, pre-keyed or not, is one WindowedSeries.observe.

    def on_charge(
        self,
        phase: str,
        procedure: Optional[str],
        ms: float,
        now_ms: float,
    ) -> None:
        """One attributed clock charge."""
        self.phase_series[procedure][phase].observe(ms, now_ms)

    def on_event(
        self,
        name: str,
        amount: float,
        now_ms: float,
        procedure: Optional[str],
    ) -> None:
        """One tracer event occurrence."""
        self.event_series[procedure][name].observe(float(amount), now_ms)

    def on_point(
        self,
        point: str,
        value: float,
        now_ms: float,
        shard: Optional[int] = None,
        procedure: Optional[str] = None,
    ) -> None:
        """An explicit sample with caller-supplied shard context (the
        sharded facade, lock manager, and overload controller). The one
        entry fed from outside the clock, so the one that checks: a
        non-finite value would poison both exporters."""
        value = float(value)
        if not (math.isfinite(value) and math.isfinite(now_ms)):
            raise ValueError(
                f"point {point!r} must be a finite value at a finite "
                f"time, got {value!r} at {now_ms!r}"
            )
        if shard is None:
            shard = self._shard_of(procedure)
        self._series((KIND_POINT, shard, procedure, point)).observe(
            value, now_ms
        )

    # -- lifecycle -------------------------------------------------------

    def finalize(self, end_ms: float) -> None:
        """Close every open window at the end of the measured stream."""
        self._end_ms = end_ms = max(end_ms, self.end_ms)
        for series in self.series.values():
            series.finalize(end_ms)

    # -- read side -------------------------------------------------------

    @property
    def samples_received(self) -> int:
        """Every sample folded so far (an exact count)."""
        return sum(series.count for series in self.series.values())

    @property
    def end_ms(self) -> float:
        """The latest simulated time seen: by a sample or by
        :meth:`finalize`."""
        return max(
            [self._end_ms, *(s.end_ms for s in self.series.values())]
        )

    @property
    def num_windows(self) -> int:
        """Total window slots covered by the run (including empty)."""
        if not self.series:
            return 0
        return int(self.end_ms // self.window_ms) + 1

    def sorted_keys(self) -> list[tuple]:
        """Deterministic series ordering (exports iterate this)."""
        return sorted(
            self.series,
            key=lambda k: (
                k[0],
                -1 if k[1] is None else k[1],
                k[2] or "",
                k[3],
            ),
        )

    def phase_totals(self) -> dict[str, float]:
        """Sum of every charge-sample series per phase — must reconcile
        with the attribution cost pie (see :func:`reconciles`)."""
        totals: dict[str, float] = {}
        for key in self.sorted_keys():
            kind, _shard, _procedure, point = key
            if kind != KIND_PHASE:
                continue
            totals[point] = totals.get(point, 0.0) + self.series[key].total
        return totals

    def shard_window_values(
        self, kind: str, point: str
    ) -> dict[int, dict[int, list[WindowRecord]]]:
        """Per-shard, per-window records for one ``(kind, point)`` —
        the health evaluator's access path. Samples on shard ``None``
        (unattributable in a multi-shard run) are excluded."""
        out: dict[int, dict[int, list[WindowRecord]]] = {}
        for key in self.sorted_keys():
            k_kind, shard, _procedure, k_point = key
            if k_kind != kind or k_point != point or shard is None:
                continue
            per_window = out.setdefault(shard, {})
            for record in self.series[key].windows:
                per_window.setdefault(record.window, []).append(record)
        return out


def reconciles(
    bus: TelemetryBus, phase_costs: dict[str, float]
) -> bool:
    """Whether the summed windowed phase series reproduce ``phase_costs``
    (the attribution cost pie) — flight-recorder-style exactness: same
    phase set, every total within float-summation tolerance."""
    totals = bus.phase_totals()
    for phase in set(totals) | set(phase_costs):
        if not math.isclose(
            totals.get(phase, 0.0),
            phase_costs.get(phase, 0.0),
            rel_tol=1e-9,
            abs_tol=1e-6,
        ):
            return False
    return True


# -- health -------------------------------------------------------------


@dataclass(frozen=True)
class HealthThresholds:
    """Watermarks mapping one shard-window's signals to a severity.

    ``warn_*``/``critical_*`` are the high watermarks (escalation);
    ``low_*`` are the hysteresis floor — a shard de-escalates one level
    per window and only while *every* signal is below its low mark,
    mirroring :class:`repro.shard.degrade.OverloadController`.
    """

    warn_invalidation_rate: float = 0.5
    critical_invalidation_rate: float = 2.0
    low_invalidation_rate: float = 0.1
    warn_lock_wait: float = 0.5
    critical_lock_wait: float = 0.9
    low_lock_wait: float = 0.1
    warn_queue_depth: float = 1.0
    critical_queue_depth: float = 4.0
    warn_aborts: float = 5.0
    critical_faults: float = 1.0

    def __post_init__(self) -> None:
        if self.low_invalidation_rate > self.warn_invalidation_rate:
            raise ValueError("low watermark above warn watermark")
        if self.warn_invalidation_rate > self.critical_invalidation_rate:
            raise ValueError("warn watermark above critical watermark")
        if self.low_lock_wait > self.warn_lock_wait:
            raise ValueError("low watermark above warn watermark")
        if self.warn_lock_wait > self.critical_lock_wait:
            raise ValueError("warn watermark above critical watermark")


@dataclass
class _WindowSignals:
    """One shard's aggregated signals for one window."""

    invalidations: float = 0.0
    lock_wait_ms: float = 0.0
    aborts: float = 0.0
    faults: float = 0.0
    queue_depth: float = 0.0
    rung: float = 0.0


@dataclass(frozen=True)
class HealthTransition:
    """One state change of one shard at a window boundary."""

    shard: int
    window: int
    start_ms: float
    from_state: int
    to_state: int
    reason: str

    def to_json(self) -> dict:
        return {
            "shard": self.shard,
            "window": self.window,
            "start_ms": self.start_ms,
            "from": STATE_NAMES[self.from_state],
            "to": STATE_NAMES[self.to_state],
            "reason": self.reason,
        }


@dataclass
class HealthReport:
    """Per-shard state trajectory over the run's windows."""

    num_shards: int
    num_windows: int
    window_ms: float
    #: ``timeline[shard]`` is the state at every window index.
    timeline: dict[int, list[int]] = field(default_factory=dict)
    transitions: list[HealthTransition] = field(default_factory=list)

    def final_state(self, shard: int) -> int:
        states = self.timeline.get(shard)
        return states[-1] if states else STATE_OK

    def final_states(self) -> dict[int, int]:
        return {
            shard: self.final_state(shard)
            for shard in range(self.num_shards)
        }

    @property
    def any_critical(self) -> bool:
        """Whether any shard *ends* the run CRITICAL (the monitor CLI's
        exit-2 condition)."""
        return any(
            state == STATE_CRITICAL
            for state in self.final_states().values()
        )

    def to_json(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "num_windows": self.num_windows,
            "window_ms": self.window_ms,
            "final_states": {
                str(shard): STATE_NAMES[state]
                for shard, state in self.final_states().items()
            },
            "transitions": [t.to_json() for t in self.transitions],
        }


class HealthEvaluator:
    """Maps per-shard window signals to OK/WARN/CRITICAL with
    hysteresis (see :class:`HealthThresholds`)."""

    def __init__(
        self, thresholds: HealthThresholds | None = None
    ) -> None:
        self.thresholds = (
            thresholds if thresholds is not None else HealthThresholds()
        )

    # -- signal extraction ----------------------------------------------

    def _signals(
        self, bus: TelemetryBus
    ) -> dict[int, dict[int, _WindowSignals]]:
        per_shard: dict[int, dict[int, _WindowSignals]] = {
            shard: {} for shard in range(bus.num_shards)
        }

        def signal(shard: int, window: int) -> _WindowSignals:
            return per_shard.setdefault(shard, {}).setdefault(
                window, _WindowSignals()
            )

        def fold(kind: str, point: str, apply) -> None:
            for shard, windows in bus.shard_window_values(
                kind, point
            ).items():
                for window, records in windows.items():
                    apply(signal(shard, window), records)

        def add_total(attr: str):
            def _apply(sig: _WindowSignals, records) -> None:
                setattr(
                    sig,
                    attr,
                    getattr(sig, attr)
                    + sum(r.total for r in records),
                )
            return _apply

        fold(KIND_POINT, "shard.invalidations", add_total("invalidations"))
        fold(KIND_EVENT, "ilock.invalidation", add_total("invalidations"))
        fold(KIND_POINT, "lock.wait.ms", add_total("lock_wait_ms"))
        fold(KIND_POINT, "lock.abort", add_total("aborts"))
        for point in _FAULT_POINTS:
            fold(KIND_POINT, point, add_total("faults"))

        def max_value(sig: _WindowSignals, records) -> None:
            sig.queue_depth = max(
                sig.queue_depth, max(r.maximum for r in records)
            )

        fold(KIND_POINT, "shard.queue.depth", max_value)

        def last_rung(sig: _WindowSignals, records) -> None:
            sig.rung = max(sig.rung, records[-1].last)

        fold(KIND_POINT, "shard.degrade.rung", last_rung)
        return per_shard

    # -- severity mapping ------------------------------------------------

    def _level(self, sig: _WindowSignals, window_ms: float) -> tuple[int, str]:
        t = self.thresholds
        inval_rate = sig.invalidations / window_ms
        wait_frac = sig.lock_wait_ms / window_ms
        if sig.faults >= t.critical_faults:
            return STATE_CRITICAL, "fault"
        if sig.rung >= 2:
            return STATE_CRITICAL, "rung"
        if sig.queue_depth >= t.critical_queue_depth:
            return STATE_CRITICAL, "queue"
        if inval_rate > t.critical_invalidation_rate:
            return STATE_CRITICAL, "invalidation-rate"
        if wait_frac > t.critical_lock_wait:
            return STATE_CRITICAL, "lock-wait"
        if sig.rung >= 1:
            return STATE_WARN, "rung"
        if sig.queue_depth >= t.warn_queue_depth:
            return STATE_WARN, "queue"
        if inval_rate > t.warn_invalidation_rate:
            return STATE_WARN, "invalidation-rate"
        if wait_frac > t.warn_lock_wait:
            return STATE_WARN, "lock-wait"
        if sig.aborts >= t.warn_aborts:
            return STATE_WARN, "aborts"
        return STATE_OK, "clear"

    def _clear(self, sig: _WindowSignals, window_ms: float) -> bool:
        t = self.thresholds
        return (
            sig.faults == 0.0
            and sig.rung == 0.0
            and sig.queue_depth == 0.0
            and sig.aborts == 0.0
            and sig.invalidations / window_ms < t.low_invalidation_rate
            and sig.lock_wait_ms / window_ms < t.low_lock_wait
        )

    # -- the walk --------------------------------------------------------

    def evaluate(self, bus: TelemetryBus) -> HealthReport:
        """Walk every window of every shard, escalating immediately and
        de-escalating one level per all-clear window."""
        num_windows = bus.num_windows
        report = HealthReport(
            num_shards=bus.num_shards,
            num_windows=num_windows,
            window_ms=bus.window_ms,
        )
        signals = self._signals(bus)
        empty = _WindowSignals()
        for shard in range(bus.num_shards):
            state = STATE_OK
            states: list[int] = []
            windows = signals.get(shard, {})
            for window in range(num_windows):
                sig = windows.get(window, empty)
                level, reason = self._level(sig, bus.window_ms)
                if level > state:
                    target = level
                elif state > STATE_OK and self._clear(sig, bus.window_ms):
                    target, reason = state - 1, "recovered"
                else:
                    target = state
                if target != state:
                    report.transitions.append(
                        HealthTransition(
                            shard=shard,
                            window=window,
                            start_ms=window * bus.window_ms,
                            from_state=state,
                            to_state=target,
                            reason=reason,
                        )
                    )
                    state = target
                states.append(state)
            report.timeline[shard] = states
        return report


# -- exporters ----------------------------------------------------------


def _key_json(key: tuple) -> dict:
    kind, shard, procedure, point = key
    return {
        "kind": kind,
        "shard": shard,
        "procedure": procedure,
        "point": point,
    }


def series_jsonl_lines(
    bus: TelemetryBus, health: HealthReport | None = None
) -> list[str]:
    """The JSONL time-series log as a list of lines (no trailing
    newlines). Deterministic: sorted keys, simulated-time fields only —
    two same-seed runs produce byte-identical output."""
    lines = [
        json.dumps(
            {
                "kind": "telemetry_series",
                "schema_version": SCHEMA_VERSION,
                "window_ms": bus.window_ms,
                "end_ms": bus.end_ms,
                "num_shards": bus.num_shards,
                "num_series": len(bus.series),
                "samples": bus.samples_received,
            },
            sort_keys=True,
        )
    ]
    for key in bus.sorted_keys():
        base = _key_json(key)
        for record in bus.series[key].windows:
            lines.append(
                json.dumps(
                    {**base, **record.to_json()}, sort_keys=True
                )
            )
    if health is not None:
        for transition in health.transitions:
            lines.append(
                json.dumps(
                    {"kind": "health", **transition.to_json()},
                    sort_keys=True,
                )
            )
    return lines


def write_series_jsonl(
    path: str, bus: TelemetryBus, health: HealthReport | None = None
) -> int:
    """Write the JSONL series log; returns the number of lines."""
    lines = series_jsonl_lines(bus, health)
    with open(ensure_parent_dir(path), "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def _label_value(value) -> str:
    """OpenMetrics label escaping (the names here are tame, but stay
    correct for arbitrary procedure names)."""
    text = "" if value is None else str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Deterministic number rendering (repr floats, ints without dot)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_openmetrics(
    bus: TelemetryBus, health: HealthReport | None = None
) -> str:
    """The run's series as Prometheus/OpenMetrics exposition text.

    Whole-run aggregates (counters sum every window; points expose the
    last observed value) — the format a scrape endpoint would serve.
    Byte-identical across same-seed runs.
    """
    out: list[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        out.append(f"# TYPE {name} {kind}")
        out.append(f"# HELP {name} {help_text}")

    def sample(name: str, labels: dict, value: float) -> None:
        rendered = ",".join(
            f'{key}="{_label_value(val)}"'
            for key, val in labels.items()
        )
        out.append(f"{name}{{{rendered}}} {_fmt(value)}")

    family(
        "repro_telemetry_window_ms",
        "gauge",
        "Fixed aggregation window in simulated milliseconds",
    )
    out.append(f"repro_telemetry_window_ms {_fmt(bus.window_ms)}")
    families = (
        (KIND_PHASE, "repro_phase_ms_total", "counter", "phase",
         "Simulated milliseconds attributed per shard/procedure/phase"),
        (KIND_EVENT, "repro_event_total", "counter", "event",
         "Tracer event occurrences per shard/procedure/event"),
        (KIND_POINT, "repro_point_last", "gauge", "point",
         "Last observed value of each explicit per-shard point"),
    )
    keys = bus.sorted_keys()
    for family_kind, name, metric_type, label, help_text in families:
        family(name, metric_type, help_text)
        for key in keys:
            kind, shard, procedure, point = key
            if kind != family_kind:
                continue
            series = bus.series[key]
            if kind == KIND_POINT:
                records = series.windows
                value = records[-1].last if records else 0.0
            else:
                value = series.total
            sample(
                name,
                {"shard": shard, "procedure": procedure, label: point},
                value,
            )
    if health is not None:
        family(
            "repro_health_state",
            "gauge",
            "Final health state per shard (0=OK 1=WARN 2=CRITICAL)",
        )
        for shard, state in sorted(health.final_states().items()):
            sample("repro_health_state", {"shard": shard}, float(state))
    out.append("# EOF")
    return "\n".join(out) + "\n"
