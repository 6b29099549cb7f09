"""Span-style structured tracing over the simulated clock.

A :class:`Tracer` maintains a stack of active :class:`Span`\\ s. Each
span may name a *phase* (which cost bucket charges belong to while it is
innermost) and/or a *procedure* (which procedure the work is for) —
either may be ``None``, so a span can tag a procedure without disturbing
phase attribution. Completed spans are kept as bounded structured
:class:`SpanRecord` events, timestamped in *simulated* milliseconds.

The disabled path is :class:`NullTracer` / :data:`NULL_TRACER`: every
operation is a no-op and ``enabled`` is ``False``. Instrumented call
sites never construct spans unless a real tracer is attached to the
clock (they guard on ``clock.tracer is None``), so tracing off means
zero extra work on the hot paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.sim.clock import CostClock

PHASES: tuple[str, ...] = (
    "io.read",
    "io.write",
    "predicate.test",
    "ilock.check",
    "delta.propagate",
    "rete.alpha",
    "rete.beta",
    "cache.read",
    "cache.refresh",
    "base.update",
    "lock.wait",
    "fault.recovery",
    "fault.oracle",
    "shard.failover",
    "fault.replica",
    "misc.fixed",
)
"""The phase vocabulary used by the built-in instrumentation.

Instrumentation may introduce further labels; this tuple documents the
ones the cost pie is built from (``cache.hit``/``cache.miss`` are event
counters rather than phases — a hit charges its pages under
``cache.read``). ``lock.wait`` is charged by the concurrency engine
(:mod:`repro.concurrent`) for simulated time a session spent blocked in
the lock manager, so multi-client cost pies still sum exactly.
``fault.recovery`` is retry backoff plus recompute-repair work after
injected faults, and ``fault.oracle`` is crash-consistency verification
(:mod:`repro.faults`); both are charged under spans, so chaos-run cost
pies still sum exactly to the clock total. ``shard.failover`` is the
fixed promotion cost of swapping a range's replica in for its crashed
primary, and ``fault.replica`` is replica upkeep (delta fan-out to the
standby plus post-promotion rebuild of a fresh standby) in sharded
chaos runs (:mod:`repro.shard`).
"""


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: what, for whom, when (simulated ms), how much.

    ``self_ms_by_phase`` is filled by an attached
    :class:`repro.obs.CostAttribution`: clock charges made while this
    span was the *innermost* span, keyed by the phase they were
    attributed to. Summing it across every record (plus the
    attribution's un-spanned charges) reproduces the cost pie exactly,
    which is what the flight recorder's trace export relies on. ``None``
    when the run was traced without attribution or the span charged
    nothing directly.
    """

    phase: Optional[str]
    procedure: Optional[str]
    start_ms: float
    duration_ms: float
    depth: int
    self_ms_by_phase: Optional[dict] = None


class Span:
    """A context manager pushing phase/procedure context onto a tracer."""

    __slots__ = ("tracer", "phase", "procedure", "_start_ms", "charges")

    def __init__(
        self, tracer: "Tracer", phase: Optional[str], procedure: Optional[str]
    ) -> None:
        self.tracer = tracer
        self.phase = phase
        self.procedure = procedure
        self._start_ms = 0.0
        #: Lazily-created ``{phase: ms}`` of charges attributed while
        #: this span was innermost (written by CostAttribution).
        self.charges: Optional[dict] = None

    def __enter__(self) -> "Span":
        self._start_ms = self.tracer._now_ms()
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._pop(self)


class Tracer:
    """Phase/procedure context plus a bounded structured event log.

    Args:
        registry: optional :class:`MetricsRegistry` backing
            :meth:`event` counters.
        clock: optional :class:`repro.sim.CostClock` used to timestamp
            span records in simulated milliseconds.
        keep_events: how many completed span records to retain (oldest
            dropped first); 0 disables the event log entirely and
            ``None`` retains every record (what the flight recorder
            needs to export a complete timeline).
    """

    enabled = True

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        clock: "CostClock | None" = None,
        keep_events: int | None = 1024,
    ) -> None:
        self.registry = registry
        self.clock = clock
        #: Optional :class:`repro.obs.telemetry.TelemetryBus` receiving
        #: every event (propagated by :class:`repro.obs.CostAttribution`).
        self.telemetry = None
        self._stack: list[Span] = []
        # Parallel stacks so current_phase/current_procedure are O(1):
        # a span contributes only the context fields it actually sets.
        self._phase_stack: list[str] = []
        self._procedure_stack: list[str] = []
        self.events: deque[SpanRecord] = deque(maxlen=keep_events)

    # -- context ---------------------------------------------------------

    def span(
        self, phase: Optional[str], procedure: Optional[str] = None
    ) -> Span:
        """A context manager making ``phase``/``procedure`` current."""
        return Span(self, phase, procedure)

    def current_phase(self) -> Optional[str]:
        """The innermost active phase label, or ``None``."""
        return self._phase_stack[-1] if self._phase_stack else None

    def current_procedure(self) -> Optional[str]:
        """The innermost active procedure tag, or ``None``."""
        return self._procedure_stack[-1] if self._procedure_stack else None

    def _now_ms(self) -> float:
        return self.clock.elapsed_ms if self.clock is not None else 0.0

    def _push(self, span: Span) -> None:
        self._stack.append(span)
        if span.phase is not None:
            self._phase_stack.append(span.phase)
        if span.procedure is not None:
            self._procedure_stack.append(span.procedure)

    def _pop(self, span: Span) -> None:
        top = self._stack.pop()
        if top is not span:  # pragma: no cover - defensive
            raise RuntimeError("span exited out of order")
        if span.phase is not None:
            self._phase_stack.pop()
        if span.procedure is not None:
            self._procedure_stack.pop()
        if self.events.maxlen != 0:
            now = self._now_ms()
            self.events.append(
                SpanRecord(
                    phase=span.phase,
                    procedure=span.procedure,
                    start_ms=span._start_ms,
                    duration_ms=now - span._start_ms,
                    depth=len(self._stack),
                    self_ms_by_phase=span.charges,
                )
            )

    # -- events ----------------------------------------------------------

    def event(self, name: str, amount: float = 1.0) -> None:
        """Count a named occurrence (``cache.hit``, routed tokens, ...)."""
        # The hottest call of an observed run (three per page read):
        # Counter.inc and CostClock.elapsed_ms are spelled out here to
        # save their calls.
        if self.registry is not None:
            counter = self.registry.counters[name]
            if amount < 0:
                raise ValueError(f"counter {name!r} cannot decrease")
            counter.value += amount
        bus = self.telemetry
        if bus is not None:
            procedures = self._procedure_stack
            series = bus.event_series[procedures[-1] if procedures else None]
            clock = self.clock
            series[name].observe(
                amount, clock._elapsed_ms if clock is not None else 0.0
            )


class _NullSpan:
    """Shared no-op span for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Call sites normally never reach it (they guard on
    ``clock.tracer is None``), but code handed a tracer object directly
    can hold this and stay branch-free.
    """

    enabled = False
    telemetry = None

    def span(
        self, phase: Optional[str], procedure: Optional[str] = None
    ) -> _NullSpan:
        return _NULL_SPAN

    def current_phase(self) -> None:
        return None

    def current_procedure(self) -> None:
        return None

    def event(self, name: str, amount: float = 1.0) -> None:
        return None


NULL_TRACER = NullTracer()
