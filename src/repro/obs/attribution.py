"""Charge attribution: every clock millisecond lands in exactly one phase.

:class:`CostAttribution` installs a sink on a :class:`repro.sim.
CostClock`. Each ``charge_*`` call then reports ``(kind, ms, count)``
here, and the amount is bucketed under the innermost active span's phase
— or, when no phase span is active, a default derived from the charge
kind (a ``C1`` predicate screen is ``predicate.test`` wherever it
happens). Because every charge lands in exactly one bucket, the phase
totals sum to the clock's elapsed time over the attached window, which
is the invariant ``repro-procs profile`` and the golden tests assert.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry, Prekeyed
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import CostClock

DEFAULT_PHASE_FOR_KIND: dict[str, str] = {
    "cpu": "predicate.test",
    "read": "io.read",
    "write": "io.write",
    "overhead": "delta.propagate",
    "fixed": "misc.fixed",
}
"""Fallback phase per charge kind when no phase span is active."""


class CostAttribution:
    """Per-phase / per-procedure cost accounting for one observed window.

    Typical use (what :func:`repro.workload.runner.run_workload` does
    when handed an ``observation``)::

        obs = CostAttribution()
        obs.attach(clock)
        ... run the workload ...
        obs.detach()
        obs.phase_costs()       # {"io.read": 1230.0, ...}
        obs.procedure_costs()   # {"p1_004": 210.0, ...}

    Args:
        registry: metrics registry to use (a fresh one by default); the
            attribution also feeds ``charge.<kind>.ms`` / ``.count``
            counters into it.
        keep_events: span-record retention for the tracer (``None``
            keeps every record — required for complete trace exports).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        keep_events: int | None = 1024,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.keep_events = keep_events
        self.tracer: Tracer | None = None
        self._telemetry = None
        self._clock: "CostClock | None" = None
        # kind -> its (charge.<kind>.ms, charge.<kind>.count) counters.
        self._charge_counters = Prekeyed(
            lambda kind: (
                self.registry.counters[f"charge.{kind}.ms"],
                self.registry.counters[f"charge.{kind}.count"],
            )
        )
        self._phase_ms: dict[str, float] = defaultdict(float)
        self._procedure_ms: dict[str, float] = defaultdict(float)
        self._unspanned_ms: dict[str, float] = defaultdict(float)

    @property
    def telemetry(self):
        """Optional :class:`repro.obs.telemetry.TelemetryBus` receiving
        every attributed charge and, through the tracer, every event.
        Assign it before or after :meth:`attach`."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, bus) -> None:
        self._telemetry = bus
        if self.tracer is not None:
            self.tracer.telemetry = bus

    # -- lifecycle -------------------------------------------------------

    def attach(self, clock: "CostClock") -> "CostAttribution":
        """Start observing ``clock`` (one attribution per clock at a time)."""
        if self._clock is not None:
            raise RuntimeError("attribution is already attached to a clock")
        self.tracer = Tracer(
            registry=self.registry, clock=clock, keep_events=self.keep_events
        )
        self.tracer.telemetry = self._telemetry
        clock.set_attribution(self._on_charge, self.tracer)
        self._clock = clock
        return self

    def detach(self) -> None:
        """Stop observing; accumulated totals remain readable."""
        if self._clock is None:
            return
        self._clock.clear_attribution()
        self._clock = None

    @property
    def attached(self) -> bool:
        return self._clock is not None

    # -- the clock sink --------------------------------------------------

    def _on_charge(self, kind: str, ms: float, count: int) -> None:
        tracer = self.tracer
        phases = tracer._phase_stack
        phase = (
            phases[-1] if phases
            else DEFAULT_PHASE_FOR_KIND.get(kind, "misc.fixed")
        )
        self._phase_ms[phase] += ms
        # Credit the innermost span's self time (the flight recorder's
        # per-slice charge), or the un-spanned pool when no span is open.
        spans = tracer._stack
        if spans:
            span = spans[-1]
            if span.charges is None:
                span.charges = {}
            span.charges[phase] = span.charges.get(phase, 0.0) + ms
        else:
            self._unspanned_ms[phase] += ms
        procedures = tracer._procedure_stack
        procedure = procedures[-1] if procedures else None
        if procedure is not None:
            self._procedure_ms[procedure] += ms
        # The clock has already refused a negative charge, so the
        # counters are added to without Counter.inc's check and call; the
        # clock is read without its property's.
        ms_counter, count_counter = self._charge_counters[kind]
        ms_counter.value += ms
        count_counter.value += count
        if self._telemetry is not None:
            self._telemetry.phase_series[procedure][phase].observe(
                ms, self._clock._elapsed_ms
            )

    # -- results ---------------------------------------------------------

    @property
    def total_ms(self) -> float:
        """Every attributed millisecond (equals the clock's elapsed time
        over the attached window)."""
        return sum(self._phase_ms.values())

    def phase_costs(self) -> dict[str, float]:
        """Milliseconds per phase, largest first."""
        return dict(
            sorted(self._phase_ms.items(), key=lambda kv: -kv[1])
        )

    def procedure_costs(self) -> dict[str, float]:
        """Milliseconds per tagged procedure, largest first (charges made
        outside any procedure-tagged span are not included)."""
        return dict(
            sorted(self._procedure_ms.items(), key=lambda kv: -kv[1])
        )

    def unspanned_phase_costs(self) -> dict[str, float]:
        """Milliseconds charged while *no* span was active, per attributed
        phase (the complement of every span's ``self_ms_by_phase``)."""
        return dict(sorted(self._unspanned_ms.items(), key=lambda kv: -kv[1]))

    def as_dict(self) -> dict:
        """JSON-ready summary: phases, procedures, and the registry."""
        return {
            "total_ms": self.total_ms,
            "phases": self.phase_costs(),
            "procedures": self.procedure_costs(),
            "metrics": self.registry.as_dict(),
        }
