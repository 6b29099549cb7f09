"""The Always Recompute strategy.

The conventional algorithm: compile an optimized plan once at definition
time, execute it on every access, do nothing on updates. Per-access cost is
the paper's ``TOT_Recompute = C_ProcessQuery``.
"""

from __future__ import annotations

from repro.core.batch import DeltaBatch
from repro.core.procedure import DatabaseProcedure
from repro.core.strategy import ProcedureStrategy, StrategyName
from repro.query.executor import ExecutionContext
from repro.query.optimizer import Optimizer
from repro.query.plan import Plan
from repro.sim import CostClock
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.tuples import Row


class AlwaysRecompute(ProcedureStrategy):
    """Recompute the procedure result from base relations on every access."""

    strategy_name = StrategyName.ALWAYS_RECOMPUTE

    def __init__(
        self, catalog: Catalog, buffer: BufferPool, clock: CostClock
    ) -> None:
        super().__init__(catalog, buffer, clock)
        self._optimizer = Optimizer(catalog)
        self._plans: dict[str, Plan] = {}

    def _after_define(self, procedure: DatabaseProcedure) -> None:
        self._plans[procedure.name] = self._optimizer.compile_normalized(
            procedure.query
        )

    def plan_of(self, name: str) -> Plan:
        """The stored precompiled plan (for inspection and tests)."""
        return self._plans[name]

    def access(self, name: str) -> list[Row]:
        self._procedure(name)
        ctx = ExecutionContext(catalog=self.catalog, clock=self.clock)
        tracer = self.clock.tracer
        if tracer is None:
            return self._plans[name].execute(ctx)
        # Recompute charges keep their natural phases (io.read /
        # predicate.test); the span only credits them to the procedure.
        with tracer.span(None, procedure=name):
            return self._plans[name].execute(ctx)

    def on_update(self, batch: DeltaBatch) -> None:
        """No per-update work: results are never materialised."""
