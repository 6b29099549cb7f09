"""Recovery supervision: retry, degradation ladder, crash-restart, oracle.

The :class:`RecoverySupervisor` sits between a strategy and the fault
injector and implements the policy layer:

- **Transient faults** never reach it — the injector retries them at the
  I/O call site with bounded exponential backoff (simulated time,
  charged under the ``fault.recovery`` phase).
- **Degradation ladder (UC -> CI -> AR)** for a failed access: when the
  cached value cannot be read (torn page detected by its checksum, or a
  persistent I/O error), the supervisor recomputes the value from the
  base relations, repairs the cache, and serves the answer — the Cache
  and Invalidate rung. If the repair itself faults persistently, it
  falls to the last rung: serve the access Always-Recompute style on a
  quiesced system and leave the cache for a later repair.
- **Crash-restart**: a :class:`CrashSignal` loses volatile state. The
  supervisor asks the strategy to recover (WAL replay for the logged
  scheme, conservative full rebuild where no validity metadata exists),
  recompute-repairs whatever the strategy reports dirty, and then runs
  the **consistency oracle**: every procedure's post-recovery answer
  must be bit-identical to a fresh recompute against the current base
  relations.

All repair work is charged under ``fault.recovery`` spans and oracle
work under ``fault.oracle``, so an attached
:class:`repro.obs.CostAttribution` still sums phases exactly to the
clock total.

Crash model: chaos runs use buffer capacity 0 (every write immediately
durable), so a crash loses exactly the WAL tail and in-memory validity
state. There is no base-relation undo: an update interrupted mid-flight
leaves its applied tuples in place, and recovery is redo-style —
:meth:`RecoverySupervisor.handle_update_failure` conservatively
recompute-repairs *every* procedure so caches agree with whatever state
the base relations reached. The oracle therefore checks consistency
with base truth, not transactional atomicity.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.core.manager import AccessResult, ProcedureManager, UpdateResult
from repro.faults.errors import CrashSignal, FaultError, PageCorruptionError
from repro.query.executor import execute_plan
from repro.query.optimizer import Optimizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import ProcedureStrategy
    from repro.faults.injector import FaultInjector
    from repro.query.plan import Plan
    from repro.storage.page import RID
    from repro.storage.tuples import Row

RECOVERY_PHASE = "fault.recovery"
ORACLE_PHASE = "fault.oracle"


class RecoverySupervisor:
    """Degradation and crash-restart policy for one strategy instance."""

    def __init__(
        self, strategy: "ProcedureStrategy", injector: "FaultInjector"
    ) -> None:
        self.strategy = strategy
        self.catalog = strategy.catalog
        self.clock = strategy.clock
        self.injector = injector
        self._optimizer = Optimizer(self.catalog)
        self._full_plans: dict[str, "Plan"] = {}
        self.degraded_accesses = 0
        self.repairs = 0
        self.ar_fallbacks = 0
        self.crash_restarts = 0
        self.update_aborts = 0
        self.oracle_checks = 0
        self.oracle_failures = 0
        self.oracle_mismatches: list[str] = []

    # -- plumbing ---------------------------------------------------------

    def _span(self, phase: str):
        tracer = self.clock.tracer
        return nullcontext() if tracer is None else tracer.span(phase)

    def _event(self, name: str) -> None:
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.event(name)

    def _full_plan(self, name: str) -> "Plan":
        """A projection-free plan for ``name`` — its output rows are the
        full combined rows every strategy's repair hook expects."""
        plan = self._full_plans.get(name)
        if plan is None:
            query = self.strategy.procedures[name].query
            plan = self._optimizer.compile_normalized(
                dataclasses.replace(query, projection=None)
            )
            self._full_plans[name] = plan
        return plan

    def recompute(self, name: str) -> list["Row"]:
        """Fresh unprojected value from the base relations (charged)."""
        result = execute_plan(
            self._full_plan(name), self.catalog, self.clock, procedure=name
        )
        return result.rows

    # -- operation-boundary crash points ----------------------------------

    def crash_point(self, point: str) -> None:
        """Fire the per-operation crash point; a hit restarts inline (the
        crash lands on the boundary, before the operation begins)."""
        if self.injector.check_crash(point):
            self.crash_restart(point)

    # -- degradation ladder -----------------------------------------------

    def degraded_access(self, name: str, exc: FaultError) -> list["Row"]:
        """The cached read (UC rung) failed with ``exc``; walk the ladder
        and return the projected rows the access should serve."""
        self.degraded_accesses += 1
        self._event("fault.access.degraded")
        if isinstance(exc, CrashSignal):
            self.handle_crash(exc)
        try:
            # CI rung: recompute from base, repair the cache, serve.
            with self._span(RECOVERY_PHASE):
                rows = self.recompute(name)
                self.strategy.repair_procedure(name, rows)
            self.repairs += 1
        except CrashSignal as inner:
            # A crash mid-repair: restart, then repair on the quiesced
            # system (recovery already verified consistency).
            self.handle_crash(inner)
            with self.injector.suspended(), self._span(RECOVERY_PHASE):
                rows = self.recompute(name)
                self.strategy.repair_procedure(name, rows)
            self.repairs += 1
        except FaultError:
            # AR rung: the repair itself faults persistently. Serve the
            # access Always-Recompute style with injection quiesced and
            # leave the cache as-is for a later repair.
            self.ar_fallbacks += 1
            self._event("fault.access.ar_fallback")
            with self.injector.suspended(), self._span(RECOVERY_PHASE):
                rows = self.recompute(name)
        procedure = self.strategy.procedures[name]
        return procedure.project_rows(rows, self.catalog)

    # -- crash-restart ----------------------------------------------------

    def handle_crash(self, exc: CrashSignal) -> None:
        """Policy hook for a crash surfacing on the access path. The base
        supervisor restarts the whole engine; the shard-aware subclass
        narrows a :class:`~repro.faults.errors.ShardCrashSignal` to its
        one fault domain."""
        self.crash_restart(exc.point)

    def crash_restart(self, reason: str) -> None:
        """Fail-stop plus instantaneous restart at an operation boundary:
        volatile state is lost, the strategy recovers from WAL + base
        relations, dirty values are recompute-repaired, and the oracle
        verifies every procedure."""
        self.crash_restarts += 1
        self._event("fault.crash_restart")
        with self.injector.suspended():
            with self._span(RECOVERY_PHASE):
                dirty = self.strategy.recover_after_crash()
                for name in dirty:
                    self.strategy.repair_procedure(name, self.recompute(name))
                    self.repairs += 1
            self.verify_consistency()

    def handle_update_failure(self, exc: FaultError) -> None:
        """An update transaction died mid-flight (crash, corruption, or a
        persistent fault during base/maintenance work). With no undo, the
        applied base changes stand; recovery is redo-style: restart, then
        conservatively recompute-repair *every* procedure so caches agree
        with whatever the base relations now contain."""
        self.update_aborts += 1
        self.crash_restarts += 1
        self._event("fault.update.aborted")
        with self.injector.suspended():
            with self._span(RECOVERY_PHASE):
                self.strategy.recover_after_crash()
                for name in sorted(self.strategy.procedures):
                    self.strategy.repair_procedure(name, self.recompute(name))
                    self.repairs += 1
            self.verify_consistency()

    # -- the oracle -------------------------------------------------------

    def verify_consistency(self, names: "list[str] | None" = None) -> bool:
        """Every procedure's answer (or just ``names``' — the shard-scoped
        oracle) must be bit-identical (as a sorted multiset) to a fresh
        recompute against the current base relations. Runs with injection
        suspended; charged under ``fault.oracle``."""
        if names is None:
            names = sorted(self.strategy.procedures)
        self.oracle_checks += 1
        ok = True
        with self.injector.suspended(), self._span(ORACLE_PHASE):
            for name in names:
                procedure = self.strategy.procedures[name]
                expected = sorted(
                    procedure.project_rows(self.recompute(name), self.catalog)
                )
                try:
                    actual = sorted(self.strategy.access(name))
                except PageCorruptionError:
                    # A latent torn page surfaced during verification:
                    # repair it (under fault.recovery), then re-read.
                    with self._span(RECOVERY_PHASE):
                        self.strategy.repair_procedure(
                            name, self.recompute(name)
                        )
                    self.repairs += 1
                    actual = sorted(self.strategy.access(name))
                if actual != expected:
                    ok = False
                    self.oracle_failures += 1
                    self.oracle_mismatches.append(name)
                    self._event("fault.oracle.mismatch")
        return ok


class SupervisedManager(ProcedureManager):
    """A :class:`ProcedureManager` that survives injected faults.

    Accesses that fault walk the supervisor's degradation ladder and
    still return correct rows; updates that fault mid-flight abort into
    redo-style recovery; operation boundaries pass the ``op.access`` /
    ``op.update`` crash points. With no faults firing, behaviour and
    charges are identical to the plain manager."""

    def __init__(
        self, strategy: "ProcedureStrategy", supervisor: RecoverySupervisor
    ) -> None:
        super().__init__(strategy)
        self.supervisor = supervisor

    def access(self, name: str) -> AccessResult:
        sup = self.supervisor
        sup.crash_point("op.access")
        before = self.clock.snapshot()
        try:
            rows = self.strategy.access(name)
        except FaultError as exc:
            rows = sup.degraded_access(name, exc)
        cost = self.clock.elapsed_since(before)
        self.access_cost_ms += cost
        self.num_accesses += 1
        return AccessResult(name=name, rows=rows, cost_ms=cost)

    def update(
        self,
        relation_name: str,
        changes: list[tuple["RID", "Row"]],
        cluster_field: str | None = None,
    ) -> UpdateResult:
        sup = self.supervisor
        sup.crash_point("op.update")
        try:
            return super().update(relation_name, changes, cluster_field)
        except FaultError as exc:
            sup.handle_update_failure(exc)
            # The aborted transaction consumed its slot in the stream; its
            # partial charges stay on the clock (attributed to their
            # phases) but not in the per-bucket counters.
            self.num_updates += 1
            return UpdateResult(
                relation=relation_name,
                tuples_modified=0,
                base_cost_ms=0.0,
                maintenance_cost_ms=0.0,
            )
