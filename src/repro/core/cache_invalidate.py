"""The Cache and Invalidate strategy.

Each procedure keeps a cached copy of its last computed value plus a set of
i-locks describing everything the computation read. Accessing a *valid*
cache reads the stored pages (``T2 = C2 * ProcSize``); accessing an
*invalid* one recomputes via the stored plan, refreshes the cache
(``T1 = C_ProcessQuery + 2 * C2 * ProcSize``), and re-arms the i-locks.
Updates that break an i-lock mark the procedure invalid at a recording cost
of ``C_inval`` per invalidated procedure (the paper's ``T3`` component;
0 with battery-backed RAM, two I/Os — 60 ms — with the naive flag-on-page
scheme).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.batch import DeltaBatch
from repro.core.procedure import DatabaseProcedure
from repro.core.strategy import ProcedureStrategy, StrategyName
from repro.locks import ILockTable
from repro.query.executor import execute_plan
from repro.query.optimizer import Optimizer
from repro.query.plan import Plan
from repro.sim import CostClock
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.matstore import MaterializedStore
from repro.storage.tuples import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.schemes import InvalidationScheme


class CacheAndInvalidate(ProcedureStrategy):
    """Cache procedure values; invalidate via rule indexing (i-locks).

    Args:
        c_inval: milliseconds charged to record one procedure invalidation
            (the paper's ``C_inval``).
        result_tuple_bytes: assumed width of cached result tuples; the paper
            fixes this at the base ``S`` regardless of join arity. ``None``
            uses the honest concatenated width.
    """

    strategy_name = StrategyName.CACHE_INVALIDATE

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        clock: CostClock,
        c_inval: float = 0.0,
        result_tuple_bytes: int | None = None,
        scheme: "InvalidationScheme | None" = None,
    ) -> None:
        """``scheme`` selects the durable invalidation-recording design
        (battery / page-flag / WAL; see :mod:`repro.recovery`). When
        ``None``, validity lives in a plain dict and each invalidation
        charges the flat ``c_inval`` — the knob the paper's model uses.
        ``c_inval`` is ignored when a scheme is given (the scheme charges
        its own costs)."""
        super().__init__(catalog, buffer, clock)
        if c_inval < 0:
            raise ValueError("c_inval must be >= 0")
        self.c_inval = c_inval
        self.result_tuple_bytes = result_tuple_bytes
        self.scheme = scheme
        self._optimizer = Optimizer(catalog)
        self._plans: dict[str, Plan] = {}
        self._caches: dict[str, MaterializedStore] = {}
        self._valid: dict[str, bool] = {}
        self._locks = ILockTable()
        self.invalidation_count = 0
        self.false_invalidation_count = 0

    # -- definition ------------------------------------------------------------

    def _after_define(self, procedure: DatabaseProcedure) -> None:
        plan = self._optimizer.compile_normalized(procedure.query)
        self._plans[procedure.name] = plan
        ctx_schema = self._result_schema(plan)
        self._caches[procedure.name] = MaterializedStore(
            f"cache.{procedure.name}",
            ctx_schema,
            self.buffer,
            seed=len(self._caches),
        )
        if self.scheme is not None:
            self.scheme.register(procedure.name)
        self._valid[procedure.name] = False  # first access fills the cache

    def _result_schema(self, plan: Plan) -> Schema:
        from repro.query.executor import ExecutionContext

        ctx = ExecutionContext(catalog=self.catalog, clock=self.clock)
        schema = plan.output_schema(ctx)
        if self.result_tuple_bytes is not None:
            schema = Schema(schema.fields, tuple_bytes=self.result_tuple_bytes)
        return schema

    # -- access ------------------------------------------------------------------

    def is_valid(self, name: str) -> bool:
        if self.scheme is not None:
            return self.scheme.is_valid(name)
        return self._valid[name]

    def access(self, name: str) -> list[Row]:
        self._procedure(name)
        tracer = self.clock.tracer
        if self.is_valid(name):
            if tracer is None:
                return self._caches[name].read_all()
            tracer.event("proc.cache.hit")
            with tracer.span("cache.read", procedure=name):
                return self._caches[name].read_all()
        if tracer is not None:
            tracer.event("proc.cache.miss")
        result = execute_plan(
            self._plans[name],
            self.catalog,
            self.clock,
            collect_locks=True,
            procedure=name,
        )
        if tracer is None:
            self._caches[name].refresh(result.rows)
        else:
            with tracer.span("cache.refresh", procedure=name):
                self._caches[name].refresh(result.rows)
        self._locks.set_locks(name, result.locks)
        if self.scheme is not None:
            self.scheme.mark_valid(name)
        else:
            self._valid[name] = True
        return result.rows

    # -- maintenance ----------------------------------------------------------------

    def on_update(self, batch: DeltaBatch) -> None:
        """Break i-locks: every procedure whose locked ranges cover an old
        or new tuple value of the batch is marked invalid (``C_inval``
        each).

        Validity is monotone between accesses (nothing revalidates inside
        a batch), so the procedures one probe of the batch's un-netted
        values newly invalidates are exactly those per-transaction probes
        would flag, at the same per-procedure recording cost.
        """
        tracer = self.clock.tracer
        if tracer is None:
            self._break_locks(batch)
            return
        with tracer.span("ilock.check"):
            self._break_locks(batch)

    def _break_locks(self, batch: DeltaBatch) -> None:
        names = self.catalog.get(batch.relation).schema.names()
        broken = self._locks.conflicting_procedures_swept(
            batch.relation, runs=batch.sorted_value_runs(names)
        )
        # Sorted, so the record order (WAL included) never follows the
        # string hashing of a set.
        newly_invalid = sorted(
            name for name in broken if self.is_valid(name)
        )
        tracer = self.clock.tracer
        if batch.num_transactions == 1:
            # The paper charges per transaction: one record (one forced
            # log write under WAL) per invalidation.
            for name in newly_invalid:
                self.invalidation_count += 1
                if tracer is not None:
                    tracer.event("ilock.invalidation")
                if self.scheme is not None:
                    self.scheme.mark_invalid(name)
                else:
                    self._valid[name] = False
                    if self.c_inval:
                        self.clock.charge_fixed(self.c_inval)
            return
        # A multi-transaction batch group-commits its records (one log
        # force per batch under WAL).
        if not newly_invalid:
            return
        self.invalidation_count += len(newly_invalid)
        if tracer is not None:
            for _ in newly_invalid:
                tracer.event("ilock.invalidation")
        if self.scheme is not None:
            self.scheme.mark_invalid_group(newly_invalid)
            return
        for name in newly_invalid:
            self._valid[name] = False
        if self.c_inval:
            self.clock.charge_fixed(self.c_inval * len(newly_invalid))

    # -- fault recovery ----------------------------------------------------------------

    def repair_procedure(self, name: str, full_rows: list[Row]) -> None:
        """Refresh the cache from a supervisor-recomputed value and mark it
        valid again. The i-locks stay armed: the lock set is a static
        property of the plan, not of the cached contents."""
        procedure = self._procedure(name)
        rows = procedure.project_rows(full_rows, self.catalog)
        self._caches[name].refresh(rows)
        if self.scheme is not None:
            self.scheme.mark_valid(name)
        else:
            self._valid[name] = True

    def recover_after_crash(self) -> list[str]:
        """Recover the validity map per the configured scheme.

        WAL: replay checkpoint + surviving records (invalidations were
        forced, so recovered-valid caches are trustworthy — their pages
        are durable at buffer capacity 0). Battery/page-flag: durable by
        construction. No scheme: the plain dict is volatile, so every
        procedure conservatively recovers invalid (lazy recompute on next
        access). Nothing needs an eager repair in any case."""
        if self.scheme is None:
            for name in self._valid:
                self._valid[name] = False
        else:
            crash_and_recover = getattr(self.scheme, "crash_and_recover", None)
            if crash_and_recover is not None:
                crash_and_recover()
        return []

    # -- introspection -----------------------------------------------------------------

    def cache_of(self, name: str) -> MaterializedStore:
        return self._caches[name]

    def space_pages(self) -> int:
        return sum(cache.num_pages for cache in self._caches.values())

    def valid_fraction(self) -> float:
        """Fraction of defined procedures currently valid."""
        if not self.procedures:
            return 0.0
        valid = sum(1 for name in self.procedures if self.is_valid(name))
        return valid / len(self.procedures)
