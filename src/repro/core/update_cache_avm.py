"""Update Cache with algebraic view maintenance (non-shared).

Every procedure's materialised value is kept current at all times. After an
update transaction on a member relation, the strategy — *independently per
procedure*, with no subexpression sharing — does the paper's §4.3 work:

1. **screen**: the changed tuples falling inside the procedure's restriction
   interval are screened (``C1`` each; rule indexing spares out-of-interval
   tuples), and logged into the transaction's A/D delta sets (``C3`` each);
2. **delta join** (P2 only): screened tuples are joined to the remaining
   relations through their hash indexes (``C2 * Y2`` (+ ``Y7``) pages);
3. **refresh**: the resulting inserts/deletes are applied to the stored
   value, touching each affected page once (read + write;
   ``2 * C2 * y(n, m, 2fl)``).

Accessing a procedure just reads its stored value (``C2 * ProcSize``).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import DeltaBatch
from repro.core.delta import DeltaJoiner
from repro.core.procedure import DatabaseProcedure
from repro.core.strategy import ProcedureStrategy, StrategyName
from repro.query.predicate import compiled_column_matcher
from repro.rete.discrimination import ConstantTestIndex
from repro.sim import CostClock
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.columnar import ColumnBatch
from repro.storage.matstore import MaterializedStore
from repro.storage.tuples import Row, Schema


class UpdateCacheAVM(ProcedureStrategy):
    """Non-shared differential maintenance of procedure values.

    Args:
        result_tuple_bytes: assumed width of materialised result tuples (the
            paper's ``S``); ``None`` uses the honest concatenated width.
    """

    strategy_name = StrategyName.UPDATE_CACHE_AVM

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        clock: CostClock,
        result_tuple_bytes: int | None = None,
        delta_policy: str = "static",
        planning_cost_ms: float = 0.0,
    ) -> None:
        """``delta_policy``/``planning_cost_ms`` select static vs dynamic
        delta-join planning (see :class:`repro.core.delta.DeltaJoiner`)."""
        super().__init__(catalog, buffer, clock)
        self.result_tuple_bytes = result_tuple_bytes
        self.delta_policy = delta_policy
        self.planning_cost_ms = planning_cost_ms
        self._stores: dict[str, MaterializedStore] = {}
        self._joiners: dict[str, DeltaJoiner] = {}
        # proc name -> callbacks fed (inserts, deletes) after each refresh;
        # powers incrementally maintained aggregates (repro.core.aggregates).
        self._delta_observers: dict[str, list] = {}
        # (relation, interval) -> (procedure name, relation): one entry per
        # procedure per member relation — deliberately NOT hash-consed, this
        # is the non-shared algorithm.
        self._screen_index = ConstantTestIndex()

    # -- definition -------------------------------------------------------

    def _after_define(self, procedure: DatabaseProcedure) -> None:
        query = procedure.query
        joiner = DeltaJoiner(
            query,
            self.catalog,
            self.clock,
            policy=self.delta_policy,
            planning_cost_ms=self.planning_cost_ms,
        )
        self._joiners[procedure.name] = joiner

        # Materialise the initial value (definition-time, uncharged).
        rows = self._initial_value(procedure)
        schema = self._result_schema(procedure)
        store = MaterializedStore(
            f"avm.{procedure.name}", schema, self.buffer, seed=len(self._stores)
        )
        store.load_silently(rows)
        self._stores[procedure.name] = store

        # Register per-relation screening entries (rule indexing).
        for relation in query.relations:
            handle = (procedure.name, relation)
            restriction = query.restriction_of(relation)
            rel_schema = self.catalog.get(relation).schema
            interval = None
            for field in rel_schema.names():
                interval = restriction.interval_on(field)
                if interval is not None:
                    break
            if interval is not None:
                self._screen_index.add_interval(relation, interval, handle)
            else:
                self._screen_index.add_catch_all(relation, handle)

    def _result_schema(self, procedure: DatabaseProcedure) -> Schema:
        schema = self.catalog.get(procedure.query.relations[0]).schema
        for edge in procedure.query.joins:
            schema = schema.concat(self.catalog.get(edge.inner_relation).schema)
        if self.result_tuple_bytes is not None:
            schema = Schema(schema.fields, tuple_bytes=self.result_tuple_bytes)
        return schema

    def _initial_value(self, procedure: DatabaseProcedure) -> list[Row]:
        """Compute the definition-time contents without charging the clock
        (pure in-memory joins over uncharged scans)."""
        query = procedure.query
        driver = query.relations[0]
        rel = self.catalog.get(driver)
        parts = [
            {driver: row}
            for row in rel.heap.matching_uncharged(query.restriction_of(driver))
        ]
        for edge in query.joins:
            inner = self.catalog.get(edge.inner_relation)
            inner_pos = inner.schema.index_of(edge.inner_field)
            by_key: dict = {}
            for row in inner.heap.matching_uncharged(
                query.restriction_of(edge.inner_relation)
            ):
                by_key.setdefault(row[inner_pos], []).append(row)
            outer_rel = next(
                name
                for name in query.relations
                if self.catalog.get(name).schema.has_field(edge.outer_field)
            )
            outer_pos = self.catalog.get(outer_rel).schema.index_of(
                edge.outer_field
            )
            extended = []
            for part in parts:
                for row in by_key.get(part[outer_rel][outer_pos], ()):
                    new_part = dict(part)
                    new_part[edge.inner_relation] = row
                    extended.append(new_part)
            parts = extended
        out: list[Row] = []
        for part in parts:
            combined: tuple = ()
            for relation in query.relations:
                combined = combined + part[relation]
            out.append(combined)
        return out

    # -- access -----------------------------------------------------------

    def access(self, name: str) -> list[Row]:
        procedure = self._procedure(name)
        tracer = self.clock.tracer
        if tracer is None:
            rows = self._stores[name].read_all()
        else:
            with tracer.span("cache.read", procedure=name):
                rows = self._stores[name].read_all()
        return procedure.project_rows(rows, self.catalog)

    def store_of(self, name: str) -> MaterializedStore:
        return self._stores[name]

    # -- fault recovery -----------------------------------------------------

    def repair_procedure(self, name: str, full_rows: list[Row]) -> None:
        self._stores[name].refresh(full_rows)

    def recover_after_crash(self) -> list[str]:
        """AVM keeps no validity metadata, so after a crash (which may have
        interrupted maintenance mid-propagation) every materialised value
        must conservatively be recompute-repaired — exactly the recovery
        cost the paper's validity-map designs exist to avoid."""
        return list(self.procedures)

    def space_pages(self) -> int:
        return sum(store.num_pages for store in self._stores.values())

    # -- maintenance --------------------------------------------------------

    def on_update(self, batch: DeltaBatch) -> None:
        """Evaluate the delta expressions once over the batch's *net*
        delta set: one screening pass, one delta join per procedure, one
        store refresh touching each affected page once.

        Valid by linearity of the join over multiset sums — the other
        member relations are static for the batch's duration (a batch
        never spans relations and a flush precedes every access) — and
        because screening is a per-row filter, which commutes with
        netting."""
        relation = batch.relation
        inserts, deletes = batch.netted()
        schema = self.catalog.get(relation).schema
        # Gather, per procedure, the screened delta rows (rule indexing
        # routes each changed value only to procedures whose restriction
        # interval contains it).
        per_procedure = self._screen_batch(relation, schema, inserts, deletes)

        tracer = self.clock.tracer
        for proc_name, (del_rows, ins_rows) in per_procedure.items():
            if tracer is None:
                self._propagate(relation, proc_name, ins_rows, del_rows)
            else:
                # All per-procedure maintenance — delta join I/O, store
                # refresh, observer bookkeeping — is one phase.
                with tracer.span("delta.propagate", procedure=proc_name):
                    self._propagate(relation, proc_name, ins_rows, del_rows)

    def _screen_batch(
        self,
        relation: str,
        schema: Schema,
        inserts: list[Row],
        deletes: list[Row],
    ) -> dict[str, tuple[list[Row], list[Row]]]:
        """Columnar screening: one discrimination probe and one compiled
        restriction evaluation per candidate procedure, over the whole
        delta batch. Charges ``C1`` + ``C3`` per (candidate, changed tuple)
        and builds ``per_procedure`` in row-at-a-time order (first matching
        delta row, then candidate rank).
        """
        changed = deletes + inserts
        batch = ColumnBatch(schema, changed)
        boundary = len(deletes)
        matched: list[tuple[int, int, str, np.ndarray]] = []
        for rank, (handle, idx) in enumerate(
            self._screen_index.candidates_batch(relation, batch)
        ):
            proc_name, rel = handle  # type: ignore[misc]
            if rel != relation:
                continue
            procedure = self.procedures[proc_name]
            restriction = procedure.query.restriction_of(relation)
            count = len(idx)
            self.clock.charge_cpu(count)  # the screens themselves
            self.clock.charge_overhead(count)  # A/D set bookkeeping (C3)
            matcher = compiled_column_matcher(restriction, schema)
            hits = idx[matcher(batch.take(idx))]
            if len(hits):
                matched.append((int(hits[0]), rank, proc_name, hits))
        matched.sort(key=lambda item: (item[0], item[1]))
        per_procedure: dict[str, tuple[list[Row], list[Row]]] = {}
        for _first, _rank, proc_name, hits in matched:
            entry = per_procedure.setdefault(proc_name, ([], []))
            for index in hits:
                entry[0 if index < boundary else 1].append(changed[index])
        return per_procedure

    def _propagate(
        self,
        relation: str,
        proc_name: str,
        ins_rows: list[Row],
        del_rows: list[Row],
    ) -> None:
        joiner = self._joiners[proc_name]
        procedure = self.procedures[proc_name]
        if procedure.query.joins:
            ins_combined = joiner.compute(relation, ins_rows)
            del_combined = joiner.compute(relation, del_rows)
        else:
            ins_combined, del_combined = ins_rows, del_rows
        self._stores[proc_name].apply_delta(ins_combined, del_combined)
        observers = self._delta_observers.get(proc_name)
        if observers and (ins_combined or del_combined):
            # Observer bookkeeping costs C3 per delta tuple, like the
            # A/D set maintenance it extends.
            self.clock.charge_overhead(
                (len(ins_combined) + len(del_combined)) * len(observers)
            )
            for observer in observers:
                observer(ins_combined, del_combined)

    def add_delta_observer(self, name: str, observer) -> None:
        """Subscribe ``observer(inserts, deletes)`` to ``name``'s
        maintenance deltas (full, unprojected rows). Used to keep derived
        structures — e.g. :class:`repro.core.aggregates.GroupedAggregate`
        — current without rescans."""
        self._procedure(name)
        self._delta_observers.setdefault(name, []).append(observer)

    def attach_aggregate(self, name: str, aggregate) -> None:
        """Wire a :class:`GroupedAggregate` to ``name``: initialise it from
        the current materialised value (definition-time, uncharged) and
        keep it maintained by the delta stream."""
        aggregate.rebuild(self._stores[name].peek_all())
        self.add_delta_observer(name, aggregate.apply)
