"""The procedure manager: one strategy bound to one database.

Routes definitions, accesses, and update transactions, and attributes the
simulated cost of each call to the buckets the paper's metric needs:

- ``access``   — cost of reads of procedure values (strategy-dependent);
- ``maintain`` — per-update strategy work (screening, delta joins,
  refreshes, invalidations);
- ``base``     — the cost of applying the update to the base relation and
  its indexes, which is identical for every strategy and therefore
  *excluded* from the paper's per-access comparisons.

The paper's headline quantity — expected total cost per procedure access —
is ``(access + maintain) / number of accesses``, exposed as
:meth:`ProcedureManager.cost_per_access`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.batch import DeltaBatch
from repro.core.procedure import DatabaseProcedure
from repro.core.strategy import ProcedureStrategy
from repro.query.expr import Expression
from repro.storage.page import RID
from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.catalog import Relation


@dataclass
class AccessResult:
    """One procedure access: its rows and attributed cost."""

    name: str
    rows: list[Row]
    cost_ms: float


@dataclass
class UpdateResult:
    """One update transaction: base-relation cost vs maintenance cost."""

    relation: str
    tuples_modified: int
    base_cost_ms: float
    maintenance_cost_ms: float


class ProcedureManager:
    """Facade over a strategy plus its database."""

    def __init__(self, strategy: ProcedureStrategy) -> None:
        self.strategy = strategy
        self.catalog = strategy.catalog
        self.clock = strategy.clock
        self.access_cost_ms = 0.0
        self.maintenance_cost_ms = 0.0
        self.base_update_cost_ms = 0.0
        self.num_accesses = 0
        self.num_updates = 0
        # Real (wall-clock) seconds spent inside strategy access /
        # maintenance calls — the simulator's own speed, orthogonal to the
        # simulated cost model. Feeds the wall-clock benchmark lane.
        self.wall_access_s = 0.0
        self.wall_maintenance_s = 0.0
        self.last_rids: list[RID] = []
        #: Optional tap on the update stream: called with ``(relation,
        #: inserts, deletes)`` after every transaction's base changes are
        #: applied — the same delta the strategy's i-lock sweep consumes.
        #: The front-tier result cache (``repro.serve``) subscribes here.
        self.update_listener: (
            Callable[[str, list[Row], list[Row]], object] | None
        ) = None

    # -- definition -------------------------------------------------------

    def define_procedure(
        self, name: str, expression: "Expression | str"
    ) -> DatabaseProcedure:
        """Define and compile a stored procedure (one-time, uncharged work
        per the paper's static-optimization assumption — the clock must not
        advance).

        ``expression`` may be an algebra tree or QUEL source text
        (``"retrieve (R1.all) where R1.sel >= 100 and R1.sel < 300"``).
        """
        if isinstance(expression, str):
            from repro.query.parser import parse_retrieve

            expression = parse_retrieve(expression)
        before = self.clock.snapshot()
        procedure = DatabaseProcedure(name, expression).bind(self.catalog)
        self.strategy.define(procedure)
        charged = self.clock.elapsed_since(before)
        if charged:
            raise RuntimeError(
                f"strategy {self.strategy.strategy_name} charged {charged} ms "
                "during definition; definition must be cost-free"
            )
        return procedure

    @property
    def procedure_names(self) -> list[str]:
        return sorted(self.strategy.procedures)

    def _apply_changes(
        self,
        relation: "Relation",
        changes: list[tuple[RID, Row]],
        cluster_field: str | None,
    ) -> tuple[list[Row], list[Row]]:
        """Modify ``changes`` in place (relocating when ``cluster_field``
        is set); returns ``(inserts, deletes)``. :attr:`last_rids` grows
        change by change, so after a mid-loop exception it holds the RIDs
        of exactly the changes that were applied."""
        deletes: list[Row] = []
        inserts: list[Row] = []
        self.last_rids = []
        for rid, new_row in changes:
            if cluster_field is None:
                old_row = relation.update(rid, new_row)
                new_rid = rid
            else:
                old_row, new_rid = relation.update_clustered(
                    rid, new_row, cluster_field
                )
            self.last_rids.append(new_rid)
            deletes.append(old_row)
            inserts.append(new_row)
        return inserts, deletes

    # -- operations ----------------------------------------------------------

    def access(self, name: str) -> AccessResult:
        """Read one procedure's value, attributing the cost."""
        before = self.clock.snapshot()
        wall_start = time.perf_counter()
        rows = self.strategy.access(name)
        self.wall_access_s += time.perf_counter() - wall_start
        cost = self.clock.elapsed_since(before)
        self.access_cost_ms += cost
        self.num_accesses += 1
        return AccessResult(name=name, rows=rows, cost_ms=cost)

    def update(
        self,
        relation_name: str,
        changes: list[tuple[RID, Row]],
        cluster_field: str | None = None,
    ) -> UpdateResult:
        """Apply one update transaction: modify ``changes`` in place, then
        let the strategy maintain its structures.

        With ``cluster_field`` set, tuples whose clustering key changed are
        relocated next to their new key neighbours (index-organised
        behaviour), and :attr:`last_rids` records each change's resulting
        RID so callers can track tuples across moves.
        """
        relation = self.catalog.get(relation_name)
        return self._transaction(
            relation_name,
            lambda: self._apply_changes(relation, changes, cluster_field),
        )

    def insert(self, relation_name: str, rows: list[Row]) -> UpdateResult:
        """Apply one insert transaction and let the strategy maintain its
        structures (Rete: ``+`` tokens; AVM: insert deltas; CI: broken
        i-locks)."""
        relation = self.catalog.get(relation_name)

        def apply() -> tuple[list[Row], list[Row]]:
            self.last_rids = [relation.insert(row) for row in rows]
            return list(rows), []

        return self._transaction(relation_name, apply)

    def delete(self, relation_name: str, rids: list[RID]) -> UpdateResult:
        """Apply one delete transaction with strategy maintenance."""
        relation = self.catalog.get(relation_name)
        return self._transaction(
            relation_name,
            lambda: ([], [relation.delete(rid) for rid in rids]),
        )

    def update_deferred(
        self,
        relation_name: str,
        changes: list[tuple[RID, Row]],
        cluster_field: str | None = None,
    ) -> tuple[list[Row], list[Row]]:
        """Apply one update transaction's base changes *without* running
        strategy maintenance; returns the explicit ``(inserts, deletes)``
        row lists for the caller to accumulate into a
        :class:`repro.core.batch.DeltaBatch` and later hand to
        :meth:`maintain_batch`. Base accounting (cost bucket,
        ``num_updates``, :attr:`last_rids`) and the listener run at once,
        as :meth:`update` runs them after its maintenance."""
        relation = self.catalog.get(relation_name)
        inserts, deletes, base_cost = self._base_update(
            lambda: self._apply_changes(relation, changes, cluster_field)
        )
        self.base_update_cost_ms += base_cost
        self.num_updates += 1
        if self.update_listener is not None:
            self.update_listener(relation_name, inserts, deletes)
        return inserts, deletes

    def maintain_batch(self, batch: DeltaBatch) -> float:
        """Run the strategy's deferred maintenance for ``batch`` (whose
        base changes :meth:`update_deferred` already applied); returns the
        simulated ms charged, accrued to the maintenance bucket."""
        maint_cost = self._maintain(batch)
        self.maintenance_cost_ms += maint_cost
        return maint_cost

    def _transaction(
        self,
        relation_name: str,
        apply: Callable[[], tuple[list[Row], list[Row]]],
    ) -> UpdateResult:
        """Base changes, then maintenance of them as a one-transaction
        batch. The cost buckets, ``num_updates`` and the listener accrue
        only once maintenance has returned: an update aborted in either
        half accrues nothing here (``SupervisedManager`` counts it)."""
        inserts, deletes, base_cost = self._base_update(apply)
        batch = DeltaBatch(relation_name)
        batch.add_transaction(inserts, deletes)
        maint_cost = self._maintain(batch)
        self.base_update_cost_ms += base_cost
        self.maintenance_cost_ms += maint_cost
        self.num_updates += 1
        if self.update_listener is not None:
            self.update_listener(relation_name, inserts, deletes)
        return UpdateResult(
            relation=relation_name,
            tuples_modified=max(len(inserts), len(deletes)),
            base_cost_ms=base_cost,
            maintenance_cost_ms=maint_cost,
        )

    def _base_update(
        self, apply: Callable[[], tuple[list[Row], list[Row]]]
    ) -> tuple[list[Row], list[Row], float]:
        """Run ``apply`` — change the base relation, return the
        transaction's ``(inserts, deletes)`` — under the ``base.update``
        phase span (the cost the paper's per-access metric excludes);
        returns them with the simulated ms charged."""
        before = self.clock.snapshot()
        tracer = self.clock.tracer
        with nullcontext() if tracer is None else tracer.span("base.update"):
            inserts, deletes = apply()
        return inserts, deletes, self.clock.elapsed_since(before)

    def _maintain(self, batch: DeltaBatch) -> float:
        """The strategy's maintenance of ``batch``; returns the simulated
        ms charged (accrued by the caller) and accrues the wall time."""
        before = self.clock.snapshot()
        wall_start = time.perf_counter()
        self.strategy.on_update(batch)
        self.wall_maintenance_s += time.perf_counter() - wall_start
        return self.clock.elapsed_since(before)

    # -- the paper's metric ----------------------------------------------------

    def cost_per_access(self) -> float:
        """Expected total cost per procedure access: read costs plus
        maintenance amortised over the accesses (base-relation update I/O
        excluded, as in the paper)."""
        if self.num_accesses == 0:
            return 0.0
        return (self.access_cost_ms + self.maintenance_cost_ms) / self.num_accesses

    def reset_counters(self) -> None:
        """Zero attribution counters (e.g. after a warm-up phase)."""
        self.access_cost_ms = 0.0
        self.maintenance_cost_ms = 0.0
        self.base_update_cost_ms = 0.0
        self.num_accesses = 0
        self.num_updates = 0
        self.wall_access_s = 0.0
        self.wall_maintenance_s = 0.0
