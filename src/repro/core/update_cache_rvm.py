"""Update Cache with Rete view maintenance (shared).

One :class:`repro.rete.ReteNetwork` maintains every procedure's value.
Because the network hash-conses structurally identical subnetworks, a type
P1 procedure's α-memory doubles as the shared left input of every type P2
procedure with the same ``C_f(R1)`` — the paper's sharing factor ``SF``
emerges from the procedure population rather than being a knob here.

Per update, only the changed tuples inside some condition's interval are
screened (once per *distinct* condition — the sharing saving), shared
α-memories are refreshed once, and each P2's top and-node probes its
precomputed right memory (an α-memory in model 1, the ``σ_Cf2(R2) ⋈ R3``
β-memory in model 2 — the reason RVM beats AVM on three-way joins).
Accessing a procedure reads its terminal memory (``C2 * ProcSize``).
"""

from __future__ import annotations

from repro.core.batch import DeltaBatch
from repro.core.procedure import DatabaseProcedure
from repro.core.strategy import ProcedureStrategy, StrategyName
from repro.rete import ReteNetwork
from repro.sim import CostClock
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.tuples import Row


class UpdateCacheRVM(ProcedureStrategy):
    """Shared differential maintenance via a Rete network.

    Args:
        result_tuple_bytes: assumed width of memory-node tuples (the paper's
            ``S``); ``None`` uses the honest concatenated width.
    """

    strategy_name = StrategyName.UPDATE_CACHE_RVM

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        clock: CostClock,
        result_tuple_bytes: int | None = None,
    ) -> None:
        super().__init__(catalog, buffer, clock)
        self.network = ReteNetwork(
            catalog, buffer, clock, result_tuple_bytes=result_tuple_bytes
        )

    def _after_define(self, procedure: DatabaseProcedure) -> None:
        self.network.add_procedure(procedure.name, procedure.query)

    def access(self, name: str) -> list[Row]:
        procedure = self._procedure(name)
        tracer = self.clock.tracer
        if tracer is None:
            rows = self.network.read_result(name)
        else:
            with tracer.span("cache.read", procedure=name):
                rows = self.network.read_result(name)
        return procedure.project_rows(rows, self.catalog)

    def on_update(self, batch: DeltaBatch) -> None:
        """Propagate the batch's net delta set as one token wave: each
        t-const node screens its routed tokens in one activation, and
        each α/β memory applies its whole token batch with
        page-deduplicated I/O — per-node, not per-tuple, work (correct by
        the same linearity argument as AVM)."""
        self.network.apply_update(batch.relation, *batch.netted())

    # -- fault recovery -----------------------------------------------------

    def repair_procedure(self, name: str, full_rows: list[Row]) -> None:
        """Refresh the terminal memory from a supervisor-recomputed value.
        Shared memories are refreshed with the same correct content every
        sharer would compute, so repairs never diverge."""
        self.network.result_memory(name).store.refresh(full_rows)

    def recover_after_crash(self) -> list[str]:
        """Rebuild the whole network from the current base relations.

        A crash may have interrupted token propagation anywhere, leaving
        *intermediate* α/β-memories inconsistent — repairing only terminal
        memories would let the next update propagate garbage. Dropping the
        memory files and recompiling every procedure reinitialises all
        memories (including shared ones) from base truth; the charge is
        one scan of each member relation plus one write per rebuilt memory
        page. Terminal memories come out correct, so nothing stays dirty."""
        disk = self.buffer.disk
        old = self.network
        for store in old.memory_stores():
            self.buffer.invalidate_file(store.name)
            disk.drop_file(store.name)
        self.network = ReteNetwork(
            self.catalog,
            self.buffer,
            self.clock,
            result_tuple_bytes=old.result_tuple_bytes,
        )
        relations: set[str] = set()
        for name, procedure in self.procedures.items():
            self.network.add_procedure(name, procedure.query)
            relations.update(procedure.query.relations)
        self.clock.charge_read(
            sum(self.catalog.get(rel).heap.num_pages for rel in sorted(relations))
        )
        self.clock.charge_write(self.network.total_memory_pages())
        return []

    def sharing_report(self) -> dict[str, int]:
        """Node counts and how many are shared (diagnostics for SF sweeps)."""
        return self.network.sharing_report()

    def space_pages(self) -> int:
        return self.network.total_memory_pages()
