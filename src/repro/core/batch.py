"""The ``DeltaBatch``: the one unit of update maintenance.

A :class:`DeltaBatch` groups consecutive update *transactions* against one
relation. Every maintenance call hands a strategy a batch through
:meth:`repro.core.strategy.ProcedureStrategy.on_update`: the manager's
``update``/``insert``/``delete`` hand it a batch of one transaction, and the
batched pipeline (``batch_size``) one of up to ``batch_size``. Base-relation
changes are applied eagerly, transaction by transaction (heap costs and rid
bookkeeping are strategy-independent and order-sensitive); only the
*maintenance* reaction — i-lock probing, delta joins, Rete token
propagation — runs once per batch.

Equivalence argument (why batching cannot change results):

- **Cache and Invalidate**: validity is monotone between accesses, so the
  set of procedures newly invalidated by a batch is exactly the union of
  the per-transaction conflict sets — probing the merged value set once
  flags the same procedures at the same per-procedure recording cost.
- **AVM / RVM**: join is linear over multiset sums while the other member
  relations are static (guaranteed: a batch never spans relations, and a
  flush precedes every access), so propagating the *net* of a batch's
  deltas produces the same multiset contents as propagating each
  transaction's deltas in order.

A batch of one transaction is its own net (:meth:`DeltaBatch.netted`), so
the per-transaction path pays for no netting and no copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import ProcedureManager
    from repro.locks.ilocks import SortedValueRuns


def net_deltas(
    transactions: list[tuple[list[Row], list[Row]]],
) -> tuple[list[Row], list[Row]]:
    """Multiset-net a sequence of ``(inserts, deletes)`` transactions.

    A delete that cancels an insert made *earlier in the same batch* drops
    both (the row never needs to reach any maintenance structure); every
    other row passes through in first-seen order. The returned deletes are
    therefore guaranteed to exist in the pre-batch state, which is what
    :meth:`repro.storage.matstore.MaterializedStore.apply_delta` requires.
    """
    inserts: list[Row] = []
    deletes: list[Row] = []
    pending: dict[Row, int] = {}
    for txn_inserts, txn_deletes in transactions:
        # Deletes first, mirroring apply_delta's within-transaction order.
        for row in txn_deletes:
            count = pending.get(row, 0)
            if count > 0:
                pending[row] = count - 1
                inserts.remove(row)
            else:
                deletes.append(row)
        for row in txn_inserts:
            inserts.append(row)
            pending[row] = pending.get(row, 0) + 1
    return inserts, deletes


class DeltaBatch:
    """An ordered group of update transactions against one relation."""

    def __init__(self, relation: str) -> None:
        self.relation = relation
        self.transactions: list[tuple[list[Row], list[Row]]] = []
        self._runs_cache: dict[tuple[str, ...], "SortedValueRuns"] = {}

    def add_transaction(
        self, inserts: list[Row], deletes: list[Row]
    ) -> None:
        """Append one applied transaction's explicit old/new row lists."""
        self.transactions.append((list(inserts), list(deletes)))

    @property
    def num_transactions(self) -> int:
        return len(self.transactions)

    @property
    def num_tuples(self) -> int:
        """Raw delta rows across the batch (before netting)."""
        return sum(
            len(ins) + len(dels) for ins, dels in self.transactions
        )

    def netted(self) -> tuple[list[Row], list[Row]]:
        """The batch's net ``(inserts, deletes)`` (see :func:`net_deltas`).

        A lone transaction is returned as it is: :func:`net_deltas` takes
        each transaction's deletes before its inserts, so nothing inside
        one transaction can cancel. Callers must not mutate the lists."""
        if len(self.transactions) == 1:
            return self.transactions[0]
        return net_deltas(self.transactions)

    def sorted_value_runs(
        self, field_names: list[str]
    ) -> "SortedValueRuns":
        """The batch's changed rows as memoized per-field sorted runs
        (see :class:`repro.locks.ilocks.SortedValueRuns`). However many
        consumers probe the batch — one i-lock table per shard, the
        shard router — each field sorts once. Callers must not add
        transactions after the first probe (the runner flushes a batch
        exactly once, after its last transaction).

        The rows are every old and new tuple, *un-netted* (the paper's
        ``2l`` values per transaction): an intermediate value that existed
        between two transactions still broke any i-lock covering it."""
        key = tuple(field_names)
        runs = self._runs_cache.get(key)
        if runs is None:
            from repro.locks.ilocks import SortedValueRuns

            rows: list[Row] = []
            for inserts, deletes in self.transactions:
                rows += deletes
                rows += inserts
            runs = SortedValueRuns(field_names, rows)
            self._runs_cache[key] = runs
        return runs

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"DeltaBatch({self.relation}, txns={self.num_transactions}, "
            f"tuples={self.num_tuples})"
        )


class BatchAccumulator:
    """Groups update transactions into :class:`DeltaBatch` flushes.

    Used where the operation stream is not known ahead of time (the
    concurrent engine, whose sessions interleave); the serial runner plans
    its batches from the generated stream instead (:func:`repro.workload.
    generator.coalesced_update_runs`). Base changes apply eagerly through
    :meth:`ProcedureManager.update_deferred`; maintenance flushes when the
    batch fills, when an update targets a different relation, or when the
    caller forces a flush (before any procedure access, so reads always
    see fully maintained caches).
    """

    def __init__(self, manager: "ProcedureManager", batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.manager = manager
        self.batch_size = batch_size
        self._batch: DeltaBatch | None = None
        #: Completed flushes and the transactions they carried (diagnostics).
        self.flushes = 0
        self.flushed_transactions = 0

    @property
    def pending_transactions(self) -> int:
        return self._batch.num_transactions if self._batch else 0

    def add(
        self,
        relation: str,
        changes: list,
        cluster_field: str | None = None,
    ) -> None:
        """Apply one update transaction's base changes now and enqueue its
        maintenance; may trigger a flush (different relation, full batch)."""
        if self._batch is not None and self._batch.relation != relation:
            self.flush()
        inserts, deletes = self.manager.update_deferred(
            relation, changes, cluster_field=cluster_field
        )
        if self._batch is None:
            self._batch = DeltaBatch(relation)
        self._batch.add_transaction(inserts, deletes)
        if self._batch.num_transactions >= self.batch_size:
            self.flush()

    def flush(self) -> float:
        """Run deferred maintenance for the pending batch; returns the
        simulated ms charged (0.0 when nothing was pending)."""
        batch = self._batch
        self._batch = None
        if batch is None or not batch.transactions:
            return 0.0
        self.flushes += 1
        self.flushed_transactions += batch.num_transactions
        return self.manager.maintain_batch(batch)
