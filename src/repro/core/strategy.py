"""The strategy interface.

A strategy owns everything procedure-specific: compiled plans, caches,
maintenance structures. The manager calls :meth:`define` once per procedure,
:meth:`access` per read, and :meth:`on_update` with a
:class:`repro.core.batch.DeltaBatch` once the batch's transactions have been
applied to the heap (so strategies observe the post-update database plus the
explicit old/new row lists). A single update transaction is a batch of one;
there is no other maintenance entry point.

All costs a strategy incurs flow through the shared clock; the manager
attributes them by snapshotting around these calls.
"""

from __future__ import annotations

import abc
import enum
from typing import TYPE_CHECKING

from repro.core.procedure import DatabaseProcedure
from repro.sim import CostClock
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import DeltaBatch


class StrategyName(str, enum.Enum):
    """Canonical strategy identifiers used across benches and reports."""

    ALWAYS_RECOMPUTE = "always_recompute"
    CACHE_INVALIDATE = "cache_invalidate"
    UPDATE_CACHE_AVM = "update_cache_avm"
    UPDATE_CACHE_RVM = "update_cache_rvm"
    HYBRID = "hybrid"

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.value


class ProcedureStrategy(abc.ABC):
    """Base class for the four query-processing strategies."""

    strategy_name: StrategyName

    def __init__(
        self, catalog: Catalog, buffer: BufferPool, clock: CostClock
    ) -> None:
        self.catalog = catalog
        self.buffer = buffer
        self.clock = clock
        self.procedures: dict[str, DatabaseProcedure] = {}

    def define(self, procedure: DatabaseProcedure) -> None:
        """Register ``procedure`` (already bound to the catalog) and build
        whatever per-procedure state the strategy needs. Definition-time
        work is a one-time cost the paper excludes from the per-access
        analysis; implementations must not charge the clock here."""
        if procedure.name in self.procedures:
            raise ValueError(f"procedure {procedure.name!r} already defined")
        self.procedures[procedure.name] = procedure
        self._after_define(procedure)

    @abc.abstractmethod
    def _after_define(self, procedure: DatabaseProcedure) -> None:
        """Strategy-specific definition work."""

    @abc.abstractmethod
    def access(self, name: str) -> list[Row]:
        """Return the procedure's current value, charging the clock."""

    @abc.abstractmethod
    def on_update(self, batch: "DeltaBatch") -> None:
        """React to a batch of applied update transactions against one
        relation (in each, new rows ``inserts`` replaced old rows
        ``deletes`` in place), charging the clock for any maintenance
        work. A one-transaction batch must charge exactly what the paper
        charges one update transaction."""

    # -- fault recovery (see repro.faults.supervisor) ----------------------

    def repair_procedure(self, name: str, full_rows: list[Row]) -> None:
        """Restore ``name``'s cached state from ``full_rows`` — a freshly
        recomputed, *unprojected* result the supervisor already charged.
        Default: nothing cached, nothing to repair (Always Recompute)."""

    def recover_after_crash(self) -> list[str]:
        """Rebuild volatile state after a simulated crash; the caller has
        quiesced fault injection and charges everything here under the
        ``fault.recovery`` phase. Returns the procedure names whose cached
        values still need a recompute-repair (the supervisor performs
        those). Default: nothing volatile, nothing dirty."""
        return []

    def space_pages(self) -> int:
        """Disk pages the strategy's caches/memories currently occupy.

        The paper's analysis costs only time; this exposes the space axis:
        Always Recompute stores nothing, Cache and Invalidate and AVM store
        one copy per procedure, and RVM's sharing means a shared
        subexpression's pages are counted once however many procedures use
        it.
        """
        return 0

    def _procedure(self, name: str) -> DatabaseProcedure:
        try:
            return self.procedures[name]
        except KeyError:
            raise KeyError(f"no procedure named {name!r}") from None
