"""Per-procedure strategy assignment (extension).

The paper (§8) cites Sellis [Sel86, Sel87] on "how to decide whether or
not to maintain a cached copy of a given object" and notes the stakes are
higher for Update Cache, where maintaining a rarely-read object wastes
every update. The natural answer is to decide *per procedure*:
:class:`HybridStrategy` routes each procedure to a sub-strategy — e.g.
Update Cache for the hot set, Always Recompute for the cold tail — and
broadcasts updates to every sub-strategy in play (each maintains only its
own procedures, so no work is duplicated).

With a skewed access pattern this dominates every pure strategy: the hot
set's reads are served from maintained caches while the cold tail incurs
no maintenance at all.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from repro.core.always_recompute import AlwaysRecompute
from repro.core.batch import DeltaBatch
from repro.core.cache_invalidate import CacheAndInvalidate
from repro.core.procedure import DatabaseProcedure
from repro.core.strategy import ProcedureStrategy, StrategyName
from repro.core.update_cache_avm import UpdateCacheAVM
from repro.core.update_cache_rvm import UpdateCacheRVM
from repro.sim import CostClock
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.tuples import Row

Assigner = Union[
    Mapping[str, StrategyName],
    Callable[[DatabaseProcedure], StrategyName],
]

_SUB_CLASSES = {
    StrategyName.ALWAYS_RECOMPUTE: AlwaysRecompute,
    StrategyName.CACHE_INVALIDATE: CacheAndInvalidate,
    StrategyName.UPDATE_CACHE_AVM: UpdateCacheAVM,
    StrategyName.UPDATE_CACHE_RVM: UpdateCacheRVM,
}


class HybridStrategy(ProcedureStrategy):
    """Routes each procedure to its assigned sub-strategy.

    Args:
        assign: a mapping from procedure name to :class:`StrategyName`, or
            a callable deciding per procedure at definition time. Missing
            names fall back to ``default``.
        default: strategy for unassigned procedures.
        sub_strategy_kwargs: extra constructor arguments per sub-strategy
            name (e.g. ``{StrategyName.CACHE_INVALIDATE:
            {"c_inval": 60.0}}``).
    """

    strategy_name = StrategyName.HYBRID

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferPool,
        clock: CostClock,
        assign: Assigner | None = None,
        default: StrategyName = StrategyName.ALWAYS_RECOMPUTE,
        sub_strategy_kwargs: Mapping[StrategyName, dict] | None = None,
    ) -> None:
        super().__init__(catalog, buffer, clock)
        if default is StrategyName.HYBRID:
            raise ValueError("hybrid cannot default to itself")
        self._assign = assign
        self._default = default
        self._sub_kwargs = dict(sub_strategy_kwargs or {})
        self._subs: dict[StrategyName, ProcedureStrategy] = {}
        self._routes: dict[str, StrategyName] = {}

    # -- routing -------------------------------------------------------------

    def _decide(self, procedure: DatabaseProcedure) -> StrategyName:
        if self._assign is None:
            return self._default
        if callable(self._assign):
            choice = self._assign(procedure)
        else:
            choice = self._assign.get(procedure.name, self._default)
        if not isinstance(choice, StrategyName):
            choice = StrategyName(choice)
        if choice is StrategyName.HYBRID:
            raise ValueError("hybrid cannot route to itself")
        return choice

    def _sub(self, name: StrategyName) -> ProcedureStrategy:
        sub = self._subs.get(name)
        if sub is None:
            cls = _SUB_CLASSES[name]
            sub = cls(
                self.catalog,
                self.buffer,
                self.clock,
                **self._sub_kwargs.get(name, {}),
            )
            self._subs[name] = sub
        return sub

    def route_of(self, name: str) -> StrategyName:
        """Which sub-strategy serves ``name``."""
        return self._routes[name]

    def routing_report(self) -> dict[str, int]:
        """How many procedures each sub-strategy serves."""
        out: dict[str, int] = {}
        for choice in self._routes.values():
            out[choice.value] = out.get(choice.value, 0) + 1
        return out

    # -- strategy interface ----------------------------------------------------

    def _after_define(self, procedure: DatabaseProcedure) -> None:
        choice = self._decide(procedure)
        self._routes[procedure.name] = choice
        self._sub(choice).define(procedure)

    def access(self, name: str) -> list[Row]:
        self._procedure(name)
        route = self._routes[name]
        tracer = self.clock.tracer
        if tracer is not None:
            tracer.event(f"hybrid.access.{route.value}")
        return self._subs[route].access(name)

    def on_update(self, batch: DeltaBatch) -> None:
        """Broadcast the batch to every instantiated sub-strategy; each
        maintains only its own procedures, so costs never double."""
        for sub in self._subs.values():
            sub.on_update(batch)

    def repair_procedure(self, name: str, full_rows: list[Row]) -> None:
        self._subs[self._routes[name]].repair_procedure(name, full_rows)

    def recover_after_crash(self) -> list[str]:
        """Each sub-strategy recovers its own state; the dirty sets (each
        sub reports only its own procedures) concatenate without overlap."""
        dirty: list[str] = []
        for sub in self._subs.values():
            dirty.extend(sub.recover_after_crash())
        return dirty

    def space_pages(self) -> int:
        return sum(sub.space_pages() for sub in self._subs.values())
