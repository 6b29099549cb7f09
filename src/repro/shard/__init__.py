"""Sharded procedure populations.

Partitions ``R1`` by key range into ``S`` shards — each with its own
i-lock table, buffer pool, WAL, and Rete α-subnetwork — behind a single
:class:`~repro.core.strategy.ProcedureStrategy` facade. The
:class:`ShardRouter` maps each update's changed column values through a
per-shard i-locks (hulls in an ``ILockTable``) to the (usually one) affected
shard; the :class:`SharedBetaTier` fans join-side deltas for model-2
procedures; the sizing layer measures bytes per relation / shard / Rete
memory / i-lock table so the bench ledger can gate memory-per-procedure
sublinearity (the ``shard.scale`` scenario).

Each shard is also an independent *fault domain*: :mod:`~repro.shard.faults`
wires per-shard injectors and the shard-aware recovery supervisor
(replica failover or WAL rebuild of one shard while the rest serve),
and :mod:`~repro.shard.degrade` walks individual overloaded shards down
the UC -> CI -> AR ladder without touching their neighbours.
"""

from repro.shard.degrade import (
    RUNG_INVALIDATE,
    RUNG_NATIVE,
    RUNG_RECOMPUTE,
    OverloadController,
    Recomputer,
)
from repro.shard.engine import (
    Shard,
    SharedBetaTier,
    ShardedStrategy,
    make_sharded_strategy,
)
from repro.shard.faults import (
    InjectorSet,
    ShardedRecoverySupervisor,
    wire_fault_domains,
)
from repro.shard.router import ShardRouter
from repro.shard.sizing import (
    ILOCK_SPEC_BYTES,
    ShardSizing,
    SizingReport,
    measure_sizing,
    register_metrics,
    render_sizing,
    scale_params,
)

__all__ = [
    "ILOCK_SPEC_BYTES",
    "InjectorSet",
    "OverloadController",
    "RUNG_INVALIDATE",
    "RUNG_NATIVE",
    "RUNG_RECOMPUTE",
    "Recomputer",
    "Shard",
    "ShardRouter",
    "ShardSizing",
    "SharedBetaTier",
    "ShardedRecoverySupervisor",
    "ShardedStrategy",
    "SizingReport",
    "make_sharded_strategy",
    "measure_sizing",
    "register_metrics",
    "render_sizing",
    "scale_params",
    "wire_fault_domains",
]
