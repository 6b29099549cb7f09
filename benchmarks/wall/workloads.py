"""Workload definitions and the benchmark's own operation stream.

A workload is a stack to build (strategy, parameters, buffer frames,
shards, serving tier, observers) plus a stream of operations to send it.
The stream comes from here, seeded by ``--seed``; the program only ever
receives the generated inputs (names to read, row positions and new
``sel`` values to write), so the harness keeps working when the repo's
own drivers are merged or deleted.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.model.params import ModelParams

# The two parameter points, spelled out so the benchmark does not depend
# on where the repo keeps its presets: the first equals
# ``repro.experiments.simcompare.SIM_SCALE_PARAMS`` (10 000-tuple R1, 25
# P1 + 25 P2), the second ``repro.shard.sizing.scale_params(n)`` (512-
# tuple R1 under a large P1-only population).
SIM_SCALE = ModelParams(
    n_tuples=10_000, num_p1=25, num_p2=25,
    selectivity_f=0.004, selectivity_f2=0.1,
)
MANY_PROCEDURES = ModelParams(
    n_tuples=512, num_p1=100_000, num_p2=0,
    selectivity_f=0.02, selectivity_f2=0.1,
)

#: The paper's default skew Z: a fraction Z of the procedures gets a
#: fraction 1 - Z of the reads.
LOCALITY = 0.2

#: Updates come in blocks of this many ops holding exactly ``P * BLOCK``
#: update transactions in shuffled order, so every pass — and every
#: seed — sees the same read/write mix and ``ops_per_s`` does not wander
#: with the draw.
BLOCK = 50


@dataclass(frozen=True)
class Stream:
    """What the generator needs to know about one op stream."""

    #: Streams with one key and one seed are byte-identical.
    key: str
    update_probability: float
    tuples_per_update: int
    #: Reads pick a procedure by the paper's Z-skew (see ``LOCALITY``)
    #: or, when ``zipf_s`` is set, by a Zipf law over the same ranking.
    zipf_s: Optional[float] = None
    #: Reads (and the warm-up) stay within this many procedures.
    working_set: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategy: str
    params: ModelParams
    stream: Stream
    #: Ops per pass at ``--scale 1``; about half a second on the
    #: reference box. Counts are taken over the first pass, timings over
    #: all.
    pass_ops: int
    buffer_capacity: int = 0
    shards: Optional[int] = None
    #: Front the engine with ProcedureApp + ResultCache + AdmissionGate
    #: and drive it through ``handle`` from closed-loop asyncio clients.
    serve: bool = False
    #: "" | "attribution" | "bus": observers attached after warm-up.
    observe: str = ""
    #: Oracle-check a seeded sample this large (None = every procedure).
    oracle_sample: Optional[int] = None


_RVM = dict(
    strategy="update_cache_rvm",
    params=SIM_SCALE,
    stream=Stream("rvm_stream", update_probability=0.5,
                  tuples_per_update=100),
)

WORKLOADS = (
    Workload(
        "maintain_rvm",
        "fig05 maintenance point (l=100, P=0.5): Relation.update_clustered "
        "and Rete token propagation do the work; the storage-row-path item "
        "must show its gain here",
        pass_ops=250, **_RVM,
    ),
    Workload(
        "recompute_ar",
        "every access executes a plan over a 64-frame pool that evicts: "
        "query + the storage read path work, rete/locks idle - the "
        "reads-beside-writes counterweight to maintain_rvm",
        strategy="always_recompute",
        params=SIM_SCALE,
        stream=Stream("ar_stream", update_probability=0.1,
                      tuples_per_update=10),
        pass_ops=2500, buffer_capacity=64,
    ),
    Workload(
        "serve_zipf",
        "Zipf reads + 10% updates through ProcedureApp.handle from 4 "
        "closed-loop clients: the only path through serve and concurrent; "
        "3 reads in 4 end in ResultCache, the engine runs on misses and "
        "updates",
        strategy="cache_invalidate",
        params=SIM_SCALE,
        stream=Stream("serve_stream", update_probability=0.1,
                      tuples_per_update=10, zipf_s=1.1),
        pass_ops=3000, serve=True,
    ),
    Workload(
        "scale_ci_1e5",
        "10^5 P1 procedures over a 512-tuple R1, 250 of them in use: "
        "definition cost, memory and the per-update probe of every held "
        "i-lock dominate - the row the one-interval-index item needs",
        strategy="cache_invalidate",
        params=MANY_PROCEDURES,
        stream=Stream("ci_stream", update_probability=0.5,
                      tuples_per_update=10, working_set=250),
        pass_ops=500, oracle_sample=200,
    ),
    Workload(
        "sharded_rvm_s8",
        "maintain_rvm's own op stream through 8 shards: router fan-out and "
        "per-shard re-screen are the only difference, a direct A/B for "
        "'S=8 no slower than unsharded'",
        pass_ops=150, shards=8, **_RVM,
    ),
    Workload(
        "observed_rvm",
        "the same stream with CostAttribution + TelemetryBus attached: obs "
        "sinks fire per clock charge, so a change that multiplies charges "
        "is free in maintain_rvm and dear here",
        pass_ops=100, observe="bus", **_RVM,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def scaled(workload: Workload, scale: float) -> Workload:
    """``workload`` at ``--scale``: passes shrink (to whole blocks, so
    that each still holds updates), and so does a population large
    enough to make set-up slow."""
    blocks = max(1, round(workload.pass_ops * scale / BLOCK))
    params = workload.params
    if params.num_p1 > 1000:
        params = params.replace(num_p1=max(1000, round(params.num_p1 * scale)))
    return replace(workload, pass_ops=blocks * BLOCK, params=params)


# -- the op stream ---------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One operation: a read of ``name``, or (``name`` None) an update
    writing ``values[i]`` into ``sel`` of the R1 row at ``positions[i]``
    of the harness's row-id list."""

    name: Optional[str]
    positions: tuple[int, ...] = ()
    values: tuple[int, ...] = ()

    def digest(self) -> str:
        text = repr((self.name, self.positions, self.values))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def ranking(
    stream: Stream, seed: int, p1_names: list[str], p2_names: list[str]
) -> list[str]:
    """The procedures reads may pick, most popular first.

    Which procedures are popular is the seed's choice; how many of them
    are joins is not. A read of a P2 join costs several reads of a P1
    selection, so a popularity order drawn freely would make latency
    medians hop between the two kinds from seed to seed. Every prefix of
    this order holds three P2 to two P1 while both last.
    """
    rng = random.Random(f"{seed}:{stream.key}:ranking")
    selections, joins = list(p1_names), list(p2_names)
    rng.shuffle(selections)
    rng.shuffle(joins)
    ranked: list[str] = []
    for source in itertools.cycle(
        (joins, selections, joins, joins, selections)
    ):
        if not selections or not joins:
            break
        ranked.append(source.pop())
    ranked += joins + selections
    return ranked[:stream.working_set]


def op_stream(
    stream: Stream, seed: int, ranked: list[str], num_rows: int, domain: int
) -> Iterator[Op]:
    """The endless op stream for ``(seed, stream.key)`` over ``ranked``
    (see :func:`ranking`) and an R1 of ``num_rows`` rows."""
    rng = random.Random(f"{seed}:{stream.key}")
    if stream.zipf_s is not None:
        cumulative: list[float] = []
        total = 0.0
        for rank in range(len(ranked)):
            total += 1.0 / (rank + 1) ** stream.zipf_s
            cumulative.append(total)
    else:
        hot_count = max(1, math.ceil(LOCALITY * len(ranked)))
        hot, cold = ranked[:hot_count], ranked[hot_count:] or ranked
    updates_per_block = round(stream.update_probability * BLOCK)
    kinds = [True] * updates_per_block + [False] * (BLOCK - updates_per_block)
    count = min(stream.tuples_per_update, num_rows)
    while True:
        rng.shuffle(kinds)
        for is_update in kinds:
            if is_update:
                yield Op(
                    None,
                    tuple(rng.sample(range(num_rows), count)),
                    tuple(rng.randrange(domain) for _ in range(count)),
                )
            elif stream.zipf_s is not None:
                yield Op(rng.choices(ranked, cum_weights=cumulative)[0])
            else:
                pool = hot if rng.random() < 1.0 - LOCALITY else cold
                yield Op(pool[rng.randrange(len(pool))])
