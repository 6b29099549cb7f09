"""The correctness oracle, run outside every timed region.

Whatever strategy, shard count, cache or observer a workload puts in
front of the data, a read must return what recomputing the procedure on
the current base tables returns. So after the timed phase a fresh
Always Recompute manager is built over the *same* database, the same
procedures are defined on it, and every procedure (or a seeded sample,
taken mostly from the procedures the run read) is read both ways and
compared as ``canonical_rows``.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional

from repro.core import AlwaysRecompute, ProcedureManager
from repro.serve.cache import canonical_rows


#: Share of a sample drawn from the procedures the run read.
IN_USE_SHARE = 0.75


def choose(
    definitions: list[tuple[str, object]],
    in_use: list[str],
    sample: Optional[int],
    seed: int,
) -> list[tuple[str, object]]:
    """The procedures to compare: all of them, or a seeded ``sample``.

    Only a procedure the run read ever held a cached result that an
    update could have left stale; one it never read is recomputed on both
    sides and agrees trivially. So three quarters of a sample come from
    ``in_use`` and the rest from the procedures that stayed cold.
    """
    if sample is None or sample >= len(definitions):
        return definitions
    rng = random.Random(f"{seed}:oracle")
    used = set(in_use)
    warm = [pair for pair in definitions if pair[0] in used]
    cold = [pair for pair in definitions if pair[0] not in used]
    from_warm = min(len(warm), round(sample * IN_USE_SHARE))
    from_warm = max(from_warm, sample - len(cold))
    return rng.sample(warm, from_warm) + rng.sample(cold, sample - from_warm)


def check(
    db,
    definitions: list[tuple[str, object]],
    manager: ProcedureManager,
    app=None,
) -> tuple[int, list[str]]:
    """Compare the measured stack with a recompute of ``definitions``.

    Returns ``(procedures compared, names that differ)``. With ``app``
    given, the measured side is the ``GET /procedures/{name}`` body and
    any non-200 reply counts as a mismatch.
    """
    reference = ProcedureManager(
        AlwaysRecompute(db.catalog, db.buffer, db.clock)
    )
    for name, expression in definitions:
        reference.define_procedure(name, expression)
    wrong: list[str] = []
    for name, _expression in definitions:
        expected = canonical_rows(reference.access(name).rows)
        if app is None:
            got = canonical_rows(manager.access(name).rows)
        else:
            reply = asyncio.run(app.handle("GET", f"/procedures/{name}"))
            if reply.status != 200:
                wrong.append(name)
                continue
            got = tuple(tuple(row) for row in reply.body["rows"])
        if got != expected:
            wrong.append(name)
    return len(definitions), wrong
