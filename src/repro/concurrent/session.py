"""Client sessions: per-stream state for the concurrency engine.

Each session owns one operation stream (produced by the same generator
the serial runner uses, with a per-session seed) and advances through it
one transaction at a time. Session 0's stream and update randomness are
seeded exactly like the serial runner's, so a multiprogramming level of
1 replays the serial experiment bit for bit — the degeneracy check the
tests assert.

A session's in-flight operation is an :class:`OperationContext`: the
prepared lock request, the deferred execution closure, and the virtual
timestamps the latency accounting needs (operation start, lock request
time, commit time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.concurrent.locks import LockUnit
from repro.workload.generator import Operation, generate_operations

#: Seed stride between sessions. Session ``i`` draws its stream from
#: ``seed + SESSION_SEED_STRIDE * i`` — zero for session 0, so MPL=1
#: reproduces the serial runner's stream exactly.
SESSION_SEED_STRIDE = 7919


@dataclass
class OperationContext:
    """One in-flight transaction: locks, work, and timing."""

    op: Operation
    units: list[LockUnit]
    execute: Callable[[], None]
    #: Virtual ms when the operation began (before its pre-reads).
    op_start: float = 0.0
    #: Virtual ms when the lock request was issued (op_start + pre-work).
    request_time: float = 0.0
    #: Deadlock aborts this operation has suffered so far.
    aborts: int = 0


@dataclass
class ClientSession:
    """One simulated client: an operation stream plus progress state."""

    session_id: int
    operations: list[Operation]
    #: Drives the session's update transactions (tuple picks, new values).
    rng: random.Random
    next_index: int = 0
    committed: int = 0
    aborted_ops: int = 0
    context: Optional[OperationContext] = None
    #: Virtual ms of this session's last commit (its finish line).
    last_commit_ms: float = 0.0
    #: Per-operation latency bookkeeping feeds these counters.
    blocked_ms: float = field(default=0.0)

    @property
    def done(self) -> bool:
        return self.context is None and self.next_index >= len(self.operations)

    def take_next(self) -> Operation:
        """Pop the next operation off the stream."""
        op = self.operations[self.next_index]
        self.next_index += 1
        return op


def session_seed(base_seed: int, session_id: int) -> int:
    """The stream seed for one session (session 0 == the serial seed)."""
    return base_seed + SESSION_SEED_STRIDE * session_id


def split_operations(total: int, mpl: int) -> list[int]:
    """Spread ``total`` operations across ``mpl`` sessions as evenly as
    possible (earlier sessions get the remainder)."""
    if mpl < 1:
        raise ValueError("multiprogramming level must be >= 1")
    if total < 0:
        raise ValueError("num_operations must be >= 0")
    base, extra = divmod(total, mpl)
    return [base + (1 if i < extra else 0) for i in range(mpl)]


def build_sessions(
    params,
    names: list[str],
    num_operations: int,
    mpl: int,
    seed: int,
    update_weights: Optional[dict[str, float]] = None,
) -> list[ClientSession]:
    """``mpl`` sessions sharing ``num_operations``: session ``i`` draws
    its stream from :func:`session_seed` and its update randomness from
    that seed + 3 — for session 0 exactly the serial runner's two rngs."""
    sessions = []
    for i, ops_count in enumerate(split_operations(num_operations, mpl)):
        s_seed = session_seed(seed, i)
        operations = list(
            generate_operations(
                params, names, ops_count, seed=s_seed,
                update_weights=update_weights,
            )
        )
        sessions.append(
            ClientSession(
                session_id=i,
                operations=operations,
                rng=random.Random(s_seed + 3),
            )
        )
    return sessions
