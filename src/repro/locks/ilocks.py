"""The i-lock table: the one interval registry.

Stores, per owner, a read footprint (:class:`repro.query.plan.LockSpec`
list) and answers the conflict question: *which owners' locks does this
write break?* A write is described by the old and new values of the
modified tuples — any value falling inside a locked range breaks the
lock, matching the paper's accounting where each of the ``2l`` old/new
tuple values has probability ``f`` of breaking a lock.

Three kinds of owner register here, each with the same rule:

- Cache and Invalidate's procedures, keyed by name, with the footprint
  their last computation read;
- the serving tier's result cache (:mod:`repro.serve.cache`), keyed by
  cache key, with :func:`footprint_of` the cached procedure;
- the shard router (:mod:`repro.shard.router`), keyed by shard id, with
  one hull per ``(relation, field)`` plus its catch-all relations.

Lock storage is grouped by relation so conflict checks scan only the locks
that could possibly apply. The table itself is a memory-resident structure
(the paper's recommended battery-backed-RAM / logged design); the cost of
*recording* an invalidation is the strategy's ``C_inval`` parameter, charged
by the caller, not here.

There is one probe, :meth:`ILockTable.conflicting_procedures_swept`: each
armed interval bisects into the write's :class:`SortedValueRuns`. The
per-value :meth:`ILockTable.conflicting_procedures` stays as the reference
the property tests compare it against.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Optional, Sequence

from repro.query.plan import LockSpec
from repro.storage.tuples import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.procedure import DatabaseProcedure
    from repro.query.predicate import KeyInterval
    from repro.storage.columnar import ColumnBatch


def footprint_of(procedure: "DatabaseProcedure") -> tuple[LockSpec, ...]:
    """A procedure's static read footprint, derived from its query.

    For each member relation, take the restriction's key interval on the
    first of its restricted fields (in sorted order) with an extractable
    interval — a conservative superset of the satisfying rows, since any
    tuple version inside the result region satisfies every restriction
    term — else lock the whole relation. Join-key churn is covered because
    join inputs without an interval restriction lock the whole relation.
    """
    query = procedure.query
    if query is None:
        raise ValueError(
            f"procedure {procedure.name!r} is unbound; bind() it first"
        )
    prints: list[LockSpec] = []
    for relation in query.relations:
        predicate = query.restriction_of(relation)
        interval: Optional["KeyInterval"] = None
        for field in sorted(predicate.fields()):
            interval = predicate.interval_on(field)
            if interval is not None:
                break
        prints.append(LockSpec(relation, interval))
    return tuple(prints)


class SortedValueRuns:
    """Per-field ascending value runs over a set of changed rows.

    The i-lock probe and the shard router both answer one question —
    *does any changed value fall inside this interval?* — by bisecting
    into a field's sorted values. The runs read the rows by field
    position and sort a field the first time an interval on it is
    probed, so a probe pays only for the fields its locks name. A
    :class:`repro.core.batch.DeltaBatch` memoizes one instance, so
    however many consumers probe a batch — one i-lock table per shard
    under the sharded engine, plus the router — each field sorts once.

    Construction and probing are memory-resident bookkeeping, like the
    i-lock table itself — neither charges the simulated clock.
    """

    #: Constructions since import (regression tests assert memoization:
    #: however many shards probe a batch, the runs build once).
    builds = 0

    def __init__(
        self, field_names: Sequence[str], rows: Sequence[Row]
    ) -> None:
        SortedValueRuns.builds += 1
        self._positions = {name: pos for pos, name in enumerate(field_names)}
        self._rows = rows
        self._by_field: dict[str, list[Any]] = {}
        #: Number of changed rows the runs were built from. Zero means
        #: "no write happened": even whole-relation locks survive.
        self.num_changed = len(rows)

    @classmethod
    def from_dicts(
        cls, changed_values: Iterable[dict[str, Any]]
    ) -> "SortedValueRuns":
        """Runs over field-value dicts; a field a dict lacks reads as
        ``None``, which no interval contains."""
        dicts = list(changed_values)
        names = sorted({fld for values in dicts for fld in values})
        return cls(names, [tuple(map(values.get, names)) for values in dicts])

    def values_for(self, field: str) -> list[Any]:
        """The ascending non-``None`` values of ``field`` (empty if the
        rows have no such field), sorted on first request."""
        vals = self._by_field.get(field)
        if vals is None:
            pos = self._positions.get(field)
            vals = [] if pos is None else sorted(
                row[pos] for row in self._rows if row[pos] is not None
            )
            self._by_field[field] = vals
        return vals

    def interval_hits(self, interval: "KeyInterval") -> bool:
        """Whether any changed value of ``interval.field`` lies inside
        ``interval`` — the same answer the per-value :meth:`KeyInterval.
        contains` probes give, via one bisect plus a bounded scan."""
        vals = self.values_for(interval.field)
        if not vals:
            return False
        start = (
            0
            if interval.lo is None
            else bisect.bisect_left(vals, interval.lo)
        )
        for index in range(start, len(vals)):
            value = vals[index]
            if interval.hi is not None and value > interval.hi:
                break
            if interval.contains(value):
                return True
        return False


class ILockTable:
    """Per-owner read-footprint locks with conflict detection.

    An owner is any hashable key (a procedure name, a cache key, a shard
    id). The method names say *procedure*, CI's owner, because the wall
    benchmark traces them by name.
    """

    def __init__(self) -> None:
        self._by_procedure: dict[Hashable, list[LockSpec]] = {}
        self._by_relation: dict[str, dict[Hashable, list[LockSpec]]] = {}

    def set_locks(self, procedure: Hashable, specs: Iterable[LockSpec]) -> None:
        """Replace ``procedure``'s locks with ``specs`` (set at recompute).
        Within one relation an owner's specs are probed in the order
        given, so a catch-all listed first ends that owner's probe."""
        self.clear_locks(procedure)
        spec_list = list(specs)
        self._by_procedure[procedure] = spec_list
        for spec in spec_list:
            self._by_relation.setdefault(spec.relation, {}).setdefault(
                procedure, []
            ).append(spec)

    def clear_locks(self, procedure: Hashable) -> None:
        """Drop all locks held for ``procedure``."""
        specs = self._by_procedure.pop(procedure, None)
        if not specs:
            return
        for spec in specs:
            relation_map = self._by_relation.get(spec.relation)
            if relation_map is not None:
                relation_map.pop(procedure, None)

    def locks_of(self, procedure: Hashable) -> list[LockSpec]:
        """The locks currently held for ``procedure``."""
        return list(self._by_procedure.get(procedure, ()))

    def num_locks(self) -> int:
        """Total locks across all procedures."""
        return sum(len(specs) for specs in self._by_procedure.values())

    def conflicting_procedures(
        self,
        relation: str,
        changed_values: Iterable[dict[str, Any]],
    ) -> set[str]:
        """Procedures whose locks are broken by a write transaction.

        Args:
            relation: the written relation.
            changed_values: field-value dicts — for an in-place update, one
                dict for the old tuple and one for the new tuple, for every
                modified tuple (the paper's ``2l`` values).
        """
        relation_map = self._by_relation.get(relation)
        if not relation_map:
            return set()
        broken: set[str] = set()
        value_list = list(changed_values)
        for procedure, specs in relation_map.items():
            if any(
                spec.conflicts_with_write(relation, values)
                for spec in specs
                for values in value_list
            ):
                broken.add(procedure)
        return broken

    def conflicting_procedures_batch(
        self, relation: str, batch: "ColumnBatch"
    ) -> set[str]:
        """:meth:`conflicting_procedures_swept` over a :class:`ColumnBatch`'s
        rows. Kept only because ``benchmarks/wall/trace.py`` traces this
        name and ``benchmarks/wall/test_wall_oracle.py`` patches it."""
        return self.conflicting_procedures_swept(
            relation, SortedValueRuns(batch.schema.names(), batch.rows)
        )

    def conflicting_procedures_swept(
        self, relation: str, runs: SortedValueRuns
    ) -> set[Hashable]:
        """Owners whose locks are broken by the writes in ``runs``.

        Instead of testing every ``(lock, value)`` pair, each armed
        interval bisects into the sorted values of its field — one sweep
        over the whole write footprint of a
        :class:`repro.core.batch.DeltaBatch`, whose memoized runs every
        per-shard table and the router probe. Flags exactly the same set
        as the per-value :meth:`conflicting_procedures` (the property test
        in ``tests/test_ilocks_property.py`` pins this). A write with no
        changed rows breaks nothing, not even a whole-relation lock.
        """
        relation_map = self._by_relation.get(relation)
        if not relation_map or not runs.num_changed:
            return set()
        broken: set[Hashable] = set()
        for procedure, specs in relation_map.items():
            for spec in specs:
                interval = spec.interval
                if interval is None:
                    # Whole-relation lock: any write transaction breaks it.
                    broken.add(procedure)
                    break
                if runs.interval_hits(interval):
                    broken.add(procedure)
                    break
        return broken
