"""Constant-test discrimination index.

The paper's per-update screening cost is ``N1 * C1 * f * l`` — each
procedure screens only the changed tuples that *fall inside its selection
interval*, not all of them. That presupposes an index over the t-const
constants (this is the same "rule indexing" idea the paper cites for
i-locks): given a changed tuple, find the conditions it satisfies without
testing every condition.

:class:`ConstantTestIndex` provides that: registered entries are keyed by
``(relation, field)`` and looked up by field value. The index itself is a
memory-resident structure and charged as free, like hash directories; the
*screen* of the tuple against each matching condition's full predicate is
what costs ``C1``, charged by the caller per candidate returned.

Interval entries are kept sorted by lower bound; a lookup takes a whole
column batch and tests each entry's interval against it in one vector pass.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.query.predicate import KeyInterval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.columnar import ColumnBatch


class ConstantTestIndex:
    """Maps field values to the registered conditions containing them."""

    def __init__(self) -> None:
        # (relation, field) -> (interval, handle) list sorted by lower bound
        self._by_field: dict[tuple[str, str], list[tuple[KeyInterval, Hashable]]] = {}
        # (relation,) -> handles of conditions with no usable interval, which
        # must be screened against every changed tuple of the relation.
        self._unindexed: dict[str, list[Hashable]] = {}
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def add_interval(
        self, relation: str, interval: KeyInterval, handle: Hashable
    ) -> None:
        """Register ``handle`` for tuples of ``relation`` inside ``interval``."""
        entries = self._by_field.setdefault((relation, interval.field), [])
        bisect.insort(
            entries,
            (interval, handle),
            key=lambda e: (0,) if e[0].lo is None else (1, e[0].lo),
        )
        self._size += 1

    def add_catch_all(self, relation: str, handle: Hashable) -> None:
        """Register a condition that cannot be discriminated (e.g. ``!=``):
        it is a candidate for every change to ``relation``."""
        self._unindexed.setdefault(relation, []).append(handle)
        self._size += 1

    def candidates_batch(
        self, relation: str, batch: "ColumnBatch"
    ) -> list[tuple[Hashable, np.ndarray]]:
        """The conditions each row of ``batch`` may satisfy: every
        registered condition tests its whole column at once. The caller
        screens each (condition, row) candidate at ``C1``.

        Returns ``(handle, row_indices)`` pairs — ``row_indices`` are the
        ascending positions in ``batch`` the condition may match. Pairs come
        in one static order (catch-alls first, then indexed entries field
        by field in registration order, each field's by lower bound), so
        ``(row_indices[0], pair position)`` is the order a row-at-a-time
        walk would first reach each condition. Conditions matching no row
        are dropped.
        """
        n = len(batch)
        out: list[tuple[Hashable, np.ndarray]] = []
        if n == 0:
            return out
        all_rows: np.ndarray | None = None
        for handle in self._unindexed.get(relation, ()):
            if all_rows is None:
                all_rows = np.arange(n)
            out.append((handle, all_rows))
        schema = batch.schema
        for (rel, field), entries in self._by_field.items():
            if rel != relation or not schema.has_field(field):
                continue
            column = batch.column(field)
            for interval, handle in entries:
                hits = np.flatnonzero(interval.contains_mask(column))
                if len(hits):
                    out.append((handle, hits))
        return out

