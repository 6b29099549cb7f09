"""Struct-of-arrays column batches over row tuples.

Every inner loop that charges the cost model's counts — scans, update
screening, Rete routing, i-lock probes, define-time α-loads — screens a
:class:`ColumnBatch`: a list of rows transposed into per-field numpy arrays,
so predicates compile once per (predicate, schema) pair and evaluate over a
whole batch with vectorized comparisons. There is no row-at-a-time twin.

Two invariants keep the simulated output exact:

- **Rows are retained, never reconstructed.** A batch keeps the original
  row tuples alongside the column arrays, and every selection returns those
  exact objects. Nothing downstream ever sees a numpy scalar where a Python
  ``int``/``str`` belongs (``np.int64`` is not a Python ``int``, so
  reconstructed rows would fail :meth:`Schema.make_row` and hash/compare
  differently in stores).
- **Charging is count-based.** The simulated clock charges ``C1 * n`` for a
  batch of ``n`` screens instead of ``n`` separate ``C1`` charges; with the
  paper's integer-valued cost constants the sums are bit-identical to
  per-tuple charging, which ``tests/test_hot_path_golden.py`` pins.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.storage.tuples import FieldKind, Row, Schema

#: numpy dtypes per field kind. INT columns fall back to ``object`` when a
#: value overflows int64 (Python ints are unbounded); STR columns are always
#: ``object`` so comparisons keep exact Python string semantics.
_DTYPES = {
    FieldKind.INT: np.int64,
    FieldKind.FLOAT: np.float64,
    FieldKind.STR: object,
}

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _column_array(values: tuple, kind: FieldKind) -> np.ndarray:
    dtype = _DTYPES[kind]
    if dtype is object:
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    try:
        return np.asarray(values, dtype=dtype)
    except (OverflowError, TypeError, ValueError):
        # Out-of-range ints, None, or mixed junk: keep Python semantics.
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out


class ColumnBatch:
    """A schema-typed batch of rows with lazily usable column vectors.

    The batch is immutable: columns are built once from the row list at
    construction and the retained ``rows`` list must not be mutated.
    """

    __slots__ = ("schema", "rows", "_columns")

    def __init__(self, schema: Schema, rows: Sequence[Row]) -> None:
        self.schema = schema
        self.rows: list[Row] = list(rows)
        self._columns: list[np.ndarray | None] = [None] * len(schema)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Row]) -> "ColumnBatch":
        return cls(schema, list(rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def column_at(self, pos: int) -> np.ndarray:
        """The column vector for field position ``pos`` (built on demand)."""
        column = self._columns[pos]
        if column is None:
            values = tuple(row[pos] for row in self.rows)
            column = _column_array(values, self.schema.fields[pos].kind)
            self._columns[pos] = column
        return column

    def column(self, name: str) -> np.ndarray:
        """The column vector for field ``name``."""
        return self.column_at(self.schema.index_of(name))

    def select(self, mask: np.ndarray) -> list[Row]:
        """The original row objects where ``mask`` is true, in row order."""
        rows = self.rows
        return [rows[i] for i in np.flatnonzero(mask)]

    def take(self, indices: np.ndarray | Sequence[int]) -> "ColumnBatch":
        """A sub-batch of the given row indices (rows stay shared objects)."""
        rows = self.rows
        return ColumnBatch(self.schema, [rows[i] for i in indices])

    def to_rows(self) -> list[Row]:
        """The retained row tuples (shared, not copied)."""
        return self.rows

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ColumnBatch({len(self.rows)} rows, {len(self.schema)} cols)"


def int64_bounds() -> tuple[int, int]:
    """The representable range of an INT column before object fallback."""
    return _INT64_MIN, _INT64_MAX


def vector_compare(column: np.ndarray, op: str, value: Any) -> np.ndarray:
    """Vectorized ``column <op> value`` matching Python's scalar semantics.

    int64 columns compared against an out-of-range Python int are resolved
    analytically (ordering against ±2^63 is constant; equality is constant
    false) — numpy would overflow under 1.x or raise under NEP 50.
    """
    if (
        column.dtype.kind in "iu"
        and isinstance(value, int)
        and not isinstance(value, bool)
        and not _INT64_MIN <= value <= _INT64_MAX
    ):
        n = len(column)
        if op == "=":
            return np.zeros(n, dtype=bool)
        if op == "!=":
            return np.ones(n, dtype=bool)
        # value beyond int64: every column element is < value when value is
        # huge-positive, > value when huge-negative.
        huge_positive = value > _INT64_MAX
        if op in ("<", "<="):
            return np.full(n, huge_positive, dtype=bool)
        return np.full(n, not huge_positive, dtype=bool)
    if op == "<":
        result = column < value
    elif op == "<=":
        result = column <= value
    elif op == "=":
        result = column == value
    elif op == "!=":
        result = column != value
    elif op == ">=":
        result = column >= value
    else:
        result = column > value
    # Object-dtype comparisons may come back as object arrays of bools.
    return np.asarray(result, dtype=bool)
