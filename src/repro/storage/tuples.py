"""Schemas and rows.

A :class:`Schema` describes the fields of a relation and the (fixed) byte
width of its tuples — the paper's parameter ``S``. Rows are stored as plain
Python tuples for speed; the schema supplies name-to-position resolution so
predicates and join specs can be compiled down to integer offsets once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Any, Iterable, Sequence

Row = tuple
"""A database tuple: a plain tuple of field values, positionally typed."""


class FieldKind(enum.Enum):
    """Supported field types (what the paper's procedures require)."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    def python_type(self) -> type:
        """The Python type that stores this kind."""
        return _STORAGE_TYPES[self]


_STORAGE_TYPES = {FieldKind.INT: int, FieldKind.FLOAT: float, FieldKind.STR: str}


@dataclass(frozen=True)
class Field:
    """One column of a relation."""

    name: str
    kind: FieldKind = FieldKind.INT
    #: ``kind.python_type()``; a value of exactly this type is storable
    #: without asking :meth:`accepts`. Fields are shared between schemas.
    storage_type: type = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "storage_type", _STORAGE_TYPES[self.kind])

    def accepts(self, value: Any) -> bool:
        """True when ``value`` is storable in this field."""
        if self.kind is FieldKind.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, self.storage_type) and not isinstance(value, bool)


class SchemaError(ValueError):
    """Raised for schema violations (unknown fields, arity mismatches...)."""


class Schema:
    """An ordered set of fields plus the fixed tuple width in bytes.

    Args:
        fields: the columns, in storage order.
        tuple_bytes: width of one stored tuple — the paper's ``S`` (its
            default value is 100 bytes).
    """

    def __init__(self, fields: Sequence[Field], tuple_bytes: int = 100) -> None:
        if not fields:
            raise SchemaError("a schema needs at least one field")
        if tuple_bytes <= 0:
            raise SchemaError("tuple_bytes must be positive")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in {names}")
        self.fields: tuple[Field, ...] = tuple(fields)
        self.tuple_bytes = tuple_bytes
        self._index = {f.name: i for i, f in enumerate(self.fields)}

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields and self.tuple_bytes == other.tuple_bytes

    def __hash__(self) -> int:
        return hash((self.fields, self.tuple_bytes))

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def has_field(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"no field {name!r} in schema {self.names()}"
            ) from None

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def make_row(self, values: Iterable[Any]) -> Row:
        """Validate ``values`` against the schema and return them as a row.

        A value of exactly the field's storage type needs no further
        test; anything else (``bool``, numpy scalars, an ``int`` for a
        FLOAT field, subclasses) is decided by :meth:`Field.accepts`.
        """
        row = tuple(values)
        if len(row) != len(self.fields):
            raise SchemaError(
                f"expected {len(self.fields)} values, got {len(row)}"
            )
        for field, value in zip(self.fields, row):
            if type(value) is not field.storage_type and not field.accepts(value):
                raise SchemaError(
                    f"value {value!r} not valid for field "
                    f"{field.name!r} of kind {field.kind.value}"
                )
        return row

    def value(self, row: Row, name: str) -> Any:
        """Extract the value of field ``name`` from ``row``."""
        return row[self.index_of(name)]

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation of a row of ``self`` with one of
        ``other`` — used for join results. Clashing names get a ``_r``
        suffix on the right side; widths add, mirroring the paper's
        assumption that joined procedure tuples are ``S`` bytes per input
        relation... rounded into whole pages downstream."""
        left_names = set(self.names())
        fields = list(self.fields)
        for f in other.fields:
            name = f.name if f.name not in left_names else f.name + "_r"
            fields.append(Field(name, f.kind))
            left_names.add(name)
        return Schema(fields, tuple_bytes=self.tuple_bytes + other.tuple_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Schema({self.names()}, S={self.tuple_bytes})"
