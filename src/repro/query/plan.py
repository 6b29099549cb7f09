"""Physical query plans.

Each plan node executes against an :class:`repro.query.executor.
ExecutionContext` (catalog + cost clock + optional i-lock sink) and returns
materialised rows. Cost charging follows the paper's accounting:

- every tuple screened against a predicate costs ``C1``;
- every page touched costs ``C2`` (charged by the storage layer);
- a B-tree descent costs ``C2 * height`` (charged by the index);
- batched heap fetches read each distinct page once, so measured page counts
  match the Yao-function expectations in the cost model.

When the context carries a lock sink, operators report everything they read
— the rule-indexing footprint used by Cache and Invalidate's i-locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.query.predicate import (
    KeyInterval,
    Predicate,
    TruePredicate,
    compiled_column_matcher,
)
from repro.storage.columnar import ColumnBatch
from repro.storage.page import RID
from repro.storage.tuples import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.executor import ExecutionContext


@dataclass(frozen=True)
class LockSpec:
    """One unit of read footprint: a key range of a relation.

    ``interval=None`` means the whole relation was read (sequential scan).
    A degenerate interval (``lo == hi``) is a point lock from a hash probe.
    """

    relation: str
    interval: Optional[KeyInterval] = None

    def conflicts_with_write(
        self, relation: str, field_values: dict[str, Any]
    ) -> bool:
        """Does writing a tuple with ``field_values`` conflict with this
        lock? Used by the i-lock table to find invalidated procedures."""
        if relation != self.relation:
            return False
        if self.interval is None:
            return True
        value = field_values.get(self.interval.field)
        if value is None:
            return False
        return self.interval.contains(value)


class Plan:
    """Base class for physical operators."""

    def execute(self, ctx: "ExecutionContext") -> list[Row]:
        """Run the operator, charging ``ctx.clock``; returns result rows."""
        raise NotImplementedError

    def output_schema(self, ctx: "ExecutionContext") -> Schema:
        """Schema of the rows :meth:`execute` produces."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree rendering."""
        raise NotImplementedError


@dataclass(frozen=True)
class SeqScanPlan(Plan):
    """Full scan of a relation with an optional filter."""

    relation: str
    predicate: Predicate = TruePredicate()

    def execute(self, ctx: "ExecutionContext") -> list[Row]:
        relation = ctx.catalog.get(self.relation)
        if ctx.lock_sink is not None:
            ctx.lock_sink.append(LockSpec(self.relation, None))
        # One page fetch per page and C1 per row, charged per page batch.
        matcher = compiled_column_matcher(self.predicate, relation.schema)
        out: list[Row] = []
        for _page_no, _slots, batch in relation.heap.scan_batches():
            n = len(batch)
            if not n:
                continue
            ctx.clock.charge_cpu(n)
            out.extend(batch.select(matcher(batch)))
        return out

    def output_schema(self, ctx: "ExecutionContext") -> Schema:
        return ctx.catalog.get(self.relation).schema

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}SeqScan({self.relation}, {self.predicate!r})"


@dataclass(frozen=True)
class BTreeScanPlan(Plan):
    """Interval scan via a B-tree index, plus a residual filter.

    Cost profile (matching ``C_queryP1``): ``C2 * height`` for the descent,
    one ``C2`` per leaf page walked, one ``C2`` per distinct heap page
    fetched, and ``C1`` per retrieved tuple screened.
    """

    relation: str
    index_field: str
    interval: KeyInterval
    residual: Predicate = TruePredicate()

    def execute(self, ctx: "ExecutionContext") -> list[Row]:
        relation = ctx.catalog.get(self.relation)
        index = relation.btree_indexes[self.index_field]
        if ctx.lock_sink is not None:
            ctx.lock_sink.append(LockSpec(self.relation, self.interval))
        rids = [
            rid
            for _key, rid in index.range_scan(
                self.interval.lo,
                self.interval.hi,
                self.interval.lo_inclusive,
                self.interval.hi_inclusive,
            )
        ]
        fetched = [row for _rid, row in relation.fetch_batched(rids)]
        if fetched:
            ctx.clock.charge_cpu(len(fetched))
            if isinstance(self.residual, TruePredicate):
                return fetched
            batch = ColumnBatch(relation.schema, fetched)
            matcher = compiled_column_matcher(self.residual, relation.schema)
            return batch.select(matcher(batch))
        return []

    def output_schema(self, ctx: "ExecutionContext") -> Schema:
        return ctx.catalog.get(self.relation).schema

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}BTreeScan({self.relation}.{self.index_field} in "
            f"[{self.interval.lo}, {self.interval.hi}], "
            f"residual={self.residual!r})"
        )


@dataclass(frozen=True)
class HashLookupJoinPlan(Plan):
    """Index nested-loop join: probe the inner relation's hash index with
    each outer row's join key.

    Cost profile (matching the ``C1*fN + C2*Y1`` join terms): probes touch
    each distinct inner heap page once — the Yao count — and each joined
    candidate pair costs one ``C1`` screen (join qualification plus the
    inner residual such as ``C_f2(R2)``).
    """

    outer: Plan
    inner_relation: str
    inner_field: str
    outer_field: str
    residual: Predicate = TruePredicate()

    def execute(self, ctx: "ExecutionContext") -> list[Row]:
        outer_rows = self.outer.execute(ctx)
        inner = ctx.catalog.get(self.inner_relation)
        index = inner.hash_indexes[self.inner_field]
        outer_schema = self.outer.output_schema(ctx)
        key_pos = outer_schema.index_of(self.outer_field)

        pairs: list[tuple[Row, RID]] = []
        probed_keys: set[Any] = set()
        for outer_row in outer_rows:
            key = outer_row[key_pos]
            probed_keys.add(key)
            for rid in index.probe(key):
                pairs.append((outer_row, rid))
        if ctx.lock_sink is not None:
            for key in sorted(probed_keys):
                ctx.lock_sink.append(
                    LockSpec(
                        self.inner_relation,
                        KeyInterval.point(self.inner_field, key),
                    )
                )

        inner_rows = dict(inner.fetch_batched(sorted({rid for _o, rid in pairs})))
        combined_schema = self.output_schema(ctx)
        if not pairs:
            return []
        combined_rows = [outer_row + inner_rows[rid] for outer_row, rid in pairs]
        ctx.clock.charge_cpu(len(combined_rows))
        if isinstance(self.residual, TruePredicate):
            return combined_rows
        batch = ColumnBatch(combined_schema, combined_rows)
        matcher = compiled_column_matcher(self.residual, combined_schema)
        return batch.select(matcher(batch))

    def output_schema(self, ctx: "ExecutionContext") -> Schema:
        return self.outer.output_schema(ctx).concat(
            ctx.catalog.get(self.inner_relation).schema
        )

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}HashLookupJoin({self.outer_field} = "
            f"{self.inner_relation}.{self.inner_field}, "
            f"residual={self.residual!r})\n"
            + self.outer.explain(indent + 1)
        )


@dataclass(frozen=True)
class BuildHashJoinPlan(Plan):
    """Classic hash join used when the inner relation has no suitable index:
    scan the inner once, build an in-memory table, probe with outer rows."""

    outer: Plan
    inner_relation: str
    inner_field: str
    outer_field: str
    residual: Predicate = TruePredicate()

    def execute(self, ctx: "ExecutionContext") -> list[Row]:
        inner = ctx.catalog.get(self.inner_relation)
        if ctx.lock_sink is not None:
            ctx.lock_sink.append(LockSpec(self.inner_relation, None))
        inner_pos = inner.schema.index_of(self.inner_field)
        table: dict[Any, list[Row]] = {}
        for _rid, row in inner.scan():
            ctx.clock.charge_cpu(1)
            table.setdefault(row[inner_pos], []).append(row)

        outer_rows = self.outer.execute(ctx)
        outer_schema = self.outer.output_schema(ctx)
        key_pos = outer_schema.index_of(self.outer_field)
        combined_rows = [
            outer_row + inner_row
            for outer_row in outer_rows
            for inner_row in table.get(outer_row[key_pos], ())
        ]
        if not combined_rows:
            return []
        ctx.clock.charge_cpu(len(combined_rows))
        if isinstance(self.residual, TruePredicate):
            return combined_rows
        combined_schema = self.output_schema(ctx)
        batch = ColumnBatch(combined_schema, combined_rows)
        matcher = compiled_column_matcher(self.residual, combined_schema)
        return batch.select(matcher(batch))

    def output_schema(self, ctx: "ExecutionContext") -> Schema:
        return self.outer.output_schema(ctx).concat(
            ctx.catalog.get(self.inner_relation).schema
        )

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}BuildHashJoin({self.outer_field} = "
            f"{self.inner_relation}.{self.inner_field})\n"
            + self.outer.explain(indent + 1)
        )


@dataclass(frozen=True)
class ProjectPlan(Plan):
    """Projection over a child plan's output.

    Output tuple width scales with the retained fraction of columns (at
    least one byte), so cached projected results occupy proportionally
    fewer pages.
    """

    child: Plan
    fields: tuple[str, ...]

    def execute(self, ctx: "ExecutionContext") -> list[Row]:
        schema = self.child.output_schema(ctx)
        positions = [schema.index_of(name) for name in self.fields]
        return [
            tuple(row[pos] for pos in positions)
            for row in self.child.execute(ctx)
        ]

    def output_schema(self, ctx: "ExecutionContext") -> Schema:
        child_schema = self.child.output_schema(ctx)
        kept = [child_schema.field(name) for name in self.fields]
        width = max(
            1,
            round(
                child_schema.tuple_bytes * len(kept) / len(child_schema.fields)
            ),
        )
        return Schema(kept, tuple_bytes=width)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Project({', '.join(self.fields)})\n" + self.child.explain(
            indent + 1
        )


@dataclass(frozen=True)
class FilterPlan(Plan):
    """A residual filter over any child plan's output."""

    child: Plan
    predicate: Predicate

    def execute(self, ctx: "ExecutionContext") -> list[Row]:
        schema = self.child.output_schema(ctx)
        child_rows = self.child.execute(ctx)
        if not child_rows:
            return []
        ctx.clock.charge_cpu(len(child_rows))
        batch = ColumnBatch(schema, child_rows)
        matcher = compiled_column_matcher(self.predicate, schema)
        return batch.select(matcher(batch))

    def output_schema(self, ctx: "ExecutionContext") -> Schema:
        return self.child.output_schema(ctx)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Filter({self.predicate!r})\n" + self.child.explain(indent + 1)
