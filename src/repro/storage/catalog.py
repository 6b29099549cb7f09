"""The catalog: relations and their access methods.

A :class:`Relation` bundles a heap file with its indexes and keeps the
indexes consistent across inserts, deletes, and in-place updates. The
:class:`Catalog` is the namespace the query layer resolves relation names
against.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.hashindex import HashIndex
from repro.storage.heap import HeapFile
from repro.storage.page import RID
from repro.storage.tuples import Row, Schema


class Relation:
    """A named relation: heap storage plus B-tree / hash indexes.

    Index maintenance is automatic: every mutation routed through the
    relation keeps all indexes in sync with the heap.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        buffer: BufferPool,
        fill_factor: float = 1.0,
    ) -> None:
        self.name = name
        self.schema = schema
        self.heap = HeapFile(name, schema, buffer, fill_factor=fill_factor)
        self.btree_indexes: dict[str, BPlusTree] = {}
        self.hash_indexes: dict[str, HashIndex] = {}

    # -- index creation ----------------------------------------------------

    def create_btree_index(self, field: str, fanout: int = 200) -> BPlusTree:
        """Build a B+-tree on ``field``, back-filling existing tuples."""
        self.schema.index_of(field)
        if field in self.btree_indexes:
            raise ValueError(f"{self.name} already has a B-tree on {field!r}")
        index = BPlusTree(f"{self.name}.btree.{field}", self.heap.buffer, fanout)
        pos = self.schema.index_of(field)
        for rid, row in self.heap.scan():
            index.insert(row[pos], rid)
        self.btree_indexes[field] = index
        return index

    def create_hash_index(self, field: str) -> HashIndex:
        """Build a hash index on ``field``, back-filling existing tuples."""
        self.schema.index_of(field)
        if field in self.hash_indexes:
            raise ValueError(f"{self.name} already has a hash index on {field!r}")
        index = HashIndex(f"{self.name}.hash.{field}")
        pos = self.schema.index_of(field)
        for rid, row in self.heap.scan():
            index.insert(row[pos], rid)
        self.hash_indexes[field] = index
        return index

    # -- mutation with index maintenance ------------------------------------

    def insert(self, row: Row) -> RID:
        row = self.schema.make_row(row)
        rid = self.heap._insert(row)
        for field, index in self.btree_indexes.items():
            index.insert(self.schema.value(row, field), rid)
        for field, hash_index in self.hash_indexes.items():
            hash_index.insert(self.schema.value(row, field), rid)
        return rid

    def delete(self, rid: RID) -> Row:
        old = self.heap.delete(rid)
        for field, index in self.btree_indexes.items():
            index.delete(self.schema.value(old, field), rid)
        for field, hash_index in self.hash_indexes.items():
            hash_index.delete(self.schema.value(old, field), rid)
        return old

    def update(self, rid: RID, new_row: Row) -> Row:
        """In-place update; index entries move only for changed fields."""
        new_row = self.schema.make_row(new_row)
        old = self.heap.update(rid, new_row)
        for field, index in self.btree_indexes.items():
            old_key = self.schema.value(old, field)
            new_key = self.schema.value(new_row, field)
            if old_key != new_key:
                index.delete(old_key, rid)
                index.insert(new_key, rid)
        for field, hash_index in self.hash_indexes.items():
            old_key = self.schema.value(old, field)
            new_key = self.schema.value(new_row, field)
            if old_key != new_key:
                hash_index.delete(old_key, rid)
                hash_index.insert(new_key, rid)
        return old

    def update_clustered(self, rid: RID, new_row: Row, cluster_field: str) -> tuple[Row, RID]:
        """In-place update that preserves clustering on ``cluster_field``.

        When the clustering key is unchanged this is a plain in-place
        update. When it changes, the tuple is deleted and re-inserted on a
        page holding its new key neighbours (found through the B-tree on
        ``cluster_field``), the way an index-organised table moves records.
        Returns ``(old_row, new_rid)``.
        """
        new_row = self.schema.make_row(new_row)
        pos = self.schema.index_of(cluster_field)
        old_peek = self.heap.read(rid)
        if old_peek[pos] == new_row[pos]:
            old = self.update(rid, new_row)
            return old, rid
        index = self.btree_indexes.get(cluster_field)
        old = self.delete(rid)
        neighbor = None
        if index is not None:
            # Prefer the page of the first key at-or-above the new key,
            # falling back to the nearest key below it.
            neighbor = index.ceiling_entry(new_row[pos])
            if neighbor is None:
                neighbor = index.floor_entry(new_row[pos])
        # new_row was validated above, before anything was mutated.
        if neighbor is None:
            new_rid = self.heap._insert(new_row)
        else:
            new_rid = self.heap._insert_near(new_row, neighbor[1].page_no)
        for field, btree in self.btree_indexes.items():
            btree.insert(self.schema.value(new_row, field), new_rid)
        for field, hash_index in self.hash_indexes.items():
            hash_index.insert(self.schema.value(new_row, field), new_rid)
        return old, new_rid

    # -- access --------------------------------------------------------------

    def read(self, rid: RID) -> Row:
        return self.heap.read(rid)

    def scan(self) -> Iterator[tuple[RID, Row]]:
        return self.heap.scan()

    def fetch_batched(self, rids: list[RID]) -> list[tuple[RID, Row]]:
        """Fetch many RIDs reading each distinct page once.

        This is the standard RID-sort optimisation; it makes measured page
        counts match the Yao-function expectation the paper uses for batched
        index probes.
        """
        by_page: dict[int, list[RID]] = {}
        for rid in rids:
            by_page.setdefault(rid.page_no, []).append(rid)
        out: list[tuple[RID, Row]] = []
        for page_no in sorted(by_page):
            page = self.heap.buffer.fetch(self.name, page_no)
            for rid in by_page[page_no]:
                out.append((rid, page.read(rid.slot_no)))
        return out

    @property
    def num_rows(self) -> int:
        return self.heap.num_rows

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Relation({self.name}, rows={self.num_rows})"


class Catalog:
    """Name -> :class:`Relation` resolution plus creation."""

    def __init__(self, buffer: BufferPool) -> None:
        self.buffer = buffer
        self._relations: dict[str, Relation] = {}

    def create_relation(
        self, name: str, schema: Schema, fill_factor: float = 1.0
    ) -> Relation:
        """Create and register an empty relation."""
        if name in self._relations:
            raise ValueError(f"relation {name!r} already exists")
        relation = Relation(name, schema, self.buffer, fill_factor=fill_factor)
        self._relations[name] = relation
        return relation

    def get(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> list[str]:
        return sorted(self._relations)
