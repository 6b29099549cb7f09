"""Simulated relational storage engine.

This package implements the substrate the paper's strategies run on: slotted
pages, a disk manager that charges ``C2`` per page read/write, an optional
LRU buffer pool, heap files with update-in-place, a B+-tree index (used by
``R1``'s selection attribute), a hash index (used by the join attributes of
``R2``/``R3``), and a catalog tying relations to their access methods.

All structures are real — pages actually hold tuples, the B+-tree actually
splits — but I/O is charged to a shared :class:`repro.sim.CostClock` instead
of being performed against a physical disk.
"""

from repro.storage.tuples import Field, FieldKind, Row, Schema
from repro.storage.columnar import ColumnBatch
from repro.storage.page import Page, RID
from repro.storage.disk import DiskManager
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.btree import BPlusTree
from repro.storage.hashindex import HashIndex
from repro.storage.catalog import Catalog, Relation
from repro.storage.matstore import MaterializedStore

__all__ = [
    "Field",
    "FieldKind",
    "Row",
    "Schema",
    "ColumnBatch",
    "Page",
    "RID",
    "DiskManager",
    "BufferPool",
    "HeapFile",
    "BPlusTree",
    "HashIndex",
    "Catalog",
    "Relation",
    "MaterializedStore",
]
