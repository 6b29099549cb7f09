"""A B+-tree secondary index with duplicate support.

``R1`` carries a "B-tree primary index on the field used by the selection
predicate C_f(R1)" (paper §3). This module implements a real B+-tree: keyed
internal nodes, chained leaves, splits on overflow. Each node occupies one
simulated disk page, so descending the tree charges exactly ``height`` page
reads — the paper's ``C2 * H1`` term.

Duplicate keys are handled by indexing composite keys ``(key, rid)``, which
makes every entry unique and lets deletes target an exact entry. Deletion is
*lazy* (no node merging): nodes may become sparse but never incorrect, which
matches the paper's workload where ``R1`` has a fixed population and updates
are delete+insert pairs that keep occupancy stable.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.storage.buffer import BufferPool
from repro.storage.page import RID

CompositeKey = tuple  # (key, page_no, slot_no)

_MIN_FANOUT = 4


def _composite(key: Any, rid: RID) -> CompositeKey:
    return (key, rid.page_no, rid.slot_no)


def _low_sentinel(key: Any) -> CompositeKey:
    """Smallest composite with this key (RID components are >= 0)."""
    return (key, -1, -1)


class _HighSentinel:
    """Compares above every RID component, regardless of key type."""

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return not isinstance(other, _HighSentinel)

    def __le__(self, other: object) -> bool:
        return isinstance(other, _HighSentinel)

    def __ge__(self, other: object) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _HighSentinel)

    def __hash__(self) -> int:
        return hash("_HighSentinel")


_HIGH = _HighSentinel()


class _Node:
    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


class _Leaf(_Node):
    __slots__ = ("entries", "next_leaf")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.entries: list[CompositeKey] = []
        self.next_leaf: Optional[int] = None


class _Internal(_Node):
    __slots__ = ("keys", "children")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.keys: list[CompositeKey] = []
        self.children: list[int] = []


class BPlusTree:
    """B+-tree index mapping field values to RIDs.

    Args:
        name: disk file name backing the index pages.
        buffer: buffer pool for I/O accounting.
        fanout: maximum entries per leaf / children per internal node — the
            paper's ``B/d`` (200 at defaults: 4 000-byte blocks, 20-byte
            index records).
    """

    def __init__(self, name: str, buffer: BufferPool, fanout: int = 200) -> None:
        if fanout < _MIN_FANOUT:
            raise ValueError(f"fanout must be >= {_MIN_FANOUT}")
        self.name = name
        self.buffer = buffer
        self.fanout = fanout
        if not buffer.disk.has_file(name):
            buffer.disk.create_file(name)
        self._nodes: dict[int, _Node] = {}
        self._num_entries = 0
        root = self._new_leaf()
        self._root_id = root.node_id

    # -- node management -------------------------------------------------

    def _register(self, node: _Node) -> None:
        # One simulated disk page per node; the allocation write models
        # formatting the new node's block.
        page = self.buffer.disk.allocate_page(self.name, capacity=1)
        assert page.page_no == node.node_id
        self._nodes[node.node_id] = node

    def _new_leaf(self) -> _Leaf:
        leaf = _Leaf(node_id=len(self._nodes))
        self._register(leaf)
        return leaf

    def _new_internal(self) -> _Internal:
        node = _Internal(node_id=len(self._nodes))
        self._register(node)
        return node

    def _visit(self, node_id: int) -> _Node:
        """Fetch a node, charging one page read (unless buffered)."""
        self.buffer.fetch(self.name, node_id)
        return self._nodes[node_id]

    def _dirty(self, node: _Node) -> None:
        self.buffer.mark_dirty(self.name, node.node_id)

    # -- public metadata --------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def height(self) -> int:
        """Number of levels from root to leaf inclusive (>= 1). Metadata
        only — charges no I/O."""
        levels = 1
        node = self._nodes[self._root_id]
        while isinstance(node, _Internal):
            levels += 1
            node = self._nodes[node.children[0]]
        return levels

    # -- descent ----------------------------------------------------------

    def _descend(self, composite: CompositeKey) -> tuple[list[_Internal], _Leaf]:
        """Walk root->leaf toward ``composite``; returns (path, leaf).

        Charges one read per level, which is the paper's ``C2 * H1`` descent
        cost.
        """
        path: list[_Internal] = []
        fetch, name, nodes = self.buffer.fetch, self.name, self._nodes
        node_id = self._root_id
        fetch(name, node_id)
        node = nodes[node_id]
        while type(node) is _Internal:
            path.append(node)
            node_id = node.children[bisect.bisect_right(node.keys, composite)]
            fetch(name, node_id)
            node = nodes[node_id]
        return path, node  # type: ignore[return-value]

    # -- mutation ---------------------------------------------------------

    def insert(self, key: Any, rid: RID) -> None:
        """Add an entry; splits propagate upward as needed."""
        composite = _composite(key, rid)
        path, leaf = self._descend(composite)
        idx = bisect.bisect_left(leaf.entries, composite)
        if idx < len(leaf.entries) and leaf.entries[idx] == composite:
            raise ValueError(f"duplicate index entry {composite}")
        leaf.entries.insert(idx, composite)
        self._dirty(leaf)
        self._num_entries += 1
        if len(leaf.entries) > self.fanout:
            self._split_leaf(path, leaf)

    def _split_leaf(self, path: list[_Internal], leaf: _Leaf) -> None:
        mid = len(leaf.entries) // 2
        right = self._new_leaf()
        right.entries = leaf.entries[mid:]
        leaf.entries = leaf.entries[:mid]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right.node_id
        self._dirty(leaf)
        self._dirty(right)
        self._insert_in_parent(path, leaf.node_id, right.entries[0], right.node_id)

    def _insert_in_parent(
        self,
        path: list[_Internal],
        left_id: int,
        separator: CompositeKey,
        right_id: int,
    ) -> None:
        if not path:
            new_root = self._new_internal()
            new_root.keys = [separator]
            new_root.children = [left_id, right_id]
            self._root_id = new_root.node_id
            self._dirty(new_root)
            return
        parent = path[-1]
        pos = parent.children.index(left_id)
        parent.keys.insert(pos, separator)
        parent.children.insert(pos + 1, right_id)
        self._dirty(parent)
        if len(parent.children) > self.fanout:
            self._split_internal(path[:-1], parent)

    def _split_internal(self, path: list[_Internal], node: _Internal) -> None:
        mid = len(node.keys) // 2
        promoted = node.keys[mid]
        right = self._new_internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._dirty(node)
        self._dirty(right)
        self._insert_in_parent(path, node.node_id, promoted, right.node_id)

    def delete(self, key: Any, rid: RID) -> bool:
        """Remove the entry for ``(key, rid)``; returns whether it existed.

        Lazy deletion: leaves are never merged, so the tree only shrinks in
        entry count, not in structure.
        """
        composite = _composite(key, rid)
        _path, leaf = self._descend(composite)
        idx = bisect.bisect_left(leaf.entries, composite)
        if idx >= len(leaf.entries) or leaf.entries[idx] != composite:
            return False
        del leaf.entries[idx]
        self._dirty(leaf)
        self._num_entries -= 1
        return True

    # -- lookup -----------------------------------------------------------

    def search(self, key: Any) -> list[RID]:
        """All RIDs indexed under exactly ``key``."""
        return [rid for found_key, rid in self.range_scan(key, key)]

    def range_scan(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[Any, RID]]:
        """Yield ``(key, rid)`` for entries with ``lo <= key <= hi``.

        ``None`` bounds are open-ended. Charges the descent reads plus one
        read per leaf visited, which is how the paper accounts an index
        interval scan.
        """
        if lo is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            start_idx = 0
        else:
            sentinel = _low_sentinel(lo)
            _path, first = self._descend(sentinel)
            leaf = first
            start_idx = bisect.bisect_left(first.entries, sentinel)
            if not lo_inclusive:
                while (
                    start_idx < len(first.entries)
                    and first.entries[start_idx][0] == lo
                ):
                    start_idx += 1
        while leaf is not None:
            for entry in leaf.entries[start_idx:]:
                key = entry[0]
                if hi is not None:
                    if hi_inclusive and key > hi:
                        return
                    if not hi_inclusive and key >= hi:
                        return
                yield key, RID(entry[1], entry[2])
            if leaf.next_leaf is None:
                return
            leaf = self._visit(leaf.next_leaf)  # type: ignore[assignment]
            start_idx = 0

    def ceiling_entry(self, key: Any) -> Optional[tuple[Any, RID]]:
        """The smallest entry with ``entry.key >= key`` (or ``None``):
        what ``next(range_scan(key, None), None)`` yields, for the same
        page reads (the descent plus any hops along the leaf chain)."""
        sentinel = _low_sentinel(key)
        _path, leaf = self._descend(sentinel)
        idx = bisect.bisect_left(leaf.entries, sentinel)
        while idx >= len(leaf.entries):
            if leaf.next_leaf is None:
                return None
            leaf = self._visit(leaf.next_leaf)  # type: ignore[assignment]
            idx = 0
        entry = leaf.entries[idx]
        return entry[0], RID(entry[1], entry[2])

    def floor_entry(self, key: Any) -> Optional[tuple[Any, RID]]:
        """The largest entry with ``entry.key <= key`` (or ``None``).

        Charges one descent. Only looks within the landing leaf, so an
        entry in an earlier leaf may be missed when ``key`` falls before a
        leaf boundary — callers (clustered relocation) only need a nearby
        neighbour, not the exact predecessor.
        """
        sentinel = (key, _HIGH, _HIGH)
        _path, leaf = self._descend(sentinel)
        idx = bisect.bisect_right(leaf.entries, sentinel)
        if idx == 0:
            return None
        entry = leaf.entries[idx - 1]
        return entry[0], RID(entry[1], entry[2])

    def _leftmost_leaf(self) -> _Leaf:
        node = self._visit(self._root_id)
        while isinstance(node, _Internal):
            node = self._visit(node.children[0])
        assert isinstance(node, _Leaf)
        return node

    # -- integrity (tests) -------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises ``AssertionError`` on any
        violation. Used by the property-based test suite."""
        self._check_node(self._root_id, None, None, is_root=True)
        # Leaf chain must be globally sorted and cover every entry.
        entries: list[CompositeKey] = []
        node = self._nodes[self._root_id]
        while isinstance(node, _Internal):
            node = self._nodes[node.children[0]]
        leaf: Optional[_Leaf] = node  # type: ignore[assignment]
        while leaf is not None:
            entries.extend(leaf.entries)
            leaf = (
                self._nodes[leaf.next_leaf]  # type: ignore[assignment]
                if leaf.next_leaf is not None
                else None
            )
        assert entries == sorted(entries), "leaf chain out of order"
        assert len(entries) == self._num_entries, "entry count drift"

    def _check_node(
        self,
        node_id: int,
        lo: Optional[CompositeKey],
        hi: Optional[CompositeKey],
        is_root: bool = False,
    ) -> int:
        node = self._nodes[node_id]
        if isinstance(node, _Leaf):
            assert node.entries == sorted(node.entries)
            assert len(node.entries) <= self.fanout
            for entry in node.entries:
                assert lo is None or entry >= lo, "entry below subtree bound"
                assert hi is None or entry < hi, "entry above subtree bound"
            return 1
        assert isinstance(node, _Internal)
        assert node.keys == sorted(node.keys)
        assert len(node.children) == len(node.keys) + 1
        assert len(node.children) <= self.fanout
        if not is_root:
            assert len(node.children) >= 2
        depths = set()
        bounds = [lo] + list(node.keys) + [hi]
        for i, child_id in enumerate(node.children):
            depths.add(self._check_node(child_id, bounds[i], bounds[i + 1]))
        assert len(depths) == 1, "unbalanced subtree depths"
        return depths.pop() + 1
