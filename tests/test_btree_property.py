"""Property-based tests: the B+-tree behaves like a sorted multimap."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CostClock
from repro.storage import BPlusTree, BufferPool, DiskManager
from repro.storage.page import RID


def _fresh_tree(fanout: int) -> BPlusTree:
    clock = CostClock()
    disk = DiskManager(clock)
    return BPlusTree("P", BufferPool(disk), fanout=fanout)


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.integers(0, 30),  # key — small domain forces duplicates
        st.integers(0, 5),  # rid discriminator
    ),
    max_size=200,
)


@given(ops=ops_strategy, fanout=st.sampled_from([4, 5, 8]))
@settings(max_examples=150, deadline=None)
def test_random_ops_match_reference_multimap(ops, fanout):
    tree = _fresh_tree(fanout)
    reference: set[tuple[int, RID]] = set()
    for action, key, disc in ops:
        entry = (key, RID(disc, 0))
        if action == "insert":
            if entry in reference:
                continue
            tree.insert(key, entry[1])
            reference.add(entry)
        else:
            expected = entry in reference
            assert tree.delete(key, entry[1]) is expected
            reference.discard(entry)
    tree.check_invariants()
    assert tree.num_entries == len(reference)
    scanned = [(k, r) for k, r in tree.range_scan()]
    assert scanned == sorted(reference, key=lambda e: (e[0], e[1]))


@given(
    keys=st.lists(st.integers(-1000, 1000), min_size=1, max_size=150),
    bounds=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
)
@settings(max_examples=100, deadline=None)
def test_range_scan_matches_filter(keys, bounds):
    lo, hi = min(bounds), max(bounds)
    tree = _fresh_tree(4)
    for i, key in enumerate(keys):
        tree.insert(key, RID(i, 0))
    got = [k for k, _rid in tree.range_scan(lo, hi)]
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert got == expected


@given(keys=st.lists(st.integers(0, 100), min_size=1, max_size=120))
@settings(max_examples=100, deadline=None)
def test_search_finds_all_duplicates(keys):
    tree = _fresh_tree(4)
    for i, key in enumerate(keys):
        tree.insert(key, RID(i, 0))
    for key in set(keys):
        assert len(tree.search(key)) == keys.count(key)


@given(
    keys=st.lists(st.integers(0, 60), max_size=120),
    deleted=st.sets(st.integers(0, 119)),
    probes=st.lists(st.integers(-2, 63), min_size=1, max_size=20),
    fanout=st.sampled_from([4, 5, 8]),
)
@settings(max_examples=150, deadline=None)
def test_ceiling_entry_is_the_first_of_a_range_scan(keys, deleted, probes, fanout):
    """Same answer and the same page reads — including a key past its
    landing leaf's last entry (lazy deletes empty leaves; the probe hops
    the chain) and a key past the last one (``None`` either way)."""
    tree = _fresh_tree(fanout)
    for i, key in enumerate(keys):
        tree.insert(key, RID(i, 0))
    for i in deleted:
        if i < len(keys):
            tree.delete(keys[i], RID(i, 0))
    clock = tree.buffer.disk.clock
    for probe in probes + [max(keys, default=0) + 1]:
        before = clock.snapshot()
        expected = next(tree.range_scan(probe, None), None)
        scan_cost = clock.snapshot() - before
        before = clock.snapshot()
        assert tree.ceiling_entry(probe) == expected
        assert clock.snapshot() - before == scan_cost


def test_ceiling_entry_hops_an_emptied_leaf():
    tree = _fresh_tree(4)
    for key in range(20):
        tree.insert(key, RID(key, 0))
    _path, leaf = tree._descend((7, -1, -1))
    emptied = [entry[0] for entry in leaf.entries]
    for key in emptied:
        tree.delete(key, RID(key, 0))
    clock = tree.buffer.disk.clock
    before = clock.disk_reads
    assert tree.ceiling_entry(emptied[0]) == (
        emptied[-1] + 1,
        RID(emptied[-1] + 1, 0),
    )
    # The low sentinel sorts below the separator, so the descent lands one
    # leaf to the left: past its last entry, across the emptied leaf.
    assert clock.disk_reads - before == tree.height + 2
    assert tree.ceiling_entry(20) is None
