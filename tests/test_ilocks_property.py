"""Property test: ``ILockTable`` conflict detection vs a brute-force oracle.

The table indexes lock specs by relation for fast lookup; the oracle
below ignores all of that and checks every (procedure, spec, value)
triple directly against the paper's rule — a lock breaks when any of the
write's old/new values lands inside the locked range on the locked
relation. Hypothesis drives random interval footprints and random write
value sets through both and demands identical answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks.ilocks import ILockTable, SortedValueRuns
from repro.query.plan import LockSpec
from repro.query.predicate import KeyInterval
from repro.storage.columnar import ColumnBatch
from repro.storage.tuples import Field, Schema

RELATIONS = ("R1", "R2")
FIELDS = ("sel", "sel2")

values = st.integers(min_value=0, max_value=60)


@st.composite
def intervals(draw):
    fld = draw(st.sampled_from(FIELDS))
    lo = draw(st.none() | values)
    hi = draw(st.none() | values)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return KeyInterval(
        fld,
        lo,
        hi,
        lo_inclusive=draw(st.booleans()),
        hi_inclusive=draw(st.booleans()),
    )


@st.composite
def lock_specs(draw):
    relation = draw(st.sampled_from(RELATIONS))
    interval = draw(st.none() | intervals())
    return LockSpec(relation, interval)


footprints = st.dictionaries(
    keys=st.sampled_from([f"P{i}" for i in range(6)]),
    values=st.lists(lock_specs(), min_size=0, max_size=4),
    max_size=6,
)

write_values = st.lists(
    st.dictionaries(
        keys=st.sampled_from(FIELDS), values=values, max_size=2
    ),
    min_size=0,
    max_size=4,
)


def oracle(footprint, relation, changed_values):
    broken = set()
    for procedure, specs in footprint.items():
        for spec in specs:
            if spec.relation != relation:
                continue
            if spec.interval is None:
                # A whole-relation lock breaks under any actual write;
                # an empty write (no changed tuples) breaks nothing.
                if changed_values:
                    broken.add(procedure)
                continue
            for vals in changed_values:
                value = vals.get(spec.interval.field)
                if value is not None and spec.interval.contains(value):
                    broken.add(procedure)
    return broken


@settings(max_examples=60, deadline=None)
@given(
    footprint=footprints,
    relation=st.sampled_from(RELATIONS),
    changed=write_values,
)
def test_conflicts_match_brute_force(footprint, relation, changed):
    table = ILockTable()
    for procedure, specs in footprint.items():
        table.set_locks(procedure, specs)
    assert table.conflicting_procedures(relation, changed) == oracle(
        footprint, relation, changed
    )


@settings(max_examples=60, deadline=None)
@given(
    footprint=footprints,
    relation=st.sampled_from(RELATIONS),
    changed=write_values,
)
def test_swept_probe_matches_naive_probe(footprint, relation, changed):
    """Group invalidation's sorted-sweep probe is observationally
    identical to one naive probe per changed tuple.

    ``conflicting_procedures_swept`` sorts a whole batch's changed
    values per field and bisects into each interval once; the naive
    path tests every (spec, value) pair. Both must flag exactly the
    same procedure set for arbitrary footprints and update sets — and
    both must agree with the brute-force oracle.
    """
    table = ILockTable()
    for procedure, specs in footprint.items():
        table.set_locks(procedure, specs)
    naive = table.conflicting_procedures(relation, changed)
    swept = table.conflicting_procedures_swept(
        relation, SortedValueRuns.from_dicts(changed)
    )
    assert swept == naive
    assert swept == oracle(footprint, relation, changed)


@settings(max_examples=60, deadline=None)
@given(
    footprint=footprints,
    relation=st.sampled_from(RELATIONS),
    changed=write_values,
    data=st.data(),
)
def test_cleared_procedures_never_conflict(footprint, relation, changed, data):
    """Clearing a random subset of owners leaves exactly the survivors'
    conflicts: the swept probe equals the oracle over what remains."""
    table = ILockTable()
    for procedure, specs in footprint.items():
        table.set_locks(procedure, specs)
    cleared = data.draw(st.sets(st.sampled_from(sorted(footprint) or ["P0"])))
    for procedure in cleared:
        table.clear_locks(procedure)
    survivors = {p: s for p, s in footprint.items() if p not in cleared}
    assert table.num_locks() == sum(len(s) for s in survivors.values())
    swept = table.conflicting_procedures_swept(
        relation, SortedValueRuns.from_dicts(changed)
    )
    assert swept == oracle(survivors, relation, changed)
    assert not swept & cleared
    for procedure in survivors:
        table.clear_locks(procedure)
    assert table.num_locks() == 0
    # A whole-relation write breaks nothing once all locks are cleared.
    assert table.conflicting_procedures(relation, [{"sel": 1}]) == set()


@settings(max_examples=60, deadline=None)
@given(
    footprint=footprints,
    relation=st.sampled_from(RELATIONS),
    changed=write_values,
)
def test_batch_probe_matches_naive_probe(footprint, relation, changed):
    """The ``ColumnBatch`` delegate of the swept probe flags exactly the
    procedures the per-tuple dict probe flags. Missing fields become
    ``None`` entries in the rows; both treat ``None`` as
    non-conflicting."""
    table = ILockTable()
    for procedure, specs in footprint.items():
        table.set_locks(procedure, specs)
    schema = Schema([Field("sel"), Field("sel2")], tuple_bytes=100)
    rows = [(vals.get("sel"), vals.get("sel2")) for vals in changed]
    batched = table.conflicting_procedures_batch(
        relation, ColumnBatch(schema, rows)
    )
    assert batched == table.conflicting_procedures(relation, changed)
    assert batched == oracle(footprint, relation, changed)


def test_batch_probe_skips_fields_missing_from_schema():
    """A lock on a field the batch's schema doesn't carry cannot break:
    the dict probe sees no value for it and the batch probe has no
    column to bisect. Both must agree (no KeyError, no false hit)."""
    table = ILockTable()
    table.set_locks(
        "P0", [LockSpec("R1", KeyInterval("ghost", 0, 10))]
    )
    schema = Schema([Field("sel"), Field("sel2")], tuple_bytes=100)
    batch = ColumnBatch(schema, [(5, 5)])
    assert table.conflicting_procedures_batch("R1", batch) == set()
    assert table.conflicting_procedures("R1", [{"sel": 5, "sel2": 5}]) == set()
