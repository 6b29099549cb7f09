"""Property-based oracle harness for the front-tier result cache.

The cache's one promise: **interval/table invalidation never serves a
stale result**. Hypothesis drives random interleavings of updates,
deletes, accesses, and clock ticks against a minimal oracle world — one
relation held as a plain dict, cacheable keys defined by explicit key
intervals — and asserts that *every* ``get_or_compute`` answer (hit,
miss, or expired-recompute) equals a fresh oracle computation at that
instant. Random capacities and TTLs run the LRU and expiry machinery
through the same proof. The i-lock probe the cache invalidates through
is pinned against brute force in ``test_ilocks_property``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.plan import LockSpec
from repro.query.predicate import KeyInterval
from repro.serve.cache import ResultCache

KEYSPACE = 16  # oracle rows live at k in [0, KEYSPACE)


class _TickClock:
    """A clock the test advances by hand (duck-types CostClock reads)."""

    def __init__(self) -> None:
        self.elapsed_ms = 0.0


class _Schema:
    def names(self):
        return ("k", "v")


class _Table:
    schema = _Schema()


class _Catalog:
    def get(self, relation):
        return _Table()


def _intervals():
    """Bounded, half-bounded, unbounded, and degenerate ranges on k."""
    bound = st.integers(min_value=0, max_value=KEYSPACE - 1)

    def build(a, b, lo_open, hi_open):
        if a is not None and b is not None and a > b:
            a, b = b, a
        return KeyInterval(
            "k",
            lo=a,
            hi=b,
            lo_inclusive=not lo_open,
            hi_inclusive=not hi_open,
        )

    return st.builds(
        build,
        st.one_of(st.none(), bound),
        st.one_of(st.none(), bound),
        st.booleans(),
        st.booleans(),
    )


def _ops():
    key = st.integers(min_value=0, max_value=KEYSPACE - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), key, st.integers(0, 5)),
            st.tuples(st.just("del"), key, st.just(0)),
            st.tuples(st.just("access"), st.integers(0, 7), st.just(0)),
            st.tuples(st.just("tick"), st.integers(1, 40), st.just(0)),
            st.tuples(st.just("drop_table"), st.just(0), st.just(0)),
        ),
        min_size=1,
        max_size=60,
    )


@given(
    footprints=st.lists(
        st.one_of(_intervals(), st.none()), min_size=1, max_size=8
    ),
    ops=_ops(),
    capacity=st.integers(min_value=1, max_value=6),
    ttl_ms=st.one_of(st.none(), st.integers(min_value=5, max_value=100)),
)
@settings(max_examples=120, deadline=None)
def test_cache_never_serves_stale(footprints, ops, capacity, ttl_ms):
    """Every answer equals a fresh oracle computation — under random
    update interleavings, tiny capacities, and TTL expiry."""
    state: dict[int, int] = {}
    clock = _TickClock()
    cache = ResultCache(
        clock,
        catalog=_Catalog(),
        capacity=capacity,
        ttl_ms=float(ttl_ms) if ttl_ms is not None else None,
    )

    def oracle(interval):
        if interval is None:
            rows = state.items()
        else:
            rows = (
                (k, v) for k, v in state.items() if interval.contains(k)
            )
        return tuple(sorted(rows))

    keys = []
    for index, interval in enumerate(footprints):
        name = f"Q{index}"
        cache.register_key(name, (LockSpec("R", interval),))
        keys.append((name, interval))

    for verb, a, b in ops:
        if verb == "set":
            old = state.get(a)
            state[a] = b
            cache.on_update(
                "R",
                inserts=[(a, b)],
                deletes=[(a, old)] if old is not None else [],
            )
        elif verb == "del":
            old = state.pop(a, None)
            if old is not None:
                cache.on_update("R", inserts=[], deletes=[(a, old)])
        elif verb == "access":
            name, interval = keys[a % len(keys)]
            rows, mode = cache.get_or_compute(
                name, lambda: oracle(interval)
            )
            assert rows == oracle(interval), (
                f"stale {mode} answer for {name} ({interval})"
            )
        elif verb == "tick":
            clock.elapsed_ms += a
        elif verb == "drop_table":
            cache.invalidate_table("R")

    assert cache.stale_reads == 0
    assert len(cache._entries) <= capacity

