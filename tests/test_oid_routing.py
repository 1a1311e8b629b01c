"""Property-based tests: OID routing and sharded allocation invariants.

The sharded engine stands on one guarantee: ``route(oid)`` is a pure,
total, deterministic function of the OID value, and every shard's
allocator only ever issues OIDs that route back to itself.  These tests
drive random topologies through hypothesis and check:

* ``route`` is total over non-negative OID values and deterministic —
  recomputing it (even with a freshly constructed ``ShardMap``) always
  yields the same shard in ``[0, shard_count)``;
* block-striping holds: values in the same ``range_size`` block agree,
  and crossing a block boundary moves to the next shard cyclically;
* every OID a ``ShardedOIDAllocator`` issues belongs to its shard and
  to no other, allocators never collide across shards, and allocation
  is strictly monotonic;
* ``ensure_above`` (the recovery/restart path) preserves shard
  ownership: after re-applying a catalog floor, the next issued OID is
  strictly above the floor and still routes home;
* a full engine restart re-homes allocation — OIDs allocated after
  reopening still land on their shard and never reuse earlier values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExecutionConfig, ShardingConfig
from repro.core.sharding import ShardedEngine
from repro.oodb.address_space import ShardMap
from repro.oodb.oid import (
    DEFAULT_OID_RANGE_SIZE,
    OID,
    ShardedOIDAllocator,
    route,
)
from repro.oodb.sentry import sentried

_shard_counts = st.integers(min_value=1, max_value=16)
_range_sizes = st.integers(min_value=1, max_value=4096)
_oid_values = st.integers(min_value=0, max_value=2**48)


class TestRouteFunction:
    @given(value=_oid_values, shards=_shard_counts, size=_range_sizes)
    def test_total_and_in_range(self, value, shards, size):
        shard = route(value, shards, size)
        assert 0 <= shard < shards

    @given(value=_oid_values, shards=_shard_counts, size=_range_sizes)
    def test_deterministic_across_instances(self, value, shards, size):
        # Same answer from the pure function, a ShardMap, and a second
        # independently constructed ShardMap: no hidden per-process state.
        direct = route(value, shards, size)
        assert route(value, shards, size) == direct
        assert ShardMap(shards, size).shard_of(value) == direct
        assert ShardMap(shards, size).shard_of(OID(value)) == direct

    @given(value=_oid_values, shards=_shard_counts, size=_range_sizes)
    def test_block_striping(self, value, shards, size):
        block_start = (value // size) * size
        assert route(block_start, shards, size) == route(value, shards, size)
        # The next block belongs to the cyclically next shard.
        assert route(block_start + size, shards, size) == \
            (route(value, shards, size) + 1) % shards

    @given(value=_oid_values, shards=_shard_counts)
    def test_single_shard_owns_everything(self, value, shards):
        assert route(value, 1) == 0
        # Exactly one shard claims any value under any topology.
        owners = [s for s in range(shards)
                  if route(value, shards) == s]
        assert len(owners) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            route(-1, 4)
        with pytest.raises(ValueError):
            route(1, 0)
        with pytest.raises(ValueError):
            route(1, 4, range_size=0)


class TestShardedAllocator:
    @given(shards=st.integers(min_value=1, max_value=8),
           size=st.integers(min_value=1, max_value=64),
           n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=50)
    def test_allocations_route_home_and_never_collide(self, shards, size, n):
        allocators = [ShardedOIDAllocator(sid, shards, range_size=size)
                      for sid in range(shards)]
        issued = set()
        for sid, allocator in enumerate(allocators):
            previous = -1
            for _ in range(n):
                oid = allocator.allocate()
                assert route(oid.value, shards, size) == sid
                assert oid.value > previous
                previous = oid.value
                assert oid.value not in issued
                issued.add(oid.value)

    @given(shards=st.integers(min_value=1, max_value=8),
           size=st.integers(min_value=1, max_value=64),
           floor=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_ensure_above_preserves_ownership(self, shards, size, floor):
        for sid in range(shards):
            allocator = ShardedOIDAllocator(sid, shards, range_size=size)
            allocator.ensure_above(floor)
            oid = allocator.allocate()
            assert oid.value > floor
            assert route(oid.value, shards, size) == sid

    @given(shards=st.integers(min_value=2, max_value=8),
           size=st.integers(min_value=1, max_value=64))
    @settings(max_examples=50)
    def test_next_value_is_the_next_allocation(self, shards, size):
        allocator = ShardedOIDAllocator(1, shards, range_size=size)
        for _ in range(5):
            peeked = allocator.next_value
            assert allocator.allocate().value == peeked


@sentried(track_state=False)
class Parcel:
    def __init__(self, label):
        self.label = label


class TestAllocationAcrossRestart:
    def test_restart_resumes_in_owned_blocks_above_floor(self, tmp_path):
        config = ExecutionConfig(sharding=ShardingConfig(shards=4))
        engine = ShardedEngine(directory=str(tmp_path / "db"), config=config)
        try:
            engine.register_class(Parcel, monitor_state=False)
            session = engine.create_session("writer")
            before = {}
            for i in range(12):
                with session.transaction():
                    oid = session.persist(Parcel(f"p{i}"), name=f"p{i}")
                before[f"p{i}"] = (engine.shard_of(oid), oid.value)
        finally:
            engine.close()

        engine = ShardedEngine(directory=str(tmp_path / "db"), config=config)
        try:
            engine.register_class(Parcel, monitor_state=False)
            # Recovered objects still route to the shard they were
            # allocated on, against a freshly built topology.
            for name, (home, value) in before.items():
                assert engine.shard_of(value) == home
                assert engine.fetch(name).label == name
            # New allocations never reuse a recovered OID and still land
            # in their own shard's blocks: the catalog floor re-applied
            # through ensure_above kept both invariants at once.
            session = engine.create_session("writer-2")
            taken = {value for _, value in before.values()}
            for i in range(12, 24):
                with session.transaction():
                    oid = session.persist(Parcel(f"p{i}"), name=f"p{i}")
                home = engine.owning_shard(engine.fetch(f"p{i}"))
                assert engine.shard_of(oid) == home
                assert oid.value not in taken
                taken.add(oid.value)
        finally:
            engine.close()

    def test_default_range_size_matches_config_default(self):
        """The block width is an on-disk format, fixed for every
        topology: no config can change it."""
        assert ShardMap().range_size == DEFAULT_OID_RANGE_SIZE
