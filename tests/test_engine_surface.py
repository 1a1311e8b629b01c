"""Guard: the two engines share one surface, written once.

``EngineBase`` holds every operation that fans out over an engine's
``kernels`` (``(self,)`` for a ``ReachEngine``, the shards for a
``ShardedEngine``), the statistics merge and the lifecycle.  A method
that both engine classes define themselves is either on the allow-list
below or a duplicate that belongs on ``EngineBase``.  The guard reads the
class dicts; only the check that the kernels share their engine's stack
builds engines.
"""

import pytest

from repro.config import ExecutionConfig, ShardingConfig
from repro.core.engine import EngineBase, ReachEngine
from repro.core.sharding import ShardedEngine

#: Both engines define these, each for a reason the base cannot absorb.
ALLOWED_ON_BOTH = {
    # Routing: ``benchmarks/pipeline/spans.py`` wraps
    # ``ShardedEngine.signal/persist/fetch`` by name, and ``delete``
    # routes the same way by OID, name or resident object.
    "signal", "persist", "fetch", "delete",
    # Constructors.
    "__init__", "create_session",
    # Schema and rules: the sharded form registers on every shard or
    # routes to the event's home shard.
    "register_class", "create_index", "register_rule", "unregister_rule",
}

#: Written once on the base; neither engine may define them again.
ON_THE_BASE = {
    "drain_detached", "dead_letters", "requeue", "wait_for_composition",
    "collect_garbage", "checkpoint", "flush", "query", "composer_stats",
    "architecture_inventory", "statistics", "close",
}

#: Accessors that only restated a ``statistics()`` section.
DELETED = {
    "concurrency_stats", "wal_statistics", "shard_stats", "shard_summary",
    "server_stats",
}

#: Shard-0 pass-throughs a sharded engine no longer has: each reader
#: goes over ``kernels``.  (``locks`` is not one: it is the engine's own
#: lock table, which every kernel shares.)
NOT_ON_SHARDED = {"storage"}


def _methods(cls) -> set[str]:
    return {name for name, value in vars(cls).items()
            if callable(value) or isinstance(value, property)}


def test_methods_both_engines_define_are_the_allow_list():
    both = _methods(ReachEngine) & _methods(ShardedEngine)
    assert both == ALLOWED_ON_BOTH, (
        f"defined on both engines but not allowed: "
        f"{sorted(both - ALLOWED_ON_BOTH)}; allowed but no longer on "
        f"both: {sorted(ALLOWED_ON_BOTH - both)}")


def test_fan_outs_live_on_the_base_only():
    assert ON_THE_BASE <= _methods(EngineBase)
    for cls in (ReachEngine, ShardedEngine):
        assert not ON_THE_BASE & _methods(cls), cls.__name__


def test_restating_accessors_are_gone():
    for cls in (EngineBase, ReachEngine, ShardedEngine):
        assert not DELETED & set(dir(cls)), cls.__name__


def test_shard_zero_pass_throughs_are_gone():
    assert not NOT_ON_SHARDED & set(dir(ShardedEngine))


@pytest.mark.parametrize("shards", [1, 2])
def test_every_kernel_locks_in_the_engines_table(tmp_path, shards):
    engine = ShardedEngine(
        directory=str(tmp_path / "db"),
        config=ExecutionConfig(sharding=ShardingConfig(shards=shards))) \
        if shards > 1 else ReachEngine(directory=str(tmp_path / "db"))
    try:
        assert len(engine.kernels) == shards
        for kernel in engine.kernels:
            assert kernel.locks is engine.locks
            assert kernel.tx_manager.locks is engine.locks
    finally:
        engine.close()
