"""The curated concurrency API (ISSUE 6).

The concurrency mechanisms (striped lock table, per-manager local
histories, seqlock counters, lazy global-history merge) are not
configurable: the engine always builds them.  The read side is
``db.statistics()["concurrency"]`` — a frozen-key section tested the
same way as ``db.statistics()`` itself.
"""

import pytest

from repro import (
    ExecutionConfig,
    ReachEngine,
    ShardingConfig,
)
from repro.oodb.locks import DEFAULT_LOCK_STRIPES, LockManager


class TestConcurrencyConfig:
    """There is no concurrency group and there are no flat aliases:
    passing one fails with Python's own ``TypeError``.  What remains
    is one structure size, fixed for every engine."""

    def test_defaults(self, tmp_path):
        assert DEFAULT_LOCK_STRIPES == 16
        engine = ReachEngine(directory=str(tmp_path / "eng"))
        try:
            assert engine.locks.stripe_count == DEFAULT_LOCK_STRIPES
        finally:
            engine.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            LockManager(stripes=0)

    @pytest.mark.parametrize("kwarg,value", [
        ("lock_stripes", 4),
        ("history_segments", 2),
        ("seqlock_stats", False),
        ("lazy_history_merge", False),
        ("concurrency", None),
        ("trace_capacity", 256),
        ("flight_capacity", 4096),
        ("telemetry_queue_capacity", 4096),
        ("flight_lock_wait_threshold", 0.010),
        ("detached_start_timeout", 30.0),
        ("gc_interval", 1.0),
        ("error_log_capacity", 1000),
        ("dead_letter_capacity", 256),
        ("oid_range_size", 1024),
        ("wal_ship_interval", 0.01),
        ("wal_ship", True),
    ])
    def test_legacy_flat_kwargs_are_removed(self, kwarg, value):
        config_cls = ShardingConfig if kwarg in (
            "oid_range_size", "wal_ship_interval", "wal_ship") \
            else ExecutionConfig
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            config_cls(**{kwarg: value})

    def test_removal_error_names_the_offending_kwarg(self):
        with pytest.raises(TypeError, match="lock_stripes"):
            ExecutionConfig(lock_stripes=4)


class TestEngineWiring:
    def test_defaults_apply_without_explicit_config(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "eng"))
        try:
            assert engine.locks.stripe_count == DEFAULT_LOCK_STRIPES
        finally:
            engine.close()


class TestConcurrencyStats:
    @pytest.fixture
    def db(self, tmp_path):
        database = ReachEngine(directory=str(tmp_path / "db"))
        yield database
        database.close()

    def test_frozen_keys(self, db):
        stats = db.statistics()["concurrency"]
        assert set(stats) == ReachEngine.CONCURRENCY_STATS_KEYS

    def test_lock_stats_shape(self, db):
        locks = db.statistics()["concurrency"]["locks"]
        assert locks["stripes"] == 16
        assert len(locks["per_stripe"]) == 16
        for entry in locks["per_stripe"]:
            assert {"waits", "p50_ms", "p99_ms", "max_ms"} <= set(entry)

    def test_history_stats_track_merge_lag(self, db):
        history = db.statistics()["concurrency"]["history"]
        assert history["merge_lag"] == 0

    def test_statistics_embeds_concurrency(self, db):
        stats = db.statistics()
        assert set(stats) == ReachEngine.STATISTICS_KEYS
        assert set(stats["concurrency"]) == \
            ReachEngine.CONCURRENCY_STATS_KEYS

    def test_closed_database_refuses(self, tmp_path):
        database = ReachEngine(directory=str(tmp_path / "db2"))
        database.close()
        with pytest.raises(RuntimeError):
            database.statistics()
