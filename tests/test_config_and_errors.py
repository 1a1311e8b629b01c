"""Configuration validation and the exception hierarchy."""

from dataclasses import fields

import pytest

import repro.errors as errors
from repro import (
    ExecutionConfig,
    ExecutionMode,
    ReachEngine,
    ServerConfig,
    ShardingConfig,
    TieBreakPolicy,
)
from repro.core.eca_manager import EventService
from repro.core.scheduler import RuleScheduler


class TestExecutionConfig:
    def test_defaults_are_synchronous_oldest_first(self):
        config = ExecutionConfig()
        assert config.mode is ExecutionMode.SYNCHRONOUS
        assert config.tie_break is TieBreakPolicy.OLDEST_FIRST
        assert not config.threaded
        assert not config.parallel_rules

    def test_threaded_property(self):
        assert ExecutionConfig(mode=ExecutionMode.THREADED).threaded

    @pytest.mark.parametrize("kwargs", [
        {"worker_threads": 0},
        {"max_rule_recursion": 0},
        {"trace_sampling": 1.5},
        {"detached_max_retries": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    def test_parallel_rules_require_threaded_mode(self):
        """Parallel sibling firing needs threads (Section 6.4)."""
        with pytest.raises(ValueError,
                           match=r"parallel_rules.*mode=ExecutionMode\."
                                 r"THREADED"):
            ExecutionConfig(parallel_rules=True)
        assert ExecutionConfig(mode=ExecutionMode.THREADED,
                               parallel_rules=True).parallel_rules

    def test_config_surface_is_pinned(self):
        """Every settable value, by name: a new knob is a deliberate
        diff here, as a new statistics key is one in STATISTICS_KEYS."""
        assert {f.name for f in fields(ExecutionConfig)} == {
            "mode", "tie_break", "simple_events_first", "worker_threads",
            "max_rule_recursion", "parallel_rules", "observability",
            "trace_sampling", "history_capacity", "detached_max_retries",
            "retry_base_delay", "quarantine_threshold", "fault_injection",
            "fault_seed", "flight_recorder", "telemetry_jsonl",
            "admin_port", "sharding", "server"}
        assert {f.name for f in fields(ShardingConfig)} == {"shards"}
        assert {f.name for f in fields(ServerConfig)} == {
            "host", "port", "auth_tokens", "rate_limit", "rate_burst",
            "drain_timeout"}


class TestComponentDefaults:
    """Bounds and intervals that are not config knobs keep one home
    each: the component's own default."""

    def test_default_built_engine(self, tmp_path, monkeypatch):
        sweeps = []
        monkeypatch.setattr(EventService, "collect_garbage",
                            lambda self: sweeps.append(self.clock.now()))
        db = ReachEngine(directory=str(tmp_path / "db"))
        try:
            assert db.tracer.capacity == 256
            assert db.flight.capacity == 4096
            assert db.telemetry().capacity == 4096
            assert db.locks._flight_wait_threshold == 0.010
            assert db.scheduler.errors.capacity == 1000
            assert RuleScheduler.DEAD_LETTER_CAPACITY == 256
            assert db.shard_map.range_size == 1024
            assert db.statistics()["shards"]["oid_range_size"] == 1024
            db.clock.advance(0.999)
            assert sweeps == []
            db.clock.advance(1.501)
            assert sweeps == [1.0, 2.0]
        finally:
            db.close()


class TestErrorHierarchy:
    def test_everything_derives_from_reach_error(self):
        exception_types = [
            obj for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        assert len(exception_types) > 20
        for exc_type in exception_types:
            assert issubclass(exc_type, errors.ReachError), exc_type

    def test_family_relationships(self):
        assert issubclass(errors.PageFullError, errors.StorageError)
        assert issubclass(errors.DeadlockError, errors.TransactionError)
        assert issubclass(errors.IllegalLifespanError, errors.EventError)
        assert issubclass(errors.UnsupportedCouplingError, errors.RuleError)
        assert issubclass(errors.RuleParseError, errors.RuleDefinitionError)
        assert issubclass(errors.ClosedSystemError,
                          errors.LayeredArchitectureError)
        assert issubclass(errors.LicenseError, errors.TransactionError)

    def test_one_except_clause_catches_the_library(self):
        try:
            raise errors.PageFullError("full")
        except errors.ReachError:
            caught = True
        assert caught
