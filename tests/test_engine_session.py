"""Engine/session split: layering, scoping, and lifecycle behaviour.

Covers the contracts introduced by the kernel refactor: engines are
isolated from each other inside one process (the cross-instance sentry
leakage fix); sessions own their pin cache and firing-log slice; and
shutdown is idempotent and usable as a context manager.
"""

import pytest

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    sentried,
)
from repro.errors import TransactionStateError


@sentried
class Tank:
    def __init__(self, name):
        self.name = name
        self.level = 0

    def fill(self, amount):
        self.level += amount


FILL = MethodEventSpec("Tank", "fill", param_names=("amount",))


class TestFacadeLayering:
    def test_statistics_reports_sessions(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "s"))
        try:
            stats = engine.statistics()
            assert set(stats) == ReachEngine.STATISTICS_KEYS
            assert stats["sessions"] == {"created": 0, "active": 0}
            extra = engine.create_session("extra")
            assert engine.statistics()["sessions"] == {"created": 1,
                                                       "active": 1}
            extra.close()
            assert engine.statistics()["sessions"] == {"created": 1,
                                                       "active": 0}
        finally:
            engine.close()


class TestCrossInstanceIsolation:
    def test_two_databases_do_not_leak_events(self, tmp_path):
        """Two engines in one process each own a scoped sentry registry:
        ``engine.transaction()`` binds its engine's scope, so one
        engine's transactions never fire the other engine's rules."""
        engine1 = ReachEngine(directory=str(tmp_path / "db1"))
        engine2 = ReachEngine(directory=str(tmp_path / "db2"))
        try:
            engine1.register_class(Tank)
            engine2.register_class(Tank)
            fired = {"1": 0, "2": 0}
            engine1.rule("watch1", FILL,
                         action=lambda ctx: fired.__setitem__(
                             "1", fired["1"] + 1),
                         coupling=CouplingMode.IMMEDIATE)
            engine2.rule("watch2", FILL,
                         action=lambda ctx: fired.__setitem__(
                             "2", fired["2"] + 1),
                         coupling=CouplingMode.IMMEDIATE)
            tank1, tank2 = Tank("a"), Tank("b")
            with engine1.transaction():
                engine1.persist(tank1, "a")
                tank1.fill(10)
            with engine2.transaction():
                engine2.persist(tank2, "b")
                tank2.fill(5)
                tank2.fill(5)
            assert fired == {"1": 1, "2": 2}
            assert engine1.events.events_detected == 1
            assert engine2.events.events_detected == 2
        finally:
            engine1.close()
            engine2.close()

    def test_sessions_of_different_engines_are_isolated(self, tmp_path):
        engine1 = ReachEngine(directory=str(tmp_path / "e1"))
        engine2 = ReachEngine(directory=str(tmp_path / "e2"))
        try:
            engine1.register_class(Tank)
            engine2.register_class(Tank)
            engine1.rule("r1", FILL, action=lambda ctx: None,
                         coupling=CouplingMode.IMMEDIATE)
            engine2.rule("r2", FILL, action=lambda ctx: None,
                         coupling=CouplingMode.IMMEDIATE)
            s1 = engine1.create_session()
            s2 = engine2.create_session()
            with s1.transaction():
                tank = Tank("x")
                s1.persist(tank, "x")
                tank.fill(1)
            with s2.transaction():
                other = Tank("y")
                s2.persist(other, "y")
                other.fill(1)
                other.fill(1)
                other.fill(1)
            assert [r.rule_name for r in s1.firing_log()] == ["r1"]
            assert [r.rule_name for r in s2.firing_log()] == ["r2"] * 3
        finally:
            engine1.close()
            engine2.close()


class TestSessionState:
    def test_pin_cache_within_transaction(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "pin"))
        try:
            engine.register_class(Tank)
            session = engine.create_session()
            with session.transaction():
                session.persist(Tank("p"), "p")
            with session.transaction():
                first = session.fetch("p")
                second = session.fetch("p")
                assert first is second
                assert session.stats["pin_hits"] == 1
                assert session.pinned_count() == 1
            # Pins do not survive transaction end.
            assert session.pinned_count() == 0
        finally:
            engine.close()

    def test_no_pinning_outside_transaction(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "nopin"))
        try:
            engine.register_class(Tank)
            session = engine.create_session()
            with session.transaction():
                session.persist(Tank("q"), "q")
            session.fetch("q")
            assert session.pinned_count() == 0
        finally:
            engine.close()

    def test_session_close_aborts_open_transaction(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "abort"))
        try:
            session = engine.create_session()
            session.begin()
            session.close()
            assert session.closed
            assert session.current_transaction() is None
            stats = engine.tx_manager.stats
            assert stats["aborted"] == 1
            # A closed session rejects further work.
            with pytest.raises(RuntimeError):
                with session.transaction():
                    pass
        finally:
            engine.close()

    def test_session_context_binding_is_lifo(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "lifo"))
        try:
            session = engine.create_session()
            manager = engine.tx_manager
            manager.push_context(session.context)
            with pytest.raises(TransactionStateError):
                manager.pop_context(
                    engine.create_session().context)
            manager.pop_context(session.context)
        finally:
            engine.close()

    def test_session_as_context_manager(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "ctx"))
        try:
            with engine.create_session("scoped") as session:
                with session.transaction():
                    pass
            assert session.closed
            assert session not in engine.sessions()
        finally:
            engine.close()


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        db = ReachEngine(directory=str(tmp_path / "idem"))
        db.close()
        db.close()   # second close is a no-op, not an error
        assert db.closed

    def test_database_as_context_manager(self, tmp_path):
        with ReachEngine(directory=str(tmp_path / "with")) as db:
            db.register_class(Tank)
            with db.transaction():
                db.persist(Tank("w"), "w")
        assert db.closed
        # Shutdown flushed through: a fresh database sees the data.
        with ReachEngine(directory=str(tmp_path / "with")) as db2:
            db2.register_class(Tank)
            assert db2.fetch("w").name == "w"

    def test_close_shuts_down_detached_pool(self, tmp_path):
        from repro import ExecutionConfig, ExecutionMode
        config = ExecutionConfig(mode=ExecutionMode.THREADED,
                                 worker_threads=2)
        db = ReachEngine(directory=str(tmp_path / "pool"),
                         config=config)
        assert db.scheduler._pool is not None
        db.close()
        assert db.scheduler._pool is None
        assert db.events._workers == []

    def test_engine_close_closes_sessions(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "all"))
        sessions = [engine.create_session(f"c{i}") for i in range(3)]
        engine.close()
        assert all(session.closed for session in sessions)
        with pytest.raises(RuntimeError):
            engine.create_session()
