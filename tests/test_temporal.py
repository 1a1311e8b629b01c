"""Temporal events: absolute, relative, periodic; clock semantics."""

import pytest

from repro import (
    AbsoluteEventSpec,
    CouplingMode,
    MethodEventSpec,
    PeriodicEventSpec,
    ReachEngine,
    RelativeEventSpec,
    VirtualClock,
    sentried,
)
from repro.clock import SystemClock


@sentried
class Probe:
    def ping(self):
        return "pong"


@pytest.fixture
def tdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "tdb"))
    database.register_class(Probe)
    yield database
    database.close()


class TestVirtualClock:
    def test_advance_fires_due_timers_in_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(5.0, lambda: order.append("b"))
        clock.schedule(2.0, lambda: order.append("a"))
        clock.schedule(9.0, lambda: order.append("c"))
        clock.advance(6.0)
        assert order == ["a", "b"]
        clock.advance(10.0)
        assert order == ["a", "b", "c"]

    def test_callback_observes_deadline_time(self):
        clock = VirtualClock()
        seen = []
        clock.schedule(3.0, lambda: seen.append(clock.now()))
        clock.advance(10.0)
        assert seen == [3.0]

    def test_past_deadline_fires_immediately(self):
        clock = VirtualClock(start=100.0)
        fired = []
        clock.schedule(50.0, lambda: fired.append(1))
        assert fired == [1]

    def test_cancel_prevents_firing(self):
        clock = VirtualClock()
        fired = []
        handle = clock.schedule(5.0, lambda: fired.append(1))
        handle.cancel()
        clock.advance(10.0)
        assert fired == []

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_timer_scheduled_during_advance_fires_if_due(self):
        clock = VirtualClock()
        fired = []

        def chain():
            clock.schedule(clock.now() + 2.0, lambda: fired.append("second"))

        clock.schedule(3.0, chain)
        clock.advance(10.0)
        assert fired == ["second"]


class TestSystemClock:
    def test_now_advances(self):
        clock = SystemClock()
        first = clock.now()
        clock.sleep(0.01)
        assert clock.now() > first


class TestAbsoluteEvents:
    def test_fires_once_at_time(self, tdb):
        fired = []
        tdb.rule("abs", AbsoluteEventSpec(50.0),
                 action=lambda ctx: fired.append(ctx["at"]),
                 coupling=CouplingMode.DETACHED)
        tdb.clock.advance(49.0)
        assert fired == []
        tdb.clock.advance(2.0)
        tdb.drain_detached()
        assert fired == [50.0]
        tdb.clock.advance(100.0)
        assert fired == [50.0]  # absolute events do not repeat


class TestPeriodicEvents:
    def test_period_respected(self, tdb):
        fired = []
        tdb.rule("tick", PeriodicEventSpec(10.0),
                 action=lambda ctx: fired.append(ctx["occurrence_index"]),
                 coupling=CouplingMode.DETACHED)
        tdb.clock.advance(35.0)
        tdb.drain_detached()
        assert fired == [1, 2, 3]

    def test_count_bound(self, tdb):
        fired = []
        tdb.rule("tick", PeriodicEventSpec(10.0, count=2),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        tdb.clock.advance(100.0)
        tdb.drain_detached()
        assert fired == [1, 1]

    def test_end_bound(self, tdb):
        fired = []
        tdb.rule("tick", PeriodicEventSpec(10.0, end=25.0),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        tdb.clock.advance(100.0)
        tdb.drain_detached()
        assert len(fired) == 2  # at t=10 and t=20

    def test_explicit_start(self, tdb):
        fired = []
        tdb.rule("tick", PeriodicEventSpec(10.0, start=5.0, count=1),
                 action=lambda ctx: fired.append(ctx["at"]),
                 coupling=CouplingMode.DETACHED)
        tdb.clock.advance(6.0)
        tdb.drain_detached()
        assert fired == [5.0]


class TestRelativeEvents:
    def test_fires_delay_after_anchor(self, tdb):
        fired = []
        anchor = MethodEventSpec("Probe", "ping")
        tdb.rule("rel", RelativeEventSpec(15.0, anchor),
                 action=lambda ctx: fired.append(tdb.clock.now()),
                 coupling=CouplingMode.DETACHED)
        with tdb.transaction():
            Probe().ping()
        anchor_time = tdb.clock.now()
        tdb.clock.advance(14.0)
        assert fired == []
        tdb.clock.advance(2.0)
        tdb.drain_detached()
        assert fired == [anchor_time + 15.0]

    def test_each_anchor_occurrence_schedules_one_firing(self, tdb):
        fired = []
        anchor = MethodEventSpec("Probe", "ping")
        tdb.rule("rel", RelativeEventSpec(5.0, anchor),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        probe = Probe()
        with tdb.transaction():
            probe.ping()
            probe.ping()
        tdb.clock.advance(10.0)
        tdb.drain_detached()
        assert fired == [1, 1]
