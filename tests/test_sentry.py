"""Sentry mechanism: transparency, overhead paths, receivers."""

import sys
import threading

import pytest

from repro import (
    CouplingMode,
    ExecutionConfig,
    MethodEventSpec,
    ReachEngine,
)
from repro.oodb.sentry import (
    Moment,
    SentryRegistry,
    is_sentried,
    registry,
    sentried,
)


@sentried
class Valve:
    def __init__(self, setting=0):
        self.setting = setting

    def open_to(self, setting):
        self.setting = setting
        return setting

    def close(self):
        self.setting = 0

    def boom(self):
        raise ValueError("bang")


@sentried
class SafetyValve(Valve):
    def open_to(self, setting):
        return super().open_to(min(setting, 10))

    def vent(self):
        return "venting"


class Unmonitored:
    def open_to(self, setting):
        self.setting = setting


class TestTransparency:
    """Section 6.1: declarations and calls must be identical to
    unmonitored classes."""

    def test_type_identity_is_preserved(self):
        assert Valve.__name__ == "Valve"
        assert isinstance(Valve(), Valve)

    def test_is_sentried(self):
        assert is_sentried(Valve)
        assert is_sentried(SafetyValve)
        assert not is_sentried(Unmonitored)

    def test_is_sentried_is_inherited_without_the_decorator(self):
        class PlainSubValve(Valve):
            pass

        class PlainSubUnmonitored(Unmonitored):
            pass

        assert is_sentried(PlainSubValve)
        assert not is_sentried(PlainSubUnmonitored)
        assert not is_sentried(object)

    def test_calls_behave_identically(self):
        valve = Valve()
        assert valve.open_to(5) == 5
        assert valve.setting == 5

    def test_inheritance_and_super_work(self):
        safety = SafetyValve()
        assert safety.open_to(99) == 10
        assert safety.vent() == "venting"

    def test_exceptions_propagate_unchanged(self):
        with pytest.raises(ValueError, match="bang"):
            Valve().boom()

    def test_private_methods_not_wrapped(self):
        assert "__init__" not in Valve.__dict__[
            "__sentry_method_receivers__"]


class TestMethodReceivers:
    def test_after_notification(self):
        notes = []
        sub = registry.watch_method(Valve, "open_to", notes.append)
        try:
            valve = Valve()
            valve.open_to(7)
        finally:
            sub.cancel()
        assert len(notes) == 1
        note = notes[0]
        assert note.moment is Moment.AFTER
        assert note.instance is valve
        assert note.method == "open_to"
        assert note.args == (7,)
        assert note.result == 7

    def test_before_notification_sees_no_result(self):
        notes = []
        sub = registry.watch_method(Valve, "open_to", notes.append,
                                    moment=Moment.BEFORE)
        try:
            Valve().open_to(3)
        finally:
            sub.cancel()
        assert notes[0].moment is Moment.BEFORE
        assert notes[0].result is None

    def test_exception_delivered_in_after_notification(self):
        notes = []
        sub = registry.watch_method(Valve, "boom", notes.append)
        try:
            with pytest.raises(ValueError):
                Valve().boom()
        finally:
            sub.cancel()
        assert isinstance(notes[0].exception, ValueError)

    def test_cancel_stops_delivery(self):
        notes = []
        sub = registry.watch_method(Valve, "close", notes.append)
        Valve().close()
        sub.cancel()
        Valve().close()
        assert len(notes) == 1

    def test_subclass_watch_filters_instances(self):
        notes = []
        sub = registry.watch_method(SafetyValve, "close", notes.append)
        try:
            Valve().close()        # base instance: filtered out
            SafetyValve().close()  # subclass instance: delivered
        finally:
            sub.cancel()
        assert len(notes) == 1
        assert isinstance(notes[0].instance, SafetyValve)

    def test_base_watch_sees_subclass_instances(self):
        notes = []
        sub = registry.watch_method(Valve, "close", notes.append)
        try:
            SafetyValve().close()
        finally:
            sub.cancel()
        assert len(notes) == 1

    def test_unmonitored_method_watch_rejected(self):
        with pytest.raises(TypeError):
            registry.watch_method(Valve, "nonexistent", lambda n: None)

    def test_unsentried_class_watch_rejected(self):
        with pytest.raises(TypeError):
            registry.watch_method(Unmonitored, "open_to", lambda n: None)


class TestStateReceivers:
    def test_attribute_write_is_trapped(self):
        notes = []
        sub = registry.watch_state(Valve, "setting", notes.append)
        try:
            valve = Valve()
            valve.setting = 42
        finally:
            sub.cancel()
        # __init__ writes setting=0 (no prior value), then the explicit 42.
        assert [(n.new_value, n.had_old_value) for n in notes] == \
            [(0, False), (42, True)]
        assert notes[-1].old_value == 0

    def test_attribute_filter(self):
        notes = []
        sub = registry.watch_state(Valve, "other", notes.append)
        try:
            valve = Valve()
            valve.setting = 1
            valve.other = 2
        finally:
            sub.cancel()
        assert len(notes) == 1
        assert notes[0].attribute == "other"

    def test_underscore_attributes_are_not_trapped(self):
        notes = []
        sub = registry.watch_state(Valve, None, notes.append)
        try:
            valve = Valve()
            valve._secret = 1
        finally:
            sub.cancel()
        assert all(not n.attribute.startswith("_") for n in notes)


class TestCreateReceivers:
    def test_creation_announced_once(self):
        notes = []
        sub = registry.watch_create(Valve, notes.append)
        try:
            Valve(setting=5)
        finally:
            sub.cancel()
        assert len(notes) == 1
        assert notes[0].kwargs == {"setting": 5}

    def test_subclass_creation_announced_once(self):
        """A cooperative __init__ chain must not announce twice."""
        notes = []
        sub_base = registry.watch_create(Valve, notes.append)
        try:
            SafetyValve()
        finally:
            sub_base.cancel()
        assert len(notes) == 1


class TestOverheadPaths:
    def test_useless_overhead_path_skips_notification_machinery(self):
        """With no receivers, the wrapper must not build notifications."""
        before = registry.notifications_delivered
        valve = Valve()
        for __ in range(50):
            valve.close()
        assert registry.notifications_delivered == before

    def test_useful_overhead_counts_deliveries(self):
        before = registry.notifications_delivered
        sub = registry.watch_method(Valve, "close", lambda n: None)
        try:
            valve = Valve()
            valve.close()
        finally:
            sub.cancel()
        assert registry.notifications_delivered == before + 1


class TestDecoratorOptions:
    def test_explicit_method_list(self):
        @sentried(methods=["ping"])
        class Narrow:
            def ping(self):
                return "pong"

            def pong(self):
                return "ping"

        assert "ping" in Narrow.__dict__["__sentry_method_receivers__"]
        assert "pong" not in Narrow.__dict__["__sentry_method_receivers__"]

    def test_track_state_disabled(self):
        @sentried(track_state=False)
        class Loose:
            def set(self, v):
                self.v = v

        notes = []
        sub = SentryRegistry().watch_state(Loose, None, notes.append)
        obj = Loose()
        obj.v = 5
        sub.cancel()
        assert notes == []

    def test_unknown_method_in_list_rejected(self):
        with pytest.raises(TypeError):
            @sentried(methods=["ghost"])
            class Broken:
                pass


@sentried
class Pump:
    def start(self):
        return "started"


class BigPump(Pump):
    pass


class TestDeliveryCounting:
    def test_one_delivery_one_count_by_the_delivering_registry(
            self, tmp_path):
        """A notification is counted once, by the registry whose receiver
        got it, and only when the adapter let it through."""
        db = ReachEngine(directory=str(tmp_path / "count"),
                         config=ExecutionConfig(observability=True))
        try:
            db.register_class(Pump)
            db.register_class(BigPump)
            fired = []
            db.rule("big", MethodEventSpec("BigPump", "start"),
                    action=lambda ctx: fired.append(ctx["instance"]),
                    coupling=CouplingMode.IMMEDIATE)
            engine_registry = db.sentry_registry
            default_before = registry.notifications_delivered
            with db.transaction():
                Pump().start()          # filtered out: not a BigPump
            assert fired == []
            assert engine_registry.notifications_delivered == 0
            assert registry.notifications_delivered == default_before
            with db.transaction():
                BigPump().start()
            assert len(fired) == 1
            assert engine_registry.notifications_delivered == 1
            assert registry.notifications_delivered == default_before
            assert db.metrics().counter("sentry.notifications").value == 1
        finally:
            db.close()


class TestReceiverSwaps:
    """Watches and cancels replace a point's receiver tuples whole; a
    delivery reads them without a lock."""

    def test_concurrent_watch_cancel_while_calling(self, tmp_path):
        @sentried(track_state=False)
        class Meter:
            def tick(self):
                return 1

        db = ReachEngine(directory=str(tmp_path / "swap"))
        stop = threading.Event()
        start = threading.Barrier(3)
        errors = []

        def call_loop():
            meter = Meter()
            start.wait()
            try:
                while not stop.is_set():
                    meter.tick()
            except Exception as exc:   # pragma: no cover - reported
                errors.append(exc)

        def churn(watcher):
            start.wait()
            try:
                for __ in range(1000):
                    watcher.watch_method(Meter, "tick",
                                         lambda note: None).cancel()
            except Exception as exc:   # pragma: no cover - reported
                errors.append(exc)

        caller = threading.Thread(target=call_loop)
        churners = [threading.Thread(target=churn, args=(watcher,))
                    for watcher in (db.sentry_registry, registry)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            caller.start()
            for thread in churners:
                thread.start()
            for thread in churners:
                thread.join(timeout=30)
            stop.set()
            caller.join(timeout=30)
            assert errors == []
            assert not any(t.is_alive() for t in (caller, *churners))
            point = Meter.__dict__["__sentry_method_receivers__"]["tick"]
            assert point.receivers == ()
            engine_before = db.sentry_registry.notifications_delivered
            default_before = registry.notifications_delivered
            Meter().tick()
            assert db.sentry_registry.notifications_delivered == \
                engine_before
            assert registry.notifications_delivered == default_before
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            db.close()

    def test_resubscribing_during_a_delivery(self):
        @sentried(track_state=False)
        class Gauge:
            def read(self):
                return 0

        seen = []
        subscriptions = {}

        def old(note):
            seen.append("old")
            subscriptions["old"].cancel()
            subscriptions["new"] = registry.watch_method(
                Gauge, "read", lambda note: seen.append("new"))

        subscriptions["old"] = registry.watch_method(Gauge, "read", old)
        subscriptions["peer"] = registry.watch_method(
            Gauge, "read", lambda note: seen.append("peer"))
        try:
            gauge = Gauge()
            gauge.read()
            # The delivery in progress finished over the set it started
            # with: the peer still heard it, the newcomer did not.
            assert seen == ["old", "peer"]
            seen.clear()
            subscriptions["peer"].cancel()
            gauge.read()
            assert seen == ["new"]
        finally:
            for subscription in subscriptions.values():
                subscription.cancel()
