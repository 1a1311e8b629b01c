"""Meta-architecture bus and the Change PM."""

import pytest

from repro import ReachEngine, sentried
from repro.oodb.meta import (
    MetaArchitecture,
    PolicyManager,
    SystemEventKind,
)


class Probe(PolicyManager):
    name = "Probe PM"
    subscribed_kinds = (SystemEventKind.PERSIST,)

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_event(self, event):
        self.seen.append(event)


class TestBus:
    def test_plug_subscribes_and_dispatches(self):
        meta = MetaArchitecture()
        probe = meta.plug(Probe())
        meta.raise_event(SystemEventKind.PERSIST, name="x")
        meta.raise_event(SystemEventKind.FETCH)  # not subscribed
        assert len(probe.seen) == 1
        assert probe.seen[0].info["name"] == "x"

    def test_unplug_stops_dispatch(self):
        meta = MetaArchitecture()
        probe = meta.plug(Probe())
        meta.unplug(probe)
        meta.raise_event(SystemEventKind.PERSIST)
        assert probe.seen == []
        assert probe.meta is None

    def test_event_counts(self):
        meta = MetaArchitecture()
        meta.raise_event(SystemEventKind.PERSIST)
        meta.raise_event(SystemEventKind.PERSIST)
        assert meta.event_counts[SystemEventKind.PERSIST] == 2

    def test_find_manager_by_name(self):
        meta = MetaArchitecture()
        probe = meta.plug(Probe())
        assert meta.find_manager("Probe PM") is probe
        assert meta.find_manager("Ghost PM") is None

    def test_inventory_shape(self):
        meta = MetaArchitecture()
        meta.plug(Probe())
        inventory = meta.inventory()
        assert any("Probe PM" in entry
                   for entry in inventory["policy_managers"])

    def test_dispatch_order_is_plug_order(self):
        meta = MetaArchitecture()
        order = []

        class A(Probe):
            def on_event(self, event):
                order.append("A")

        class B(Probe):
            def on_event(self, event):
                order.append("B")

        meta.plug(A())
        meta.plug(B())
        meta.raise_event(SystemEventKind.PERSIST)
        assert order == ["A", "B"]


@sentried
class Gauge:
    def __init__(self):
        self.value = 0


class TestChangePM:
    def test_monitor_requires_sentried_class(self, db):
        class Plain:
            pass

        with pytest.raises(TypeError):
            db.change.monitor(Plain)

    def test_monitored_change_reaches_bus(self, db):
        db.register_class(Gauge)
        seen = []

        class Watcher(PolicyManager):
            subscribed_kinds = (SystemEventKind.STATE_CHANGE,)

            def on_event(self, event):
                seen.append((event.info["attribute"],
                             event.info["new_value"]))

        db.meta.plug(Watcher())
        gauge = Gauge()
        with db.transaction():
            gauge.value = 9
        assert ("value", 9) in seen

    def test_undo_restores_without_reraising_events(self, db):
        """Rollback must not itself raise state-change events, or rules
        would fire on the undo."""
        db.register_class(Gauge)
        changes = []

        class Watcher(PolicyManager):
            subscribed_kinds = (SystemEventKind.STATE_CHANGE,)

            def on_event(self, event):
                changes.append(event.info["new_value"])

        db.meta.plug(Watcher())
        gauge = Gauge()
        with db.transaction():
            db.persist(gauge)
        observed_before = list(changes)
        try:
            with db.transaction():
                gauge.value = 5
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert gauge.value == 0
        # Exactly one more change event (the 5), none from the rollback.
        assert changes == observed_before + [5]

    def test_monitor_is_idempotent(self, db):
        db.register_class(Gauge)
        db.change.monitor(Gauge)
        db.change.monitor(Gauge)
        count_before = db.change.changes_observed
        gauge = Gauge()
        gauge.value = 1
        # One write, one observation (not two).
        assert db.change.changes_observed == count_before + 2  # init + set

    def test_close_cancels_subscriptions(self, db):
        db.register_class(Gauge)
        db.change.close()
        before = db.change.changes_observed
        Gauge().value = 3
        assert db.change.changes_observed == before
