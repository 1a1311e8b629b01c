"""Heterogeneous mediation: cross-database event forwarding."""

import pytest

from repro import (
    Conjunction,
    CouplingMode,
    EventScope,
    MethodEventSpec,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.layered import ClosedOODB, LayeredActiveDBMS
from repro.mediator import link_events, link_layered_events


@sentried
class Pump:
    def __init__(self, name):
        self.name = name
        self.pressure = 0

    def report(self, pressure):
        self.pressure = pressure
        return pressure


REPORT = MethodEventSpec("Pump", "report", param_names=("pressure",))


@pytest.fixture
def plants(tmp_path):
    """Two source databases and one mediator."""
    north = ReachEngine(directory=str(tmp_path / "north"))
    south = ReachEngine(directory=str(tmp_path / "south"))
    mediator = ReachEngine(directory=str(tmp_path / "mediator"))
    north.register_class(Pump)
    south.register_class(Pump)
    yield north, south, mediator
    for db in (north, south, mediator):
        db.close()


class TestForwarding:
    def test_source_events_surface_in_mediator(self, plants):
        north, __, mediator = plants
        link = link_events(north, mediator, REPORT, "pump-report",
                           source_name="north")
        seen = []
        mediator.rule("collect", SignalEventSpec("pump-report"),
                      action=lambda ctx: seen.append(
                          (ctx["source"], ctx["pressure"])),
                      coupling=CouplingMode.DETACHED)
        pump = Pump("n1")
        with north.transaction():
            pump.report(42)
        mediator.drain_detached()
        assert seen == [("north", 42)]
        assert link.forwarded == 1

    def test_forwarded_events_carry_no_mediator_transaction(self, plants):
        north, __, mediator = plants
        link_events(north, mediator, REPORT, "pump-report")
        captured = []
        mediator.rule("capture", SignalEventSpec("pump-report"),
                      action=lambda ctx: captured.append(
                          ctx.event.tx_ids),
                      coupling=CouplingMode.DETACHED)
        with north.transaction():
            Pump("n").report(1)
        mediator.drain_detached()
        assert captured == [frozenset()]

    def test_live_object_references_do_not_cross(self, plants):
        """Section 3.2 across databases: values only."""
        north, __, mediator = plants
        link_events(north, mediator, REPORT, "pump-report")
        payloads = []
        mediator.rule("capture", SignalEventSpec("pump-report"),
                      action=lambda ctx: payloads.append(
                          dict(ctx.bindings)),
                      coupling=CouplingMode.DETACHED)
        with north.transaction():
            Pump("n9").report(1)
        mediator.drain_detached()
        payload = payloads[0]
        assert "instance" not in payload
        assert payload["instance_repr"] == "Pump(n9)"

    def test_transform_rewrites_schema(self, plants):
        north, __, mediator = plants
        link_events(north, mediator, REPORT, "pump-report",
                    transform=lambda p: {"bar": p["pressure"] / 10})
        seen = []
        mediator.rule("capture", SignalEventSpec("pump-report"),
                      action=lambda ctx: seen.append(ctx["bar"]),
                      coupling=CouplingMode.DETACHED)
        with north.transaction():
            Pump("n").report(50)
        mediator.drain_detached()
        assert seen == [5.0]

    def test_close_stops_forwarding(self, plants):
        north, __, mediator = plants
        link = link_events(north, mediator, REPORT, "pump-report")
        link.close()
        with north.transaction():
            Pump("n").report(1)
        assert link.forwarded == 0


class TestCommittedOnlyForwarding:
    def test_aborted_source_work_never_leaks(self, plants):
        north, __, mediator = plants
        link = link_events(north, mediator, REPORT, "pump-report",
                           forward_committed_only=True)
        seen = []
        mediator.rule("capture", SignalEventSpec("pump-report"),
                      action=lambda ctx: seen.append(ctx["pressure"]),
                      coupling=CouplingMode.DETACHED)
        pump = Pump("n")
        try:
            with north.transaction():
                pump.report(99)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        with north.transaction():
            pump.report(7)
        mediator.drain_detached()
        assert seen == [7]
        assert link.forwarded == 1

    def test_events_held_until_commit(self, plants):
        north, __, mediator = plants
        link = link_events(north, mediator, REPORT, "pump-report",
                           forward_committed_only=True)
        pump = Pump("n")
        with north.transaction():
            pump.report(1)
            assert link.forwarded == 0   # buffered, not yet delivered
        assert link.forwarded == 1


@sentried
class NorthPump:
    def report(self, pressure):
        return pressure


@sentried
class SouthGauge:
    def measure(self, bar):
        return bar


class TestCrossSourceComposition:
    def test_mediator_composes_events_from_two_sources(self, plants):
        """The heterogeneous-mediator scenario: a composite over events
        that originate in different databases with different schemas.
        (Sources declare *distinct* classes — the in-process sentry is
        shared, so two databases watching one class would both detect
        each call; heterogeneity makes distinct schemas the natural
        case anyway.)"""
        north, south, mediator = plants
        north.register_class(NorthPump)
        south.register_class(SouthGauge)
        link_events(north, mediator,
                    MethodEventSpec("NorthPump", "report",
                                    param_names=("pressure",)),
                    "north-report", source_name="north")
        link_events(south, mediator,
                    MethodEventSpec("SouthGauge", "measure",
                                    param_names=("bar",)),
                    "south-report", source_name="south")
        fired = []
        spec = Conjunction(SignalEventSpec("north-report"),
                           SignalEventSpec("south-report")) \
            .scoped(EventScope.MULTI_TX).within(600.0)
        mediator.rule("both-plants-reported", spec,
                      action=lambda ctx: fired.append(1),
                      coupling=CouplingMode.DETACHED)
        with north.transaction():
            NorthPump().report(10)
        mediator.drain_detached()
        assert fired == []               # one source is not enough
        with south.transaction():
            SouthGauge().measure(2.0)
        mediator.drain_detached()
        assert fired == [1]


class TestLayeredSource:
    def test_layered_system_feeds_the_mediator(self, plants):
        __, ___, mediator = plants

        class PlainPump:
            def report(self, pressure):
                return pressure

        layer = LayeredActiveDBMS(ClosedOODB(license_seats=2))
        ActivePump = layer.activate_class(PlainPump)
        link = link_layered_events(layer, mediator, "PlainPump", "report",
                                   "legacy-report")
        seen = []
        mediator.rule("capture", SignalEventSpec("legacy-report"),
                      action=lambda ctx: seen.append(ctx["args"]),
                      coupling=CouplingMode.DETACHED)
        pump = ActivePump()
        layer.begin()
        pump.report(33)
        layer.commit()
        mediator.drain_detached()
        assert seen == [(33,)]
        assert link.source_name == "layered"
