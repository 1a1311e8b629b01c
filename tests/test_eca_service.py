"""EventService and ECA-manager internals."""

import pytest

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    sentried,
)
from repro.core.consumption import ConsumptionPolicy
from repro.errors import TypeRegistrationError


@sentried
class Dial:
    def turn(self, degrees):
        return degrees


TURN = MethodEventSpec("Dial", "turn", param_names=("degrees",))


@sentried
class Valve:
    def open(self):
        return "open"


OPEN = MethodEventSpec("Valve", "open")


@pytest.fixture
def edb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "edb"))
    database.register_class(Dial)
    yield database
    database.close()


class TestManagerRegistry:
    def test_one_manager_per_event_type(self, edb):
        first = edb.events.primitive_manager(TURN)
        # A spec with different bindings but the same detection identity
        # shares the manager (the Section 6.4 'dedicated to a given event
        # type' design).
        second = edb.events.primitive_manager(
            MethodEventSpec("Dial", "turn"))
        assert first is second

    def test_rules_with_different_bindings_share_a_manager(self, edb):
        got = []
        edb.rule("named", TURN, action=lambda ctx: got.append(
            ("named", ctx["degrees"])))
        edb.rule("unnamed", MethodEventSpec("Dial", "turn"),
                 action=lambda ctx: got.append(
                     ("unnamed", ctx["args"][0])))
        assert len(edb.events.primitive_managers()) == 1
        with edb.transaction():
            Dial().turn(90)
        assert sorted(got) == [("named", 90), ("unnamed", 90)]

    def test_composite_manager_deduplicated_by_spec(self, edb):
        spec = Sequence(TURN, SignalEventSpec("go"))
        first = edb.events.composite_manager(spec)
        second = edb.events.composite_manager(spec)
        assert first is second

    def test_different_policies_get_different_composers(self, edb):
        base = Sequence(TURN, SignalEventSpec("go"))
        recent = base.consumed(ConsumptionPolicy.RECENT)
        assert edb.events.composite_manager(base) is not \
            edb.events.composite_manager(recent)

    def test_listener_lifecycle(self, edb):
        manager = edb.events.primitive_manager(TURN)
        seen = []
        manager.add_listener(seen.append)
        with edb.transaction():
            Dial().turn(1)
        assert len(seen) == 1
        manager.remove_listener(seen.append)
        with edb.transaction():
            Dial().turn(2)
        assert len(seen) == 1

    def test_events_detected_counter(self, edb):
        edb.rule("r", TURN, action=lambda ctx: None)
        before = edb.events.events_detected
        with edb.transaction():
            Dial().turn(1)
            Dial().turn(2)
        assert edb.events.events_detected == before + 2

    def test_drop_rule_on_composite_manager(self, edb):
        fired = []
        spec = Sequence(TURN, SignalEventSpec("go"))
        edb.rule("combo", spec, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DEFERRED)
        edb.drop_rule("combo")
        with edb.transaction():
            Dial().turn(1)
            edb.signal("go")
        assert fired == []


class TestGoAheadSemantics:
    def test_method_events_with_exceptions_raise_no_events(self, edb):
        @sentried
        class Fragile:
            def crack(self):
                raise ValueError("broken")

        edb.register_class(Fragile)
        fired = []
        edb.rule("on-crack", MethodEventSpec("Fragile", "crack"),
                 action=lambda ctx: fired.append(1))
        with edb.transaction():
            with pytest.raises(ValueError):
                Fragile().crack()
        assert fired == []

    def test_before_events_fire_before_the_body(self, edb):
        from repro import Moment
        order = []

        @sentried
        class Recorder:
            def act(self):
                order.append("body")

        edb.register_class(Recorder)
        edb.rule("pre", MethodEventSpec("Recorder", "act",
                                        moment=Moment.BEFORE),
                 action=lambda ctx: order.append("rule"))
        with edb.transaction():
            Recorder().act()
        assert order == ["rule", "body"]


class TestAddressSpaces:
    def test_identity_map_round_trip(self, edb):
        dial = Dial()
        with edb.transaction():
            oid = edb.persist(dial)
        assert edb.active_space.resident(oid) is dial
        assert edb.active_space.oid_of(dial) == oid
        assert edb.active_space.resident_count >= 1

    def test_evict_clears_both_directions(self, edb):
        dial = Dial()
        with edb.transaction():
            oid = edb.persist(dial)
        edb.active_space.evict(oid)
        assert edb.active_space.resident(oid) is None
        assert edb.active_space.oid_of(dial) is None

    def test_evicted_object_reloads_from_passive_space(self, edb):
        dial = Dial()
        dial.setting = 42
        with edb.transaction():
            oid = edb.persist(dial, "dial")
        edb.flush()
        edb.active_space.evict(oid)
        reloaded = edb.fetch("dial")
        assert reloaded is not dial          # a fresh object...
        assert reloaded.setting == 42        # ...with the stored state
        # The identity map now serves the new resident.
        assert edb.fetch("dial") is reloaded

    def test_describe_strings(self, edb):
        assert "resident" in edb.active_space.describe()
        assert "stored" in edb.passive_space.describe()


class TestFailedDefinition:
    """A rule defined before its class is registered fails, and leaves
    no ECA-manager behind that would keep later rules on the same event
    from ever hearing it."""

    def _define_fail_register_redefine(self, edb, spec, **options):
        fired = []
        with pytest.raises(TypeRegistrationError):
            edb.rule("early", spec, action=lambda ctx: fired.append("early"),
                     **options)
        edb.register_class(Valve)
        edb.rule("late", spec, action=lambda ctx: fired.append("late"),
                 **options)
        return fired

    def test_method_rule_after_a_failed_definition_fires(self, edb):
        fired = self._define_fail_register_redefine(edb, OPEN)
        with edb.transaction():
            Valve().open()
        assert fired == ["late"]

    def test_composite_rule_after_a_failed_definition_fires(self, edb):
        fired = self._define_fail_register_redefine(
            edb, Sequence(SignalEventSpec("arm"), OPEN),
            coupling=CouplingMode.DEFERRED)
        with edb.transaction():
            edb.signal("arm")
            Valve().open()
        assert fired == ["late"]
