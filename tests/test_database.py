"""ReachEngine integration: composites, milestones, signals, history."""

import pytest

from repro import (
    AbsoluteEventSpec,
    Conjunction,
    CouplingMode,
    EventScope,
    FlowEventKind,
    FlowEventSpec,
    MethodEventSpec,
    MilestoneEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    StateChangeEventSpec,
    sentried,
)
from repro.errors import (
    LockError,
    RuleDefinitionError,
    TypeRegistrationError,
    UnsupportedCouplingError,
)
from repro.oodb.locks import LockMode


@sentried
class Pump:
    def __init__(self):
        self.rpm = 0
        self.alerts = []

    def set_rpm(self, rpm):
        self.rpm = rpm

    def alert(self, text):
        self.alerts.append(text)


SET_RPM = MethodEventSpec("Pump", "set_rpm", param_names=("rpm",))


@pytest.fixture
def pdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "pdb"))
    database.register_class(Pump)
    yield database
    database.close()


class TestRuleRegistry:
    def test_duplicate_rule_name_rejected(self, pdb):
        pdb.rule("r", SET_RPM, action=lambda ctx: None)
        with pytest.raises(RuleDefinitionError):
            pdb.rule("r", SET_RPM, action=lambda ctx: None)

    def test_drop_rule_stops_firing(self, pdb):
        fired = []
        pdb.rule("r", SET_RPM, action=lambda ctx: fired.append(1))
        pdb.drop_rule("r")
        with pdb.transaction():
            Pump().set_rpm(10)
        assert fired == []

    def test_disabled_rule_does_not_fire(self, pdb):
        fired = []
        rule = pdb.rule("r", SET_RPM, action=lambda ctx: fired.append(1))
        rule.disable()
        with pdb.transaction():
            Pump().set_rpm(10)
        assert fired == []

    def test_composite_deferred_is_allowed_immediate_is_not(self, pdb):
        composite = Sequence(SET_RPM, SignalEventSpec("s"))
        pdb.rule("ok", composite, action=lambda ctx: None,
                 coupling=CouplingMode.DEFERRED)
        with pytest.raises(UnsupportedCouplingError):
            pdb.rule("bad", composite, action=lambda ctx: None,
                     coupling=CouplingMode.IMMEDIATE)

    def test_table1_checked_for_action_coupling_too(self, pdb):
        composite = Sequence(SET_RPM, SignalEventSpec("s2"))
        with pytest.raises(UnsupportedCouplingError):
            # Immediate condition on a composite is already invalid even
            # though the action is deferred.
            pdb.rule("bad-split", composite, action=lambda ctx: None,
                     cond_coupling=CouplingMode.IMMEDIATE,
                     action_coupling=CouplingMode.DEFERRED)

    def test_temporal_rule_must_be_detached(self, pdb):
        with pytest.raises(UnsupportedCouplingError):
            pdb.rule("t", AbsoluteEventSpec(5.0),
                     action=lambda ctx: None,
                     coupling=CouplingMode.IMMEDIATE)
        pdb.rule("t-ok", AbsoluteEventSpec(5.0),
                 action=lambda ctx: None,
                 coupling=CouplingMode.DETACHED)


class TestParameterBindings:
    def test_event_parameters_reach_condition_and_action(self, pdb):
        seen = []
        pdb.rule("r", SET_RPM,
                 condition=lambda ctx: ctx["rpm"] > 100,
                 action=lambda ctx: seen.append(
                     (ctx["rpm"], ctx["instance"])))
        pump = Pump()
        with pdb.transaction():
            pump.set_rpm(50)
            pump.set_rpm(150)
        assert seen == [(150, pump)]

    def test_detached_rule_gets_persistent_reference(self, pdb):
        """Section 3.2: persistent references pass through unchanged."""
        seen = []
        pdb.rule("r", SET_RPM, action=lambda ctx: seen.append(
            ctx["instance"]), coupling=CouplingMode.DETACHED)
        pump = Pump()
        with pdb.transaction():
            pdb.persist(pump, "P")
            pump.set_rpm(5)
        assert seen[0] is pump

    def test_detached_rule_gets_transient_copy(self, pdb):
        """Section 3.2: transient objects pass by value."""
        seen = []
        pdb.rule("r", SET_RPM, action=lambda ctx: seen.append(
            ctx["instance"]), coupling=CouplingMode.DETACHED)
        pump = Pump()  # never persisted
        with pdb.transaction():
            pump.set_rpm(5)
        copy_of_pump = seen[0]
        assert copy_of_pump is not pump
        assert copy_of_pump.rpm == 5


class TestStateChangeRules:
    def test_attribute_rule_fires(self, pdb):
        seen = []
        pdb.rule("watch", StateChangeEventSpec("Pump", "rpm"),
                 action=lambda ctx: seen.append(
                     (ctx["old_value"], ctx["new_value"])))
        pump = Pump()
        with pdb.transaction():
            pump.rpm = 7
        assert (0, 7) in seen

    def test_wildcard_attribute_rule(self, pdb):
        seen = []
        pdb.rule("watch-all", StateChangeEventSpec("Pump", None),
                 action=lambda ctx: seen.append(ctx["attribute"]))
        pump = Pump()
        with pdb.transaction():
            pump.rpm = 7
            pump.other = 1
        assert "rpm" in seen and "other" in seen


class TestStateChangeDetection:
    """State-change occurrences come from the sentry's state point, after
    the Change PM's receiver has locked the object and recorded undo."""

    RPM = StateChangeEventSpec("Pump", "rpm")

    def test_immediate_rule_sees_undo_record_and_dirty_mark(self, pdb):
        pump = Pump()
        with pdb.transaction():
            pdb.persist(pump)
        seen = []
        with pdb.transaction() as tx:
            pdb.rule("watch", self.RPM, action=lambda ctx: seen.append(
                (len(tx.undo_log), pump in tx.dirty_objects)),
                coupling=CouplingMode.IMMEDIATE)
            pump.rpm = 7
        assert seen == [(1, True)]

    def test_failed_write_lock_detects_nothing(self, pdb):
        pump = Pump()
        pump.rpm = 3
        with pdb.transaction():
            oid = pdb.persist(pump)
        fired = []
        pdb.rule("watch", self.RPM, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.IMMEDIATE)
        manager = pdb.events.primitive_manager(self.RPM)
        other_family = 10 ** 9
        pdb.locks.timeout = 0.05
        pdb.locks.acquire(other_family, oid, LockMode.EXCLUSIVE)
        try:
            with pytest.raises(LockError):
                with pdb.transaction():
                    pump.rpm = 9
        finally:
            pdb.locks.release_all(other_family)
        assert pump.rpm == 3
        assert manager.handled == 0
        assert fired == []

    def test_rule_on_unregistered_class_fails_at_definition(self, pdb):
        with pytest.raises(TypeRegistrationError):
            pdb.rule("ghost", StateChangeEventSpec("Ghost", "level"),
                     action=lambda ctx: None)

    def test_rule_on_unmonitored_class_fires(self, pdb):
        @sentried
        class Tank:
            def __init__(self):
                self.level = 0

        pdb.register_class(Tank, monitor_state=False)
        seen = []
        pdb.rule("tank", StateChangeEventSpec("Tank", "level"),
                 action=lambda ctx: seen.append(ctx["new_value"]))
        tank = Tank()
        with pdb.transaction() as tx:
            tank.level = 5
            # No Change PM receiver: no undo record for the write.
            assert tx.undo_log == []
        assert seen == [0, 5]     # the constructor's write, then ours


class TestFlowRules:
    def test_commit_rule_fires_for_user_transactions_only(self, pdb):
        seen = []
        pdb.rule("on-commit", FlowEventSpec(FlowEventKind.COMMIT),
                 action=lambda ctx: seen.append(ctx["tx"].id),
                 coupling=CouplingMode.DETACHED)
        with pdb.transaction() as tx:
            pass
        assert seen == [tx.id]

    def test_persist_rule(self, pdb):
        seen = []
        pdb.rule("on-persist", FlowEventSpec(FlowEventKind.PERSIST),
                 action=lambda ctx: seen.append(ctx["name"]),
                 coupling=CouplingMode.DEFERRED)
        with pdb.transaction():
            pdb.persist(Pump(), "Px")
        assert seen == ["Px"]

    def test_delete_rule(self, pdb):
        """The capability the O2-style persistence model could not give."""
        seen = []
        pdb.rule("on-delete", FlowEventSpec(FlowEventKind.DELETE),
                 action=lambda ctx: seen.append(ctx["oid"]))
        pump = Pump()
        with pdb.transaction():
            oid = pdb.persist(pump, "P")
        with pdb.transaction():
            pdb.delete(pump)
        assert seen == [oid]


class TestCompositeRules:
    def test_cross_transaction_composite(self, pdb):
        fired = []
        spec = Conjunction(SET_RPM, SignalEventSpec("confirm")) \
            .scoped(EventScope.MULTI_TX).within(1000)
        pdb.rule("combo", spec, action=lambda ctx: fired.append(
            sorted(ctx.event.tx_ids)), coupling=CouplingMode.DETACHED)
        with pdb.transaction() as tx1:
            Pump().set_rpm(9)
        with pdb.transaction() as tx2:
            pdb.signal("confirm")
        assert fired == [[tx1.id, tx2.id]]

    def test_multi_tx_detached_causal_requires_all_commit(self, pdb):
        fired = []
        spec = Conjunction(SET_RPM, SignalEventSpec("confirm")) \
            .scoped(EventScope.MULTI_TX).within(1000)
        pdb.rule("combo", spec, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
        with pdb.transaction():
            Pump().set_rpm(9)
        try:
            with pdb.transaction():
                pdb.signal("confirm")
                raise RuntimeError("abort the second origin")
        except RuntimeError:
            pass
        pdb.drain_detached()
        assert fired == []  # one origin aborted: all-commit not satisfied
        assert pdb.scheduler.stats["detached_skipped"] == 1

    def test_composite_lifespan_ends_with_transaction(self, pdb):
        fired = []
        spec = Sequence(SET_RPM, SignalEventSpec("go"))
        pdb.rule("combo", spec, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DEFERRED)
        with pdb.transaction():
            Pump().set_rpm(9)
        # The partial composition died with the first transaction.
        with pdb.transaction():
            pdb.signal("go")
        assert fired == []
        assert pdb.events.pending_semi_composed() == 0


class TestSignalsAndMilestones:
    def test_signal_fires_rule(self, pdb):
        seen = []
        pdb.rule("sig", SignalEventSpec("alarm"),
                 action=lambda ctx: seen.append(ctx["severity"]))
        with pdb.transaction():
            pdb.signal("alarm", severity=3)
        assert seen == [3]

    def test_missed_milestone_triggers_contingency(self, pdb):
        fired = []
        pdb.rule("contingency", MilestoneEventSpec("halfway"),
                 action=lambda ctx: fired.append(ctx["label"]),
                 coupling=CouplingMode.DETACHED)
        tx = pdb.tx_manager.begin()
        pdb.set_milestone("halfway", at=pdb.clock.now() + 10)
        pdb.clock.advance(20)       # deadline passes, tx still running
        pdb.tx_manager.commit(tx)
        pdb.drain_detached()
        assert fired == ["halfway"]

    def test_reached_milestone_stays_silent(self, pdb):
        fired = []
        pdb.rule("contingency", MilestoneEventSpec("halfway"),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        tx = pdb.tx_manager.begin()
        pdb.set_milestone("halfway", at=pdb.clock.now() + 10)
        pdb.tx_manager.commit(tx)   # finishes before the deadline
        pdb.clock.advance(20)
        pdb.drain_detached()
        assert fired == []


class TestHistoryIntegration:
    def test_global_history_merges_after_commit(self, pdb):
        pdb.rule("r", SET_RPM, action=lambda ctx: None)
        with pdb.transaction() as tx:
            Pump().set_rpm(1)
            Pump().set_rpm(2)
        entries = [occ for occ in pdb.history.entries()
                   if tx.id in occ.tx_ids]
        assert len(entries) == 2
        assert [e.seq for e in entries] == sorted(e.seq for e in entries)

    def test_architecture_inventory_lists_figure1_modules(self, pdb):
        inventory = pdb.architecture_inventory()
        managers = " ".join(inventory["policy_managers"])
        assert "Persistence PM" in managers
        assert "Transaction PM" in managers
        assert "Rule PM" in managers
        assert "Indexing PM" in managers
        assert "Query PM" in managers
        support = " ".join(inventory["support_modules"])
        assert "data-dictionary" in support
        assert "ASM" in support
