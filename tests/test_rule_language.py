"""The REACH rule DDL: parsing and compiled-rule behaviour."""

import pytest

from repro import CouplingMode, ReachEngine
from repro.bench.workloads import Reactor, River
from repro.core.algebra import Conjunction, Disjunction, Sequence
from repro.core.events import (
    FlowEventKind,
    FlowEventSpec,
    MethodEventSpec,
    SignalEventSpec,
    StateChangeEventSpec,
)
from repro.core.rule_language import parse_rules
from repro.errors import RuleParseError

WATER_LEVEL_DDL = """
rule WaterLevel {
    prio 5;
    decl River river, Reactor reactor named "BlockA";
    event after river.update_water_level(x);
    cond imm x < 37 and river.get_water_temp() > 24.5
             and reactor.get_heat_output() > 1000000;
    action imm reactor.reduce_planned_power(0.05);
};
"""


class TestParsing:
    def test_water_level_rule_structure(self):
        parsed = parse_rules(WATER_LEVEL_DDL)[0]
        assert parsed.name == "WaterLevel"
        assert parsed.priority == 5
        assert [d.variable for d in parsed.declarations] == \
            ["river", "reactor"]
        assert parsed.declarations[1].persistent_name == "BlockA"
        event = parsed.event
        assert isinstance(event, MethodEventSpec)
        assert event.class_name == "River"
        assert event.method == "update_water_level"
        assert event.param_names == ("x",)
        assert parsed.cond_mode is CouplingMode.IMMEDIATE
        assert parsed.action_mode is CouplingMode.IMMEDIATE

    def test_arrow_syntax_accepted(self):
        ddl = WATER_LEVEL_DDL.replace("river.", "river->") \
                             .replace("reactor.", "reactor->")
        parsed = parse_rules(ddl)[0]
        assert parsed.event.method == "update_water_level"

    def test_multiple_rules(self):
        ddl = """
        rule A { decl River r; event after r.update_water_level(x);
                 action imm r.get_water_temp(); };
        rule B { decl River r; event on change r.level;
                 action deferred r.get_water_temp(); };
        """
        parsed = parse_rules(ddl)
        assert [p.name for p in parsed] == ["A", "B"]
        assert isinstance(parsed[1].event, StateChangeEventSpec)
        assert parsed[1].action_mode is CouplingMode.DEFERRED

    def test_flow_and_signal_events(self):
        ddl = """
        rule OnCommit { event on commit; action detached log.append(1); }
        rule OnSignal { event signal "alarm"; action imm log.append(2); }
        """
        parsed = parse_rules(ddl)
        assert parsed[0].event == FlowEventSpec(FlowEventKind.COMMIT)
        assert parsed[1].event == SignalEventSpec("alarm")

    def test_composite_connectors(self):
        ddl = """
        rule Combo {
            decl River r;
            event after r.update_water_level(x)
                  then after r.update_water_temp(t) within 60;
            action deferred r.get_water_temp();
        };
        """
        parsed = parse_rules(ddl)[0]
        assert isinstance(parsed.event, Sequence)
        assert parsed.event.validity == 60.0

    def test_also_and_else_connectors(self):
        ddl = """
        rule C1 { decl River r;
                  event after r.update_water_level(x)
                        also after r.update_water_temp(t);
                  action deferred r.get_water_temp(); };
        rule C2 { decl River r;
                  event after r.update_water_level(x)
                        else after r.update_water_temp(t);
                  action deferred r.get_water_temp(); };
        """
        parsed = parse_rules(ddl)
        assert isinstance(parsed[0].event, Conjunction)
        assert isinstance(parsed[1].event, Disjunction)

    def test_temporal_events(self):
        ddl = """
        rule T1 { event every 30; action detached log.append(1); }
        rule T2 { event at 120; action detached log.append(2); }
        rule T3 { event milestone "halfway"; action detached log.append(3); }
        """
        parsed = parse_rules(ddl)
        assert parsed[0].event.period == 30.0
        assert parsed[1].event.at == 120.0
        assert parsed[2].event.label == "halfway"

    @pytest.mark.parametrize("bad", [
        "not a rule at all",
        "rule X { }",                                   # no event/action
        "rule X { event after r.m(); };",               # undeclared var
        "rule X { decl River r; event after r.m(); "
        "cond bogus 1 < 2; action imm r.m(); };",       # bad mode
        "rule X { decl River r; event on explode; "
        "action imm r.m(); };",                         # unknown flow
        "",
    ])
    def test_malformed_ddl_rejected(self, bad):
        with pytest.raises(RuleParseError):
            parse_rules(bad)


class TestCompiledBehaviour:
    @pytest.fixture
    def plant_db(self, tmp_path):
        database = ReachEngine(directory=str(tmp_path / "ddl"))
        database.register_class(River)
        database.register_class(Reactor)
        yield database
        database.close()

    def test_paper_rule_end_to_end(self, plant_db):
        """The Section 6.1 WaterLevel rule, verbatim semantics."""
        river = River("Rhein")
        reactor = Reactor("BlockA", planned_power=1000.0)
        with plant_db.transaction():
            plant_db.persist(river, "Rhein")
            plant_db.persist(reactor, "BlockA")
        plant_db.define_rules(WATER_LEVEL_DDL)
        with plant_db.transaction():
            # Not all conditions hold: temp too low.
            river.update_water_level(30)
        assert reactor.planned_power == 1000.0
        with plant_db.transaction():
            river.update_water_temp(25.5)
            reactor.set_heat_output(1_200_000.0)
            river.update_water_level(30)
        assert reactor.planned_power == pytest.approx(950.0)
        assert reactor.power_reductions == 1

    def test_assignment_statement_in_action(self, plant_db):
        ddl = """
        rule Assign {
            decl River river;
            event after river.update_water_level(x);
            cond imm x > 90;
            action imm river.level = 90;
        };
        """
        plant_db.define_rules(ddl)
        river = River("Rhein2")
        with plant_db.transaction():
            plant_db.persist(river, "Rhein2")
            river.update_water_level(95)
        assert river.level == 90

    def test_priority_from_ddl_respected(self, plant_db):
        order = []

        # Mix DDL and programmatic rules on the same event.
        plant_db.rule("low-prio", MethodEventSpec(
            "River", "update_water_level"),
            action=lambda ctx: order.append("low"), priority=1)
        ddl = """
        rule HighPrio {
            prio 9;
            decl River river;
            event after river.update_water_level(x);
            action imm river.get_water_temp();
        };
        """
        plant_db.define_rules(ddl)
        high = plant_db.get_rule("HighPrio")
        original_action = high.action
        high.action = lambda ctx: (order.append("high"),
                                   original_action(ctx))[1]
        river = River("Rhein3")
        with plant_db.transaction():
            plant_db.persist(river, "Rhein3")
            river.update_water_level(10)
        assert order == ["high", "low"]
