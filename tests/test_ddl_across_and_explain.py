"""The DDL 'across' clause and the ``why`` event debugger."""

import pytest

from repro import CouplingMode, ReachEngine, sentried
from repro.core.algebra import EventScope
from repro.core.rule_language import parse_rules
from repro.errors import RuleParseError
from repro.obs.admin import why


@sentried
class Conveyor:
    def move(self, meters):
        return meters


@pytest.fixture
def cdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "cdb"))
    database.register_class(Conveyor)
    yield database
    database.close()


class TestAcrossClause:
    def test_across_sets_multi_tx_scope(self):
        ddl = """
        rule CrossTx {
            decl Conveyor c;
            event after c.move(m) then signal "done" within 60 across;
            action detached c.move(0);
        };
        """
        parsed = parse_rules(ddl)[0]
        assert parsed.event.resolved_scope() is EventScope.MULTI_TX
        assert parsed.event.validity == 60.0

    def test_across_before_within_also_parses(self):
        ddl = """
        rule CrossTx2 {
            decl Conveyor c;
            event after c.move(m) then signal "done" across within 60;
            action detached c.move(0);
        };
        """
        parsed = parse_rules(ddl)[0]
        assert parsed.event.resolved_scope() is EventScope.MULTI_TX

    def test_across_on_primitive_rejected(self):
        ddl = """
        rule Bad {
            decl Conveyor c;
            event after c.move(m) across;
            action imm c.move(0);
        };
        """
        with pytest.raises(RuleParseError):
            parse_rules(ddl)

    def test_across_rule_composes_across_transactions(self, cdb):
        fired = []
        cdb.define_rules("""
        rule CrossTx {
            decl Conveyor c;
            event after c.move(m) then signal "done" within 600 across;
            action detached c.move(99);
        };
        """)
        rule = cdb.get_rule("CrossTx")
        rule.action = lambda ctx: fired.append(ctx["m"])
        conveyor = Conveyor()
        with cdb.transaction():
            conveyor.move(5)
        with cdb.transaction():
            cdb.signal("done")
        cdb.drain_detached()
        assert fired == [5]


class TestExplainEvent:
    def test_explains_primitive_with_firings(self, cdb):
        cdb.rule("log-move", __import__("repro").MethodEventSpec(
            "Conveyor", "move", param_names=("m",)),
            action=lambda ctx: None)
        with cdb.transaction():
            Conveyor().move(3)
        seq = cdb.history.entries()[-1].seq
        answer = why(cdb, seq)
        assert answer["seq"] == seq
        assert answer["event"] == "after Conveyor.move()"
        assert [(f["rule"], f["outcome"]) for f in answer["firings"]] == \
            [("log-move", "executed")]

    def test_explains_composite_with_components(self, cdb):
        from repro import MethodEventSpec, Sequence, SignalEventSpec
        spec = Sequence(MethodEventSpec("Conveyor", "move"),
                        SignalEventSpec("stop"))
        cdb.rule("combo", spec, action=lambda ctx: None,
                 coupling=CouplingMode.DEFERRED)
        with cdb.transaction():
            Conveyor().move(1)
            cdb.signal("stop")
        composite_manager = cdb.events.composite_managers()[0]
        composite = composite_manager.history.entries()[0]
        answer = why(cdb, composite.seq)
        assert [part["event"] for part in answer["components"]] == \
            ["after Conveyor.move()", "signal 'stop'"]
        assert [f["rule"] for f in answer["firings"]] == ["combo"]

    def test_condition_false_outcome_visible(self, cdb):
        cdb.rule("never", __import__("repro").MethodEventSpec(
            "Conveyor", "move"),
            condition=lambda ctx: False, action=lambda ctx: None)
        with cdb.transaction():
            Conveyor().move(1)
        seq = cdb.history.entries()[-1].seq
        assert [f["outcome"] for f in why(cdb, seq)["firings"]] == \
            ["condition_false"]

    def test_unknown_seq_reports_cleanly(self, cdb):
        assert why(cdb, 10 ** 9) is None
