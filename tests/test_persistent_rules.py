"""'Rules are objects too': DDL rule definitions stored in the catalog."""

import pytest

from repro import ReachEngine, sentried
from repro.bench.workloads import Reactor, River
from repro.core.events import MethodEventSpec
from repro.core.scheduler import RuleScheduler

DDL = """
rule WaterLevel {
    prio 5;
    decl River river, Reactor reactor named "BlockA";
    event after river.update_water_level(x);
    cond imm x < 37 and river.get_water_temp() > 24.5
             and reactor.get_heat_output() > 1000000;
    action imm reactor.reduce_planned_power(0.05);
};
"""

PING_PONG = ('rule Ping { event signal "ping"; action imm n; }; '
             'rule Pong { event signal "pong"; action imm n; };')


@pytest.fixture
def opener():
    opened = []

    def _open(directory):
        db = ReachEngine(directory=directory)
        db.register_class(River)
        db.register_class(Reactor)
        opened.append(db)
        return db

    yield _open
    for db in opened:
        db.close()


class TestPersistentRules:
    def test_persisted_ddl_survives_restart(self, tmp_path, opener):
        directory = str(tmp_path / "p1")
        db = opener(directory)
        with db.transaction():
            db.persist(River("Rhein"), "Rhein")
            db.persist(Reactor("BlockA"), "BlockA")
        db.define_rules(DDL, persist=True)
        db.close()

        reopened = opener(directory)
        assert reopened.rules() == []
        loaded = reopened.load_persistent_rules()
        assert [rule.name for rule in loaded] == ["WaterLevel"]

        river = reopened.fetch("Rhein")
        reactor = reopened.fetch("BlockA")
        with reopened.transaction():
            river.update_water_temp(25.5)
            reactor.set_heat_output(1_200_000.0)
            river.update_water_level(30)
        assert reactor.power_reductions == 1

    def test_unpersisted_ddl_is_not_stored(self, tmp_path, opener):
        directory = str(tmp_path / "p2")
        db = opener(directory)
        with db.transaction():
            db.persist(Reactor("BlockA"), "BlockA")
        db.define_rules(DDL)      # persist defaults to False
        db.close()
        reopened = opener(directory)
        assert reopened.load_persistent_rules() == []

    def test_loading_twice_is_idempotent(self, tmp_path, opener):
        directory = str(tmp_path / "p3")
        db = opener(directory)
        with db.transaction():
            db.persist(Reactor("BlockA"), "BlockA")
        db.define_rules(DDL, persist=True)
        db.close()
        reopened = opener(directory)
        assert len(reopened.load_persistent_rules()) == 1
        assert reopened.load_persistent_rules() == []
        assert len(reopened.rules()) == 1

    def test_persisting_inside_transaction_waits_for_commit(self, tmp_path,
                                                            opener):
        directory = str(tmp_path / "p4")
        db = opener(directory)
        with db.transaction():
            db.persist(Reactor("BlockA"), "BlockA")
            db.define_rules(DDL, persist=True)
        db.close()
        reopened = opener(directory)
        assert len(reopened.load_persistent_rules()) == 1

    def test_dropped_rule_stays_dropped(self, tmp_path, opener):
        directory = str(tmp_path / "p5")
        db = opener(directory)
        db.define_rules(PING_PONG, persist=True)
        db.drop_rule("Ping")
        db.flush()
        db.close()
        reopened = opener(directory)
        assert [r.name for r in reopened.load_persistent_rules()] == ["Pong"]

    def test_drop_inside_transaction_waits_for_commit(self, tmp_path,
                                                      opener):
        directory = str(tmp_path / "p6")
        db = opener(directory)
        db.define_rules(PING_PONG, persist=True)
        with db.transaction():
            db.drop_rule("Pong")
        db.close()
        reopened = opener(directory)
        assert [r.name for r in reopened.load_persistent_rules()] == ["Ping"]

    def test_multi_rule_block_from_an_older_catalog(self, tmp_path, opener):
        """Catalogs written before rules were dropped one by one hold
        whole DDL blocks; they still load, and dropping one rule keeps
        the block's other rules in their load (definition) order."""
        directory = str(tmp_path / "p7")
        db = opener(directory)
        db.dictionary.add_rule_ddl(PING_PONG)
        db.define_rules('rule Zed { event signal "z"; action imm n; };',
                        persist=True)
        db.close()
        reopened = opener(directory)
        assert [r.name for r in reopened.load_persistent_rules()] == \
            ["Ping", "Pong", "Zed"]
        reopened.drop_rule("Ping")
        reopened.close()
        again = opener(directory)
        assert [r.name for r in again.load_persistent_rules()] == \
            ["Pong", "Zed"]


class TestFiringLogCap:
    def test_log_is_bounded(self, tmp_path, monkeypatch):
        @sentried
        class Clicker:
            def click(self):
                pass

        monkeypatch.setattr(RuleScheduler, "MAX_FIRING_LOG", 50)
        db = ReachEngine(directory=str(tmp_path / "cap"))
        db.register_class(Clicker)
        db.rule("r", MethodEventSpec("Clicker", "click"),
                action=lambda ctx: None)
        clicker = Clicker()
        with db.transaction():
            for __ in range(200):
                clicker.click()
        assert len(db.scheduler.firing_log) == 50
        db.close()
