"""End-to-end durability: the active database across restarts, crashes,
and checkpoints; rule effects must be exactly as durable as their
triggering transactions."""

import pytest

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    sentried,
)


@sentried
class Ledger:
    def __init__(self, name):
        self.name = name
        self.total = 0
        self.entries = []

    def add(self, amount):
        self.total += amount
        self.entries.append(amount)


ADD = MethodEventSpec("Ledger", "add", param_names=("amount",))


@pytest.fixture
def opener():
    """Opens databases and guarantees they close even on test failure
    (a leaked database leaves live sentry subscriptions behind)."""
    opened = []

    def _open(directory):
        db = ReachEngine(directory=directory)
        db.register_class(Ledger)
        opened.append(db)
        return db

    yield _open
    for db in opened:
        db.close()


class TestRestartDurability:
    def test_rule_effects_are_durable(self, tmp_path, opener):
        directory = str(tmp_path / "d1")
        db = opener(directory)
        mirror = Ledger("mirror")
        primary = Ledger("primary")
        db.rule("mirror-adds", ADD,
                condition=lambda ctx: ctx["instance"] is primary,
                action=lambda ctx: mirror.add(ctx["amount"]))
        with db.transaction():
            db.persist(primary, "primary")
            db.persist(mirror, "mirror")
            primary.add(10)
            primary.add(5)
        db.close()

        reopened = opener(directory)
        assert reopened.fetch("primary").total == 15
        assert reopened.fetch("mirror").total == 15
        reopened.close()

    def test_aborted_rule_effects_are_not_durable(self, tmp_path, opener):
        directory = str(tmp_path / "d2")
        db = opener(directory)
        ledger = Ledger("main")
        with db.transaction():
            db.persist(ledger, "main")
        db.rule("double", ADD,
                condition=lambda ctx: ctx["amount"] < 100,
                action=lambda ctx: ctx["instance"].add(
                    ctx["amount"] + 100))
        try:
            with db.transaction():
                ledger.add(10)        # rule adds another 110 (once: the
                assert ledger.total == 120  # cascaded add fails the cond)
                raise RuntimeError("abort everything")
        except RuntimeError:
            pass
        db.close()

        reopened = opener(directory)
        assert reopened.fetch("main").total == 0
        reopened.close()

    def test_checkpoint_then_reopen(self, tmp_path, opener):
        directory = str(tmp_path / "d3")
        db = opener(directory)
        ledger = Ledger("cp")
        with db.transaction():
            db.persist(ledger, "cp")
            ledger.add(7)
        db.checkpoint()
        db.close()
        reopened = opener(directory)
        assert reopened.fetch("cp").total == 7
        reopened.close()

    def test_many_transactions_accumulate(self, tmp_path, opener):
        directory = str(tmp_path / "d4")
        db = opener(directory)
        ledger = Ledger("acc")
        with db.transaction():
            db.persist(ledger, "acc")
        for amount in range(1, 21):
            with db.transaction():
                ledger.add(amount)
        db.close()
        reopened = opener(directory)
        restored = reopened.fetch("acc")
        assert restored.total == sum(range(1, 21))
        assert restored.entries == list(range(1, 21))
        reopened.close()

    def test_crash_recovery_preserves_committed_rule_state(self, tmp_path, opener):
        directory = str(tmp_path / "d5")
        db = opener(directory)
        audit = Ledger("audit")
        source = Ledger("source")
        db.rule("audit-adds", ADD,
                condition=lambda ctx: ctx["instance"] is source,
                action=lambda ctx: audit.add(1))
        with db.transaction():
            db.persist(source, "source")
            db.persist(audit, "audit")
            source.add(5)
        db.storage.crash()            # volatile page cache gone
        db.close()

        reopened = opener(directory)
        assert reopened.fetch("source").total == 5
        assert reopened.fetch("audit").total == 1
        reopened.close()

    def test_rules_must_be_reregistered_after_restart(self, tmp_path, opener):
        """Rules are code; the catalog persists data.  After reopen the
        rule set is empty until the application defines it again — and
        then it fires on the recovered objects."""
        directory = str(tmp_path / "d6")
        db = opener(directory)
        ledger = Ledger("rr")
        with db.transaction():
            db.persist(ledger, "rr")
        db.close()

        reopened = opener(directory)
        assert reopened.rules() == []
        fired = []
        reopened.rule("on-add", ADD, action=lambda ctx: fired.append(1))
        restored = reopened.fetch("rr")
        with reopened.transaction():
            restored.add(1)
        assert fired == [1]
        reopened.close()


class TestDeleteDurability:
    def test_deleted_object_stays_deleted_after_crash(self, tmp_path, opener):
        directory = str(tmp_path / "d7")
        db = opener(directory)
        ledger = Ledger("gone")
        with db.transaction():
            db.persist(ledger, "gone")
        with db.transaction():
            db.delete(ledger)
        db.storage.crash()
        db.close()
        reopened = opener(directory)
        from repro.errors import ObjectNotFoundError
        with pytest.raises(ObjectNotFoundError):
            reopened.fetch("gone")
        reopened.close()

    def test_second_generation_objects_reuse_nothing(self, tmp_path, opener):
        directory = str(tmp_path / "d8")
        db = opener(directory)
        first = Ledger("first")
        with db.transaction():
            first_oid = db.persist(first, "first")
        with db.transaction():
            db.delete(first)
        db.close()
        reopened = opener(directory)
        second = Ledger("second")
        with reopened.transaction():
            second_oid = reopened.persist(second, "second")
        assert second_oid != first_oid   # OIDs are never reissued
        reopened.close()
