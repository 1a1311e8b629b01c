"""Specialized rule classes (the Section 6.1 derivations)."""

import pytest

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    StateChangeEventSpec,
    sentried,
)
from repro.core.rule_library import (
    AuditRule,
    ConstraintRule,
    ReplicationRule,
    ViewMaintenanceRule,
)
from repro.errors import RuleDefinitionError, TransactionAborted


@sentried
class Account:
    def __init__(self, owner, balance=0):
        self.owner = owner
        self.balance = balance

    def deposit(self, amount):
        self.balance += amount

    def withdraw(self, amount):
        self.balance -= amount


WITHDRAW = MethodEventSpec("Account", "withdraw", param_names=("amount",))
DEPOSIT = MethodEventSpec("Account", "deposit", param_names=("amount",))


@pytest.fixture
def adb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "adb"))
    database.register_class(Account)
    yield database
    database.close()


class TestConstraintRule:
    def test_violation_aborts_at_eot(self, adb):
        adb.register_rule(ConstraintRule(
            "NoOverdraft", WITHDRAW,
            predicate=lambda ctx: ctx["instance"].balance >= 0,
            message="overdraft"))
        account = Account("a", balance=100)
        with adb.transaction():
            adb.persist(account, "a")
        with pytest.raises(TransactionAborted, match="overdraft"):
            with adb.transaction():
                account.withdraw(150)
        assert account.balance == 100  # fully rolled back

    def test_deferred_check_judges_final_state(self, adb):
        """A transient violation repaired before EOT passes."""
        adb.register_rule(ConstraintRule(
            "NoOverdraft", WITHDRAW,
            predicate=lambda ctx: ctx["instance"].balance >= 0))
        account = Account("a", balance=100)
        with adb.transaction():
            adb.persist(account, "a")
        with adb.transaction():
            account.withdraw(150)     # temporarily -50
            account.deposit(60)       # repaired before EOT
        assert account.balance == 10

    def test_immediate_variant_rejects_at_operation(self, adb):
        adb.register_rule(ConstraintRule(
            "NoOverdraftNow", WITHDRAW,
            predicate=lambda ctx: ctx["instance"].balance >= 0,
            coupling=CouplingMode.IMMEDIATE))
        account = Account("a", balance=100)
        with adb.transaction():
            adb.persist(account, "a")
        with pytest.raises(TransactionAborted):
            with adb.transaction():
                account.withdraw(150)
                account.deposit(60)   # too late: immediate check failed

    def test_detached_constraint_rejected(self):
        with pytest.raises(RuleDefinitionError):
            ConstraintRule("bad", WITHDRAW, predicate=lambda ctx: True,
                           coupling=CouplingMode.DETACHED)


class TestViewMaintenanceRule:
    def test_view_tracks_base_data_transactionally(self, adb):
        totals = {"sum": 0}
        adb.register_rule(ViewMaintenanceRule(
            "RunningTotal", DEPOSIT,
            maintain=lambda ctx: totals.__setitem__(
                "sum", totals["sum"] + ctx["amount"])))
        account = Account("a")
        with adb.transaction():
            adb.persist(account, "a")
            account.deposit(10)
            account.deposit(5)
        assert totals["sum"] == 15


class TestReplicationRule:
    def test_replicas_follow_source(self, adb):
        primary = Account("primary", balance=1)
        replica = Account("replica", balance=1)
        with adb.transaction():
            adb.persist(primary, "primary")
            adb.persist(replica, "replica")
        adb.register_rule(ReplicationRule(
            "MirrorBalance", "Account", "balance",
            replicas=lambda ctx: [replica]
            if ctx["instance"] is primary else []))
        with adb.transaction():
            primary.deposit(99)
        assert replica.balance == 100

    def test_replication_rolls_back_with_trigger(self, adb):
        primary = Account("primary", balance=1)
        replica = Account("replica", balance=1)
        with adb.transaction():
            adb.persist(primary, "p2")
            adb.persist(replica, "r2")
        adb.register_rule(ReplicationRule(
            "MirrorBalance2", "Account", "balance",
            replicas=lambda ctx: [replica]
            if ctx["instance"] is primary else []))
        try:
            with adb.transaction():
                primary.deposit(99)
                assert replica.balance == 100
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert primary.balance == 1
        assert replica.balance == 1


class TestAuditRule:
    def test_audit_only_after_commit(self, adb):
        entries = []
        adb.register_rule(AuditRule(
            "Trail", DEPOSIT,
            record=lambda ctx: (ctx["instance"].owner, ctx["amount"]),
            sink=entries.append))
        account = Account("alice")
        with adb.transaction():
            adb.persist(account, "alice")
            account.deposit(10)
            assert entries == []      # nothing before commit
        adb.drain_detached()
        assert entries == [("alice", 10)]

    def test_no_audit_for_aborted_work(self, adb):
        entries = []
        adb.register_rule(AuditRule(
            "Trail", DEPOSIT,
            record=lambda ctx: ctx["amount"], sink=entries.append))
        account = Account("bob")
        with adb.transaction():
            adb.persist(account, "bob")
        try:
            with adb.transaction():
                account.deposit(10)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        adb.drain_detached()
        assert entries == []
