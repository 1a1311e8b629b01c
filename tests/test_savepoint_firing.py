"""Sequential rule firing at savepoints: closed-nested semantics, no
subtransaction.

Immediate and deferred rules that run on the thread owning the
triggering transaction fire at a savepoint of it.  A rollback to the
savepoint must undo exactly what aborting a subtransaction begun there
would undo — the rule's writes, new objects and their dirty marks — and
nothing more: deferred work the rule queued stays queued.  Parallel
sibling rules, firings with no enclosing transaction and detached rules
keep transactions of their own.

The fault-schedule tests drive rollbacks from the ``locks.acquire`` and
``composer.dispatch`` fault points under ``REPRO_FAULT_SEED``; their
assertions are invariants that hold for any seed.
"""

import os
import threading

import pytest

from repro import (
    CouplingMode,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    sentried,
)
from repro.errors import LockError, TransactionAborted
from repro.faults.registry import COMPOSER_DISPATCH, LOCK_ACQUIRE

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


@sentried
class Meter:
    def __init__(self):
        self.value = 0
        self.label = ""

    def bump(self, amount=1):
        self.value += amount


@sentried
class Tally:
    def __init__(self):
        self.count = 0
        self.flag = 0


@sentried
class Receipt:
    def __init__(self, serial):
        self.serial = serial


BUMP = MethodEventSpec("Meter", "bump")


def open_db(path, **config):
    db = ReachEngine(directory=str(path),
                     config=ExecutionConfig(**config) if config else None)
    for cls in (Meter, Tally, Receipt):
        db.register_class(cls)
    return db


def fail(ctx):
    raise ValueError("rule bug")


def begun(db):
    return db.statistics()["transactions"]["begun"]


@pytest.fixture
def db(tmp_path):
    database = open_db(tmp_path / "sp")
    yield database
    database.close()


def persisted(db, **objects):
    with db.transaction():
        for name, obj in objects.items():
            db.persist(obj, name)
    return objects.values()


class TestRollbackUndoesTheRuleOnly:
    @pytest.mark.parametrize("coupling", [CouplingMode.IMMEDIATE,
                                          CouplingMode.DEFERRED])
    def test_failing_rule_undoes_its_writes_trigger_commits(
            self, tmp_path, coupling):
        path = tmp_path / coupling.value
        db = open_db(path)
        meter, tally = persisted(db, meter=Meter(), tally=Tally())

        def write_then_fail(ctx):
            tally.flag = 99
            fail(ctx)

        db.rule("bad", BUMP, action=write_then_fail, coupling=coupling)
        with db.transaction():
            meter.label = "before"
            meter.bump(5)
            meter.label = "after"
        assert (meter.value, meter.label, tally.flag) == (5, "after", 0)
        assert len(db.scheduler.errors) == 1
        db.close()

        reopened = open_db(path)
        stored_meter = reopened.fetch("meter")
        assert (stored_meter.value, stored_meter.label) == (5, "after")
        assert reopened.fetch("tally").flag == 0
        reopened.close()

    def test_new_object_of_failed_rule_is_not_flushed(self, tmp_path):
        path = tmp_path / "new"
        db = open_db(path)
        (meter,) = persisted(db, meter=Meter())
        receipts = []

        def persist_then_fail(ctx):
            receipt = Receipt(1)
            receipts.append(receipt)
            ctx.db.persist(receipt, "receipt")
            fail(ctx)

        db.rule("bad", BUMP, action=persist_then_fail)
        serialized = []
        original = db.persistence._serialize_object

        def spy(obj):
            serialized.append(obj)
            return original(obj)

        db.persistence._serialize_object = spy
        with db.transaction() as tx:
            meter.bump()
            assert receipts[0] not in tx.dirty_objects
            assert db.persistence.oid_of(receipts[0]) is None
        assert receipts[0] not in serialized
        assert meter in serialized
        db.close()

        reopened = open_db(path)
        assert "receipt" not in reopened.dictionary.names()
        assert reopened.fetch("meter").value == 1
        reopened.close()

    def test_deferred_work_of_failed_immediate_rule_still_runs(self, db):
        ran = []
        db.rule("later", SignalEventSpec("later"),
                action=lambda ctx: ran.append("later"),
                coupling=CouplingMode.DEFERRED)

        def queue_then_fail(ctx):
            ctx.db.signal("later")
            fail(ctx)

        db.rule("bad", BUMP, action=queue_then_fail)
        with db.transaction():
            Meter().bump()
            assert ran == []
        assert ran == ["later"]
        assert len(db.scheduler.errors) == 1


class TestNestingInsideASavepoint:
    @pytest.mark.parametrize("coupling", [CouplingMode.IMMEDIATE,
                                          CouplingMode.DEFERRED])
    def test_action_may_open_its_own_transaction(self, db, coupling):
        (tally,) = persisted(db, tally=Tally())

        def nested(ctx):
            with ctx.db.transaction() as inner:
                assert inner.parent is ctx.transaction
                tally.count += 1

        db.rule("nested", BUMP, action=nested, coupling=coupling)
        with db.transaction():
            Meter().bump()
        assert tally.count == 1
        assert list(db.scheduler.errors) == []

    def test_failure_after_nested_commit_undoes_it(self, db):
        (tally,) = persisted(db, tally=Tally())

        def nested_then_fail(ctx):
            with ctx.db.transaction():
                tally.count += 1
            fail(ctx)

        db.rule("bad", BUMP, action=nested_then_fail)
        with db.transaction():
            Meter().bump()
        assert tally.count == 0


class TestCascadesAndCriticalRules:
    def test_recursion_limit_stops_cascade_at_same_depth(self, tmp_path):
        db = open_db(tmp_path / "rec", max_rule_recursion=5)
        db.rule("loop", BUMP, action=lambda ctx: ctx["instance"].bump())
        meter = Meter()
        with db.transaction():
            meter.bump()
        executed = [r for r in db.scheduler.firing_log
                    if r.outcome == "executed"]
        assert len(executed) == 5
        assert meter.value == 6
        assert db.scheduler.stats["recursion_limited"] == 1
        db.close()

    @pytest.mark.parametrize("coupling", [CouplingMode.IMMEDIATE,
                                          CouplingMode.DEFERRED])
    def test_critical_failure_aborts_the_trigger(self, db, coupling):
        meter, tally = persisted(db, meter=Meter(), tally=Tally())
        db.rule("crit", BUMP, action=fail, coupling=coupling,
                critical=True)
        with pytest.raises(TransactionAborted):
            with db.transaction():
                tally.count = 7
                meter.bump()
        assert (meter.value, tally.count) == (0, 0)


class TestTransactionCount:
    def test_sequential_rules_begin_no_transaction(self, db):
        for index in range(2):
            db.rule(f"imm{index}", BUMP, action=lambda ctx: None)
            db.rule(f"def{index}", BUMP, action=lambda ctx: None,
                    coupling=CouplingMode.DEFERRED)
        before = begun(db)
        with db.transaction():
            Meter().bump()
        assert begun(db) - before == 1
        assert db.scheduler.stats["immediate"] == 2
        assert db.scheduler.stats["deferred_run"] == 2

    def test_each_detached_firing_begins_one(self, db):
        db.rule("imm", BUMP, action=lambda ctx: None)
        db.rule("det", BUMP, action=lambda ctx: None,
                coupling=CouplingMode.DETACHED)
        before = begun(db)
        with db.transaction():
            for __ in range(3):
                Meter().bump()
        assert begun(db) - before == 1 + 3
        assert db.scheduler.stats["detached_run"] == 3

    def test_parallel_siblings_keep_their_own_subtransactions(
            self, tmp_path):
        db = open_db(tmp_path / "par", mode=ExecutionMode.THREADED,
                     parallel_rules=True)
        seen = []
        lock = threading.Lock()

        def record(ctx):
            with lock:
                seen.append(ctx.transaction)

        db.rule("p1", BUMP, action=record)
        db.rule("p2", BUMP, action=record)
        before = begun(db)
        try:
            with db.transaction() as trigger:
                Meter().bump()
            assert len(seen) == 2
            assert seen[0] is not seen[1]
            assert all(tx.parent is trigger for tx in seen)
            assert begun(db) - before == 1 + 2
        finally:
            db.close()


class TestRollbackUnderFaultSchedules:
    """Rule writes that fail at an injected fault roll back to their
    savepoint; what commits matches the firings that succeeded."""

    BUMPS = 40

    def _run(self, path, arm, action_tail):
        db = open_db(path, fault_injection=True, fault_seed=FAULT_SEED)
        (tally,) = persisted(db, tally=Tally())
        serial = iter(range(10_000))

        def record(ctx):
            number = next(serial)
            ctx.db.persist(Receipt(number), f"receipt-{number}")
            tally.count += 1
            action_tail(ctx)

        db.rule("record", BUMP, action=record)
        arm(db)
        meter = Meter()             # transient: the trigger takes no locks
        with db.transaction():
            for __ in range(self.BUMPS):
                meter.bump()
        outcomes = [r.outcome for r in db.scheduler.firing_log
                    if r.rule_name == "record"]
        executed = outcomes.count("executed")
        assert executed + outcomes.count("error") == self.BUMPS
        assert 0 < executed < self.BUMPS
        assert tally.count == executed
        db.close()

        reopened = open_db(path)
        receipts = [name for name in reopened.dictionary.names()
                    if name.startswith("receipt-")]
        assert len(receipts) == executed
        assert reopened.fetch("tally").count == executed
        reopened.close()

    def test_lock_acquire_faults(self, tmp_path):
        self._run(tmp_path / "locks",
                  lambda db: db.faults.arm(
                      LOCK_ACQUIRE, probability=0.3, times=None,
                      exc=LockError("injected lock failure")),
                  lambda ctx: None)

    def test_composer_dispatch_faults(self, tmp_path):
        leg = SignalEventSpec("leg")

        def arm(db):
            # A composite on the leg gives the signal a composer
            # listener, so every leg a rule raises passes the fault point.
            db.rule("pairs", Sequence(leg, leg), action=lambda ctx: None,
                    coupling=CouplingMode.DETACHED)
            db.faults.arm(COMPOSER_DISPATCH, probability=0.3, times=None)

        self._run(tmp_path / "dispatch", arm,
                  lambda ctx: ctx.db.signal("leg"))
