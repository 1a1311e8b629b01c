"""Extension features: OQL conditions, lock transfer, binding carry-over,
automatic write locking, the operator's rule view."""

import threading
import time

import pytest

from repro import (
    CouplingMode,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
    sentried,
)
from repro.errors import RuleDefinitionError
from repro.obs.admin import slow_rules


@sentried
class Tank:
    def __init__(self, name, volume=0):
        self.name = name
        self.volume = volume

    def fill(self, amount):
        self.volume += amount

    def drain(self):
        self.volume = 0


FILL = MethodEventSpec("Tank", "fill", param_names=("amount",))


@pytest.fixture
def xdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "xdb"))
    database.register_class(Tank)
    yield database
    database.close()


class TestConditionQuery:
    """Section 7: combining ECA-rule descriptions with OQL."""

    def test_query_condition_gates_the_action(self, xdb):
        fired = []
        xdb.rule("overfull", FILL,
                 condition_query="select t from Tank t "
                                 "where t.volume > 100",
                 action=lambda ctx: fired.append(len(ctx["matched"])),
                 coupling=CouplingMode.DEFERRED)
        tanks = [Tank(f"t{i}") for i in range(3)]
        with xdb.transaction():
            for tank in tanks:
                xdb.persist(tank, tank.name)
        with xdb.transaction():
            tanks[0].fill(10)          # nothing overfull yet
        assert fired == []
        with xdb.transaction():
            tanks[1].fill(150)
            tanks[2].fill(200)
        # One firing per triggering event; at EOT both evaluations see
        # the two overfull tanks.
        assert fired == [2, 2]

    def test_event_parameters_usable_in_query(self, xdb):
        fired = []
        xdb.rule("bigger-than-amount", FILL,
                 condition_query="select t from Tank t "
                                 "where t.volume > amount",
                 action=lambda ctx: fired.append(
                     sorted(t.name for t in ctx["matched"])))
        big = Tank("big", volume=500)
        with xdb.transaction():
            xdb.persist(big, "big")
            xdb.persist(Tank("small", volume=1), "small")
        with xdb.transaction():
            big.fill(10)   # amount=10: both tanks now > 10? small is 1
        assert fired == [["big"]]

    def test_condition_and_query_are_exclusive(self, xdb):
        with pytest.raises(RuleDefinitionError):
            xdb.rule("both", FILL,
                     condition=lambda ctx: True,
                     condition_query="select t from Tank t",
                     action=lambda ctx: None)


class TestBindingCarryOver:
    """The paper's Cond function 'reorganizes the argument list' for the
    action; split-coupling rules must carry condition bindings forward."""

    def test_immediate_condition_feeds_deferred_action(self, xdb):
        received = []

        def condition(ctx):
            ctx.bindings["computed"] = ctx["amount"] * 2
            return True

        xdb.rule("carry", FILL, condition=condition,
                 action=lambda ctx: received.append(ctx["computed"]),
                 cond_coupling=CouplingMode.IMMEDIATE,
                 action_coupling=CouplingMode.DEFERRED)
        with xdb.transaction():
            Tank("t").fill(21)
        assert received == [42]

    def test_query_rows_reach_detached_action(self, xdb):
        received = []
        xdb.rule("carry-matched", FILL,
                 condition_query="select t.name from Tank t "
                                 "where t.volume >= 0",
                 action=lambda ctx: received.append(sorted(ctx["matched"])),
                 cond_coupling=CouplingMode.IMMEDIATE,
                 action_coupling=CouplingMode.DETACHED)
        with xdb.transaction():
            xdb.persist(Tank("a"), "a")
            Tank("transient").fill(1)
        xdb.drain_detached()
        assert received == [["a"]]


class TestAutomaticWriteLocks:
    def test_writes_take_exclusive_locks(self, xdb):
        tank = Tank("locked")
        with xdb.transaction() as tx:
            oid = xdb.persist(tank, "locked")
            tank.fill(5)
            holders = xdb.locks.holders_of(oid)
            assert tx.family_id in holders
        assert xdb.locks.holders_of(oid) == {}  # released at commit

    def test_concurrent_increments_are_serialized(self, tmp_path):
        config = ExecutionConfig(mode=ExecutionMode.THREADED)
        db = ReachEngine(directory=str(tmp_path / "conc"), config=config)
        db.register_class(Tank)
        tank = Tank("shared")
        with db.transaction():
            db.persist(tank, "shared")
        errors = []

        def worker():
            try:
                for __ in range(20):
                    with db.transaction():
                        current = tank.volume
                        time.sleep(0.0005)   # widen the race window
                        tank.volume = current + 1
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        db.close()
        assert errors == []
        # Lost updates are possible here because the read is unlocked —
        # but writes were serialized, so the counter must be consistent
        # with *some* serial order and never corrupted below a single
        # worker's count.
        assert tank.volume >= 20
        assert tank.volume <= 80


class TestLockTransfer:
    """Section 4: exclusive causally dependent mode transfers resources
    from the aborting trigger to the contingency transaction."""

    def test_contingency_inherits_triggers_locks(self, xdb):
        tank = Tank("critical")
        with xdb.transaction():
            oid = xdb.persist(tank, "critical")
        observed = {}

        def contingency(ctx):
            observed["holders"] = xdb.locks.holders_of(oid)
            observed["family"] = ctx.transaction.family_id

        xdb.rule("contingency", FILL, action=contingency,
                 coupling=CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT,
                 transfer_locks=True)
        try:
            with xdb.transaction():
                tank.fill(1)          # takes the X lock on the tank
                raise RuntimeError("trigger aborts")
        except RuntimeError:
            pass
        xdb.drain_detached()
        assert observed["family"] in observed["holders"]
        # And the lock is gone once the contingency finished.
        assert xdb.locks.holders_of(oid) == {}

    def test_reservation_dropped_when_trigger_commits(self, xdb):
        tank = Tank("fine")
        with xdb.transaction():
            oid = xdb.persist(tank, "fine")
        xdb.rule("contingency", FILL, action=lambda ctx: None,
                 coupling=CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT,
                 transfer_locks=True)
        with xdb.transaction():
            tank.fill(1)
        xdb.drain_detached()
        assert xdb.locks.holders_of(oid) == {}
        assert xdb.scheduler._lock_reservations == {}


class TestManagementTooling:
    """The rule columns of the admin ``/slow-rules`` rows."""

    def test_describe_rules_shows_split_coupling(self, xdb):
        xdb.rule("split", FILL, action=lambda ctx: None,
                 cond_coupling=CouplingMode.IMMEDIATE,
                 action_coupling=CouplingMode.DEFERRED)
        (row,) = [row for row in slow_rules(xdb) if row["rule"] == "split"]
        assert row["coupling"] == "immediate / deferred"
