"""Failure injection: system invariants under randomly failing rules.

Rules written by applications will throw.  Whatever they do, the system
must keep its invariants: user transactions survive non-critical rule
failures, every failure is recorded, no transaction leaks, every lock is
released, semi-composed state is bounded, and persistent state remains
exactly the committed state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    sentried,
)


@sentried
class Machine:
    def __init__(self):
        self.counter = 0

    def tick(self, n):
        self.counter += n


TICK = MethodEventSpec("Machine", "tick", param_names=("n",))

MODES = [CouplingMode.IMMEDIATE, CouplingMode.DEFERRED,
         CouplingMode.DETACHED,
         CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT,
         CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT]


class FlakyError(RuntimeError):
    pass


def _build_db(tmp_path, seed, rule_count):
    rng = random.Random(seed)
    db = ReachEngine(directory=str(tmp_path))
    db.register_class(Machine)
    for index in range(rule_count):
        mode = rng.choice(MODES)
        fail_rate = rng.choice([0.0, 0.3, 1.0])

        def action(ctx, __rate=fail_rate, __rng=rng):
            if __rng.random() < __rate:
                raise FlakyError("injected")

        db.rule(f"flaky-{index}", TICK, action=action, coupling=mode)
    return db


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_invariants_hold_under_flaky_rules(tmp_path, seed):
    db = _build_db(tmp_path / f"f{seed}", seed, rule_count=6)
    rng = random.Random(seed + 100)
    machine = Machine()
    committed = 0
    with db.transaction():
        db.persist(machine, "m")

    for round_index in range(30):
        abort = rng.random() < 0.3
        try:
            with db.transaction():
                machine.tick(1)
                if abort:
                    raise ValueError("user abort")
            committed += 1
        except ValueError:
            pass
    db.drain_detached()

    # 1. User transactions survived non-critical rule failures.
    assert machine.counter == committed
    # 2. No transaction is left active anywhere.
    assert db.tx_manager.current() is None
    stats = db.tx_manager.stats
    assert stats["begun"] == stats["committed"] + stats["aborted"]
    # 3. Every lock is released.
    assert db.locks.locks_held_by(0) == []
    oid = db.persistence.oid_of(machine)
    assert db.locks.holders_of(oid) == {}
    # 4. Failures were recorded, and every recorded failure is ours.
    assert all(isinstance(exc, (FlakyError,)) or "injected" in str(exc)
               for __, exc in db.scheduler.errors)
    # 5. Nothing semi-composed leaks (no composites registered at all).
    assert db.events.pending_semi_composed() == 0
    # 6. The durable state equals the in-memory committed state.
    directory = db.directory
    db.close()
    reopened = ReachEngine(directory=directory)
    reopened.register_class(Machine)
    assert reopened.fetch("m").counter == committed
    reopened.close()


def test_failing_condition_counts_as_error_not_firing(tmp_path):
    db = ReachEngine(directory=str(tmp_path / "c"))
    db.register_class(Machine)
    db.rule("bad-cond", TICK,
            condition=lambda ctx: 1 / 0,
            action=lambda ctx: None)
    machine = Machine()
    with db.transaction():
        machine.tick(1)
    assert len(db.scheduler.errors) == 1
    rule = db.get_rule("bad-cond")
    assert rule.fired_count == 0
    outcomes = [r.outcome for r in db.scheduler.firing_log]
    assert outcomes == ["error"]
    db.close()


def test_error_in_one_rule_does_not_starve_others(tmp_path):
    db = ReachEngine(directory=str(tmp_path / "s"))
    db.register_class(Machine)
    fired = []

    def explode(ctx):
        raise FlakyError("boom")

    db.rule("first-bad", TICK, action=explode, priority=9)
    db.rule("second-good", TICK, action=lambda ctx: fired.append(1),
            priority=1)
    with db.transaction():
        Machine().tick(1)
    assert fired == [1]
    assert len(db.scheduler.errors) == 1
    db.close()


def test_failing_detached_rule_leaves_no_live_transaction(tmp_path):
    db = ReachEngine(directory=str(tmp_path / "d"))
    db.register_class(Machine)

    def explode(ctx):
        raise FlakyError("detached boom")

    db.rule("det-bad", TICK, action=explode,
            coupling=CouplingMode.DETACHED)
    with db.transaction():
        Machine().tick(1)
    db.drain_detached()
    stats = db.tx_manager.stats
    assert stats["begun"] == stats["committed"] + stats["aborted"]
    assert db.scheduler.pending_detached_count() == 0
    db.close()
