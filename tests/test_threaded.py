"""Threaded execution mode: async composition, parallel rules, causal
dependencies enforced across real threads."""

import threading

import pytest

from tests.conftest import wait_until

from repro import (
    Conjunction,
    CouplingMode,
    EventScope,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    sentried,
)


@sentried
class Turbine:
    def __init__(self):
        self.rpm = 0

    def spin(self, rpm):
        self.rpm = rpm


SPIN = MethodEventSpec("Turbine", "spin")


@pytest.fixture
def tdb(tmp_path):
    config = ExecutionConfig(mode=ExecutionMode.THREADED, worker_threads=4)
    database = ReachEngine(directory=str(tmp_path / "tdb"), config=config)
    database.register_class(Turbine)
    yield database
    database.close()


class TestDetachedThreaded:
    def test_detached_rule_runs_on_worker_thread(self, tdb):
        seen = []
        main = threading.current_thread().name
        tdb.rule("det", SPIN,
                 action=lambda ctx: seen.append(
                     threading.current_thread().name),
                 coupling=CouplingMode.DETACHED)
        with tdb.transaction():
            Turbine().spin(100)
        wait_until(lambda: len(seen) == 1)
        assert seen[0] != main

    def test_sequential_cd_waits_for_commit(self, tdb):
        events = []
        tdb.rule("seq", SPIN,
                 action=lambda ctx: events.append("rule"),
                 coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
        with tdb.transaction():
            Turbine().spin(100)
            # The worker demonstrably had its chance to run too early:
            # it is parked awaiting our outcome before we proceed.
            wait_until(lambda: tdb.tx_manager.outcome_waiters() >= 1)
            events.append("still-in-tx")
        wait_until(lambda: "rule" in events)
        assert events.index("still-in-tx") < events.index("rule")

    def test_sequential_cd_skipped_on_abort(self, tdb):
        fired = []
        tdb.rule("seq", SPIN, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
        try:
            with tdb.transaction():
                Turbine().spin(100)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        wait_until(lambda: tdb.scheduler.stats["detached_skipped"] == 1)
        assert fired == []

    def test_exclusive_cd_runs_on_abort_only(self, tdb):
        fired = []
        tdb.rule("exc", SPIN, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT)
        try:
            with tdb.transaction():
                Turbine().spin(100)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        wait_until(lambda: fired == [1])

    def test_parallel_cd_aborts_with_trigger(self, tdb):
        """The parallel rule may start early but must not commit if the
        trigger aborts."""
        started = threading.Event()

        def action(ctx):
            started.set()

        tdb.rule("par", SPIN, action=action,
                 coupling=CouplingMode.PARALLEL_CAUSALLY_DEPENDENT)
        try:
            with tdb.transaction():
                Turbine().spin(100)
                started.wait(timeout=5.0)  # rule body ran in parallel
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        wait_until(lambda: any(record.outcome == "skipped"
                               for record in tdb.scheduler.firing_log))


class TestAsyncComposition:
    def test_composition_happens_off_the_caller(self, tdb):
        fired = []
        spec = Sequence(SPIN, SignalEventSpec("check"))
        tdb.rule("combo", spec, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DEFERRED)
        with tdb.transaction():
            Turbine().spin(5)
            tdb.wait_for_composition()
            tdb.signal("check")
            tdb.wait_for_composition()
            # The composite is recognised; wait for the deferred firing
            # to land on this transaction's queue instead of sleeping.
            wait_until(
                lambda: tdb.scheduler.stats["deferred_enqueued"] >= 1)
        wait_until(lambda: fired == [1])

    def test_cross_transaction_composite_threaded(self, tdb):
        fired = []
        spec = Conjunction(SPIN, SignalEventSpec("ok")) \
            .scoped(EventScope.MULTI_TX).within(1000)
        tdb.rule("combo", spec, action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DETACHED)
        with tdb.transaction():
            Turbine().spin(5)
        with tdb.transaction():
            tdb.signal("ok")
        tdb.wait_for_composition()
        wait_until(lambda: fired == [1])


class TestParallelRules:
    def test_parallel_siblings_share_the_trigger_family(self, tmp_path):
        config = ExecutionConfig(mode=ExecutionMode.THREADED,
                                 parallel_rules=True, worker_threads=4)
        database = ReachEngine(directory=str(tmp_path / "par"),
                               config=config)
        database.register_class(Turbine)
        families = []
        threads = set()
        barrier = threading.Barrier(3, timeout=5.0)

        def action(ctx):
            barrier.wait()  # proves the three rules really overlap
            families.append(ctx.transaction.family_id)
            threads.add(threading.current_thread().name)

        for index in range(3):
            database.rule(f"p{index}", SPIN, action=action)
        with database.transaction() as tx:
            Turbine().spin(1)
            trigger_family = tx.family_id
        database.close()
        assert families == [trigger_family] * 3
        assert len(threads) == 3
        assert database.scheduler.stats["parallel_batches"] == 1

    def test_sequential_mapping_without_flag(self, tdb):
        """Without parallel_rules the set maps to an ordered sequence."""
        order = []
        for index in range(3):
            tdb.rule(f"s{index}", SPIN, priority=10 - index,
                     action=lambda ctx, i=index: order.append(i))
        with tdb.transaction():
            Turbine().spin(1)
        assert order == [0, 1, 2]
        assert tdb.scheduler.stats["parallel_batches"] == 0
