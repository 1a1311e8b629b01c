"""Threaded execution mode: async composition, parallel rules, causal
dependencies enforced across real threads."""

import threading
import time

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
from repro.oodb.transactions import TransactionState


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
            # The firing demonstrably had its chance to run too early:
            # it waits on our outcome before we proceed.
            wait_until(lambda: tdb.scheduler.pending_detached_count() >= 1)
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


    def test_open_triggers_do_not_starve_committed_work(self, tmp_path):
        """Work waiting on an undecided trigger holds no pool worker:
        with both workers' worth of causally dependent firings on an open
        trigger, a plain detached firing from a committed transaction
        still runs while the trigger stays open."""
        config = ExecutionConfig(mode=ExecutionMode.THREADED,
                                 worker_threads=2)
        database = ReachEngine(directory=str(tmp_path / "starve"),
                               config=config)
        database.register_class(Turbine)
        fired = []
        ran = threading.Event()
        database.rule("seq", SPIN, action=lambda ctx: fired.append(1),
                      coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
        database.rule("det", SignalEventSpec("ping"),
                      action=lambda ctx: ran.set(),
                      coupling=CouplingMode.DETACHED)

        def committed_signal():
            with database.transaction():
                database.signal("ping")

        try:
            with database.transaction():
                Turbine().spin(1)
                Turbine().spin(2)
                other = threading.Thread(target=committed_signal)
                other.start()
                other.join()
                assert ran.wait(timeout=5.0), (
                    "detached work waited on an unrelated open trigger")
                assert fired == []
            wait_until(lambda: fired == [1, 1])
        finally:
            database.close()

    def test_pending_age_tracks_the_oldest_waiting_item(self, tmp_path):
        config = ExecutionConfig(mode=ExecutionMode.THREADED,
                                 observability=True)
        database = ReachEngine(directory=str(tmp_path / "age"),
                               config=config)
        database.register_class(Turbine)

        def age():
            return database.metrics().snapshot()["gauges"][
                "scheduler.pending_age"]

        fired = []
        database.rule("seq", SPIN, action=lambda ctx: fired.append(1),
                      coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
        try:
            assert age() == 0
            with database.transaction():
                Turbine().spin(1)
                wait_until(lambda: age() > 0)
            wait_until(lambda: fired == [1])
            assert age() == 0
        finally:
            database.close()


    def test_parallel_cd_commits_once_its_trigger_commits(self, tdb):
        """A body that finishes before its trigger decides leaves its
        transaction open; the trigger's commit then commits it."""
        done = threading.Event()
        tdb.rule("par", SPIN, action=lambda ctx: done.set(),
                 coupling=CouplingMode.PARALLEL_CAUSALLY_DEPENDENT)
        with tdb.transaction():
            Turbine().spin(100)
            assert done.wait(timeout=5.0)
            wait_until(lambda: tdb.scheduler.pending_detached_count() == 1)
            assert not any(record.rule_name == "par"
                           for record in tdb.scheduler.firing_log)
        record, = wait_until(lambda: [
            record for record in tdb.scheduler.firing_log
            if record.rule_name == "par"])
        assert record.outcome == "executed"
        assert tdb.tx_manager.outcome_of(record.tx_id) is \
            TransactionState.COMMITTED
        assert tdb.scheduler.pending_detached_count() == 0

    def test_parallel_cd_trigger_aborting_after_the_veto_check(
            self, tdb, monkeypatch):
        """The trigger aborts just after the body's veto check read it
        as open: the rule must still abort, never commit."""
        body_done = threading.Event()
        abort_now = threading.Event()
        aborted = threading.Event()
        scheduler = tdb.scheduler
        vetoed = scheduler._vetoed

        def veto_then_let_the_trigger_abort(work):
            result = vetoed(work)
            if body_done.is_set() and not abort_now.is_set():
                abort_now.set()
                aborted.wait(timeout=5.0)
            return result

        monkeypatch.setattr(scheduler, "_vetoed",
                            veto_then_let_the_trigger_abort)
        tdb.rule("par", SPIN, action=lambda ctx: body_done.set(),
                 coupling=CouplingMode.PARALLEL_CAUSALLY_DEPENDENT)
        try:
            with tdb.transaction():
                Turbine().spin(100)
                # Either the body's veto check is holding, or the body
                # parked its transaction under ours.
                wait_until(lambda: abort_now.is_set()
                           or scheduler.pending_age() > 0)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        aborted.set()
        record, = wait_until(lambda: [
            record for record in scheduler.firing_log
            if record.rule_name == "par"])
        assert record.outcome == "skipped"
        assert tdb.tx_manager.outcome_of(record.tx_id) is \
            TransactionState.ABORTED

    def test_pending_count_covers_work_running_in_the_pool(self, tdb):
        running = threading.Event()
        release = threading.Event()

        def action(ctx):
            running.set()
            release.wait(timeout=5.0)

        tdb.rule("det", SPIN, action=action, coupling=CouplingMode.DETACHED)
        with tdb.transaction():
            Turbine().spin(100)
        assert running.wait(timeout=5.0)
        assert tdb.scheduler.pending_detached_count() == 1
        release.set()
        wait_until(lambda: tdb.scheduler.pending_detached_count() == 0)
        assert [record.outcome for record in tdb.scheduler.firing_log] == \
            ["executed"]


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

    def test_wait_covers_the_item_being_composed(self, tdb):
        """The wait ends when the worker has finished the last item, not
        when it has taken it off the queue."""
        finished = []

        def slow_listener(occ):
            time.sleep(0.2)
            finished.append(occ.seq)

        tdb.events.primitive_manager(SignalEventSpec("slow")) \
            .add_listener(slow_listener)
        with tdb.transaction():
            tdb.signal("slow")
        tdb.wait_for_composition()
        assert len(finished) == 1


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
