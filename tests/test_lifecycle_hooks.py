"""The compiled transaction lifecycle.

The transaction manager runs, at each of BOT, EOT, commit and abort, a
tuple of the hooks that currently have work to do.  These tests pin the
recompilation points: plugging and unplugging a policy manager, defining
and dropping a rule, linking a mediator after boot, and the outcome
signal that releases waiting detached work.
"""

from __future__ import annotations

import sys
import threading

import pytest

from tests.conftest import wait_until

from repro import (
    CouplingMode,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.core.events import FlowEventKind, FlowEventSpec
from repro.core.sharding import ShardedEngine
from repro.errors import TransactionAborted
from repro.config import ShardingConfig
from repro.mediator import link_events
from repro.oodb.locks import LockManager
from repro.oodb.meta import MetaArchitecture, PolicyManager, SystemEventKind
from repro.oodb.transactions import TransactionManager

TX_KINDS = (SystemEventKind.TX_BEGIN, SystemEventKind.TX_PRE_COMMIT,
            SystemEventKind.TX_COMMIT, SystemEventKind.TX_ABORT)


@sentried
class Valve:
    def __init__(self):
        self.opening = 0

    def turn(self, opening):
        self.opening = opening
        return opening


TURN = MethodEventSpec("Valve", "turn", param_names=("opening",))


class FlowProbe(PolicyManager):
    name = "Flow probe PM"
    subscribed_kinds = TX_KINDS

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_event(self, event):
        self.seen.append(event.kind)


def _tx_bus_events(engine):
    counts = engine.meta.event_counts
    return sum(counts.get(kind, 0) for kind in TX_KINDS)


class TestBusSubscribers:
    def test_probe_plugged_mid_run_sees_the_lifecycle(self, db):
        for __ in range(100):
            with db.transaction():
                pass
        probe = db.meta.plug(FlowProbe())
        with db.transaction():
            pass
        tx = db.tx_manager.begin()
        db.tx_manager.abort(tx)
        assert probe.seen == [SystemEventKind.TX_BEGIN,
                              SystemEventKind.TX_PRE_COMMIT,
                              SystemEventKind.TX_COMMIT,
                              SystemEventKind.TX_BEGIN,
                              SystemEventKind.TX_ABORT]
        db.meta.unplug(probe)
        with db.transaction():
            pass
        tx = db.tx_manager.begin()
        db.tx_manager.abort(tx)
        assert len(probe.seen) == 5

    def test_nested_transactions_reach_the_probe(self, db):
        probe = db.meta.plug(FlowProbe())
        with db.transaction():
            with db.transaction():
                pass
        assert probe.seen == [SystemEventKind.TX_BEGIN,
                              SystemEventKind.TX_BEGIN,
                              SystemEventKind.TX_PRE_COMMIT,
                              SystemEventKind.TX_COMMIT,
                              SystemEventKind.TX_PRE_COMMIT,
                              SystemEventKind.TX_COMMIT]

    def test_unwatched_transactions_raise_no_bus_events(self, db):
        """A detached rule's own transaction costs no bus event while no
        flow-event rule and no subscriber exists."""
        db.register_class(Valve)
        db.rule("det", TURN, action=lambda ctx: None,
                coupling=CouplingMode.DETACHED)
        with db.transaction():
            Valve().turn(3)
        db.drain_detached()
        assert db.scheduler.stats["detached_run"] == 1
        assert db.tx_manager.stats["committed"] >= 2
        assert _tx_bus_events(db) == 0
        probe = db.meta.plug(FlowProbe())
        with db.transaction():
            Valve().turn(4)
        db.drain_detached()
        # One user and one detached transaction, three events each.
        assert _tx_bus_events(db) == 6
        assert len(probe.seen) == 6


class TestLockFreeCounters:
    def test_concurrent_lifecycles_lose_no_count(self):
        """The transaction ledger and the bus counts take no lock: four
        threads (more than the two cores) on a tiny switch interval must
        still lose no increment."""
        meta = MetaArchitecture()
        tm = TransactionManager(meta, LockManager())
        probe = meta.plug(FlowProbe())
        threads, per_thread = 4, 500
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for index in range(per_thread):
                    tx = tm.begin(nested=False)
                    if index % 5:
                        tm.commit(tx)
                    else:
                        tm.abort(tx)

            workers = [threading.Thread(target=work)
                       for __ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        aborted = threads * (per_thread // 5)
        assert tm.stats.snapshot() == {"begun": total,
                                       "committed": total - aborted,
                                       "aborted": aborted}
        counts = meta.event_counts
        assert counts[SystemEventKind.TX_BEGIN] == total
        assert counts[SystemEventKind.TX_COMMIT] == total - aborted
        assert counts[SystemEventKind.TX_ABORT] == aborted
        assert len(probe.seen) == 3 * total - aborted


class TestFlowRules:
    def test_commit_rule_defined_mid_run_fires_until_dropped(self, db):
        for __ in range(10):
            with db.transaction():
                pass
        seen = []
        db.rule("on-commit", FlowEventSpec(FlowEventKind.COMMIT),
                action=lambda ctx: seen.append(ctx["tx"].id),
                coupling=CouplingMode.DETACHED)
        with db.transaction() as tx:
            pass
        db.drain_detached()
        assert seen == [tx.id]
        db.drop_rule("on-commit")
        with db.transaction():
            pass
        db.drain_detached()
        assert seen == [tx.id]

    def test_every_flow_kind_fires_for_user_transactions_only(self, db):
        """BOT, EOT, Commit and Abort rules see each user transaction's
        lifecycle in order, and not the detached transactions that their
        own firings run in."""
        seen = []
        for kind in (FlowEventKind.BOT, FlowEventKind.EOT,
                     FlowEventKind.COMMIT, FlowEventKind.ABORT):
            db.rule(f"on-{kind.value}", FlowEventSpec(kind),
                    action=lambda ctx, kind=kind: seen.append(
                        (kind, ctx["tx"].id)),
                    coupling=CouplingMode.DETACHED)
        with db.transaction() as committed:
            pass
        aborted = db.tx_manager.begin()
        db.tx_manager.abort(aborted)
        db.drain_detached()
        assert seen == [(FlowEventKind.BOT, committed.id),
                        (FlowEventKind.EOT, committed.id),
                        (FlowEventKind.COMMIT, committed.id),
                        (FlowEventKind.BOT, aborted.id),
                        (FlowEventKind.ABORT, aborted.id)]


    def test_a_raising_commit_rule_still_releases_detached_work(self, db):
        """The outcome signal comes even when a critical Commit rule
        fails the hook that carries it."""
        db.register_class(Valve)
        ran = []
        db.rule("det", TURN, action=lambda ctx: ran.append(1),
                coupling=CouplingMode.DETACHED)

        def fail(ctx):
            raise RuntimeError("commit rule failed")

        db.rule("crit", FlowEventSpec(FlowEventKind.COMMIT),
                action=fail).critical = True
        with pytest.raises(TransactionAborted):
            with db.transaction():
                Valve().turn(1)
        assert ran == [1]
        assert db.scheduler.pending_detached_count() == 0


class TestRegisteredHooks:
    def test_mediator_linked_after_boot_runs_on_commit_and_abort(
            self, tmp_path):
        source = ReachEngine(directory=str(tmp_path / "source"))
        mediator = ReachEngine(directory=str(tmp_path / "mediator"))
        try:
            source.register_class(Valve)
            with source.transaction():
                pass
            link = link_events(source, mediator, TURN, "valve-turn",
                               forward_committed_only=True)
            listener = source.events.primitive_manager(TURN).listeners[-1]
            buffered = next(cell.cell_contents
                            for cell in listener.__closure__
                            if isinstance(cell.cell_contents, dict))
            valve = Valve()
            try:
                with source.transaction():
                    valve.turn(9)
                    assert len(buffered) == 1
                    raise RuntimeError("abort")
            except RuntimeError:
                pass
            assert buffered == {}  # the abort hook dropped the buffer
            with source.transaction():
                valve.turn(2)
                assert link.forwarded == 0
            assert link.forwarded == 1  # the post-commit hook delivered
            link.close()
            with source.transaction():
                valve.turn(5)
            assert link.forwarded == 1
        finally:
            source.close()
            mediator.close()

    def test_sequential_cd_released_by_a_waited_on_commit(self, tmp_path):
        config = ExecutionConfig(mode=ExecutionMode.THREADED,
                                 worker_threads=2)
        engine = ReachEngine(directory=str(tmp_path / "threaded"),
                             config=config)
        try:
            engine.register_class(Valve)
            fired = []
            engine.rule("seq", TURN, action=lambda ctx: fired.append(1),
                        coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)
            with engine.transaction():
                Valve().turn(1)
                wait_until(
                    lambda: engine.scheduler.pending_detached_count() >= 1)
                assert fired == []
            wait_until(lambda: fired == [1])
            wait_until(
                lambda: engine.scheduler.pending_detached_count() == 0)
        finally:
            engine.close()


class TestSignalSpecs:
    def test_occurrences_of_a_signal_share_one_spec(self, db):
        specs = []
        db.rule("on-a", SignalEventSpec("a"),
                action=lambda ctx: specs.append(ctx.event.spec))
        with db.transaction():
            db.signal("a")
            db.signal("a")
        assert len(specs) == 2
        assert specs[0] is specs[1]
        assert specs[0] == SignalEventSpec("a")

    def test_sharded_signals_share_the_home_shard_spec(self, tmp_path):
        engine = ShardedEngine(
            str(tmp_path / "sharded"),
            config=ExecutionConfig(sharding=ShardingConfig(shards=2)))
        try:
            specs = []
            engine.rule("on-a", SignalEventSpec("a"),
                        action=lambda ctx: specs.append(ctx.event.spec),
                        coupling=CouplingMode.DETACHED)
            engine.signal("a")
            engine.signal("a")
            engine.drain_detached()
            assert len(specs) == 2
            assert specs[0] is specs[1]
        finally:
            engine.close()
