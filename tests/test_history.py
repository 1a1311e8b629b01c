"""Event histories: local logs, global merge, ordering."""

import threading

from repro import ExecutionConfig, ReachEngine
from repro.core.events import EventOccurrence, MethodEventSpec, SignalEventSpec
from repro.core.history import CentralHistory, GlobalHistory, LocalHistory

SPEC = MethodEventSpec("C", "m")
PING = SignalEventSpec("ping")


def occ(timestamp, tx=None):
    return EventOccurrence(
        SPEC, SPEC.category(), timestamp,
        tx_ids=frozenset({tx}) if tx is not None else frozenset())


class TestLocalHistory:
    def test_records_in_order(self):
        history = LocalHistory("h")
        first, second = occ(1.0), occ(2.0)
        history.record(first)
        history.record(second)
        assert history.entries() == [first, second]
        assert history.recorded == 2

    def test_capacity_bound(self):
        history = LocalHistory("h", capacity=3)
        occurrences = [occ(float(i)) for i in range(6)]
        for entry in occurrences:
            history.record(entry)
        assert history.entries() == occurrences[-3:]
        assert history.recorded == 6

    def test_clear(self):
        history = LocalHistory("h")
        history.record(occ(1.0))
        history.clear()
        assert len(history) == 0


class TestGlobalHistory:
    def test_merge_by_transaction(self):
        global_history = GlobalHistory()
        local_a = LocalHistory("a")
        local_b = LocalHistory("b")
        global_history.attach_source(local_a)
        global_history.attach_source(local_b)
        in_tx1_a = occ(1.0, tx=1)
        in_tx2 = occ(2.0, tx=2)
        in_tx1_b = occ(3.0, tx=1)
        local_a.record(in_tx1_a)
        local_a.record(in_tx2)
        local_b.record(in_tx1_b)
        global_history.merge_transaction(1)
        assert global_history.drain() == 2
        assert set(global_history.entries()) == {in_tx1_a, in_tx1_b}

    def test_merge_is_idempotent(self):
        global_history = GlobalHistory()
        local = LocalHistory("a")
        global_history.attach_source(local)
        local.record(occ(1.0, tx=1))
        global_history.merge_transaction(1)
        assert global_history.drain() == 1
        global_history.merge_transaction(1)
        assert global_history.drain() == 0
        assert len(global_history) == 1

    def test_global_order_is_by_sequence(self):
        global_history = GlobalHistory()
        local_a = LocalHistory("a")
        local_b = LocalHistory("b")
        global_history.attach_source(local_a)
        global_history.attach_source(local_b)
        first = occ(1.0, tx=1)
        second = occ(2.0, tx=1)
        # Recorded out of order across managers.
        local_b.record(second)
        local_a.record(first)
        global_history.merge_transaction(1)
        seqs = [entry.seq for entry in global_history.entries()]
        assert seqs == sorted(seqs)

    def test_transactionless_merge(self):
        global_history = GlobalHistory()
        local = LocalHistory("a")
        global_history.attach_source(local)
        temporal = occ(5.0, tx=None)
        local.record(temporal)
        global_history.merge_transaction(1)
        assert global_history.drain() == 0
        global_history.merge_transactionless()
        assert global_history.drain() == 1

    def test_iter_transaction_view(self):
        global_history = GlobalHistory()
        local = LocalHistory("a")
        global_history.attach_source(local)
        mine = occ(1.0, tx=1)
        other = occ(2.0, tx=2)
        local.record(mine)
        local.record(other)
        global_history.merge_all()
        assert list(global_history.iter_transaction(1)) == [mine]

    def test_detach_source(self):
        global_history = GlobalHistory()
        local = LocalHistory("a")
        global_history.attach_source(local)
        global_history.detach_source(local)
        local.record(occ(1.0, tx=1))
        assert global_history.merge_all() == 0


class TestConcurrency:
    def test_parallel_local_recording_is_safe(self):
        """The distributed design's point: managers record concurrently
        without a shared lock; the merge still sees everything."""
        global_history = GlobalHistory()
        locals_ = [LocalHistory(f"m{i}") for i in range(4)]
        for local in locals_:
            global_history.attach_source(local)

        def recorder(local):
            for i in range(200):
                local.record(occ(float(i), tx=1))

        threads = [threading.Thread(target=recorder, args=(local,))
                   for local in locals_]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        global_history.merge_transaction(1)
        assert global_history.drain() == 800

    def test_central_history_is_equivalent_functionally(self):
        central = CentralHistory()
        entries = [occ(float(i), tx=1) for i in range(10)]
        for entry in entries:
            central.record(entry)
        assert central.entries() == entries


def _bounded_engine(tmp_path, name, capacity=64):
    engine = ReachEngine(directory=str(tmp_path / name),
                         config=ExecutionConfig(history_capacity=capacity))
    engine.rule("seen", PING, action=lambda ctx: None)
    return engine


class TestBoundedHistories:
    """``history_capacity`` is the exact number of occurrences each
    manager keeps, and the global history is a view over those."""

    def test_capacity_is_exact_under_concurrent_sessions(self, tmp_path):
        engine = _bounded_engine(tmp_path, "cap")
        try:
            sessions = [engine.create_session(f"s{i}") for i in range(8)]

            def client(session):
                for i in range(50):
                    with session.transaction():
                        session.signal("ping", i=i)

            threads = [threading.Thread(target=client, args=(session,))
                       for session in sessions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            history = engine.events.primitive_manager(PING).history
            assert history.recorded == 400
            assert len(history) == 64
            seqs = [entry.seq for entry in history.entries()]
            assert len(set(seqs)) == 64
            assert len(engine.history.entries()) == 64
        finally:
            engine.close()

    def test_entries_do_not_depend_on_read_frequency(self, tmp_path):
        def run(name, read_every_commit):
            engine = _bounded_engine(tmp_path, name)
            try:
                for i in range(400):
                    with engine.transaction():
                        engine.signal("ping", i=i)
                    if read_every_commit:
                        engine.history.entries()
                return [entry.parameters["i"]
                        for entry in engine.history.entries()]
            finally:
                engine.close()

        unread = run("unread", read_every_commit=False)
        polled = run("polled", read_every_commit=True)
        assert unread == polled == list(range(336, 400))

    def test_prune_racing_a_recorder_loses_nothing(self):
        global_history = GlobalHistory()
        local = LocalHistory("m")
        global_history.attach_source(local)
        for i in range(64):
            local.record(occ(float(i), tx=1))
        global_history.merge_transaction(1)
        fresh = [occ(float(i), tx=2) for i in range(5000)]
        cutoff = fresh[0].seq

        def recorder():
            for entry in fresh:
                local.record(entry)

        thread = threading.Thread(target=recorder)
        thread.start()
        dropped = 0
        while thread.is_alive():
            dropped += global_history.prune_before(cutoff)
        thread.join()
        dropped += global_history.prune_before(cutoff)
        assert dropped == 64
        assert local.recorded == 64 + 5000
        assert local.entries() == fresh
        global_history.merge_transaction(2)
        assert global_history.entries() == fresh
