"""Event histories: local logs, global merge, ordering."""

import threading

from repro.core.events import EventOccurrence, MethodEventSpec
from repro.core.history import CentralHistory, GlobalHistory, LocalHistory

SPEC = MethodEventSpec("C", "m")


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
