"""Concurrency stress: the threaded database under parallel clients.

The paper commits to multi-threaded execution (Section 5: "the use of
multiple threads ... for event composition and rule firing in the active
DBMS is essential").  These tests drive the threaded configuration with
concurrent client threads and check exactness properties:

* every detected event is counted exactly once across threads;
* per-object rule effects serialize correctly under the write locks;
* cross-transaction composites see every component exactly once;
* transaction bookkeeping balances under heavy parallel commit/abort.
"""

import threading
import time

import pytest

from repro import (
    ConsumptionPolicy,
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

CLIENTS = 4
ROUNDS = 25
#: the acceptance bar for the engine/session split.
SESSIONS = 16
SESSION_ROUNDS = 5


@sentried
class Counter:
    def __init__(self, name):
        self.name = name
        self.hits = 0

    def hit(self):
        self.hits += 1
        return self.hits


HIT = MethodEventSpec("Counter", "hit")


@pytest.fixture
def sdb(tmp_path):
    config = ExecutionConfig(mode=ExecutionMode.THREADED, worker_threads=4)
    database = ReachEngine(directory=str(tmp_path / "sdb"),
                           config=config)
    database.register_class(Counter)
    yield database
    database.close()


def _run_clients(work):
    errors = []

    def client(index):
        try:
            work(index)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestEventExactness:
    def test_every_event_detected_once(self, sdb):
        counters = [Counter(f"c{i}") for i in range(CLIENTS)]
        with sdb.transaction():
            for counter in counters:
                sdb.persist(counter, counter.name)
        fired = []
        fired_lock = threading.Lock()

        def action(ctx):
            with fired_lock:
                fired.append(ctx["instance"].name)

        sdb.rule("count", HIT, action=action,
                 coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)

        def work(index):
            counter = counters[index]
            for __ in range(ROUNDS):
                with sdb.transaction():
                    counter.hit()

        errors = _run_clients(work)
        assert errors == []
        deadline = time.monotonic() + 10
        while len(fired) < CLIENTS * ROUNDS and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(fired) == CLIENTS * ROUNDS
        for index in range(CLIENTS):
            assert fired.count(f"c{index}") == ROUNDS

    def test_disjoint_objects_commit_in_parallel(self, sdb):
        counters = [Counter(f"d{i}") for i in range(CLIENTS)]
        with sdb.transaction():
            for counter in counters:
                sdb.persist(counter, counter.name)

        def work(index):
            counter = counters[index]
            for __ in range(ROUNDS):
                with sdb.transaction():
                    counter.hit()

        errors = _run_clients(work)
        assert errors == []
        assert all(counter.hits == ROUNDS for counter in counters)
        stats = sdb.tx_manager.stats
        assert stats["begun"] == stats["committed"] + stats["aborted"]

    def test_shared_object_serializes_with_explicit_lock(self, sdb):
        """Read-modify-write on a shared object: taking the X lock
        *before* reading (classic 2PL usage via ``tx_manager.lock``)
        makes concurrent increments exact.  (The automatic write lock
        alone is acquired at write time, so an unlocked read could be
        stale — the usual locking discipline applies.)"""
        shared = Counter("shared")
        with sdb.transaction():
            oid = sdb.persist(shared, "shared")

        def work(index):
            for __ in range(ROUNDS):
                with sdb.transaction():
                    sdb.tx_manager.lock(oid)   # lock before reading
                    shared.hit()

        errors = _run_clients(work)
        assert errors == []
        assert shared.hits == CLIENTS * ROUNDS


class TestCompositeExactness:
    def test_multi_tx_chronicle_pairs_every_component_once(self, sdb):
        spec = Sequence(HIT, SignalEventSpec("flush")) \
            .scoped(EventScope.MULTI_TX).within(10_000.0) \
            .consumed(ConsumptionPolicy.CHRONICLE)
        fired = []
        fired_lock = threading.Lock()

        def action(ctx):
            with fired_lock:
                fired.append(ctx.event.seq)

        sdb.rule("pair", spec, action=action,
                 coupling=CouplingMode.DETACHED)
        counters = [Counter(f"m{i}") for i in range(CLIENTS)]
        with sdb.transaction():
            for counter in counters:
                sdb.persist(counter, counter.name)

        def work(index):
            for __ in range(ROUNDS):
                with sdb.transaction():
                    counters[index].hit()

        errors = _run_clients(work)
        assert errors == []
        sdb.wait_for_composition()
        # One flush per buffered hit: every initiator pairs exactly once.
        for __ in range(CLIENTS * ROUNDS):
            with sdb.transaction():
                sdb.signal("flush")
        sdb.wait_for_composition()
        deadline = time.monotonic() + 10
        while len(fired) < CLIENTS * ROUNDS and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(fired) == CLIENTS * ROUNDS
        assert len(set(fired)) == CLIENTS * ROUNDS   # all distinct

    def test_history_complete_under_concurrency(self, sdb):
        sdb.rule("observe", HIT, action=lambda ctx: None,
                 coupling=CouplingMode.DETACHED)
        counters = [Counter(f"h{i}") for i in range(CLIENTS)]
        with sdb.transaction():
            for counter in counters:
                sdb.persist(counter, counter.name)

        def work(index):
            for __ in range(ROUNDS):
                with sdb.transaction():
                    counters[index].hit()

        errors = _run_clients(work)
        assert errors == []
        sdb.history.merge_all()
        hit_events = [occ for occ in sdb.history.entries()
                      if occ.spec_key == HIT.key()]
        assert len(hit_events) == CLIENTS * ROUNDS
        seqs = [occ.seq for occ in hit_events]
        assert seqs == sorted(seqs)


class TestMultiSessionIsolation:
    """The engine/session acceptance bar: 16 concurrent sessions over one
    engine, each committing transactions that trigger immediate, deferred
    and detached rules, with zero cross-session state bleed."""

    def _add_rules(self, owner):
        owner.rule("imm", HIT, action=lambda ctx: None,
                   coupling=CouplingMode.IMMEDIATE)
        owner.rule("defer", HIT, action=lambda ctx: None,
                   coupling=CouplingMode.DEFERRED)
        owner.rule("det", HIT, action=lambda ctx: None,
                   coupling=CouplingMode.DETACHED)

    def _assert_no_bleed(self, sessions, counters):
        expected = SESSION_ROUNDS
        for session, counter in zip(sessions, counters):
            # Effects: only this session's transactions touched its object.
            assert counter.hits == expected
            # Attribution: this session's firing-log slice holds exactly
            # its own firings, one per rule per transaction.
            records = session.firing_log()
            by_rule = {}
            for record in records:
                assert record.session_id == session.id
                assert record.outcome == "executed"
                by_rule.setdefault(record.rule_name, []).append(record)
            assert len(by_rule["imm"]) == expected
            assert len(by_rule["defer"]) == expected
            assert len(by_rule["det"]) == expected

    def test_sixteen_sessions_synchronous(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "eng-sync"))
        try:
            engine.register_class(Counter)
            self._add_rules(engine)
            sessions = [engine.create_session(f"client-{i}")
                        for i in range(SESSIONS)]
            counters = [Counter(f"s{i}") for i in range(SESSIONS)]
            for session, counter in zip(sessions, counters):
                with session.transaction():
                    session.persist(counter, counter.name)
            # Interleave: every session commits one transaction per round.
            for __ in range(SESSION_ROUNDS):
                for session, counter in zip(sessions, counters):
                    with session.transaction():
                        counter.hit()
            engine.drain_detached()
            self._assert_no_bleed(sessions, counters)
        finally:
            engine.close()

    def test_sixteen_sessions_threaded(self, tmp_path):
        config = ExecutionConfig(mode=ExecutionMode.THREADED,
                                 worker_threads=4)
        engine = ReachEngine(directory=str(tmp_path / "eng-thr"),
                             config=config)
        try:
            engine.register_class(Counter)
            self._add_rules(engine)
            sessions = [engine.create_session(f"client-{i}")
                        for i in range(SESSIONS)]
            counters = [Counter(f"t{i}") for i in range(SESSIONS)]
            for session, counter in zip(sessions, counters):
                with session.transaction():
                    session.persist(counter, counter.name)
            errors = []

            def client(session, counter):
                try:
                    for __ in range(SESSION_ROUNDS):
                        with session.transaction():
                            counter.hit()
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=pair)
                       for pair in zip(sessions, counters)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            # Detached firings land asynchronously on the worker pool.
            expected = SESSIONS * SESSION_ROUNDS
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                detached = [r for r in engine.scheduler.firing_log
                            if r.rule_name == "det"
                            and r.outcome == "executed"]
                if len(detached) >= expected:
                    break
                time.sleep(0.01)
            self._assert_no_bleed(sessions, counters)
            stats = engine.tx_manager.stats
            assert stats["begun"] == stats["committed"] + stats["aborted"]
        finally:
            engine.close()

    def test_session_transactions_do_not_share_stacks(self, tmp_path):
        """Two sessions on one thread keep independent current
        transactions: opening one in session B does not change what
        session A considers current."""
        engine = ReachEngine(directory=str(tmp_path / "eng-stack"))
        try:
            a = engine.create_session("a")
            b = engine.create_session("b")
            tx_a = a.begin()
            assert a.current_transaction() is tx_a
            assert b.current_transaction() is None
            tx_b = b.begin()
            assert b.current_transaction() is tx_b
            assert a.current_transaction() is tx_a
            b.commit()
            a.abort()
            assert a.current_transaction() is None
            assert b.current_transaction() is None
        finally:
            engine.close()


class TestLazyHistoryIntegrity:
    """ISSUE 6: the lazy global-history merge loses no occurrence,
    duplicates none and yields one total order by global sequence number
    while 16 sessions commit concurrently."""

    def _run_workload(self, tmp_path, name):
        engine = ReachEngine(directory=str(tmp_path / name))
        try:
            engine.register_class(Counter)
            engine.rule("observe", HIT, action=lambda ctx: None,
                        coupling=CouplingMode.DETACHED)
            sessions = [engine.create_session(f"client-{i}")
                        for i in range(SESSIONS)]
            counters = [Counter(f"lh{i}") for i in range(SESSIONS)]
            for session, counter in zip(sessions, counters):
                with session.transaction():
                    session.persist(counter, counter.name)
            errors = []

            def client(session, counter):
                try:
                    for __ in range(SESSION_ROUNDS):
                        with session.transaction():
                            counter.hit()
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=pair)
                       for pair in zip(sessions, counters)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            engine.drain_detached()
            lag_before_read = engine.history.merge_lag
            hits = [occ for occ in engine.history.entries()
                    if occ.spec_key == HIT.key()]
            stats = engine.history.stats()
            return hits, lag_before_read, stats
        finally:
            engine.close()

    def test_lazy_merge_loses_and_duplicates_nothing(self, tmp_path):
        lazy_hits, lag, stats = self._run_workload(tmp_path, "lazy")
        expected = SESSIONS * SESSION_ROUNDS
        # Commits only enqueued pending markers; the scan-merge ran at
        # read time, batched over every commit since the last read.
        assert stats["deferred_requests"] > 0
        assert stats["merge_lag"] == 0   # drained by the read

        # Exactness: every occurrence exactly once...
        assert len(lazy_hits) == expected
        seqs = [occ.seq for occ in lazy_hits]
        assert len(set(seqs)) == expected          # no duplicates
        # ...in one total order by global sequence number.
        assert seqs == sorted(seqs)
