"""Group commit: durability equivalence, ack ordering, torn mid-batch.

Every COMMIT goes through one barrier, ``WriteAheadLog.sync``: a
committer leads a force when none is in flight, or waits for the one in
flight and shares the next.  Batching changes *when* fsyncs happen but
must not change durability semantics.  These tests pin that claim:

* the crash-torture harness passes at every WAL-record and torn-tail
  crash point of a workload whose commits really shared forces,
  including torn tails that cut through the middle of a shared batch;
* a committer is acknowledged only after the fsync covering its COMMIT
  record has completed — never before (proved by injecting ``wal.fsync``
  faults and observing that the whole covered round raises instead of
  returning success);
* the fault points (``wal.fsync``, ``wal.torn_tail``) fire exactly once
  per *physical* force, batched or not.

Batches are made deterministic by :func:`hold_next_force`, a
``wal.fsync`` callback that holds a force's leader until the other
committers have queued behind it — no linger, no timing luck.
"""

import os
import threading

import pytest

from repro.bench.crash_torture import (
    _replay_expected,
    _winner_ids,
    hold_next_force,
    parse_wal_prefix,
    run_group_commit_torture,
)
from repro.config import ExecutionConfig
from repro.core.engine import ReachEngine
from repro.errors import InjectedFault, RecordNotFoundError
from repro.faults.registry import WAL_FSYNC, WAL_TORN_TAIL, FaultRegistry
from repro.obs.metrics import MetricsRegistry
from repro.oodb.oid import OID
from repro.oodb.sentry import sentried
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import WriteAheadLog

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _run_committers(sm, count):
    """``count`` threads begin+write then rendezvous and commit together.

    Returns ``{tx_id: "ok" | exception}`` keyed by transaction id.
    """
    barrier = threading.Barrier(count)
    results = {}

    def worker(tid):
        tx = tid + 1
        sm.begin(tx)
        sm.write(tx, OID(1000 + tx), b"payload-%d" % tx)
        barrier.wait(timeout=30)
        try:
            sm.commit(tx)
            results[tx] = "ok"
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            results[tx] = exc

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _winners_on_disk(directory):
    with open(os.path.join(directory, StorageManager.LOG_FILE), "rb") as fh:
        return _winner_ids(parse_wal_prefix(fh.read()))


class TestDurabilityEquivalence:
    """The crash-torture invariants hold through shared forces."""

    def test_concurrent_batch_torture(self, tmp_path):
        """Cuts through genuinely batched commits, incl. torn mid-batch."""
        report = run_group_commit_torture(str(tmp_path))
        assert report.total_winners == 16
        assert report.total_losers >= 3
        # The workload really batched: at least one shared force covered
        # more than one COMMIT, so the torn cuts include mid-batch ones.
        assert report.max_commit_batch_observed >= 2
        assert report.torn_cuts >= 10
        winner_counts = {cut.winners for cut in report.cuts}
        assert 0 in winner_counts and report.total_winners in winner_counts


class TestAckOrdering:
    """Success from commit() implies the shared fsync already covered it."""

    def test_ack_implies_commit_record_written(self, tmp_path):
        directory = str(tmp_path / "sm")
        sm = StorageManager(directory)
        stale = []
        barrier = threading.Barrier(8)
        results = {}

        def worker(tid):
            for rnd in range(3):
                tx = tid * 10 + rnd + 1
                sm.begin(tx)
                sm.write(tx, OID(1000 + tx), b"x")
                barrier.wait(timeout=30)
                sm.commit(tx)
                if tx not in _winners_on_disk(directory):
                    stale.append(tx)
                results[tx] = "ok"

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert len(results) == 24
            assert stale == [], f"acked before WAL write: {stale}"
        finally:
            sm.close()

    def test_no_ack_when_shared_fsync_fails(self, tmp_path):
        """An injected wal.fsync failure fails the *whole* covered round."""
        directory = str(tmp_path / "sm")
        faults = FaultRegistry(seed=FAULT_SEED)
        sm = StorageManager(directory, faults=faults)
        # The first force waits for all four committers; the shared force
        # behind it is the one that fails.
        hold_next_force(faults, sm, 4)
        faults.arm(WAL_FSYNC, nth=2, times=1)
        results = _run_committers(sm, 4)
        faulted = [tx for tx, r in results.items()
                   if isinstance(r, InjectedFault)]
        acked = [tx for tx, r in results.items() if r == "ok"]
        assert faulted, f"no committer saw the injected fsync fault: {results}"
        unexpected = [tx for tx, r in results.items()
                      if r != "ok" and not isinstance(r, InjectedFault)]
        assert unexpected == []
        sm.flush()  # preserved buffer: a retry forces everything
        winners = _winners_on_disk(directory)
        for tx in acked:
            assert tx in winners
        sm.close()

    def test_failed_round_records_survive_in_buffer(self, tmp_path):
        """After a failed fsync the batch is retried, not dropped."""
        directory = str(tmp_path / "sm")
        faults = FaultRegistry(seed=FAULT_SEED)
        sm = StorageManager(directory, faults=faults)
        sm.begin(1)
        sm.write(1, OID(11), b"first")
        faults.arm(WAL_FSYNC, nth=1, times=1)
        with pytest.raises(InjectedFault):
            sm.commit(1)
        # The failed round's records stay buffered; the next commit's
        # force makes both transactions durable.
        sm.begin(2)
        sm.write(2, OID(12), b"second")
        sm.commit(2)
        assert {1, 2} <= _winners_on_disk(directory)
        sm.close()


class TestTornMidBatch:
    def test_torn_tail_cuts_through_shared_batch(self, tmp_path):
        """A torn tail inside one shared force loses exactly the suffix."""
        faults = FaultRegistry(seed=FAULT_SEED)
        directory = str(tmp_path / "sm")
        sm = StorageManager(directory, faults=faults)
        hold_next_force(faults, sm, 4)
        faults.arm(WAL_TORN_TAIL, nth=2, times=1, payload={"drop": 40})
        results = _run_committers(sm, 4)
        torn = [tx for tx, r in results.items()
                if isinstance(r, InjectedFault)]
        assert torn, f"torn tail never fired: {results}"
        wal_path = os.path.join(directory, StorageManager.LOG_FILE)
        with open(wal_path, "rb") as fh:
            image = fh.read()
        records = parse_wal_prefix(image)
        expected = _replay_expected({}, records)
        sm.crash()
        sm.close()
        recovered = StorageManager(directory)
        try:
            for oid_value, payload in expected.items():
                assert recovered.read(None, OID(oid_value)) == payload
            for tx in results:
                oid_value = 1000 + tx
                if oid_value not in expected:
                    with pytest.raises(RecordNotFoundError):
                        recovered.read(None, OID(oid_value))
        finally:
            recovered.close()


class TestFlushAccounting:
    def test_fault_points_fire_once_per_physical_flush(self, tmp_path):
        """wal.fsync hits == physical forces, batched or not."""
        faults = FaultRegistry(seed=FAULT_SEED)
        metrics = MetricsRegistry()
        hits = []
        sm = StorageManager(str(tmp_path / "sm"), faults=faults,
                            metrics=metrics)
        faults.arm(WAL_FSYNC, times=None, callback=lambda ctx: hits.append(1))
        flush_base = metrics.counter("wal.flushes").value
        _run_committers(sm, 6)
        flushes = metrics.counter("wal.flushes").value - flush_base
        assert metrics.histogram("wal.commits_per_flush").summary()["count"]
        # Every physical force after arming hit the fsync point exactly once.
        assert len(hits) == flushes
        sm.close()

    def test_batching_metrics_exposed(self, tmp_path):
        faults = FaultRegistry(seed=FAULT_SEED)
        metrics = MetricsRegistry()
        sm = StorageManager(str(tmp_path / "sm"), faults=faults,
                            metrics=metrics)
        hold_next_force(faults, sm, 8)
        _run_committers(sm, 8)
        summary = metrics.histogram("wal.commits_per_flush").summary()
        assert summary["max"] >= 2          # commits really shared a force
        assert summary["sum"] == 8          # each acked by exactly one force
        sm.close()


class TestOneCommitPath:
    @pytest.mark.parametrize("knob", ["group_commit", "commit_wait_us",
                                      "max_commit_batch"])
    def test_the_group_commit_knobs_are_gone(self, tmp_path, knob):
        value = {"group_commit": True, "commit_wait_us": 0.0,
                 "max_commit_batch": 4}[knob]
        with pytest.raises(TypeError):
            ExecutionConfig(**{knob: value})
        with pytest.raises(TypeError):
            StorageManager(str(tmp_path / "sm"), **{knob: value})
        with pytest.raises(TypeError):
            WriteAheadLog(str(tmp_path / "wal.log"), **{knob: value})

    def test_one_committer_still_goes_through_the_barrier(self, tmp_path):
        metrics = MetricsRegistry()
        sm = StorageManager(str(tmp_path / "sm"), metrics=metrics)
        for tx in (1, 2, 3):
            sm.begin(tx)
            sm.write(tx, OID(10 + tx), b"solo")
            sm.commit(tx)
        summary = metrics.histogram("wal.commits_per_flush").summary()
        assert (summary["count"], summary["max"]) == (3, 1)
        assert sm.wal_stats()["commit_queue_depth"] == 0
        sm.close()


@sentried
class Gauge:
    """State-tracked so every ``bump`` dirties the object — each commit
    then flushes to storage and exercises the commit barrier."""

    def __init__(self, name):
        self.name = name
        self.value = 0

    def bump(self):
        self.value += 1


class TestEngineIntegration:
    def test_sessions_share_flushes_end_to_end(self, tmp_path):
        """16 engine sessions commit concurrently through the barrier."""
        config = ExecutionConfig(observability=True, fault_injection=True,
                                 fault_seed=FAULT_SEED)
        engine = ReachEngine(directory=str(tmp_path / "eng"), config=config)
        try:
            engine.register_class(Gauge)
            sessions = [engine.create_session(f"c{i}") for i in range(16)]
            gauges = [Gauge(f"g{i}") for i in range(16)]
            for session, gauge in zip(sessions, gauges):
                with session.transaction():
                    session.persist(gauge, gauge.name)
            barrier = threading.Barrier(16, action=lambda: hold_next_force(
                engine.faults, engine.storage, 16))
            errors = []

            def client(session, gauge):
                try:
                    barrier.wait(timeout=30)
                    for __ in range(10):
                        with session.transaction():
                            gauge.bump()
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=pair)
                       for pair in zip(sessions, gauges)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            for gauge in gauges:
                assert gauge.value == 10
            registry = engine.metrics_registry
            summary = registry.histogram("wal.commits_per_flush").summary()
            assert summary["max"] >= 2
        finally:
            engine.close()
