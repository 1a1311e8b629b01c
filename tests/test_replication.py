"""WAL shipping: tailer prefix discipline, replica replay, live shipper.

The replication contract (``repro.storage.replication``):

* the :class:`WALTailer` only ever yields a *consistent prefix* — it
  stops before a torn frame, a corrupt record, or anything past the
  primary's acked ``limit_lsn``, and detects checkpoint truncation;
* a :class:`ReadReplica` applies only complete committed transactions
  (aborted windows are dropped) through its own storage manager, so the
  replica directory is itself a valid database;
* a :class:`WALShipper` keeps a live replica converged with the
  primary's acked prefix, and ``stop()`` drains before shutdown.

The kill-the-primary-mid-batch half of the contract lives in
``repro.bench.crash_torture.run_replica_torture`` (see
``tests/test_crash_torture.py``).
"""

import os
import struct
import threading

import pytest

from repro.config import ExecutionConfig, ShardingConfig
from repro.core.sharding import ShardedEngine
from repro.oodb.oid import OID
from repro.oodb.sentry import sentried
from repro.storage.replication import ReadReplica, WALShipper
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import LogRecordType, WALTailer

from tests.conftest import wait_until


def _tx_records(records):
    """Drop CHECKPOINT baseline records (a fresh log always starts with
    one); what remains is the transactional stream under test."""
    return [r for r in records if r.type is not LogRecordType.CHECKPOINT]


def _commit(sm, tx, writes, deletes=()):
    sm.begin(tx)
    for oid_value, payload in writes:
        sm.write(tx, OID(oid_value), payload)
    for oid_value in deletes:
        sm.delete(tx, OID(oid_value))
    sm.commit(tx)


class TestWALTailer:
    def test_tails_live_appends_incrementally(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        tailer = WALTailer(str(tmp_path / "p" / StorageManager.LOG_FILE))
        try:
            assert _tx_records(tailer.poll()) == []
            _commit(sm, 1, [(10, b"one")])
            first = _tx_records(tailer.poll())
            assert [r.type for r in first] == [
                LogRecordType.BEGIN, LogRecordType.INSERT,
                LogRecordType.COMMIT]
            # Nothing new: the offset advanced past what was read.
            assert tailer.poll() == []
            _commit(sm, 2, [(11, b"two")])
            second = _tx_records(tailer.poll())
            assert {r.tx_id for r in second} == {2}
        finally:
            tailer.close()
            sm.close()

    def test_limit_lsn_holds_back_unacked_records(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        tailer = WALTailer(str(tmp_path / "p" / StorageManager.LOG_FILE))
        try:
            _commit(sm, 1, [(10, b"one")])
            records = tailer.poll(limit_lsn=0)
            assert records == []
            # The withheld records arrive once the bound advances.
            acked = sm.wal_stats()["flushed_lsn"]
            records = tailer.poll(limit_lsn=acked)
            assert [r.type for r in records][-1] is LogRecordType.COMMIT
        finally:
            tailer.close()
            sm.close()

    def test_torn_tail_stops_before_the_frame(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        log_path = str(tmp_path / "p" / StorageManager.LOG_FILE)
        _commit(sm, 1, [(10, b"one")])
        sm.close()
        # Append a frame header promising more payload than exists —
        # exactly what a crash mid-append leaves behind.
        with open(log_path, "ab") as handle:
            handle.write(struct.pack("<II", 10_000, 0) + b"short")
        tailer = WALTailer(log_path)
        try:
            records = _tx_records(tailer.poll())
            assert [r.tx_id for r in records] == [1, 1, 1]
            before = tailer.offset
            # The torn frame never parses, the offset never passes it.
            assert tailer.poll() == []
            assert tailer.offset == before
        finally:
            tailer.close()

    def test_corrupt_record_ends_the_prefix(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        log_path = str(tmp_path / "p" / StorageManager.LOG_FILE)
        _commit(sm, 1, [(10, b"one")])
        size_after_first = os.path.getsize(log_path)
        _commit(sm, 2, [(11, b"two")])
        sm.close()
        # Flip a payload byte inside transaction 2's records.
        with open(log_path, "r+b") as handle:
            handle.seek(size_after_first + 12)
            byte = handle.read(1)
            handle.seek(size_after_first + 12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        tailer = WALTailer(log_path)
        try:
            records = _tx_records(tailer.poll())
            assert {r.tx_id for r in records} == {1}
        finally:
            tailer.close()

    def test_truncation_rewinds_to_start(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        log_path = str(tmp_path / "p" / StorageManager.LOG_FILE)
        tailer = WALTailer(log_path)
        try:
            _commit(sm, 1, [(10, b"one")])
            assert len(_tx_records(tailer.poll())) == 3
            sm.checkpoint()          # truncates the primary's log
            # The shrunken file rewinds the tailer to offset 0 (see
            # test_regrown_log_is_a_new_generation for a log that grows
            # back past the old offset before the next poll).
            assert _tx_records(tailer.poll()) == []
            assert tailer.truncations == 1
            _commit(sm, 2, [(11, b"two")])
            records = _tx_records(tailer.poll())
            assert {r.tx_id for r in records} == {2}
        finally:
            tailer.close()
            sm.close()

    def test_regrown_log_is_a_new_generation(self, tmp_path):
        """A checkpoint whose fresh log grows back past the tailer's
        offset before the next poll is still seen as a truncation: the
        first frame differs, so the tailer rewinds instead of reading
        from mid-frame and stalling."""
        sm = StorageManager(str(tmp_path / "p"))
        tailer = WALTailer(str(tmp_path / "p" / StorageManager.LOG_FILE))
        try:
            for tx in range(1, 6):
                _commit(sm, tx, [(10 + tx, b"before")])
            assert len(_tx_records(tailer.poll())) == 15
            offset = tailer.offset
            sm.checkpoint()
            for tx in range(6, 18):
                _commit(sm, tx, [(10 + tx, b"after")])
            assert sm.wal_stats()["size_bytes"] > offset
            records = _tx_records(tailer.poll())
            assert tailer.truncations == 1
            assert {r.tx_id for r in records} == set(range(6, 18))
            assert tailer.poll() == []
            assert tailer.truncations == 1
        finally:
            tailer.close()
            sm.close()


class TestReadReplica:
    def test_applies_only_complete_committed_transactions(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        _commit(sm, 1, [(10, b"one"), (11, b"two")])
        sm.begin(2)
        sm.write(2, OID(12), b"phantom")
        sm.abort(2)
        sm.begin(3)
        sm.write(3, OID(13), b"in-flight")   # never commits
        sm.flush()                           # its records reach the file...

        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        try:
            applied = replica.poll(limit_lsn=None)
            assert applied == 1
            assert replica.read(OID(10)) == b"one"
            assert replica.read(OID(11)) == b"two"
            assert not replica.exists(OID(12))   # aborted window dropped
            assert not replica.exists(OID(13))   # ...but stay buffered
            stats = replica.stats()
            assert stats["applied_txs"] == 1
            assert stats["pending_txs"] == 1
        finally:
            replica.close()
            sm.close()

    def test_replays_updates_and_deletes(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        _commit(sm, 1, [(10, b"v1"), (11, b"gone")])
        _commit(sm, 2, [(10, b"v2")], deletes=[11])
        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        try:
            replica.poll(limit_lsn=sm.wal_stats()["flushed_lsn"])
            assert replica.read(OID(10)) == b"v2"
            assert not replica.exists(OID(11))
        finally:
            replica.close()
            sm.close()

    def test_seed_covers_checkpoint_truncated_history(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        _commit(sm, 1, [(10, b"pre-checkpoint")])
        sm.checkpoint()                        # history now only in data file
        _commit(sm, 2, [(11, b"post-checkpoint")])
        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        try:
            replica.poll(limit_lsn=sm.wal_stats()["flushed_lsn"])
            assert replica.read(OID(10)) == b"pre-checkpoint"
            assert replica.read(OID(11)) == b"post-checkpoint"
        finally:
            replica.close()
            sm.close()

    def test_replica_follows_a_checkpoint_the_log_outgrew(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        try:
            for tx in range(1, 6):
                _commit(sm, tx, [(10 + tx, b"shipped")])
            assert replica.poll(limit_lsn=sm.wal_stats()["flushed_lsn"]) == 5
            sm.checkpoint()
            for tx in range(6, 18):
                _commit(sm, tx, [(10 + tx, b"regrown")])
            limit = sm.wal_stats()["flushed_lsn"]
            assert replica.poll(limit_lsn=limit) == 12
            assert replica.object_count() == sm.object_count() == 17
        finally:
            replica.close()
            sm.close()

    def test_replica_directory_is_itself_recoverable(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        _commit(sm, 1, [(10, b"one")])
        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        replica.poll(limit_lsn=sm.wal_stats()["flushed_lsn"])
        replica.close()
        sm.close()
        reopened = StorageManager(str(tmp_path / "r"))
        try:
            assert reopened.read(None, OID(10)) == b"one"
        finally:
            reopened.close()

    def test_poll_is_idempotent(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        _commit(sm, 1, [(10, b"one")])
        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        try:
            limit = sm.wal_stats()["flushed_lsn"]
            assert replica.poll(limit_lsn=limit) == 1
            assert replica.poll(limit_lsn=limit) == 0
            assert replica.applied_txs == 1
        finally:
            replica.close()
            sm.close()


class TestWALShipper:
    def test_live_convergence_and_drained_stop(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        shipper = WALShipper(sm, replica, interval=0.005)
        try:
            for tx in range(1, 21):
                _commit(sm, tx, [(1000 + tx, b"payload-%d" % tx)])
            shipper.stop()           # final poll drains the acked prefix
            assert replica.applied_txs == 20
            for tx in range(1, 21):
                assert replica.read(OID(1000 + tx)) == b"payload-%d" % tx
            assert shipper.stats()["running"] is False
            # stop() is idempotent.
            shipper.stop()
        finally:
            shipper.stop()
            replica.close()
            sm.close()

    def test_shipper_never_applies_past_the_ack_boundary(self, tmp_path):
        sm = StorageManager(str(tmp_path / "p"))
        replica = ReadReplica(str(tmp_path / "p"), str(tmp_path / "r"))
        shipper = WALShipper(sm, replica, interval=0.005)
        try:
            sm.begin(1)
            sm.write(1, OID(10), b"not-yet-durable")
            shipper.stop()
            assert replica.applied_txs == 0
            assert not replica.exists(OID(10))
        finally:
            shipper.stop()
            replica.close()
            sm.close()


@sentried(track_state=False)
class Parcel:
    def __init__(self, label):
        self.label = label


def _images(storage):
    return {oid.value: storage.read(None, oid) for oid in storage.iter_oids()}


class TestShardedWalShip:
    """``ShardingConfig(wal_ship=True)``: every shard's replica holds
    exactly its primary's acked commits, bounded by the commit barrier's
    ``flushed_lsn`` while sessions commit concurrently, and across a
    checkpoint that truncates the primary logs."""

    def _converged(self, engine):
        return all(_images(engine.replica(sid).storage) == _images(shard.storage)
                   for sid, shard in enumerate(engine.shards))

    def _commit_parcels(self, engine, tag, count, acked):
        session = engine.create_session(tag)
        for index in range(count):
            with session.transaction():
                oids = [session.persist(Parcel(f"{tag}-{index}-{sid}"),
                                        shard=sid) for sid in (0, 1)]
            acked.extend(oids)
        session.close()

    def test_replicas_hold_exactly_the_acked_commits(self, tmp_path):
        engine = ShardedEngine(
            directory=str(tmp_path / "ship"),
            config=ExecutionConfig(sharding=ShardingConfig(
                shards=2, wal_ship=True)))
        try:
            engine.register_class(Parcel, monitor_state=False)
            acked = []
            past_bound = []
            done = threading.Event()

            def watch_bound():
                while not done.wait(0.0005):
                    for sid, shard in enumerate(engine.shards):
                        applied = engine.replica(sid).last_applied_lsn
                        flushed = shard.storage.wal_stats()["flushed_lsn"]
                        if applied > flushed:
                            past_bound.append((sid, applied, flushed))

            watcher = threading.Thread(target=watch_bound)
            clients = [threading.Thread(target=self._commit_parcels,
                                        args=(engine, f"c{n}", 15, acked))
                       for n in range(2)]
            watcher.start()
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            wait_until(lambda: self._converged(engine), timeout=10.0)
            done.set()
            watcher.join()
            assert past_bound == []
            assert len(acked) == 60
            for oid in acked:
                assert engine.replica(engine.shard_of(oid)).exists(oid)

            engine.checkpoint()
            # The shippers see each primary log shrink and rewind.
            wait_until(lambda: all(
                engine.replica(sid).stats()["tailer"]["truncations"] >= 1
                for sid in (0, 1)), timeout=10.0)
            self._commit_parcels(engine, "after", 5, acked)
            wait_until(lambda: self._converged(engine), timeout=10.0)
            for oid in acked:
                assert engine.replica(engine.shard_of(oid)).exists(oid)

            replication = engine.statistics()["shards"]["replication"]
            assert len(replication["replicas"]) == 2
            assert len(replication["shippers"]) == 2
            assert all(row["applied_txs"] > 0
                       for row in replication["replicas"])
        finally:
            engine.close()
