"""Write-ahead log: framing, LSNs, torn tails, corruption, truncation."""

import os
import warnings
import zlib

import pytest

from repro.bench.crash_torture import wal_record_boundaries
from repro.errors import InjectedFault, RecoveryWarning, StorageError, WALError
from repro.faults.registry import WAL_FSYNC, FaultRegistry
from repro.oodb.oid import OID
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import (
    _FRAME,
    LogRecord,
    LogRecordType,
    WriteAheadLog,
)


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(str(tmp_path / "wal.log"))
    yield log
    log.close()


class TestAppendAndScan:
    def test_lsns_are_monotonic(self, wal):
        lsns = [wal.append(LogRecord(LogRecordType.COMMIT, tx_id=i))
                for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_records_round_trip(self, wal):
        record = LogRecord(LogRecordType.COMMIT, tx_id=9,
                           ops=[(4, b"new"), (5, None)])
        wal.append(record)
        wal.flush()
        scanned = list(wal.iter_records())
        assert len(scanned) == 1
        got = scanned[0]
        assert got.type is LogRecordType.COMMIT
        assert got.tx_id == 9
        assert list(got.ops) == [(4, b"new"), (5, None)]

    @pytest.mark.parametrize("tag", ["begin", "insert", "update",
                                     "delete", "abort"])
    def test_per_operation_frame_is_refused(self, tag):
        # Frames of the one-record-per-operation format: skipping them
        # as unknown would drop committed data, so decoding refuses.
        from repro.storage.serializer import serialize
        old = serialize({"t": tag, "x": 9, "l": 3, "o": 4,
                         "a": b"new", "p": {}})
        with pytest.raises(StorageError, match="recover and checkpoint"):
            LogRecord.decode(old)

    def test_checkpoint_frame_of_the_per_operation_format_decodes(self):
        # What such a log holds once an earlier version has recovered
        # and checkpointed it: no operation, nothing to refuse.
        from repro.storage.serializer import serialize
        old = serialize({"t": "checkpoint", "x": 0, "l": 3, "o": 0,
                         "a": None, "p": {}})
        got = LogRecord.decode(old)
        assert got.type is LogRecordType.CHECKPOINT
        assert got.ops == []

    def test_unflushed_records_are_not_durable(self, wal, tmp_path):
        wal.append(LogRecord(LogRecordType.COMMIT, tx_id=1))
        # A fresh handle on the same file sees nothing until flush.
        other = WriteAheadLog(str(tmp_path / "wal.log"))
        assert list(other.iter_records()) == []
        wal.flush()
        assert len(list(WriteAheadLog(str(tmp_path / "wal.log"))
                        .iter_records())) == 1

    def test_flushed_lsn_tracks_flushes(self, wal):
        assert wal.flushed_lsn == 0
        lsn = wal.append(LogRecord(LogRecordType.COMMIT, tx_id=1))
        wal.flush()
        assert wal.flushed_lsn == lsn

    def test_flush_to_is_noop_when_already_durable(self, wal):
        lsn = wal.append(LogRecord(LogRecordType.COMMIT, tx_id=1))
        wal.flush()
        wal.flush_to(lsn)  # must not raise or rewind
        assert wal.flushed_lsn == lsn


class TestCrashTolerance:
    def test_torn_tail_is_ignored(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(LogRecord(LogRecordType.CHECKPOINT, tx_id=0))
        log.append(LogRecord(LogRecordType.COMMIT, tx_id=1))
        log.flush()
        log.close()
        # Simulate a crash mid-append: truncate the file mid-record.
        size = os.path.getsize(path)
        with open(path, "ab") as f:
            f.write(b"\x00\x00\x00\x40garbage")
        recovered = WriteAheadLog(path)
        records = list(recovered.iter_records())
        assert [r.type for r in records] == [LogRecordType.CHECKPOINT,
                                             LogRecordType.COMMIT]
        recovered.close()

    def _corrupt_second_record(self, tmp_path):
        """Flip a payload byte inside the middle record of a 3-record log."""
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        for i in range(3):
            log.append(LogRecord(LogRecordType.COMMIT, tx_id=i,
                                 ops=[(i, b"payload-%d" % i)]))
        log.flush()
        log.close()
        with open(path, "rb") as f:
            image = f.read()
        boundaries = wal_record_boundaries(image)
        assert len(boundaries) == 4   # 3 records -> 4 boundaries
        victim = boundaries[1] + 10   # inside record 2's frame
        with open(path, "r+b") as f:
            f.seek(victim)
            byte = f.read(1)
            f.seek(victim)
            f.write(bytes([byte[0] ^ 0xFF]))
        return path

    def test_mid_log_corruption_raises_in_strict_mode(self, tmp_path):
        path = self._corrupt_second_record(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RecoveryWarning)
            recovered = WriteAheadLog(path)
        with pytest.raises(WALError, match="CRC mismatch"):
            list(recovered.iter_records())
        recovered.close()

    def test_mid_log_corruption_warns_and_keeps_prefix_when_lenient(
            self, tmp_path):
        path = self._corrupt_second_record(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RecoveryWarning)
            recovered = WriteAheadLog(path)
        with pytest.warns(RecoveryWarning, match="discarding"):
            records = list(recovered.iter_records(strict=False))
        # Only the record before the corruption survives.
        assert [r.tx_id for r in records] == [0]
        recovered.close()

    def test_storage_recovery_survives_mid_log_corruption(self, tmp_path):
        directory = str(tmp_path / "sm")
        sm = StorageManager(directory)
        sm.begin(1)
        sm.write(1, OID(2), b"pre-corruption")
        sm.commit(1)
        sm.flush()
        # Transaction 2 is durable only in the log: its pages were never
        # flushed, so discarding its records must make it vanish.
        sm.begin(2)
        sm.write(2, OID(3), b"post-corruption")
        sm.commit(2)
        sm.begin(3)
        sm.write(3, OID(4), b"after-the-corruption")
        sm.commit(3)
        sm.crash()
        sm.close()
        wal_path = str(tmp_path / "sm" / StorageManager.LOG_FILE)
        with open(wal_path, "rb") as f:
            image = f.read()
        boundaries = wal_record_boundaries(image)
        # Corrupt the second transaction's COMMIT record: everything from
        # there on is discarded, so tx 1 survives and txs 2 and 3 do not.
        # Records: CHECKPOINT, COMMIT(1), COMMIT(2), COMMIT(3)
        victim = boundaries[2] + 10
        with open(wal_path, "r+b") as f:
            f.seek(victim)
            byte = f.read(1)
            f.seek(victim)
            f.write(bytes([byte[0] ^ 0xFF]))
        with pytest.warns(RecoveryWarning):
            recovered = StorageManager(directory)
        try:
            assert recovered.read(None, OID(2)) == b"pre-corruption"
            assert not recovered.exists(None, OID(3))
            assert not recovered.exists(None, OID(4))
        finally:
            recovered.close()

    def test_lsns_continue_after_reopen(self, tmp_path):
        """Recovery's one scan is how a reopened log learns where its
        LSNs resume: nothing appended after a reopen reuses an LSN."""
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(1), b"one")
        sm.commit(1)
        last = sm.wal_stats()["flushed_lsn"]
        sm.close()
        reopened = StorageManager(path)
        try:
            assert reopened.wal_stats()["flushed_lsn"] > last
            reopened.begin(2)
            reopened.write(2, OID(2), b"two")
            reopened.commit(2)
            lsns = [r.lsn for r in reopened._wal.iter_records()]
            assert lsns == sorted(set(lsns))
            assert min(lsns) > last
        finally:
            reopened.close()


class TestFsyncFailure:
    """Regression: flush() must not drop buffered records before the
    fsync has succeeded.  An earlier version cleared the buffer right
    after os.write, so a failed fsync silently lost the batch — the
    records were neither durable nor retryable."""

    def test_buffer_survives_failed_fsync(self, tmp_path):
        faults = FaultRegistry()
        log = WriteAheadLog(str(tmp_path / "wal.log"), faults=faults)
        lsn = log.append(LogRecord(LogRecordType.COMMIT, tx_id=1))
        faults.arm(WAL_FSYNC, nth=1, times=1)
        with pytest.raises(InjectedFault):
            log.flush()
        # Nothing was acknowledged as durable...
        assert log.flushed_lsn < lsn
        # ...and the records are still buffered, so a retry forces them.
        log.flush()
        assert log.flushed_lsn == lsn
        log.close()
        reopened = WriteAheadLog(str(tmp_path / "wal.log"))
        records = list(reopened.iter_records())
        assert [r.tx_id for r in records].count(1) >= 1
        assert records[-1].type is LogRecordType.COMMIT
        reopened.close()

    def test_flush_to_also_retries_after_failed_fsync(self, tmp_path):
        faults = FaultRegistry()
        log = WriteAheadLog(str(tmp_path / "wal.log"), faults=faults)
        lsn = log.append(LogRecord(LogRecordType.COMMIT, tx_id=2,
                                   ops=[(7, b"x")]))
        faults.arm(WAL_FSYNC, nth=1, times=1)
        with pytest.raises(InjectedFault):
            log.flush_to(lsn)
        assert log.flushed_lsn < lsn
        log.flush_to(lsn)
        assert log.flushed_lsn == lsn
        log.close()


class TestTruncate:
    def test_truncate_erases_records_keeps_lsn_counter(self, wal):
        lsn = wal.append(LogRecord(LogRecordType.COMMIT, tx_id=1))
        wal.truncate()
        assert list(wal.iter_records()) == []
        next_lsn = wal.append(LogRecord(LogRecordType.COMMIT, tx_id=2))
        assert next_lsn > lsn

    def test_size_shrinks_after_truncate(self, wal):
        for i in range(50):
            wal.append(LogRecord(LogRecordType.COMMIT, tx_id=i,
                                 ops=[(i, b"x" * 100)]))
        wal.flush()
        before = wal.size_bytes()
        wal.truncate()
        assert wal.size_bytes() < before


class TestForwardCompatibility:
    """A well-framed record of an unknown type — written by some future
    version of the engine — must not end the consistent prefix: recovery's
    scan yields it as an inert string-typed record and keeps delivering
    the records after it."""

    @staticmethod
    def _frame(record):
        payload = record.encode()
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    def _append_future_suffix(self, path, lsn):
        """A future writer appends an unknown frame, then a known one."""
        with open(path, "ab") as fh:
            fh.write(self._frame(
                LogRecord("hologram_sync", tx_id=9, lsn=lsn,
                          payload={"shard": 3})))
            fh.write(self._frame(
                LogRecord(LogRecordType.COMMIT, tx_id=9, lsn=lsn + 1)))

    def test_iter_records_scans_past_unknown_record_type(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        begin_lsn = log.append(LogRecord(LogRecordType.CHECKPOINT, tx_id=0))
        log.flush()
        log.close()
        self._append_future_suffix(path, lsn=begin_lsn + 100)

        reopened = WriteAheadLog(path)
        records = list(reopened.iter_records(strict=False))
        assert [r.type for r in records][-3:] == [
            LogRecordType.CHECKPOINT, "hologram_sync", LogRecordType.COMMIT]
        unknown = records[-2]
        assert not unknown.is_known_type
        assert unknown.payload == {"shard": 3}
        assert reopened.stats()["unknown_records_skipped"] >= 1
        # LSN allocation resumed past the future writer's records.
        assert reopened.append(
            LogRecord(LogRecordType.COMMIT, tx_id=2)) > begin_lsn + 101
        reopened.close()
