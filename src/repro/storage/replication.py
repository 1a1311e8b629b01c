"""Primary -> replica WAL shipping (log-shipping read replicas).

Built on two facts the durability work of PRs 3-4 already established:

* the primary's WAL is an append-only stream of COMMIT records, each
  carrying one committed transaction's full images, whose replay is
  idempotent, and
* ``flushed_lsn`` is the exact acknowledgment boundary — a commit is
  acked to its client only once the fsync covering its COMMIT record
  has returned.

A :class:`ReadReplica` therefore needs no protocol with the primary at
all: a :class:`~repro.storage.wal.WALTailer` follows the primary's log
file, the replica applies each complete COMMIT record as it arrives —
through its own :class:`~repro.storage.storage_manager.StorageManager`,
so the replica directory is itself a crash-consistent database — and
the tailer is bounded by the primary's ``flushed_lsn`` so nothing
unacked is ever applied.  Kill the primary mid-batch and the replica
converges to exactly the durable prefix of the surviving log: no lost
acked commit, no phantom unacked commit (``bench/crash_torture.py``
proves this).

Bootstrap: the primary truncates its log at checkpoint, so a replica
starting later than the primary's first checkpoint would miss history.
``seed_data_file=True`` (the default) copies the primary's data file
before the first poll — do this at replica start or while the primary
is quiesced; a copy racing live page flushes is only guaranteed
consistent because subsequent full-image replay overwrites any page
state the copy caught mid-flight, provided the log has not truncated
between copy and first poll.
"""

from __future__ import annotations

import os
import shutil
import threading
from typing import Any, Optional

from repro.oodb.oid import OID
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import LogRecord, LogRecordType, WALTailer


class ReadReplica:
    """A warm standby built by replaying a primary's shipped WAL records.

    Args:
        primary_dir: the primary database (or shard) directory; the
            tailer follows ``<primary_dir>/wal.log``.
        replica_dir: where the replica's own store lives.
        seed_data_file: copy the primary's ``objects.dat`` into a fresh
            replica directory before the first poll (see module docs).
    """

    def __init__(self, primary_dir: str, replica_dir: str,
                 seed_data_file: bool = True):
        self.primary_dir = primary_dir
        self.replica_dir = replica_dir
        os.makedirs(replica_dir, exist_ok=True)
        primary_data = os.path.join(primary_dir, StorageManager.DATA_FILE)
        replica_data = os.path.join(replica_dir, StorageManager.DATA_FILE)
        if seed_data_file and os.path.exists(primary_data) \
                and not os.path.exists(replica_data):
            shutil.copyfile(primary_data, replica_data)
        self.storage = StorageManager(replica_dir)
        self._tailer = WALTailer(
            os.path.join(primary_dir, StorageManager.LOG_FILE))
        self._lock = threading.RLock()
        self.applied_txs = 0
        self.aborted_txs = 0
        self.last_applied_lsn = 0
        self.records_shipped = 0
        #: COMPOSER_CHECKPOINT frames skipped: the replica runs no
        #: composers, so detection state is cleanly ignored without
        #: breaking the ack boundary (the frame's LSN still advances).
        self.composer_checkpoints_skipped = 0
        #: well-framed records of a type this replica does not understand
        #: (a newer primary); skipped, counted, never prefix-ending.
        self.unknown_records_skipped = 0

    # -- shipping ----------------------------------------------------------------

    def poll(self, limit_lsn: Optional[int] = None) -> int:
        """Ship and apply newly durable records; returns transactions
        applied.  ``limit_lsn`` should be the primary's ``flushed_lsn``
        when the primary is alive (unbounded tailing of a dead primary's
        surviving log is equivalent: the file *is* the durable prefix).
        """
        with self._lock:
            applied = 0
            for record in self._tailer.poll(limit_lsn=limit_lsn):
                self.records_shipped += 1
                applied += self._ingest(record)
            return applied

    def _ingest(self, record: LogRecord) -> int:
        rtype = record.type
        if rtype is LogRecordType.COMMIT:
            self._apply(record)
            self.applied_txs += 1
            self.last_applied_lsn = record.lsn
            return 1
        if rtype is LogRecordType.COMPOSER_CHECKPOINT:
            # Detection state is the primary engine's to restore; a
            # (data-only) replica skips the frame but counts it so the
            # shipping pipeline shows the new frame type flowing through.
            self.composer_checkpoints_skipped += 1
            return 0
        if not record.is_known_type:
            self.unknown_records_skipped += 1
            return 0
        # CHECKPOINT records carry no replayable state.
        return 0

    def _apply(self, record: LogRecord) -> None:
        """Replay one committed transaction through the replica's own
        storage manager (full images make this idempotent)."""
        tx_id = record.tx_id
        self.storage.begin(tx_id)
        try:
            for oid_value, image in record.ops:
                oid = OID(oid_value)
                if image is not None:
                    self.storage.write(tx_id, oid, image)
                elif self.storage.exists(tx_id, oid):
                    self.storage.delete(tx_id, oid)
        except Exception:
            self.storage.abort(tx_id)
            self.aborted_txs += 1
            raise
        self.storage.commit(tx_id)

    # -- reads -------------------------------------------------------------------

    def read(self, oid: OID) -> bytes:
        return self.storage.read(None, oid)

    def exists(self, oid: OID) -> bool:
        return self.storage.exists(None, oid)

    def object_count(self) -> int:
        return self.storage.object_count()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "primary_dir": self.primary_dir,
                "replica_dir": self.replica_dir,
                "applied_txs": self.applied_txs,
                "aborted_txs": self.aborted_txs,
                "last_applied_lsn": self.last_applied_lsn,
                "records_shipped": self.records_shipped,
                "composer_checkpoints_skipped":
                    self.composer_checkpoints_skipped,
                "unknown_records_skipped": self.unknown_records_skipped,
                "objects": self.storage.object_count(),
                "tailer": self._tailer.stats(),
            }

    def close(self) -> None:
        with self._lock:
            self._tailer.close()
            self.storage.close()


class WALShipper:
    """Background pump: polls a live primary's log into a replica.

    A daemon thread wakes every ``interval`` seconds, reads the
    primary's current ``flushed_lsn`` (the ack boundary) and lets the
    replica apply everything durable up to it.  ``stop()`` performs one
    final bounded poll so a clean shutdown leaves the replica at the
    primary's last acked state.
    """

    def __init__(self, primary: StorageManager, replica: ReadReplica,
                 interval: float = 0.01):
        self.primary = primary
        self.replica = replica
        self.interval = interval
        self.polls = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="wal-shipper", daemon=True)
        self._thread.start()

    def _poll_once(self) -> None:
        limit = self.primary.wal_stats()["flushed_lsn"]
        self.replica.poll(limit_lsn=limit)
        self.polls += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._poll_once()
            except Exception:
                # A dying primary can race the shipper (closed fds,
                # truncation mid-poll); the next poll, or the final one
                # in stop(), resolves the state.
                self.errors += 1

    def stop(self) -> None:
        """Stop the pump; one final poll drains to the acked prefix."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        try:
            self._poll_once()
        except Exception:
            self.errors += 1

    def stats(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "polls": self.polls,
            "errors": self.errors,
            "running": self._thread.is_alive(),
        }
