"""Write-ahead log.

A committed storage transaction is one log frame: its COMMIT record
carries every operation of the transaction as ``(oid, image)`` pairs,
where ``image`` is the full new object image, or ``None`` for a delete.
Nothing is logged at begin, per write or at abort.  The log is
redo-only, and a transaction that never committed left no trace in it,
so recovery is one pass: redo every complete COMMIT frame in log order.
That is correct because data pages only ever receive committed images
(no-steal) and every page write forces the log first (WAL rule).

Logs written while the log still held one record per operation (the
``begin``/``insert``/``update``/``delete``/``abort`` tags) are refused
with :class:`~repro.errors.StorageError` as soon as such a record is
decoded: skipping those records as unknown would silently drop
committed data.

On disk each record is::

    u32 payload_length | u32 crc32(payload) | payload

where the payload is the library's own tagged serialization of the record
fields.  A torn tail (partial final record after a crash) is detected by the
length/CRC check and discarded, so a COMMIT frame torn by the crash takes
all of its operations with it.
"""

from __future__ import annotations

import enum
import os
import struct
import threading
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import InjectedFault, RecoveryWarning, StorageError, WALError
from repro.faults.registry import (
    NULL_FAULTS,
    WAL_APPEND,
    WAL_FSYNC,
    WAL_TORN_TAIL,
    FaultRegistry,
)
from repro.obs.flight import NULL_FLIGHT, FlightRecorder
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.storage.serializer import deserialize, serialize

_FRAME = struct.Struct(">II")


class LogRecordType(enum.Enum):
    #: one committed transaction: all of its operations
    COMMIT = "commit"
    CHECKPOINT = "checkpoint"
    #: durable composite-event detection state (versioned composer
    #: snapshot); carries no data-page state, replayed by the engine's
    #: event service on recovery, skipped by replicas.
    COMPOSER_CHECKPOINT = "composer_checkpoint"


#: tags of the one-record-per-operation log format this reader refuses
_PER_OPERATION_TAGS = frozenset(
    {"begin", "insert", "update", "delete", "abort"})


def _coerce_record_type(value: str) -> "LogRecordType | str":
    """Map a decoded type tag to its enum member — or keep the raw string.

    Forward compatibility: a newer writer may frame record types this
    reader does not know.  Ending the consistent prefix there would make
    every old replica (and lenient recovery) lose acked records behind a
    perfectly well-framed record, so unknown tags survive decoding as
    plain strings; every consumer dispatches on enum identity, which an
    unknown string never matches, so such records are inert but their
    LSNs still advance the scan.  The tags of the older per-operation
    format are the exception: they raise, because skipping them would
    drop committed data.
    """
    try:
        return LogRecordType(value)
    except ValueError:
        if value in _PER_OPERATION_TAGS:
            raise StorageError(
                f"log record of type {value!r} is in the one-record-per-"
                "operation format of an earlier version; open this "
                "database once with that version to recover and "
                "checkpoint it, then reopen it with this one") from None
        return value


@dataclass
class LogRecord:
    """One logical log record.

    ``ops`` is meaningful only for COMMIT: the transaction's operations
    in write-set order, each ``(oid value, full image or None for a
    delete)``.  ``payload`` carries checkpoint metadata for CHECKPOINT
    records and the composer snapshot for COMPOSER_CHECKPOINT records.
    ``type`` is a plain string for records framed by a newer writer (see
    :func:`_coerce_record_type`).
    """

    type: "LogRecordType | str"
    tx_id: int
    lsn: int = 0
    ops: list[tuple[int, Optional[bytes]]] = field(default_factory=list)
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def is_known_type(self) -> bool:
        return isinstance(self.type, LogRecordType)

    def encode(self) -> bytes:
        tag = (self.type.value if isinstance(self.type, LogRecordType)
               else self.type)
        return serialize({
            "t": tag,
            "x": self.tx_id,
            "l": self.lsn,
            "w": self.ops,
            "p": self.payload,
        })

    @classmethod
    def decode(cls, data: bytes) -> "LogRecord":
        fields = deserialize(data)
        return cls(
            type=_coerce_record_type(fields["t"]),
            tx_id=fields["x"],
            lsn=fields["l"],
            ops=fields.get("w", []),
            payload=fields["p"],
        )


class WriteAheadLog:
    """Append-only log file with one force path and a group-commit barrier.

    ``append`` buffers in memory and assigns the LSN.  Every physical write
    of the log is one *force* — one ``os.write`` + ``fsync`` covering every
    buffered record — and three entry points wait for one: ``flush()``
    (everything appended so far), ``flush_to(lsn)`` (the WAL-rule hook the
    buffer pool calls before writing a data page) and ``sync(lsn)`` (the
    commit barrier, which also counts the commits each force acknowledges).

    The barrier is leader/follower group commit with no linger and no
    flusher thread: a caller whose LSN is not yet durable either finds no
    force in flight and leads one, or waits for the one in flight and then
    re-checks.  The leader drops the log lock for the I/O, so commits that
    arrive meanwhile append, queue, and share the next force.  A caller is
    never released with success before a completed fsync covers its LSN;
    if a force fails, every waiter it covered observes the leader's
    exception instead of a durable-commit acknowledgment.
    """

    def __init__(self, path: str,
                 metrics: MetricsRegistry = NULL_METRICS,
                 faults: FaultRegistry = NULL_FAULTS,
                 flight: FlightRecorder = NULL_FLIGHT):
        self.path = path
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._lock = threading.RLock()
        # Condition over the RLock: ``wait()`` fully releases every
        # recursion level, so nested holders (truncate/close -> flush)
        # stay safe.
        self._barrier = threading.Condition(self._lock)
        self._buffer: list[bytes] = []
        self._next_lsn = 1
        self._flushed_lsn = 0
        #: COMMIT LSNs of committers waiting in :meth:`sync`
        self._commit_queue: list[int] = []
        self._forcing = False
        # Failure hand-off from leader to followers: ``(target LSN,
        # exception)`` of the last failed force, a fresh tuple each time,
        # so a waiter can tell whether a force failed while it waited.
        self._failure: Optional[tuple[int, BaseException]] = None
        # Robustness counters (surfaced via stats()): lenient scans that
        # discarded a corrupt suffix, well-framed records of unknown type
        # scanned past, and composer-checkpoint bookkeeping.
        self.recovery_truncations = 0
        self.unknown_records_skipped = 0
        self.composer_checkpoints_written = 0
        self.last_composer_checkpoint_lsn = 0
        self._m_appends = metrics.counter("wal.appends")
        self._m_flushes = metrics.counter("wal.flushes")
        self._m_commits_per_flush = metrics.histogram("wal.commits_per_flush")
        self._fp_append = faults.point(WAL_APPEND)
        self._fp_fsync = faults.point(WAL_FSYNC)
        self._fp_torn = faults.point(WAL_TORN_TAIL)
        self._flight = flight
        try:
            self._bootstrap_lsns()
        except BaseException:
            os.close(self._fd)
            raise

    def _bootstrap_lsns(self) -> None:
        """Continue LSN numbering after the existing log contents."""
        last = 0
        for record in self.iter_records(strict=False):
            last = record.lsn
        self._next_lsn = last + 1
        self._flushed_lsn = last

    # -- writing ---------------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Assign the next LSN to ``record``, buffer it, return the LSN."""
        with self._lock:
            self._fp_append.hit()
            record.lsn = self._next_lsn
            self._next_lsn += 1
            if record.type is LogRecordType.COMPOSER_CHECKPOINT:
                self.composer_checkpoints_written += 1
                self.last_composer_checkpoint_lsn = record.lsn
            payload = record.encode()
            frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
            self._buffer.append(frame)
            self._m_appends.inc()
            return record.lsn

    def flush(self) -> None:
        """Force every record appended so far to stable storage."""
        with self._lock:
            self._await_durable(self._next_lsn - 1)

    def flush_to(self, lsn: int) -> None:
        """Ensure every record up to ``lsn`` is durable (WAL rule)."""
        with self._lock:
            self._await_durable(lsn)

    def sync(self, lsn: int) -> None:
        """Commit barrier: block until the COMMIT record at ``lsn`` is
        durable, leading a force or sharing one in flight.  Raises the
        failure of the force that covered it instead of returning."""
        with self._lock:
            if lsn <= self._flushed_lsn:
                return
            self._commit_queue.append(lsn)
            self._await_durable(lsn)

    def _await_durable(self, lsn: int) -> None:
        """Leader/follower loop shared by every entry point (caller holds
        the lock): lead a force when none is in flight, otherwise wait for
        the one in flight and re-check."""
        while lsn > self._flushed_lsn:
            if not self._forcing:
                self._force()
                continue
            failure = self._failure
            self._barrier.wait()
            if (self._failure is not failure
                    and self._flushed_lsn < lsn <= self._failure[0]):
                raise self._failure[1]

    def _force(self) -> None:
        """The log's one physical write: every buffered frame, one fsync.

        The caller holds the lock and no force is in flight.  The lock is
        dropped (one recursion level) for the I/O so other sessions keep
        appending and queueing; ``_forcing`` keeps a second force out, and
        only the frames snapshotted here are drained.  Fault points fire
        exactly once per force.  Frames are drained only *after* ``fsync``
        succeeds: a failed fsync leaves them buffered (and ``flushed_lsn``
        stale) so the next force writes them again — harmless, because
        redo applies full after-images and is idempotent.  The injected
        torn tail is the exception: it simulates a crash mid-write, so it
        deliberately discards the batch.
        """
        self._forcing = True
        try:
            count = len(self._buffer)
            target = self._next_lsn - 1
            torn = self._fp_torn.hit() if count else None
            data = b"".join(self._buffer)
            try:
                self._lock.release()
                try:
                    if torn is not None:
                        # Persist the batch minus its final ``drop`` bytes
                        # (a torn tail for recovery to discard), then fail.
                        drop = min(torn.payload.get("drop", _FRAME.size + 1),
                                   len(data) - 1)
                        os.write(self._fd, data[:len(data) - drop])
                        os.fsync(self._fd)
                        raise InjectedFault(
                            f"torn tail injected: dropped final {drop} "
                            "bytes of the flush batch")
                    if data:
                        os.write(self._fd, data)
                    self._fp_fsync.hit()
                    os.fsync(self._fd)
                finally:
                    self._lock.acquire()
            except BaseException as exc:
                if torn is not None:
                    del self._buffer[:count]
                self._failure = (target, exc)
                self._commit_queue = [q for q in self._commit_queue
                                      if q > target]
                raise
            del self._buffer[:count]
            self._flushed_lsn = target
            commits = len(self._commit_queue)
            self._commit_queue = [q for q in self._commit_queue
                                  if q > self._flushed_lsn]
            commits -= len(self._commit_queue)
            self._m_flushes.inc()
            if commits:
                self._m_commits_per_flush.observe(float(commits))
            if self._flight.enabled:
                self._flight.record("wal.flush", lsn=self._flushed_lsn,
                                    commits=commits)
        finally:
            self._forcing = False
            self._barrier.notify_all()

    @property
    def flushed_lsn(self) -> int:
        with self._lock:
            return self._flushed_lsn

    @property
    def next_lsn(self) -> int:
        with self._lock:
            return self._next_lsn

    def stats(self) -> dict[str, Any]:
        """Live WAL view for the admin endpoint (consistent snapshot)."""
        with self._lock:
            try:
                size = os.fstat(self._fd).st_size
            except OSError:
                size = None
            return {
                "path": self.path,
                "size_bytes": size,
                "next_lsn": self._next_lsn,
                "flushed_lsn": self._flushed_lsn,
                "buffered_records": len(self._buffer),
                "commit_queue_depth": len(self._commit_queue),
                "flush_in_progress": self._forcing,
                "recovery_truncations": self.recovery_truncations,
                "unknown_records_skipped": self.unknown_records_skipped,
                "composer_checkpoints_written":
                    self.composer_checkpoints_written,
                "last_composer_checkpoint_lsn":
                    self.last_composer_checkpoint_lsn,
            }

    # -- reading ---------------------------------------------------------------

    def iter_records(self, strict: bool = True) -> Iterator[LogRecord]:
        """Scan durable records from the start of the log.

        A torn final record (crash mid-write) terminates the scan silently.
        Corruption anywhere else raises :class:`WALError` when ``strict``;
        with ``strict=False`` (the recovery path) the scan emits a
        :class:`RecoveryWarning` and stops, discarding everything from the
        corrupt record onward — the longest consistent prefix wins.
        """
        with self._lock:
            size = os.fstat(self._fd).st_size
            data = os.pread(self._fd, size, 0)
        offset = 0
        end = len(data)
        while offset < end:
            if offset + _FRAME.size > end:
                return  # torn frame header at tail
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            if start + length > end:
                return  # torn payload at tail
            payload = data[start:start + length]
            if zlib.crc32(payload) != crc:
                if start + length == end:
                    return  # torn tail: final record corrupt
                if strict:
                    raise WALError(f"CRC mismatch at offset {offset}")
                self.recovery_truncations += 1
                if self._flight.enabled:
                    self._flight.record(
                        "wal.recovery_truncation", offset=offset,
                        discarded_bytes=end - offset)
                warnings.warn(
                    f"WAL corrupt at offset {offset}: discarding "
                    f"{end - offset} trailing bytes and recovering from "
                    "the consistent prefix", RecoveryWarning,
                    stacklevel=2)
                return
            record = LogRecord.decode(payload)
            if not record.is_known_type:
                # Well-framed record from a newer writer: scan past it
                # (forward compatibility) but surface that it happened.
                self.unknown_records_skipped += 1
            yield record
            offset = start + length

    # -- maintenance -------------------------------------------------------------

    def truncate(self) -> None:
        """Erase the log (valid only after a checkpoint made it redundant)."""
        with self._lock:
            self.flush()
            os.ftruncate(self._fd, 0)
            os.fsync(self._fd)
            # LSNs keep increasing across truncation so page LSNs stay
            # monotonic relative to the log.
            self._flushed_lsn = self._next_lsn - 1

    def size_bytes(self) -> int:
        with self._lock:
            return os.fstat(self._fd).st_size

    def close(self) -> None:
        with self._lock:
            self.flush()
            os.close(self._fd)


class WALTailer:
    """Incremental consistent-prefix reader over a (possibly live) log file.

    The shipping side of primary->replica replication: a tailer holds its
    own read descriptor on the primary's log and, on every :meth:`poll`,
    decodes the records appended since the last poll.  Three invariants
    make this safe against a concurrently writing (or crashing) primary:

    * **frame-atomic** — a torn or incomplete frame at the tail stops the
      poll *before* it; the offset does not advance past it, so the next
      poll retries once the writer has finished (or never, if the primary
      died mid-write — exactly the prefix recovery would keep);
    * **CRC-checked** — a corrupt mid-log record also stops the poll (the
      consistent prefix wins, mirroring ``iter_records(strict=False)``);
    * **acked-bounded** — callers pass ``limit_lsn`` (the primary's
      ``flushed_lsn``) so the replica never applies a record the primary
      has not yet acknowledged as durable, even though such records can
      be visible in the OS page cache.

    Checkpoint truncation on the primary starts a new log generation;
    :meth:`poll` detects it and rewinds to the start (the caller re-seeds
    from the primary's data file in that case).  The tailer remembers the
    bytes of the first frame it read: LSNs never repeat across a
    truncation, so a different first frame means a new generation even
    once the new log has grown back past the old offset.
    """

    def __init__(self, path: str, offset: int = 0):
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        self.offset = offset
        #: the first frame of the generation being tailed (empty until
        #: read from offset 0)
        self._head = b""
        self.records_read = 0
        self.truncations = 0
        self.unknown_records = 0

    def poll(self, limit_lsn: Optional[int] = None) -> list[LogRecord]:
        """Decode every new complete record, oldest first.

        Returns an empty list when nothing new (or nothing admissible
        under ``limit_lsn``) has appeared.  On primary truncation the
        tailer rewinds to offset 0 and reads the fresh log from its
        start, counting the event in ``truncations``.
        """
        size = os.fstat(self._fd).st_size
        if self.offset and (size < self.offset or os.pread(
                self._fd, len(self._head), 0) != self._head):
            # The primary checkpointed and truncated its log: everything
            # we shipped so far is now baked into its data file.
            self.offset = 0
            self.truncations += 1
        if size == self.offset:
            return []
        data = os.pread(self._fd, size - self.offset, self.offset)
        records: list[LogRecord] = []
        cursor = 0
        end = len(data)
        while cursor < end:
            if cursor + _FRAME.size > end:
                break  # incomplete frame header: retry next poll
            length, crc = _FRAME.unpack_from(data, cursor)
            start = cursor + _FRAME.size
            if start + length > end:
                break  # incomplete payload: retry next poll
            payload = data[start:start + length]
            if zlib.crc32(payload) != crc:
                break  # torn/corrupt record: the prefix before it wins
            record = LogRecord.decode(payload)
            if limit_lsn is not None and record.lsn > limit_lsn:
                break  # not yet acked by the primary: wait
            if not record.is_known_type:
                # A newer primary framed a record type this tailer does
                # not know: skip it rather than ending the consistent
                # prefix, so old replicas survive new frame types.  The
                # LSN check above still bounds the skip to acked records.
                self.unknown_records += 1
                cursor = start + length
                continue
            records.append(record)
            cursor = start + length
        if not self.offset and cursor:
            length, __ = _FRAME.unpack_from(data, 0)
            self._head = data[:_FRAME.size + length]
        self.offset += cursor
        self.records_read += len(records)
        return records

    def stats(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "offset": self.offset,
            "records_read": self.records_read,
            "truncations": self.truncations,
            "unknown_records": self.unknown_records,
        }

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass
