"""File-backed object storage manager (the EXODUS stand-in).

Responsibilities:

* map OIDs to serialized object images stored in slotted pages,
* fragment images larger than a page across multiple records,
* provide transactional durability via the write-ahead log with a
  **no-steal / redo-only** protocol: a transaction's writes are held in a
  private write set and applied to pages only after its COMMIT record is on
  disk, so data pages never contain uncommitted state and recovery never
  needs to undo,
* recover after a crash by replaying committed operations in log order
  (full-image logical records make replay idempotent),
* checkpoint by force-flushing all pages and truncating the log.

The storage manager knows nothing about classes, events, or rules — it
stores opaque byte strings per OID.  Concurrency control above it is the
lock manager's job; internally it is thread-safe via a single mutex.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.errors import RecordNotFoundError, StorageError
from repro.faults.registry import (
    NULL_FAULTS,
    STORAGE_CHECKPOINT,
    STORAGE_COMMIT,
    STORAGE_CRASH,
    STORAGE_PAGE_FLUSH,
    FaultRegistry,
)
from repro.obs.flight import NULL_FLIGHT, FlightRecorder
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.oodb.oid import OID
from repro.storage.buffer import BufferPool, PageFile
from repro.storage.pages import MAX_RECORD_SIZE, Page
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog

_FRAG_HEADER = struct.Struct(">IHH")  # oid, fragment seq, total fragments
_FRAG_PAYLOAD = MAX_RECORD_SIZE - _FRAG_HEADER.size


@dataclass
class _TxWriteSet:
    """Uncommitted effects of one transaction, applied at commit."""

    #: oid value -> image bytes, or None for a pending delete
    writes: dict[int, Optional[bytes]] = field(default_factory=dict)


class StorageManager:
    """The passive address-space manager: durable OID -> bytes storage."""

    DATA_FILE = "objects.dat"
    LOG_FILE = "wal.log"

    def __init__(self, directory: str, buffer_capacity: int = 128,
                 metrics: MetricsRegistry = NULL_METRICS,
                 faults: FaultRegistry = NULL_FAULTS,
                 flight: FlightRecorder = NULL_FLIGHT,
                 tracer: Any = None):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        #: optional tracer: the WAL commit barrier gets its own child span
        #: under the committing thread's open ``tx:commit`` span, so a
        #: trace tree shows how much of a commit was fsync.
        self._tracer = tracer
        self._fp_commit = faults.point(STORAGE_COMMIT)
        self._fp_checkpoint = faults.point(STORAGE_CHECKPOINT)
        self._fp_page_flush = faults.point(STORAGE_PAGE_FLUSH)
        self._fp_crash = faults.point(STORAGE_CRASH)
        self._flight = flight
        self._wal = WriteAheadLog(os.path.join(directory, self.LOG_FILE),
                                  metrics=metrics, faults=faults,
                                  flight=flight)
        self._file = PageFile(os.path.join(directory, self.DATA_FILE))
        self._pool = BufferPool(self._file, capacity=buffer_capacity,
                                flush_log=self._wal.flush_to,
                                metrics=metrics, faults=faults)
        self._lock = threading.RLock()
        # oid value -> list of (page_id, slot) in fragment order
        self._object_table: dict[int, list[tuple[int, int]]] = {}
        # page_id -> approximate contiguous free bytes
        self._free_space: dict[int, int] = {}
        self._page_count = 0
        self._active: dict[int, _TxWriteSet] = {}
        #: COMPOSER_CHECKPOINT payloads found in the log at recovery, in
        #: log order (oldest first).  The engine takes (and clears) them
        #: for its event service; they are re-appended to the fresh log
        #: below so a second crash before the next composer checkpoint
        #: still finds them.
        self.recovered_composer_checkpoints: list[dict] = []
        self._composer_checkpoints_recovered = 0
        #: engine-installed hook returning the current full composer
        #: snapshots; used to re-seed the log after checkpoint truncation
        #: (compaction: N incremental checkpoints collapse to the latest).
        self.composer_checkpoint_provider: \
            Optional[Callable[[], list[dict]]] = None
        self._recover()

    # ------------------------------------------------------------------
    # Bootstrap and recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the object table from pages, then replay the log."""
        with self._lock:
            self._scan_pages()
            winners: set[int] = set()
            operations: list[LogRecord] = []
            for record in self._wal.iter_records(strict=False):
                if record.type is LogRecordType.COMMIT:
                    winners.add(record.tx_id)
                elif record.type in (LogRecordType.INSERT,
                                     LogRecordType.UPDATE,
                                     LogRecordType.DELETE):
                    operations.append(record)
                elif record.type is LogRecordType.COMPOSER_CHECKPOINT:
                    self.recovered_composer_checkpoints.append(record.payload)
            for record in operations:
                if record.tx_id not in winners:
                    continue
                if record.type is LogRecordType.DELETE:
                    self._apply_delete(record.oid_value)
                else:
                    self._apply_write(record.oid_value, record.after or b"")
            # Recovery leaves the replayed state durable, so a crash during
            # normal operation later cannot be confused by the old log.
            self._pool.flush_all()
            self._wal.truncate()
            self._wal.append(LogRecord(LogRecordType.CHECKPOINT, tx_id=0))
            # Composer state is ordered *after* data-page replay: data
            # recovery never depends on it, and re-seeding the fresh log
            # with the recovered snapshots keeps half-matched composites
            # durable across back-to-back crashes.
            for payload in self.recovered_composer_checkpoints:
                self._wal.append(LogRecord(
                    LogRecordType.COMPOSER_CHECKPOINT, tx_id=0,
                    payload=payload))
            self._composer_checkpoints_recovered = len(
                self.recovered_composer_checkpoints)
            self._wal.flush()

    def _scan_pages(self) -> None:
        self._object_table.clear()
        self._free_space.clear()
        self._page_count = self._file.page_count()
        fragments: dict[int, list[tuple[int, int, int, int]]] = {}
        for page_id in range(self._page_count):
            page = self._pool.fetch(page_id, create=True)
            try:
                for slot, record in page.iter_records():
                    oid_value, seq, total = _FRAG_HEADER.unpack_from(record, 0)
                    fragments.setdefault(oid_value, []).append(
                        (seq, total, page_id, slot))
                self._free_space[page_id] = page.free_space()
            finally:
                self._pool.unpin(page_id)
        for oid_value, frags in fragments.items():
            frags.sort()
            total = frags[0][1]
            if len(frags) != total:
                raise StorageError(
                    f"object {oid_value}: {len(frags)} of {total} fragments"
                )
            self._object_table[oid_value] = [(p, s) for __, __, p, s in frags]

    # ------------------------------------------------------------------
    # Transaction protocol
    # ------------------------------------------------------------------

    def begin(self, tx_id: int) -> None:
        with self._lock:
            if tx_id in self._active:
                raise StorageError(f"transaction {tx_id} already active")
            self._active[tx_id] = _TxWriteSet()
            self._wal.append(LogRecord(LogRecordType.BEGIN, tx_id=tx_id))

    def _require_tx(self, tx_id: int) -> _TxWriteSet:
        ws = self._active.get(tx_id)
        if ws is None:
            raise StorageError(f"transaction {tx_id} is not active")
        return ws

    def write(self, tx_id: int, oid: OID, data: bytes) -> None:
        """Insert or update the image of ``oid`` within ``tx_id``."""
        with self._lock:
            ws = self._require_tx(tx_id)
            existed = (oid.value in self._object_table
                       or ws.writes.get(oid.value) is not None)
            rec_type = (LogRecordType.UPDATE if existed
                        else LogRecordType.INSERT)
            self._wal.append(LogRecord(
                rec_type, tx_id=tx_id, oid_value=oid.value, after=data))
            ws.writes[oid.value] = data

    def delete(self, tx_id: int, oid: OID) -> None:
        with self._lock:
            ws = self._require_tx(tx_id)
            in_ws = ws.writes.get(oid.value)
            if in_ws is None and oid.value not in self._object_table:
                raise RecordNotFoundError(f"no object with {oid}")
            self._wal.append(LogRecord(
                LogRecordType.DELETE, tx_id=tx_id, oid_value=oid.value))
            ws.writes[oid.value] = None

    def read(self, tx_id: Optional[int], oid: OID) -> bytes:
        """Read the image of ``oid``.

        Sees the transaction's own uncommitted writes first, then committed
        state.  ``tx_id=None`` reads committed state only.
        """
        with self._lock:
            if tx_id is not None and tx_id in self._active:
                ws = self._active[tx_id]
                if oid.value in ws.writes:
                    image = ws.writes[oid.value]
                    if image is None:
                        raise RecordNotFoundError(
                            f"{oid} deleted in transaction {tx_id}")
                    return image
            image = self._read_committed(oid.value)
            if image is None:
                raise RecordNotFoundError(f"no object with {oid}")
            return image

    def exists(self, tx_id: Optional[int], oid: OID) -> bool:
        with self._lock:
            if tx_id is not None and tx_id in self._active:
                ws = self._active[tx_id]
                if oid.value in ws.writes:
                    return ws.writes[oid.value] is not None
            return oid.value in self._object_table

    def commit(self, tx_id: int) -> None:
        """Make the transaction durable, then apply its writes to pages.

        The commit barrier (``wal.sync``) runs *outside* the storage mutex
        so concurrent committers can share one log force; the transaction
        stays in ``_active`` until its pages are applied, which keeps
        ``checkpoint`` from truncating a log the commit still depends on.
        Page application is safe to defer past the lock release because
        the lock manager above serializes conflicting transactions until
        after commit returns.
        """
        with self._lock:
            ws = self._require_tx(tx_id)
            self._fp_commit.hit(tx_id=tx_id)
            lsn = self._wal.append(LogRecord(LogRecordType.COMMIT,
                                             tx_id=tx_id))
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.child_span("wal:commit_wait", "wal", lsn=lsn):
                self._wal.sync(lsn)
        else:
            self._wal.sync(lsn)
        with self._lock:
            for oid_value, image in ws.writes.items():
                if image is None:
                    self._apply_delete(oid_value)
                else:
                    self._apply_write(oid_value, image)
            del self._active[tx_id]

    def abort(self, tx_id: int) -> None:
        with self._lock:
            self._require_tx(tx_id)
            self._wal.append(LogRecord(LogRecordType.ABORT, tx_id=tx_id))
            del self._active[tx_id]

    # ------------------------------------------------------------------
    # Page-level mechanics (committed state only)
    # ------------------------------------------------------------------

    def _read_committed(self, oid_value: int) -> Optional[bytes]:
        locations = self._object_table.get(oid_value)
        if locations is None:
            return None
        parts: list[bytes] = []
        for page_id, slot in locations:
            page = self._pool.fetch(page_id)
            try:
                record = page.read(slot)
            finally:
                self._pool.unpin(page_id)
            parts.append(record[_FRAG_HEADER.size:])
        return b"".join(parts)

    def _fragments(self, oid_value: int, data: bytes) -> list[bytes]:
        chunks = [data[i:i + _FRAG_PAYLOAD]
                  for i in range(0, len(data), _FRAG_PAYLOAD)] or [b""]
        total = len(chunks)
        return [
            _FRAG_HEADER.pack(oid_value, seq, total) + chunk
            for seq, chunk in enumerate(chunks)
        ]

    def _apply_write(self, oid_value: int, data: bytes) -> None:
        if oid_value in self._object_table:
            self._remove_fragments(oid_value)
        records = self._fragments(oid_value, data)
        locations: list[tuple[int, int]] = []
        for record in records:
            page_id = self._find_page_with_space(len(record))
            page = self._pool.fetch(page_id, create=True)
            try:
                slot = page.insert(record)
                self._free_space[page_id] = page.free_space()
            finally:
                self._pool.unpin(page_id, dirty=True)
            locations.append((page_id, slot))
        self._object_table[oid_value] = locations

    def _apply_delete(self, oid_value: int) -> None:
        if oid_value in self._object_table:
            self._remove_fragments(oid_value)
            del self._object_table[oid_value]

    def _remove_fragments(self, oid_value: int) -> None:
        for page_id, slot in self._object_table[oid_value]:
            page = self._pool.fetch(page_id)
            try:
                page.delete(slot)
                self._free_space[page_id] = page.free_space()
            finally:
                self._pool.unpin(page_id, dirty=True)

    def _find_page_with_space(self, record_size: int) -> int:
        for page_id, free in self._free_space.items():
            if free >= record_size:
                return page_id
        page_id = self._page_count
        self._page_count += 1
        self._free_space[page_id] = 0  # updated after the insert
        return page_id

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Force all pages and truncate the log.

        Composer-checkpoint compaction happens here: truncation drops
        every incremental COMPOSER_CHECKPOINT, so the engine-installed
        provider re-emits one current snapshot per composer into the
        fresh log before it is forced.
        """
        with self._lock:
            self._fp_checkpoint.hit()
            if self._active:
                raise StorageError(
                    "checkpoint with active transactions is not supported")
            self._pool.flush_all()
            self._wal.truncate()
            self._wal.append(LogRecord(LogRecordType.CHECKPOINT, tx_id=0))
            if self.composer_checkpoint_provider is not None:
                for payload in self.composer_checkpoint_provider():
                    self._wal.append(LogRecord(
                        LogRecordType.COMPOSER_CHECKPOINT, tx_id=0,
                        payload=payload))
            self._wal.flush()

    def append_composer_checkpoint(self, payload: dict) -> int:
        """Buffer one composer-state snapshot into the log.

        Rides the next force rather than paying its own fsync.  Appended
        at a top-level EOT, before the COMMIT record, it is forced with
        the commit it belongs to; the durability point of composer state
        is therefore the last committed transaction, exactly the paper's
        coupling expectation.
        """
        with self._lock:
            return self._wal.append(LogRecord(
                LogRecordType.COMPOSER_CHECKPOINT, tx_id=0,
                payload=payload))

    def flush(self) -> None:
        with self._lock:
            self._fp_page_flush.hit()
            self._wal.flush()
            self._pool.flush_all()

    def crash(self) -> None:
        """Simulate a crash: drop volatile state without flushing pages.

        The flight ring is preserved first — on a real crash the dump is
        the post-mortem record the torture harness validates against the
        recovered WAL prefix.
        """
        with self._lock:
            self._fp_crash.hit()
            self._flight.record("storage.crash")
            try:
                self._flight.dump(reason="crash")
            except Exception:
                pass  # a failed dump must never mask the crash itself
            self._pool.drop_all()
            self._active.clear()

    def close(self) -> None:
        with self._lock:
            self._pool.flush_all()
            self._wal.close()
            self._file.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def iter_oids(self) -> Iterator[OID]:
        with self._lock:
            values = sorted(self._object_table)
        for value in values:
            yield OID(value)

    def max_oid_value(self) -> int:
        with self._lock:
            return max(self._object_table, default=0)

    def object_count(self) -> int:
        with self._lock:
            return len(self._object_table)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "objects": len(self._object_table),
                "pages": self._page_count,
                "buffer_hits": self._pool.hits,
                "buffer_misses": self._pool.misses,
                "buffer_evictions": self._pool.evictions,
                "wal_bytes": self._wal.size_bytes(),
            }

    def wal_stats(self) -> dict:
        """The WAL's live view (admin endpoint ``/wal``)."""
        stats = self._wal.stats()
        stats["composer_checkpoints_recovered"] = \
            self._composer_checkpoints_recovered
        return stats
