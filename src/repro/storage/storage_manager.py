"""File-backed object storage manager (the EXODUS stand-in).

Responsibilities:

* map OIDs to serialized object images stored in slotted pages,
* fragment images larger than a page across multiple records,
* provide transactional durability via the write-ahead log with a
  **no-steal / redo-only** protocol: a transaction's writes are held in a
  private write set, logged as one COMMIT record that carries them all,
  and applied to pages only after that record is on disk, so data pages
  never contain uncommitted state and recovery never needs to undo,
* recover after a crash by redoing every complete COMMIT record in log
  order (full images make replay idempotent); begin and abort log
  nothing, so there is no analysis pass and no loser to filter,
* checkpoint by force-flushing all pages and truncating the log.

A committed update rewrites the object's existing records where they
are (``Page.update``) when the new image has as many fragments as the
old one; only a fragment that no longer fits its page, or a change in
fragment count, moves records between pages.  Redo needs no page LSNs
for this: pages only ever receive committed full images, and
``checkpoint`` flushes every page before it truncates the log, so any
page state newer than the last checkpoint belongs to an object that a
COMMIT record in the log covers, and redo rewrites that object whole.
Recovery therefore reads the log first: a page written back early
(steal) may leave such an object half relocated or with part of a
fragment set, and the page scan accepts that torn set for redo to
overwrite.  Any other object's fragments must form a complete set.

Free space is indexed by class (``free_space() // _FREE_CLASS``), so
finding a page for a record looks only at classes that are sure to fit
it and costs the same whatever the page count.

The storage manager knows nothing about classes, events, or rules — it
stores opaque byte strings per OID.  Concurrency control above it is the
lock manager's job; internally it is thread-safe via a single mutex.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import PageFullError, RecordNotFoundError, StorageError
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
from repro.storage.pages import MAX_RECORD_SIZE, PAGE_SIZE, Page
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog

_FRAG_HEADER = struct.Struct(">IHH")  # oid, fragment seq, total fragments
_FRAG_PAYLOAD = MAX_RECORD_SIZE - _FRAG_HEADER.size
#: Width in bytes of one free-space class: every page in class ``c`` has
#: at least ``c * _FREE_CLASS`` contiguous bytes free.
_FREE_CLASS = 512


#: one transaction's uncommitted effects, applied at commit: oid value
#: -> image bytes, or None for a pending delete
_WriteSet = dict[int, Optional[bytes]]


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
        # page_id -> free-space class, and the pages of each class
        self._page_class: dict[int, int] = {}
        self._free_pages: list[set[int]] = [
            set() for __ in range(PAGE_SIZE // _FREE_CLASS)]
        self._page_count = 0
        self._active: dict[int, _WriteSet] = {}
        #: COMPOSER_CHECKPOINT payloads found in the log at recovery, in
        #: log order (oldest first).  The engine takes (and clears) them
        #: for its event service; they are re-appended to the fresh log
        #: below so a second crash before the next composer checkpoint
        #: still finds them.
        self.recovered_composer_checkpoints: list[dict] = []
        self._composer_checkpoints_recovered = 0
        #: engine-installed pull hook ``provider(append, every)``: it
        #: hands composer snapshots to ``append`` just before a force.
        #: Called under the storage mutex, so a frame is buffered before
        #: any later COMMIT; see :meth:`_pull_composer_checkpoints`.
        self.composer_checkpoint_provider: Optional[
            Callable[[Callable[[dict], int], bool], None]] = None
        self._recover()

    # ------------------------------------------------------------------
    # Bootstrap and recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Read the log, rebuild the object table from pages, then redo
        every complete COMMIT record in log order."""
        with self._lock:
            operations: list[tuple[int, Optional[bytes]]] = []
            for record in self._wal.iter_records(strict=False):
                if record.type is LogRecordType.COMMIT:
                    operations.extend(record.ops)
                elif record.type is LogRecordType.COMPOSER_CHECKPOINT:
                    self.recovered_composer_checkpoints.append(record.payload)
            self._scan_pages({oid_value for oid_value, __ in operations})
            self._apply(operations)
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
                self._append_composer_checkpoint(payload)
            self._composer_checkpoints_recovered = len(
                self.recovered_composer_checkpoints)
            self._wal.flush()

    def _scan_pages(self, redone: set[int]) -> None:
        """Rebuild the object table from the pages.  A fragment set that
        is not exactly ``0..total-1`` is torn, an error unless its OID is
        in ``redone``: redo rewrites that object over the locations found."""
        self._object_table.clear()
        self._page_class.clear()
        for pages in self._free_pages:
            pages.clear()
        self._page_count = self._file.page_count()
        fragments: dict[int, list[tuple[int, int, int, int]]] = {}
        for page_id in range(self._page_count):
            page = self._pool.fetch(page_id, create=True)
            try:
                for slot, record in page.iter_records():
                    oid_value, seq, total = _FRAG_HEADER.unpack_from(record, 0)
                    fragments.setdefault(oid_value, []).append(
                        (seq, total, page_id, slot))
                self._set_free(page_id, page.free_space())
            finally:
                self._pool.unpin(page_id)
        for oid_value, frags in fragments.items():
            frags.sort()
            total = frags[0][1]
            torn = [frag[:2] for frag in frags] != [
                (seq, total) for seq in range(total)]
            if torn and oid_value not in redone:
                raise StorageError(
                    f"object {oid_value}: fragments "
                    f"{[frag[0] for frag in frags]} of {total}")
            self._object_table[oid_value] = [(p, s) for __, __, p, s in frags]

    # ------------------------------------------------------------------
    # Transaction protocol
    # ------------------------------------------------------------------

    def begin(self, tx_id: int) -> None:
        with self._lock:
            if tx_id in self._active:
                raise StorageError(f"transaction {tx_id} already active")
            self._active[tx_id] = {}

    def _require_tx(self, tx_id: int) -> _WriteSet:
        ws = self._active.get(tx_id)
        if ws is None:
            raise StorageError(f"transaction {tx_id} is not active")
        return ws

    def write(self, tx_id: int, oid: OID, data: bytes) -> None:
        """Insert or update the image of ``oid`` within ``tx_id``."""
        with self._lock:
            self._require_tx(tx_id)[oid.value] = data

    def delete(self, tx_id: int, oid: OID) -> None:
        with self._lock:
            ws = self._require_tx(tx_id)
            if (ws.get(oid.value) is None
                    and oid.value not in self._object_table):
                raise RecordNotFoundError(f"no object with {oid}")
            ws[oid.value] = None

    def read(self, tx_id: Optional[int], oid: OID) -> bytes:
        """Read the image of ``oid``.

        Sees the transaction's own uncommitted writes first, then committed
        state.  ``tx_id=None`` reads committed state only.
        """
        with self._lock:
            if tx_id is not None and tx_id in self._active:
                ws = self._active[tx_id]
                if oid.value in ws:
                    image = ws[oid.value]
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
                if oid.value in ws:
                    return ws[oid.value] is not None
            return oid.value in self._object_table

    def commit(self, tx_id: int) -> None:
        """Make the transaction durable, then apply its writes to pages.

        The transaction's one log record is its COMMIT, carrying every
        write; it follows the composer checkpoints pulled for the same
        force.  The commit barrier (``wal.sync``) runs *outside* the
        storage mutex so concurrent committers can share one log force;
        the transaction stays in ``_active`` until its pages are applied,
        which keeps ``checkpoint`` from truncating a log the commit still
        depends on.  Page application is safe to defer past the lock
        release because the lock manager above serializes conflicting
        transactions until after commit returns.
        """
        with self._lock:
            ws = self._require_tx(tx_id)
            self._fp_commit.hit(tx_id=tx_id)
            self._pull_composer_checkpoints()
            lsn = self._wal.append(LogRecord(
                LogRecordType.COMMIT, tx_id=tx_id, ops=list(ws.items())))
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.child_span("wal:commit_wait", "wal", lsn=lsn):
                self._wal.sync(lsn)
        else:
            self._wal.sync(lsn)
        with self._lock:
            self._apply(ws.items())
            del self._active[tx_id]

    def abort(self, tx_id: int) -> None:
        with self._lock:
            self._require_tx(tx_id)
            del self._active[tx_id]

    # ------------------------------------------------------------------
    # Page-level mechanics (committed state only)
    # ------------------------------------------------------------------

    def _apply(self, operations: Iterable[tuple[int, Optional[bytes]]]
               ) -> None:
        for oid_value, image in operations:
            if image is None:
                self._apply_delete(oid_value)
            else:
                self._apply_write(oid_value, image)

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
        records = self._fragments(oid_value, data)
        old = self._object_table.get(oid_value)
        if old is None or len(old) != len(records):
            if old is not None:
                self._remove_fragments(oid_value)
            self._object_table[oid_value] = [
                self._insert(record) for record in records]
            return
        locations: list[tuple[int, int]] = []
        for (page_id, slot), record in zip(old, records):
            page = self._pool.fetch(page_id)
            try:
                page.update(slot, record)
                location = (page_id, slot)
            except PageFullError:
                location = None  # update() has already emptied the slot
            finally:
                self._set_free(page_id, page.free_space())
                self._pool.unpin(page_id, dirty=True)
            locations.append(location or self._insert(record))
        self._object_table[oid_value] = locations

    def _insert(self, record: bytes) -> tuple[int, int]:
        page_id = self._find_page_with_space(len(record))
        page = self._pool.fetch(page_id, create=True)
        try:
            slot = page.insert(record)
            self._set_free(page_id, page.free_space())
        finally:
            self._pool.unpin(page_id, dirty=True)
        return page_id, slot

    def _apply_delete(self, oid_value: int) -> None:
        if oid_value in self._object_table:
            self._remove_fragments(oid_value)
            del self._object_table[oid_value]

    def _remove_fragments(self, oid_value: int) -> None:
        for page_id, slot in self._object_table[oid_value]:
            page = self._pool.fetch(page_id)
            try:
                page.delete(slot)
                self._set_free(page_id, page.free_space())
            finally:
                self._pool.unpin(page_id, dirty=True)

    def _set_free(self, page_id: int, free: int) -> None:
        """Move ``page_id`` to the class of its ``free`` bytes."""
        cls = free // _FREE_CLASS
        old = self._page_class.get(page_id)
        if old != cls:
            if old is not None:
                self._free_pages[old].discard(page_id)
            self._free_pages[cls].add(page_id)
            self._page_class[page_id] = cls

    def _find_page_with_space(self, record_size: int) -> int:
        """A page that can hold ``record_size`` bytes, new if none can.

        Only classes whose every page fits are searched, so a page that
        would fit in the class just below is passed over.
        """
        for pages in self._free_pages[-(-record_size // _FREE_CLASS):]:
            if pages:
                return next(iter(pages))
        page_id = self._page_count
        self._page_count += 1
        return page_id

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Force all pages and truncate the log.

        Composer-checkpoint compaction happens here: truncation drops
        every incremental COMPOSER_CHECKPOINT, so the provider re-emits
        one current snapshot per composer into the fresh log before it
        is forced.
        """
        with self._lock:
            self._fp_checkpoint.hit()
            if self._active:
                raise StorageError(
                    "checkpoint with active transactions is not supported")
            self._pool.flush_all()
            self._wal.truncate()
            self._wal.append(LogRecord(LogRecordType.CHECKPOINT, tx_id=0))
            self._pull_composer_checkpoints(every=True)
            self._wal.flush()

    def _pull_composer_checkpoints(self, every: bool = False) -> None:
        """Buffer composer snapshots for the force that follows (caller
        holds the mutex).

        Composer state becomes durable when the log is forced, not when a
        transaction ends, so it is pulled right before each force that
        needs it: the COMMIT of a data transaction (whose acknowledgment
        thus covers the state as of its EOT), ``flush`` and ``close``
        take the dirty composers, ``checkpoint`` every one.  A
        signal-only commit appends nothing; its state rides the next
        force.
        """
        provider = self.composer_checkpoint_provider
        if provider is not None:
            provider(self._append_composer_checkpoint, every)

    def _append_composer_checkpoint(self, payload: dict) -> int:
        return self._wal.append(LogRecord(
            LogRecordType.COMPOSER_CHECKPOINT, tx_id=0, payload=payload))

    def flush(self) -> None:
        with self._lock:
            self._fp_page_flush.hit()
            self._pull_composer_checkpoints()
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
            self._pull_composer_checkpoints()
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
