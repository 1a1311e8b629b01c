"""Buffer pool with LRU replacement.

The buffer pool mediates all page access between the storage manager and
the page file on disk.  Pages are pinned while in use; an unpinned dirty
page may be evicted, which writes it to disk.  The pool needs no WAL hook:
the storage manager changes a page only after the COMMIT frame of the
change is durable, so any page it writes is already covered by the log.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Optional

from repro.errors import StorageError
from repro.faults.registry import BUFFER_EVICT, NULL_FAULTS, FaultRegistry
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.storage.pages import PAGE_SIZE, Page

_NEVER_WRITTEN = bytes(PAGE_SIZE)


class PageFile:
    """Fixed-size-page file on disk.

    Page ids map directly to file offsets (``page_id * PAGE_SIZE``).  The
    file grows when a page beyond the current end is written, so pages
    below it that were never written read back as zeros.
    """

    def __init__(self, path: str):
        self.path = path
        flags = os.O_RDWR | os.O_CREAT
        self._fd = os.open(path, flags, 0o644)
        self._lock = threading.Lock()

    def read_page(self, page_id: int) -> Optional[bytes]:
        """Return the raw page image, or ``None`` if never written.

        An all-zero image inside the file is a hole left by a later page
        written first: a written page's header always records a free
        offset of at least ``HEADER_SIZE``.
        """
        with self._lock:
            data = os.pread(self._fd, PAGE_SIZE, page_id * PAGE_SIZE)
        if len(data) == 0 or data == _NEVER_WRITTEN:
            return None
        if len(data) != PAGE_SIZE:
            raise StorageError(
                f"short read of page {page_id}: {len(data)} bytes"
            )
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise StorageError("page image has wrong size")
        with self._lock:
            os.pwrite(self._fd, data, page_id * PAGE_SIZE)

    def sync(self) -> None:
        os.fsync(self._fd)

    def page_count(self) -> int:
        with self._lock:
            size = os.fstat(self._fd).st_size
        return size // PAGE_SIZE

    def close(self) -> None:
        os.close(self._fd)


class BufferPool:
    """An LRU cache of :class:`Page` frames over a :class:`PageFile`."""

    def __init__(self, page_file: PageFile, capacity: int = 64,
                 metrics: MetricsRegistry = NULL_METRICS,
                 faults: FaultRegistry = NULL_FAULTS):
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self._file = page_file
        self._capacity = capacity
        self._frames: OrderedDict[int, Page] = OrderedDict()
        self._pins: dict[int, int] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        metrics.counter_fn("buffer.hits", lambda: self.hits)
        metrics.counter_fn("buffer.misses", lambda: self.misses)
        metrics.counter_fn("buffer.evictions", lambda: self.evictions)
        self._fp_evict = faults.point(BUFFER_EVICT)

    # -- pin/unpin -----------------------------------------------------------

    def fetch(self, page_id: int, create: bool = False) -> Page:
        """Pin and return the page; loads from disk on a miss.

        With ``create=True`` a missing (never-written) page is materialized
        empty instead of raising.
        """
        with self._lock:
            page = self._frames.get(page_id)
            if page is not None:
                self.hits += 1
                self._frames.move_to_end(page_id)
                self._pins[page_id] = self._pins.get(page_id, 0) + 1
                return page
            self.misses += 1
            raw = self._file.read_page(page_id)
            if raw is None:
                if not create:
                    raise StorageError(f"page {page_id} does not exist")
                page = Page(page_id)
            else:
                page = Page(page_id, raw)
            self._make_room()
            self._frames[page_id] = page
            self._pins[page_id] = 1
            return page

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        with self._lock:
            if page_id not in self._pins or self._pins[page_id] <= 0:
                raise StorageError(f"page {page_id} is not pinned")
            if dirty:
                self._frames[page_id].dirty = True
            self._pins[page_id] -= 1

    def _make_room(self) -> None:
        while len(self._frames) >= self._capacity:
            victim_id = None
            for pid in self._frames:
                if self._pins.get(pid, 0) == 0:
                    victim_id = pid
                    break
            if victim_id is None:
                raise StorageError("buffer pool exhausted: all pages pinned")
            self._fp_evict.hit(page_id=victim_id)
            victim = self._frames.pop(victim_id)
            self._pins.pop(victim_id, None)
            self.evictions += 1
            if victim.dirty:
                self._file.write_page(victim.page_id, victim.to_bytes())

    # -- bulk operations -------------------------------------------------------

    def flush_all(self) -> None:
        """Write every dirty frame to disk (used at commit/checkpoint)."""
        with self._lock:
            for page in self._frames.values():
                if page.dirty:
                    self._file.write_page(page.page_id, page.to_bytes())
                    page.dirty = False
            self._file.sync()

    def drop_all(self) -> None:
        """Discard every frame without writing (crash simulation)."""
        with self._lock:
            self._frames.clear()
            self._pins.clear()

    @property
    def resident_page_count(self) -> int:
        with self._lock:
            return len(self._frames)
