"""Slotted pages: the unit of storage and buffering.

Classic slotted-page layout (as used by EXODUS and most record managers):

* a small header at the start of the page,
* record payloads growing forward from the header,
* a slot directory growing backward from the end of the page.

Each slot holds the (offset, length) of one record.  Deleting a record frees
its slot (offset 0 marks an empty slot) but leaves a hole in the payload
area; :meth:`Page.compact` squeezes holes out when an insert would otherwise
fail.  Records are at most :data:`MAX_RECORD_SIZE` bytes; larger objects are
split across pages by the storage manager.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.errors import PageError, PageFullError

PAGE_SIZE = 4096

#: num_slots, free_offset, and a 4-byte field once meant for a page LSN:
#: always written as 0, kept so existing data files read unchanged
_HEADER = struct.Struct(">HHI")
_SLOT = struct.Struct(">HH")             # record offset, record length
HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size

#: Largest record a page can hold: one record plus its slot in an otherwise
#: empty page.
MAX_RECORD_SIZE = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE

_EMPTY_SLOT_OFFSET = 0


class Page:
    """One fixed-size slotted page.

    The page does not know what its records mean; the storage manager stores
    serialized object fragments in them.  A page has no LSN: it only
    receives images whose COMMIT frame is already durable, so redo never
    needs to ask how new a page is.
    """

    __slots__ = ("page_id", "data", "dirty")

    def __init__(self, page_id: int, data: Optional[bytes] = None):
        self.page_id = page_id
        if data is None:
            self.data = bytearray(PAGE_SIZE)
            self._write_header(0, HEADER_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise PageError(
                    f"page image must be {PAGE_SIZE} bytes, got {len(data)}"
                )
            self.data = bytearray(data)
        self.dirty = False

    # -- header helpers -----------------------------------------------------

    def _read_header(self) -> tuple[int, int]:
        num_slots, free_offset, __ = _HEADER.unpack_from(self.data, 0)
        return num_slots, free_offset

    def _write_header(self, num_slots: int, free_offset: int) -> None:
        _HEADER.pack_into(self.data, 0, num_slots, free_offset, 0)

    # -- slot helpers -------------------------------------------------------

    def _slot_position(self, slot: int) -> int:
        return PAGE_SIZE - (slot + 1) * SLOT_SIZE

    def _read_slot(self, slot: int) -> tuple[int, int]:
        num_slots, __ = self._read_header()
        if not 0 <= slot < num_slots:
            raise PageError(f"slot {slot} out of range (page has {num_slots})")
        return _SLOT.unpack_from(self.data, self._slot_position(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_position(slot), offset, length)

    # -- public accounting ---------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self._read_header()[0]

    def free_space(self) -> int:
        """Bytes available for a new record *including* its new slot.

        This is contiguous free space; :meth:`compact` may recover more.
        """
        num_slots, free_offset = self._read_header()
        directory_start = PAGE_SIZE - num_slots * SLOT_SIZE
        return max(0, directory_start - free_offset - SLOT_SIZE)

    # -- record operations ----------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store ``record`` and return its slot number.

        Reuses an empty slot when one exists; compacts the page first if the
        payload area is fragmented.  Raises :class:`PageFullError` when the
        record cannot fit even after compaction.
        """
        if len(record) > MAX_RECORD_SIZE:
            raise PageError(
                f"record of {len(record)} bytes exceeds MAX_RECORD_SIZE"
            )
        num_slots, free_offset = self._read_header()
        reuse_slot = None
        for slot in range(num_slots):
            offset, __ = self._read_slot(slot)
            if offset == _EMPTY_SLOT_OFFSET:
                reuse_slot = slot
                break
        slot_cost = 0 if reuse_slot is not None else SLOT_SIZE
        directory_start = PAGE_SIZE - num_slots * SLOT_SIZE
        if directory_start - free_offset - slot_cost < len(record):
            self.compact()
            num_slots, free_offset = self._read_header()
            directory_start = PAGE_SIZE - num_slots * SLOT_SIZE
            if directory_start - free_offset - slot_cost < len(record):
                raise PageFullError(
                    f"page {self.page_id}: no room for {len(record)} bytes"
                )
        self.data[free_offset:free_offset + len(record)] = record
        if reuse_slot is None:
            slot = num_slots
            num_slots += 1
        else:
            slot = reuse_slot
        self._write_header(num_slots, free_offset + len(record))
        self._write_slot(slot, free_offset, len(record))
        self.dirty = True
        return slot

    def read(self, slot: int) -> bytes:
        """Return the record stored in ``slot``."""
        offset, length = self._read_slot(slot)
        if offset == _EMPTY_SLOT_OFFSET:
            raise PageError(f"slot {slot} on page {self.page_id} is empty")
        return bytes(self.data[offset:offset + length])

    def delete(self, slot: int) -> None:
        """Free ``slot``.  The payload hole is reclaimed lazily by compact."""
        offset, __ = self._read_slot(slot)
        if offset == _EMPTY_SLOT_OFFSET:
            raise PageError(f"slot {slot} on page {self.page_id} already empty")
        self._write_slot(slot, _EMPTY_SLOT_OFFSET, 0)
        self.dirty = True

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot`` with ``record``.

        Updates in place when the new payload fits in the old one; otherwise
        the record is rewritten at the free pointer (compacting if needed).
        """
        offset, length = self._read_slot(slot)
        if offset == _EMPTY_SLOT_OFFSET:
            raise PageError(f"slot {slot} on page {self.page_id} is empty")
        if len(record) <= length:
            self.data[offset:offset + len(record)] = record
            self._write_slot(slot, offset, len(record))
            self.dirty = True
            return
        # Free the old image first so compaction can reclaim it.
        self._write_slot(slot, _EMPTY_SLOT_OFFSET, 0)
        num_slots, free_offset = self._read_header()
        directory_start = PAGE_SIZE - num_slots * SLOT_SIZE
        if directory_start - free_offset < len(record):
            self.compact()
            num_slots, free_offset = self._read_header()
            directory_start = PAGE_SIZE - num_slots * SLOT_SIZE
            if directory_start - free_offset < len(record):
                # Roll the slot back to empty-and-unusable state is wrong;
                # restore nothing — caller must relocate the record.
                raise PageFullError(
                    f"page {self.page_id}: update of {len(record)} bytes "
                    "does not fit; relocate the record"
                )
        self.data[free_offset:free_offset + len(record)] = record
        self._write_slot(slot, free_offset, len(record))
        self._write_header(num_slots, free_offset + len(record))
        self.dirty = True

    def compact(self) -> None:
        """Slide live records together, erasing payload holes."""
        num_slots, __ = self._read_header()
        live: list[tuple[int, bytes]] = []
        for slot in range(num_slots):
            offset, length = self._read_slot(slot)
            if offset != _EMPTY_SLOT_OFFSET:
                live.append((slot, bytes(self.data[offset:offset + length])))
        write_at = HEADER_SIZE
        for slot, payload in live:
            self.data[write_at:write_at + len(payload)] = payload
            self._write_slot(slot, write_at, len(payload))
            write_at += len(payload)
        self._write_header(num_slots, write_at)
        self.dirty = True

    def iter_records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record."""
        num_slots, __ = self._read_header()
        for slot in range(num_slots):
            offset, length = self._read_slot(slot)
            if offset != _EMPTY_SLOT_OFFSET:
                yield slot, bytes(self.data[offset:offset + length])

    def to_bytes(self) -> bytes:
        return bytes(self.data)
