"""EXODUS-like storage substrate.

The paper's Open OODB platform uses the EXODUS storage manager as its
passive address-space manager (Section 5).  This package is the Python
stand-in: a file-backed record store built from slotted pages, a buffer
pool, and a redo-only write-ahead log of one COMMIT frame per
transaction, which recovery reads once at open.
"""

from repro.storage.serializer import serialize, deserialize
from repro.storage.pages import Page, PAGE_SIZE
from repro.storage.buffer import BufferPool
from repro.storage.wal import WriteAheadLog, LogRecord, LogRecordType
from repro.storage.storage_manager import StorageManager

__all__ = [
    "serialize",
    "deserialize",
    "Page",
    "PAGE_SIZE",
    "BufferPool",
    "WriteAheadLog",
    "LogRecord",
    "LogRecordType",
    "StorageManager",
]
