"""Address-space managers and translation (paper, Section 5).

Open OODB's meta-architecture contains *address space managers* (ASMs):
an **active** ASM allows computation — in an object-oriented environment it
is where methods execute — while a **passive** ASM is simply a data
repository.  At least one active ASM must exist, and object transfer
between spaces goes through a *translation* mechanism.

Here the active ASM is the in-memory identity map (OID -> live Python
object) in which all method execution happens, the passive ASM wraps the
EXODUS-like storage manager, and translation is the swizzling serializer
that converts live objects to storable images and back.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Optional, Union

from repro.oodb.meta import SupportModule
from repro.oodb.oid import DEFAULT_OID_RANGE_SIZE, OID, route
from repro.storage.storage_manager import StorageManager


class ActiveAddressSpace(SupportModule):
    """The computational space: identity map of resident objects.

    Guarantees at most one live Python object per OID, so object identity
    comparisons (``a is b``) work across repeated fetches.
    """

    name = "active-ASM (in-memory)"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._residents: dict[OID, Any] = {}
        self._oids: dict[int, OID] = {}  # id(obj) -> OID

    def install(self, oid: OID, obj: Any) -> None:
        with self._lock:
            self._residents[oid] = obj
            self._oids[id(obj)] = oid

    def evict(self, oid: OID) -> None:
        with self._lock:
            obj = self._residents.pop(oid, None)
            if obj is not None:
                self._oids.pop(id(obj), None)

    def resident(self, oid: OID) -> Optional[Any]:
        with self._lock:
            return self._residents.get(oid)

    def oid_of(self, obj: Any) -> Optional[OID]:
        with self._lock:
            return self._oids.get(id(obj))

    def clear(self) -> None:
        with self._lock:
            self._residents.clear()
            self._oids.clear()

    @property
    def resident_count(self) -> int:
        with self._lock:
            return len(self._residents)

    def describe(self) -> str:
        return f"{self.name} ({self.resident_count} resident objects)"


class ShardMap(SupportModule):
    """The topology view: which shard owns an OID, a key, a spec.

    A ``ShardMap`` is pure routing state — shard count and OID block size —
    shared by the coordinator and every shard so that any component can
    answer "where does this live?" without consulting another shard.  Two
    routing functions live here:

    * ``shard_of`` routes *objects* by OID block (see
      :func:`repro.oodb.oid.route`);
    * ``shard_of_key`` routes *names* (event-spec keys, rule homes) by a
      stable content hash.  Python's built-in ``hash`` is salted per
      process, which would scatter a spec's home shard across restarts, so
      the CRC of the key's ``repr`` is used instead.
    """

    name = "shard map"

    def __init__(self, shard_count: int = 1,
                 range_size: int = DEFAULT_OID_RANGE_SIZE):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if range_size < 1:
            raise ValueError("range_size must be >= 1")
        self.shard_count = shard_count
        self.range_size = range_size

    def shard_of(self, oid: Union[OID, int]) -> int:
        value = oid.value if isinstance(oid, OID) else oid
        return route(value, self.shard_count, self.range_size)

    def shard_of_key(self, key: Any) -> int:
        digest = zlib.crc32(repr(key).encode("utf-8", "backslashreplace"))
        return digest % self.shard_count

    def describe(self) -> str:
        return (f"{self.name} ({self.shard_count} shards, "
                f"OID blocks of {self.range_size})")


class PassiveAddressSpace(SupportModule):
    """The repository space: durable OID -> image storage."""

    name = "passive-ASM (EXODUS-like storage manager)"

    def __init__(self, storage: StorageManager):
        self.storage = storage

    def read(self, tx_id: Optional[int], oid: OID) -> bytes:
        return self.storage.read(tx_id, oid)

    def write(self, tx_id: int, oid: OID, image: bytes) -> None:
        self.storage.write(tx_id, oid, image)

    def delete(self, tx_id: int, oid: OID) -> None:
        self.storage.delete(tx_id, oid)

    def exists(self, tx_id: Optional[int], oid: OID) -> bool:
        return self.storage.exists(tx_id, oid)

    def describe(self) -> str:
        return f"{self.name} ({self.storage.object_count()} stored objects)"
