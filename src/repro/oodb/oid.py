"""Object identifiers and persistent references.

Every persistent object in the system is identified by an :class:`OID`.
OIDs are allocated by the data dictionary, are never reused, and are the
unit of reference both inside the storage manager (record lookup) and across
detached-rule boundaries (the paper, Section 3.2: references to persistent
objects may be passed to detached rules; references to transient objects may
not).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class OID:
    """An immutable object identifier.

    The ``value`` is a positive integer unique within one database.  OID 0
    is reserved as the invalid/null OID.
    """

    value: int

    NULL_VALUE = 0

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("OID value must be non-negative")

    @property
    def is_null(self) -> bool:
        return self.value == self.NULL_VALUE

    def __repr__(self) -> str:
        return f"OID({self.value})"


NULL_OID = OID(OID.NULL_VALUE)

#: Default width of one contiguous OID block owned by a single shard.
#: Block-striped ownership (block ``k`` belongs to shard ``k mod N``) keeps
#: allocation purely local to a shard while still letting ``route`` be a
#: pure function of the OID value — no shared allocation state, no lookup
#: table that could drift between coordinator and shard.
DEFAULT_OID_RANGE_SIZE = 1024


def route(oid_value: int, shard_count: int,
          range_size: int = DEFAULT_OID_RANGE_SIZE) -> int:
    """Map an OID value to the shard that owns it.

    Pure, total over non-negative OID values, and deterministic: the same
    ``(oid_value, shard_count, range_size)`` always yields the same shard,
    in this process or any other.  Ownership is block-striped: OID values
    are divided into contiguous blocks of ``range_size`` and block ``k``
    belongs to shard ``k % shard_count``.  The null OID (0) routes to
    shard 0 like any other value in block 0.
    """
    if isinstance(oid_value, OID):
        oid_value = oid_value.value
    if oid_value < 0:
        raise ValueError("OID value must be non-negative")
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if range_size < 1:
        raise ValueError("range_size must be >= 1")
    return (oid_value // range_size) % shard_count


class OIDAllocator:
    """Thread-safe monotonically increasing OID source.

    The allocator can be restarted above a floor after recovery so that OIDs
    of recovered objects are never reissued.
    """

    def __init__(self, start: int = 1):
        if start < 1:
            raise ValueError("OID allocation must start at 1 or above")
        self._lock = threading.Lock()
        self._next = start

    def allocate(self) -> OID:
        with self._lock:
            oid = OID(self._next)
            self._next += 1
            return oid

    def ensure_above(self, floor: int) -> None:
        """Guarantee that future OIDs are strictly greater than ``floor``."""
        with self._lock:
            if self._next <= floor:
                self._next = floor + 1

    @property
    def next_value(self) -> int:
        with self._lock:
            return self._next


class ShardedOIDAllocator(OIDAllocator):
    """An :class:`OIDAllocator` that only issues OIDs owned by one shard.

    Each shard runs one of these; together they partition the OID space
    without any coordination.  The allocator walks the shard's blocks in
    order, jumping over blocks owned by other shards, so
    ``route(allocate().value, shard_count, range_size) == shard_id`` always
    holds.  ``ensure_above`` keeps its recovery contract: after a restart
    the catalog floor is re-applied and allocation resumes in the next
    owned position strictly above it.
    """

    def __init__(self, shard_id: int, shard_count: int,
                 range_size: int = DEFAULT_OID_RANGE_SIZE, start: int = 1):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 <= shard_id < shard_count:
            raise ValueError("shard_id must be in [0, shard_count)")
        if range_size < 1:
            raise ValueError("range_size must be >= 1")
        super().__init__(start=start)
        self.shard_id = shard_id
        self.shard_count = shard_count
        self.range_size = range_size

    def _next_owned(self, value: int) -> int:
        """Smallest shard-owned OID value >= ``value``."""
        block = value // self.range_size
        offset = block % self.shard_count
        if offset == self.shard_id:
            return value
        delta = (self.shard_id - offset) % self.shard_count
        return (block + delta) * self.range_size

    def allocate(self) -> OID:
        with self._lock:
            value = self._next_owned(self._next)
            self._next = value + 1
            return OID(value)

    @property
    def next_value(self) -> int:
        with self._lock:
            return self._next_owned(self._next)


@dataclass(frozen=True)
class ObjectRef:
    """A serializable reference to a persistent object.

    ``ObjectRef`` is what an OID looks like *inside* stored object state:
    when object A holds object B in an attribute and both are persistent,
    the storage layer swizzles the in-memory pointer into an ``ObjectRef``
    on write and back into the live object on fetch.
    """

    oid: OID
    class_name: str

    def __repr__(self) -> str:
        return f"ObjectRef({self.class_name}#{self.oid.value})"
