"""Data dictionary: the globally known repository of system, object, name,
and type information (paper, Section 5).

Tracks:

* **types** — registered application classes, by name, so objects can be
  reconstructed at fetch time;
* **names** — the persistent-name binding table (``persist(obj, "BlockA")``
  ... ``fetch("BlockA")``);
* **extents** — the set of OIDs of each class, which the query processor
  scans and the index manager maintains;
* **OIDs** — allocation, and the OID -> class-name map.

The dictionary itself is persisted as a catalog record under a reserved
OID, written by the persistence policy manager at the first top-level
commit after it changed.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, Optional, Type

from repro.errors import (
    DuplicateNameError,
    ObjectNotFoundError,
    TypeRegistrationError,
)
from repro.oodb.meta import SupportModule
from repro.oodb.oid import OID, OIDAllocator

#: The catalog record's reserved OID value.
CATALOG_OID = OID(1)
FIRST_USER_OID = 2


class DataDictionary(SupportModule):
    """In-memory dictionary state plus (de)materialization to a catalog."""

    name = "data-dictionary"

    def __init__(self, allocator: Optional[OIDAllocator] = None) -> None:
        self._lock = threading.RLock()
        self._types: dict[str, Type] = {}
        self._names: dict[str, OID] = {}
        self._extents: dict[str, set[OID]] = {}
        self._classes_of: dict[OID, str] = {}
        #: sharded engines inject a ShardedOIDAllocator so each shard's
        #: dictionary only ever issues OIDs from that shard's blocks.
        self.allocator = allocator if allocator is not None \
            else OIDAllocator(start=FIRST_USER_OID)
        #: persisted rule-DDL blocks ("rules are objects too": REACH rule
        #: definitions are database objects; the DDL text is their stored
        #: form, recompiled at load time by the application).
        self._rule_ddl: list[str] = []
        #: ``_version`` counts catalog mutations; ``_durable_version`` is
        #: the version of the newest image known to be on disk.
        self._version = 0
        self._durable_version = 0

    @property
    def dirty(self) -> bool:
        """True while the catalog holds a change no durable image has."""
        return self._version != self._durable_version

    # -- types -----------------------------------------------------------------

    def register_type(self, cls: Type) -> None:
        """Register ``cls`` so instances can be stored and reconstructed."""
        with self._lock:
            existing = self._types.get(cls.__name__)
            if existing is not None and existing is not cls:
                raise TypeRegistrationError(
                    f"type name {cls.__name__!r} already registered to a "
                    "different class")
            self._types[cls.__name__] = cls

    def type_named(self, name: str) -> Type:
        with self._lock:
            cls = self._types.get(name)
        if cls is None:
            raise TypeRegistrationError(f"type {name!r} is not registered")
        return cls

    def has_type(self, name: str) -> bool:
        with self._lock:
            return name in self._types

    # -- OIDs and extents ---------------------------------------------------------

    def allocate_oid(self, cls: Type) -> OID:
        with self._lock:
            if cls.__name__ not in self._types:
                self.register_type(cls)
            oid = self.allocator.allocate()
            self._classes_of[oid] = cls.__name__
            self._extents.setdefault(cls.__name__, set()).add(oid)
            self._version += 1
            return oid

    def adopt_oid(self, oid: OID, class_name: str) -> None:
        """Record an existing OID (used when loading the catalog)."""
        with self._lock:
            self._classes_of[oid] = class_name
            self._extents.setdefault(class_name, set()).add(oid)
            self.allocator.ensure_above(oid.value)
            self._version += 1

    def drop_oid(self, oid: OID) -> None:
        with self._lock:
            class_name = self._classes_of.pop(oid, None)
            if class_name is not None:
                self._extents.get(class_name, set()).discard(oid)
            for name in [n for n, o in self._names.items() if o == oid]:
                del self._names[name]
            self._version += 1

    def class_of(self, oid: OID) -> str:
        with self._lock:
            class_name = self._classes_of.get(oid)
        if class_name is None:
            raise ObjectNotFoundError(f"{oid} is not in the dictionary")
        return class_name

    def knows_oid(self, oid: OID) -> bool:
        with self._lock:
            return oid in self._classes_of

    def extent(self, class_name: str,
               include_subclasses: bool = True) -> set[OID]:
        """OIDs of all instances of ``class_name`` (and subclasses)."""
        with self._lock:
            oids = set(self._extents.get(class_name, ()))
            if include_subclasses and class_name in self._types:
                base = self._types[class_name]
                for other_name, other_cls in self._types.items():
                    if other_cls is not base and issubclass(other_cls, base):
                        oids |= self._extents.get(other_name, set())
            return oids

    def iter_oids(self) -> Iterator[OID]:
        with self._lock:
            oids = sorted(self._classes_of)
        yield from oids

    # -- names ------------------------------------------------------------------

    def bind_name(self, name: str, oid: OID) -> None:
        with self._lock:
            existing = self._names.get(name)
            if existing is not None and existing != oid:
                raise DuplicateNameError(
                    f"name {name!r} already bound to {existing}")
            self._names[name] = oid
            self._version += 1

    def unbind_name(self, name: str) -> None:
        with self._lock:
            self._names.pop(name, None)
            self._version += 1

    def resolve_name(self, name: str) -> OID:
        with self._lock:
            oid = self._names.get(name)
        if oid is None:
            raise ObjectNotFoundError(f"no object named {name!r}")
        return oid

    def has_name(self, name: str) -> bool:
        with self._lock:
            return name in self._names

    def names(self) -> dict[str, OID]:
        with self._lock:
            return dict(self._names)

    # -- persistent rule definitions -----------------------------------------------

    def add_rule_ddl(self, ddl: str) -> None:
        with self._lock:
            if ddl not in self._rule_ddl:
                self._rule_ddl.append(ddl)
                self._version += 1

    def replace_rule_ddl(self, ddl: str, replacements: list[str]) -> None:
        """Swap a stored block for ``replacements`` in its place: load
        order is definition order, which breaks priority ties."""
        with self._lock:
            if ddl in self._rule_ddl:
                index = self._rule_ddl.index(ddl)
                self._rule_ddl[index:index + 1] = replacements
                self._version += 1

    def rule_ddl_blocks(self) -> list[str]:
        with self._lock:
            return list(self._rule_ddl)

    # -- catalog (de)materialization ------------------------------------------------

    def to_catalog(self) -> dict[str, Any]:
        """A serializable image of the dictionary (types are by name only;
        classes must be re-registered by the application at startup)."""
        with self._lock:
            return {
                "names": {n: o.value for n, o in self._names.items()},
                "classes_of": {o.value: c
                               for o, c in self._classes_of.items()},
                "next_oid": self.allocator.next_value,
                "rule_ddl": list(self._rule_ddl),
            }

    def snapshot(self) -> tuple[int, dict[str, Any]]:
        """The catalog image together with the version it captures."""
        with self._lock:
            return self._version, self.to_catalog()

    def mark_durable(self, version: int) -> None:
        """Record that the image taken at ``version`` reached the disk."""
        with self._lock:
            self._durable_version = version

    def load_catalog(self, catalog: dict[str, Any]) -> None:
        with self._lock:
            for value, class_name in catalog.get("classes_of", {}).items():
                self.adopt_oid(OID(int(value)), class_name)
            for name, value in catalog.get("names", {}).items():
                self._names[name] = OID(int(value))
            self.allocator.ensure_above(int(catalog.get("next_oid", 1)) - 1)
            for ddl in catalog.get("rule_ddl", []):
                if ddl not in self._rule_ddl:
                    self._rule_ddl.append(ddl)
            self._durable_version = self._version

    def describe(self) -> str:
        with self._lock:
            return (f"{self.name} ({len(self._types)} types, "
                    f"{len(self._classes_of)} objects, "
                    f"{len(self._names)} names)")
