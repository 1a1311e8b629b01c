"""Persistence policy manager.

Implements the *persistent C++* flavour of persistence the paper prefers
(Section 4): objects become persistent by an **explicit** ``persist`` call
(optionally with a global name), deletion is an **explicit** ``delete``
whose invocation is detectable as an event (the destructor-method argument),
and objects referenced from persistent state are swept in automatically
(reachability) at flush time so stored images never dangle.

The PM plugs onto the meta-architecture bus and listens for state changes
to mark objects dirty.  It registers a pre-commit step so that at
top-level commit all dirty images are written through the passive address
space under one storage transaction (the WAL makes the batch atomic), and
the catalog record (name bindings, extents, OID map) is rewritten when it
changed.

A sharded engine's kernels share one transaction manager, and one PM's
step flushes them all (:meth:`PersistencePolicyManager.flush_with`): it
stages every kernel's images before any kernel's storage commits, so a
serialization failure anywhere leaves nothing durable.  What stays open
is a storage commit failing on a later kernel after an earlier kernel's
is durable — the window ROADMAP item 3 closes with one COMMIT frame.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Optional, Union

from repro.errors import (
    NotPersistentError,
    ObjectNotFoundError,
    RecordNotFoundError,
)
from repro.oodb.address_space import ActiveAddressSpace, PassiveAddressSpace
from repro.oodb.data_dictionary import CATALOG_OID, DataDictionary
from repro.oodb.meta import (
    PolicyManager,
    SystemEvent,
    SystemEventKind,
)
from repro.oodb.oid import OID, ObjectRef
from repro.oodb.sentry import is_sentried
from repro.oodb.transactions import Transaction, TransactionManager
from repro.storage.serializer import deserialize, serialize


class PersistencePolicyManager(PolicyManager):
    """Persist, fetch, and delete objects; flush dirty state at commit."""

    name = "Persistence PM"
    subscribed_kinds = (SystemEventKind.STATE_CHANGE,)

    def __init__(self, dictionary: DataDictionary,
                 active_space: ActiveAddressSpace,
                 passive_space: PassiveAddressSpace,
                 tx_manager: TransactionManager):
        super().__init__()
        self.dictionary = dictionary
        self.active = active_space
        self.passive = passive_space
        self.tx_manager = tx_manager
        self._lock = threading.RLock()
        #: objects modified outside any transaction; flushed with the next
        #: top-level commit (documented relaxation — prefer transactions).
        self._untracked_dirty: set[Any] = set()
        #: held from taking a catalog image until the storage transaction
        #: carrying it has committed (see :meth:`_commit_storage`).
        self._catalog_mutex = threading.Lock()
        #: the PMs whose storage this one's pre-commit step flushes,
        #: itself first (see :meth:`flush_with`).
        self._flushed: tuple["PersistencePolicyManager", ...] = (self,)
        tx_manager.set_hooks(self, pre_commit=(self._flush,))
        self._detached = False
        self._load_catalog()

    def detach(self) -> None:
        """Unhook from the transaction manager (engine shutdown): commits
        after this no longer flush through a closed storage manager.
        Idempotent."""
        if self._detached:
            return
        self._detached = True
        self.tx_manager.set_hooks(self)

    def flush_with(self, others: list["PersistencePolicyManager"]) -> None:
        """Flush ``others`` — the other kernels of an engine whose
        transaction manager they share with this PM — in this PM's
        pre-commit step, and unhook their own."""
        for other in others:
            other.detach()
        self._flushed = (self, *others)

    # ------------------------------------------------------------------
    # Bus integration
    # ------------------------------------------------------------------

    def on_event(self, event: SystemEvent) -> None:
        if event.kind is SystemEventKind.STATE_CHANGE:
            obj = event.info.get("instance")
            if obj is not None:
                self.mark_dirty(obj)

    # ------------------------------------------------------------------
    # Public object lifecycle
    # ------------------------------------------------------------------

    def persist(self, obj: Any, name: Optional[str] = None) -> OID:
        """Make ``obj`` persistent, optionally binding a global name.

        Idempotent for already-persistent objects (the name binding is
        still applied).  Undoable: aborting the enclosing transaction
        un-persists the object.
        """
        oid = self.active.oid_of(obj)
        newly_persistent = oid is None
        if newly_persistent:
            oid = self.dictionary.allocate_oid(type(obj))
            self.active.install(oid, obj)
            tx = self.tx_manager.current()
            if tx is not None:
                tx.dirty_objects[obj] = None
                tx.record_undo(lambda o=oid, ob=obj: self._unpersist(o, ob))
            else:
                with self._lock:
                    self._untracked_dirty.add(obj)
        if name is not None:
            self.dictionary.bind_name(name, oid)
            tx = self.tx_manager.current()
            if tx is not None:
                # Its kernel's flush carries the binding (see _stage).
                tx.dirty_objects[obj] = None
                tx.record_undo(
                    lambda n=name: self.dictionary.unbind_name(n))
        if newly_persistent and self.meta is not None:
            self.meta.raise_event(SystemEventKind.PERSIST,
                                  instance=obj, oid=oid, name=name)
        return oid

    def _unpersist(self, oid: OID, obj: Any) -> None:
        self.dictionary.drop_oid(oid)
        self.active.evict(oid)
        with self._lock:
            self._untracked_dirty.discard(obj)

    def fetch(self, target: Union[str, OID]) -> Any:
        """Return the live object for a persistent name or OID.

        Fetch goes through the active address space first (identity map);
        a miss loads the image from the passive space and reconstructs the
        object, swizzling stored references back into live objects.
        """
        oid = (self.dictionary.resolve_name(target)
               if isinstance(target, str) else target)
        tx = self.tx_manager.current()
        if tx is not None and oid in tx.top_level().deleted_objects:
            raise ObjectNotFoundError(f"{oid} deleted in this transaction")
        obj = self.active.resident(oid)
        if obj is not None:
            return obj
        obj = self._load(oid)
        if self.meta is not None:
            self.meta.raise_event(SystemEventKind.FETCH,
                                  instance=obj, oid=oid)
        return obj

    def delete(self, target: Union[str, OID, Any]) -> None:
        """Explicitly delete a persistent object.

        Raises the OBJECT_DELETE system event first — invocation of the
        'destructor' is itself a detectable event, the capability the paper
        could not get from persistence-by-reachability systems.
        """
        if isinstance(target, OID):
            oid = target
            obj = self.active.resident(oid)
        elif isinstance(target, str):
            oid = self.dictionary.resolve_name(target)
            obj = self.active.resident(oid)
        else:
            obj = target
            oid = self.active.oid_of(obj)
            if oid is None:
                raise NotPersistentError(
                    f"{type(target).__name__} instance is not persistent")
        if self.meta is not None:
            self.meta.raise_event(SystemEventKind.OBJECT_DELETE,
                                  instance=obj, oid=oid)
        class_name = self.dictionary.class_of(oid)
        names = [n for n, o in self.dictionary.names().items() if o == oid]
        self.dictionary.drop_oid(oid)
        self.active.evict(oid)
        tx = self.tx_manager.current()
        if tx is not None:
            top = tx.top_level()
            top.deleted_objects.add(oid)
            tx.record_undo(lambda: self._undelete(oid, class_name, names,
                                                  obj, tx))
        else:
            # No transaction: delete durably right away.
            storage = self.passive.storage
            storage.begin(-oid.value)
            try:
                if storage.exists(-oid.value, oid):
                    storage.delete(-oid.value, oid)
                self._commit_storage(-oid.value)
            except BaseException:
                storage.abort(-oid.value)
                raise

    def _undelete(self, oid: OID, class_name: str, names: list[str],
                  obj: Any, tx: Transaction) -> None:
        self.dictionary.adopt_oid(oid, class_name)
        for name in names:
            self.dictionary.bind_name(name, oid)
        if obj is not None:
            self.active.install(oid, obj)
        tx.top_level().deleted_objects.discard(oid)

    def oid_of(self, obj: Any) -> Optional[OID]:
        return self.active.oid_of(obj)

    def is_persistent(self, obj: Any) -> bool:
        return self.active.oid_of(obj) is not None

    def mark_dirty(self, obj: Any) -> None:
        """Record that ``obj`` must be flushed (no-op for transients)."""
        if self.active.oid_of(obj) is None:
            return
        tx = self.tx_manager.current()
        if tx is not None:
            tx.dirty_objects[obj] = None
        else:
            with self._lock:
                self._untracked_dirty.add(obj)

    # ------------------------------------------------------------------
    # Flush at top-level commit
    # ------------------------------------------------------------------

    def _flush(self, tx: Transaction) -> None:
        """The pre-commit step: stage every flushed PM's images, then
        commit their storage transactions in order.  A failure aborts
        every storage transaction not yet committed; only a commit that
        fails after an earlier PM's succeeded leaves part of ``tx``
        durable (ROADMAP item 3)."""
        staged = []
        try:
            for pm in self._flushed:
                if pm._stage(tx):
                    staged.append(pm)
            while staged:
                staged[0]._commit_storage(tx.id)
                del staged[0]
        except BaseException:
            for pm in staged:
                pm.passive.storage.abort(tx.id)
            raise

    def _stage(self, tx: Transaction) -> bool:
        """Write ``tx``'s dirty images and deletions into a storage
        transaction of ``tx``'s id, left open for the commit; False when
        there is nothing to write.  A dirty catalog is written with work
        on this kernel, or by a transaction with no object work at all
        (``flush()``): a commit on another kernel does not write it."""
        idle = not (tx.dirty_objects or tx.deleted_objects)
        if idle and not (self._untracked_dirty or self.dictionary.dirty):
            return False
        with self._lock:
            dirty = set(tx.dirty_objects) | self._untracked_dirty
            self._untracked_dirty.clear()
        deleted = set(tx.deleted_objects)
        dirty = {obj for obj in dirty
                 if self.active.oid_of(obj) is not None
                 and self.active.oid_of(obj) not in deleted}
        storage = self.passive.storage
        # A transaction's deletions span every kernel it touched; this
        # kernel's storage deletes those it holds.
        stored = [oid for oid in deleted if storage.exists(None, oid)]
        if not dirty and not stored and not (idle and self.dictionary.dirty):
            return False
        storage.begin(tx.id)
        try:
            # Serialization may discover reachable transients and persist
            # them, appending to the insertion-ordered dirty marks:
            # iterate to a fixpoint.
            written: set[OID] = set()
            pending = list(dirty)
            marks = tx.dirty_objects
            while pending:
                obj = pending.pop()
                oid = self.active.oid_of(obj)
                if oid is None or oid in written or oid in deleted:
                    continue
                before = len(marks)
                image = self._serialize_object(obj)
                self.passive.write(tx.id, oid, image)
                written.add(oid)
                if len(marks) != before:
                    pending.extend(itertools.islice(marks, before, None))
            for oid in stored:
                self.passive.delete(tx.id, oid)
        except BaseException:
            storage.abort(tx.id)
            raise
        return True

    def _commit_storage(self, storage_tx_id: int) -> None:
        """Commit a storage transaction, adding the catalog image first
        when the dictionary changed since its last durable image.

        The mutex is held from taking the image until ``storage.commit``
        has returned, so images reach the log and the pages in the order
        they were taken.  The dictionary stays dirty until then: a
        committer whose name bindings sit in another committer's in-flight
        image waits here until that image is durable — or, if that commit
        failed, writes its own — before it acknowledges.  Commits against
        a clean catalog never take the mutex.
        """
        storage = self.passive.storage
        if self.dictionary.dirty:
            with self._catalog_mutex:
                if self.dictionary.dirty:
                    version, catalog = self.dictionary.snapshot()
                    self.passive.write(storage_tx_id, CATALOG_OID,
                                       serialize(catalog))
                    storage.commit(storage_tx_id)
                    self.dictionary.mark_durable(version)
                    return
        storage.commit(storage_tx_id)

    # ------------------------------------------------------------------
    # Translation (swizzling)
    # ------------------------------------------------------------------

    def _serialize_object(self, obj: Any) -> bytes:
        attrs = {
            key: self._swizzle(value)
            for key, value in vars(obj).items()
            if not key.startswith("_")
        }
        return serialize({
            "__class__": type(obj).__name__,
            "attrs": attrs,
        })

    def _swizzle(self, value: Any) -> Any:
        if isinstance(value, (list, tuple)):
            swizzled = [self._swizzle(v) for v in value]
            return type(value)(swizzled) if isinstance(value, tuple) \
                else swizzled
        if isinstance(value, dict):
            return {k: self._swizzle(v) for k, v in value.items()}
        if self._is_object(value):
            oid = self.active.oid_of(value)
            if oid is None:
                # Reachability: a transient referenced from persistent
                # state becomes persistent at flush.
                oid = self.persist(value)
            return ObjectRef(oid, type(value).__name__)
        return value

    @staticmethod
    def _is_object(value: Any) -> bool:
        """True for application objects (candidates for swizzling)."""
        return is_sentried(type(value))

    def _load(self, oid: OID) -> Any:
        tx = self.tx_manager.current()
        tx_id = tx.id if tx is not None else None
        try:
            image = self.passive.read(tx_id, oid)
        except RecordNotFoundError as exc:
            raise ObjectNotFoundError(str(exc)) from exc
        record = deserialize(image)
        class_name = record["__class__"]
        cls = self.dictionary.type_named(class_name)
        obj = cls.__new__(cls)
        # Install before filling attributes so reference cycles terminate.
        self.active.install(oid, obj)
        if not self.dictionary.knows_oid(oid):
            self.dictionary.adopt_oid(oid, class_name)
        try:
            for key, value in record["attrs"].items():
                object.__setattr__(obj, key, self._unswizzle(value))
        except BaseException:
            self.active.evict(oid)
            raise
        return obj

    def _unswizzle(self, value: Any) -> Any:
        if isinstance(value, ObjectRef):
            resident = self.active.resident(value.oid)
            if resident is not None:
                return resident
            return self._load(value.oid)
        if isinstance(value, list):
            return [self._unswizzle(v) for v in value]
        if isinstance(value, tuple):
            return tuple(self._unswizzle(v) for v in value)
        if isinstance(value, dict):
            return {k: self._unswizzle(v) for k, v in value.items()}
        return value

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def _load_catalog(self) -> None:
        storage = self.passive.storage
        if storage.exists(None, CATALOG_OID):
            catalog = deserialize(storage.read(None, CATALOG_OID))
            self.dictionary.load_catalog(catalog)

    def describe(self) -> str:
        return (f"{self.name} (explicit persist/delete, reachability sweep "
                f"at flush; {self.active.resident_count} resident)")
