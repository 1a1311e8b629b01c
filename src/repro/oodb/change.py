"""Change policy manager: state-change detection and transactional undo.

The paper reports that on closed commercial OODBMSs "changes of state could
not be detected as events" because value changes bypass methods and hit
low-level system functions (Section 4).  In the integrated architecture the
sentry traps ``__setattr__`` — our analog of the virtual-memory-fault
detection the paper lists as a planned low-level mechanism (Sections 3.1
and 7) — and this PM turns each trapped write into:

1. an **undo record** on the current transaction (restoring the attribute
   on abort, bypassing the sentry so rollback does not itself raise
   events), and
2. a **STATE_CHANGE system event** on the meta-architecture bus, which the
   persistence PM (dirty marking) and the index PM (maintenance) consume.
   REACH's state-change events do not take the bus: each state-change
   rule's detector is a sentry receiver subscribed after this PM's, so it
   runs once this receiver returned, and not at all if it raised.

Classes are monitored after registration with the database; monitoring is
orthogonal to persistence, exactly as Section 6.1 requires ("monitoring of
events must be possible regardless of other object properties such as
persistence").
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Type

from repro.oodb.meta import PolicyManager, SystemEventKind
from repro.oodb.sentry import (
    SentryRegistry,
    StateNotification,
    Subscription,
    is_sentried,
    registry as default_registry,
)
from repro.oodb.transactions import TransactionManager

_MISSING = object()


class ChangePolicyManager(PolicyManager):
    """Bridge from sentry state notifications to the system-event bus."""

    name = "Change PM"
    subscribed_kinds = ()

    def __init__(self, tx_manager: TransactionManager,
                 persistence: Any = None,
                 sentry_registry: Optional[SentryRegistry] = None):
        super().__init__()
        self.tx_manager = tx_manager
        self.persistence = persistence
        self.registry = sentry_registry or default_registry
        self._subscriptions: list[Subscription] = []
        self._monitored: set[Type] = set()
        self._lock = threading.RLock()
        #: reentrancy guard: state changes performed while delivering a
        #: state change (e.g. by a rule action) are still delivered, but
        #: undo records are always written first, so ordering stays safe.
        self.changes_observed = 0

    def monitor(self, cls: Type,
                receiver: Optional[Callable[[StateNotification], None]] = None
                ) -> None:
        """Begin observing attribute writes on instances of ``cls``,
        through :meth:`on_state` or a ``receiver`` that routes each write
        to the Change PM owning it (a sharded engine's)."""
        if not is_sentried(cls):
            raise TypeError(
                f"{cls.__name__} is not @sentried; state changes cannot "
                "be trapped")
        with self._lock:
            if cls in self._monitored:
                return
            self._monitored.add(cls)
            subscription = self.registry.watch_state(
                cls, None, receiver or self.on_state)
            self._subscriptions.append(subscription)

    def close(self) -> None:
        with self._lock:
            for subscription in self._subscriptions:
                subscription.cancel()
            self._subscriptions.clear()
            self._monitored.clear()

    # ------------------------------------------------------------------

    def on_state(self, note: StateNotification) -> None:
        self.changes_observed += 1
        obj = note.instance
        tx = self.tx_manager.current()
        if tx is not None and self.persistence is not None:
            # Concurrency control: writing a persistent object takes an
            # exclusive lock for the transaction family (2PL).  The write
            # has already been applied by the sentry wrapper, so a lock
            # failure reverts it before propagating.
            lock_oid = self.persistence.oid_of(obj)
            if lock_oid is not None:
                from repro.errors import LockError
                try:
                    self.tx_manager.lock(lock_oid, tx=tx)
                except LockError:
                    if note.had_old_value:
                        object.__setattr__(obj, note.attribute,
                                           note.old_value)
                    else:
                        _delete_attribute(obj, note.attribute)
                    raise
        if tx is not None:
            attribute = note.attribute
            if note.had_old_value:
                old = note.old_value
                tx.record_undo(
                    lambda: object.__setattr__(obj, attribute, old))
            else:
                tx.record_undo(
                    lambda: _delete_attribute(obj, attribute))
        oid = None
        if self.persistence is not None:
            oid = self.persistence.oid_of(obj)
        if self.meta is not None:
            self.meta.raise_event(
                SystemEventKind.STATE_CHANGE,
                instance=obj,
                cls=type(obj),
                attribute=note.attribute,
                old_value=note.old_value,
                new_value=note.new_value,
                had_old_value=note.had_old_value,
                oid=oid,
                tx=tx,
            )

    def describe(self) -> str:
        with self._lock:
            names = ", ".join(sorted(c.__name__ for c in self._monitored))
        return f"{self.name} (monitoring: {names or 'none'})"


def _delete_attribute(obj: Any, attribute: str) -> None:
    try:
        object.__delattr__(obj, attribute)
    except AttributeError:
        pass
