"""The Open OODB meta-architecture: events, sentries, and policy managers.

The paper (Section 5) describes Open OODB as a computational model that
"transparently extends the behavior of operations in application programming
languages": any operation can be an *event*; a *sentry* tracks primitive
events and invokes the appropriate *policy manager* (PM) which implements
the extended behavior.  The meta-architecture module is the "software bus"
on which PMs are plugged.

This module implements that bus.  System events (method invocation, state
change, persist, fetch, delete, transaction begin/commit/abort, ...) are
raised onto the bus; policy managers subscribe to the kinds they extend.
The REACH rule system is itself just another policy manager plugged onto
the bus — exactly the integration the paper argues for.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.metrics import AtomicCounters


class SystemEventKind(enum.Enum):
    """Primitive operations whose behaviour the meta-architecture extends."""

    METHOD_BEFORE = "method_before"
    METHOD_AFTER = "method_after"
    STATE_CHANGE = "state_change"
    OBJECT_CREATE = "object_create"
    OBJECT_DELETE = "object_delete"
    PERSIST = "persist"
    FETCH = "fetch"
    TX_BEGIN = "tx_begin"
    TX_PRE_COMMIT = "tx_pre_commit"   # EOT: after work, before commit
    TX_COMMIT = "tx_commit"
    TX_ABORT = "tx_abort"


@dataclass
class SystemEvent:
    """One occurrence of a system event flowing over the bus.

    ``info`` carries kind-specific payload: for method events the instance,
    method name, arguments and result; for transaction events the
    transaction object; and so on.
    """

    kind: SystemEventKind
    info: dict[str, Any] = field(default_factory=dict)


class PolicyManager:
    """Base class for pluggable database components.

    A policy manager declares the system event kinds it extends via
    :attr:`subscribed_kinds` and receives each matching
    :class:`SystemEvent` through :meth:`on_event`.  Managers are attached to
    exactly one :class:`MetaArchitecture`.
    """

    #: Human-readable name shown in the architecture inventory (Figure 1).
    name: str = "policy-manager"

    #: Event kinds this manager extends.
    subscribed_kinds: tuple[SystemEventKind, ...] = ()

    def __init__(self) -> None:
        self.meta: Optional[MetaArchitecture] = None

    def attach(self, meta: "MetaArchitecture") -> None:
        """Called when the manager is plugged onto the bus."""
        self.meta = meta

    def detach(self) -> None:
        self.meta = None

    def on_event(self, event: SystemEvent) -> None:
        """Handle one system event.  Default: ignore."""

    def describe(self) -> str:
        """One-line description for the architecture inventory."""
        kinds = ", ".join(k.value for k in self.subscribed_kinds) or "none"
        return f"{self.name} (extends: {kinds})"


class SupportModule:
    """Base class for the meta-architecture's support modules.

    The paper lists address space managers, communications, translation and
    the data dictionary as support modules (Section 5, Figure 1).
    """

    name: str = "support-module"

    def describe(self) -> str:
        return self.name


class MetaArchitecture:
    """The software bus: registry plus dispatch for system events.

    Dispatch is synchronous and in registration order; a policy manager that
    needs asynchrony (e.g. REACH's event composers) queues internally.  The
    bus also counts raised events per kind, which the sentry-overhead
    benchmark (E1) uses.

    The transaction manager does not raise BOT/EOT/Commit/Abort here
    unless some manager subscribes to them: it compiles its lifecycle
    from :attr:`subscribers` (see :meth:`watch`) and calls the REACH rule
    policy manager's typed hooks directly.
    """

    def __init__(self) -> None:
        self._managers: list[PolicyManager] = []
        #: kind -> the managers subscribed to it, in plug order.  Each
        #: value is an immutable tuple replaced in plug/unplug, so
        #: :meth:`raise_event` reads it without the lock or a copy.
        self.subscribers: dict[SystemEventKind, tuple[PolicyManager, ...]] \
            = {}
        self._support: list[SupportModule] = []
        self._watchers: list[Callable[[], None]] = []
        self._lock = threading.RLock()
        self._counts = AtomicCounters(SystemEventKind)

    # -- registration -------------------------------------------------------

    def plug(self, manager: PolicyManager) -> PolicyManager:
        """Plug a policy manager onto the bus and subscribe it."""
        with self._lock:
            self._managers.append(manager)
            for kind in manager.subscribed_kinds:
                self.subscribers[kind] = (*self.subscribers.get(kind, ()),
                                          manager)
        manager.attach(self)
        self._rewired()
        return manager

    def unplug(self, manager: PolicyManager) -> None:
        with self._lock:
            if manager in self._managers:
                self._managers.remove(manager)
            for kind, managers in list(self.subscribers.items()):
                if manager in managers:
                    kept = tuple(m for m in managers if m is not manager)
                    if kept:
                        self.subscribers[kind] = kept
                    else:
                        del self.subscribers[kind]
        manager.detach()
        self._rewired()

    def watch(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` after every plug and unplug (components that
        compile their dispatch from :attr:`subscribers` recompile)."""
        with self._lock:
            self._watchers.append(callback)
        callback()

    def _rewired(self) -> None:
        with self._lock:
            watchers = list(self._watchers)
        for callback in watchers:
            callback()

    def add_support_module(self, module: SupportModule) -> SupportModule:
        with self._lock:
            self._support.append(module)
        return module

    def find_manager(self, name: str) -> Optional[PolicyManager]:
        with self._lock:
            for manager in self._managers:
                if manager.name == name:
                    return manager
        return None

    # -- dispatch -----------------------------------------------------------

    def raise_event(self, kind: SystemEventKind, **info: Any) -> SystemEvent:
        """Raise a system event onto the bus, notifying subscribed PMs."""
        event = SystemEvent(kind, info)
        self._counts.inc(kind)
        for manager in self.subscribers.get(kind, ()):
            manager.on_event(event)
        return event

    @property
    def event_counts(self) -> dict[SystemEventKind, int]:
        """Events raised so far, per kind (kinds never raised omitted)."""
        return {kind: raised
                for kind, raised in self._counts.snapshot().items() if raised}

    # -- introspection (Figure 1 inventory) ----------------------------------

    def inventory(self) -> dict[str, list[str]]:
        """Describe the booted architecture, mirroring Figure 1."""
        with self._lock:
            return {
                "policy_managers": [m.describe() for m in self._managers],
                "support_modules": [s.describe() for s in self._support],
            }
