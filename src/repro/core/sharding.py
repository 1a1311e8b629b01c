"""The sharded engine: N kernels, one event space, one OID space.

This is the first change where "the engine" stops being one object.  A
:class:`ShardedEngine` owns N :class:`~repro.core.engine.ReachEngine`
kernels, each with its own storage manager and WAL, histories,
scheduler and temporal source — and splits the global concerns
explicitly:

* **objects** partition by OID block: every shard's data dictionary
  allocates from a :class:`~repro.oodb.oid.ShardedOIDAllocator`, so the
  pure :func:`repro.oodb.oid.route` function answers ownership with no
  shared state (see :class:`~repro.oodb.address_space.ShardMap`);
* **events** stay global: all shards share one scoped
  :class:`~repro.oodb.sentry.SentryRegistry`, every event spec has one
  *home* shard (stable content hash of its key) where its detector and
  ECA-manager live, and composites whose leaves home on different
  shards are wired through the :class:`CrossShardEventBus`.  Ordering
  needs no protocol: ``EventOccurrence.seq`` is stamped at detection
  from one process-global counter — the PR 6 lazy-merge invariant —
  so occurrences from different shards already carry a total order;
* **transactions** span: the engine has one transaction manager, which
  every kernel shares, so a transaction that touches several shards is
  one :class:`~repro.oodb.transactions.Transaction`.  Every kernel's
  hooks run on it (deferred rules, composer sweeps, the flush, detached
  release), an occurrence detected on any shard carries its id, it
  nests like a one-kernel transaction, and it is one lock family in the
  engine's one lock table, so a cross-shard deadlock is a cycle there;
* **durability** is per shard: each shard has its own group-commit WAL,
  which its own recovery reads at open.  The commit stages every
  shard's images before any shard's storage commits, so a failure
  while staging leaves nothing durable; a storage commit that fails on
  a later shard after an earlier shard's is durable is the window
  ROADMAP item 3 closes with one COMMIT frame;
* **observability** is the engine's, not the shards': the coordinator
  builds one metrics registry, tracer, flight recorder, telemetry
  pipeline and fault registry and hands them to every kernel, so a
  counter reads the topology's total, a cascade that crosses shards is
  one span tree, and one flight ring (dumped under the engine root)
  holds every shard's records in one order;
* **the engine surface** is written once: the shards are the engine's
  ``kernels``, so every fan-out on
  :class:`~repro.core.engine.EngineBase` (``statistics()``, ``query``,
  ``drain_detached``, ``dead_letters``/``requeue``, ``checkpoint``,
  ``close``, ...) covers the topology, and this module adds only
  routing, placement and the cross-shard event bus.

Build one with ``ShardedEngine(config=ExecutionConfig(
sharding=ShardingConfig(shards=N)))`` and serve clients from
``create_session``.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from typing import Any, Optional, Type, Union

from repro.clock import Clock, VirtualClock
from repro.config import ExecutionConfig
from repro.core.algebra import CompositeEventSpec
from repro.core.engine import _LIVE_ENGINES, EngineBase, ReachEngine
from repro.core.events import (
    EventOccurrence,
    SignalEventSpec,
    TemporalEventSpec,
)
from repro.core.rules import Rule
from repro.core.session import ShardedSession
from repro.errors import ObjectNotFoundError, RuleDefinitionError
from repro.obs.admin import AdminServer
from repro.oodb.address_space import ShardMap
from repro.oodb.oid import OID
from repro.oodb.sentry import SentryRegistry, StateNotification


class CrossShardEventBus:
    """Wires leaf detections on one shard into composers on another.

    The bus holds no queue and adds no thread: a connection is a
    listener on the leaf's primitive ECA-manager (on the leaf's home
    shard) that calls ``feed`` on the composite's manager (on the
    composite's home shard) directly, in the detecting thread — the
    same synchronous propagation a single kernel uses, so coupling-mode
    semantics are unchanged.  Because occurrences carry their global
    detection-time ``seq``, the receiving composer observes a correctly
    ordered (if interleaved) stream without any cross-shard handshake.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._connections: list[dict[str, Any]] = []
        self.forwarded = 0
        self.local = 0

    def connect(self, primitive_manager: Any, src_shard: int,
                dst_shard: int, composite_manager: Any) -> None:
        """Deliver ``primitive_manager``'s occurrences (home
        ``src_shard``) to ``composite_manager`` (home ``dst_shard``)."""
        cross = src_shard != dst_shard

        def forward(occ: EventOccurrence) -> None:
            if cross:
                self.forwarded += 1
            else:
                self.local += 1
            composite_manager.feed(occ)

        primitive_manager.add_listener(forward)
        with self._lock:
            self._connections.append({
                "leaf": str(primitive_manager.key),
                "src_shard": src_shard,
                "dst_shard": dst_shard,
                "composite": composite_manager.composer.name,
                "cross_shard": cross,
            })

    def stats(self) -> dict[str, Any]:
        with self._lock:
            connections = list(self._connections)
        return {
            "connections": len(connections),
            "cross_shard_connections":
                sum(1 for c in connections if c["cross_shard"]),
            "forwarded": self.forwarded,
            "local": self.local,
            "wiring": connections,
        }


class ShardedEngine(EngineBase):
    """Coordinator over N OID-range-sharded :class:`ReachEngine` kernels.

    Exposes the engine surface the wire server and the admin endpoint
    expect.  Its ``kernels`` are the shards, so every fan-out
    :class:`~repro.core.engine.EngineBase` defines (``statistics()``,
    ``query``, ``drain_detached``, ``dead_letters``, ``checkpoint``, ...)
    covers the topology; sessions, rules, events and objects route
    across it here.  The observability stack, the lock table and the
    transaction manager are the coordinator's own, shared by every kernel
    (``kernel.tx_manager is engine.tx_manager``); the ``/wal`` view covers
    every shard's log; the catalog is shard 0's.

    The transaction manager raises its ``TX_*`` bus events on the
    coordinator's own ``meta``, which no policy manager is plugged onto;
    a kernel's ``meta`` carries that kernel's policy managers and sees
    none of them.

    Args:
        directory: root directory; shard *k* lives in
            ``<directory>/shard-k``.
        config: execution configuration; ``config.sharding`` supplies
            the shard count.
        clock: shared time source for every shard.
        buffer_capacity: per-shard buffer-pool frames.
    """

    def __init__(self, directory: Optional[str] = None,
                 config: Optional[ExecutionConfig] = None,
                 clock: Optional[Clock] = None,
                 buffer_capacity: int = 128):
        import tempfile

        self.config = config or ExecutionConfig()
        self.clock = clock or VirtualClock()
        if directory is None:
            directory = tempfile.mkdtemp(prefix="reach-sharded-")
        self.directory = directory
        self.shard_count = self.config.sharding.shards
        self.shard_map = ShardMap(shard_count=self.shard_count)
        #: one scoped registry shared by every shard: a single session
        #: binding covers the whole topology, and a spec's detector —
        #: installed only on its home shard — sees every thread bound to
        #: any of this engine's sessions, wherever the object lives.
        self.sentry_registry = SentryRegistry(
            scoped=True, name=f"sharded-{id(self):x}")
        # One stack — observability, the lock table and the transaction
        # manager — handed to every kernel like the clock and the sentry
        # registry; its flight ring dumps under ``directory``.
        self._open_stack(directory)
        self.metrics_registry.counter_fn(
            "sentry.notifications",
            lambda: self.sentry_registry.notifications_delivered)

        # Shards must not each open an admin port; the coordinator does.
        shard_config = dataclasses.replace(self.config, admin_port=None)
        self.shards: list[ReachEngine] = [
            ReachEngine(directory=os.path.join(directory, f"shard-{sid}"),
                        config=shard_config, clock=self.clock,
                        buffer_capacity=buffer_capacity,
                        sentry_registry=self.sentry_registry,
                        shard_id=sid, shard_map=self.shard_map,
                        stack_owner=self)
            for sid in range(self.shard_count)]

        self.kernels = tuple(self.shards)
        self.shards[0].persistence.flush_with(
            [shard.persistence for shard in self.shards[1:]])

        self.bus = CrossShardEventBus()

        #: rule name -> (rule, home shard engine)
        self._rules: dict[str, tuple[Rule, ReachEngine]] = {}
        #: composite spec keys whose leaves are already bus-wired
        self._wired: set[Any] = set()
        self._sessions: list[ShardedSession] = []
        self._sessions_created = 0
        self._placement = itertools.count()
        self._lock = threading.RLock()
        self._closed = False
        # Sessions register here, not on a shard, so every shard's
        # per-tenant SLO attribution resolves through the coordinator.
        for shard in self.shards:
            shard.scheduler.tenant_resolver = self.tenant_of_session

        self.admin: Optional[AdminServer] = None
        if self.config.admin_port is not None:
            self.admin = AdminServer(self, port=self.config.admin_port)

        # Duck-typed network front end handle (see ReachEngine._server):
        # a ReachServer over a sharded topology attaches here, to the
        # coordinator, never to an individual shard.
        self._server: Optional[Any] = None
        _LIVE_ENGINES.add(self)

    # ------------------------------------------------------------------
    # Shard 0's catalog, read by the shared rule definitions, which keep
    # persisted DDL there.
    # ------------------------------------------------------------------

    @property
    def dictionary(self):
        return self.shards[0].dictionary

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, oid: Union[OID, int]) -> int:
        return self.shard_map.shard_of(oid)

    def shard_for_key(self, key: Any) -> int:
        return self.shard_map.shard_of_key(key)

    def shard_for(self, target: Union[OID, int]) -> ReachEngine:
        return self.shards[self.shard_of(target)]

    def owning_shard(self, obj: Any) -> Optional[int]:
        """The shard where ``obj`` is resident, or ``None``."""
        for sid, shard in enumerate(self.shards):
            if shard.active_space.oid_of(obj) is not None:
                return sid
        return None

    # ------------------------------------------------------------------
    # Sessions and scope
    # ------------------------------------------------------------------

    def create_session(self, name: Optional[str] = None,
                       shards: Optional[list[int]] = None) -> ShardedSession:
        """Open a :class:`~repro.core.session.ShardedSession`;
        ``shards=[...]`` names the shards its ``persist`` places new
        objects on."""
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._sessions_created += 1
            session = ShardedSession(self, name=name, shards=shards)
            self._sessions.append(session)
        return session

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def register_class(self, cls: Type, monitor_state: bool = True) -> Type:
        """Register ``cls`` on every shard, and watch its state once.

        Types must resolve everywhere (fetches deserialize on the owning
        shard).  Attribute writes are watched through shard 0's Change
        PM, which hands each one to the shard owning it
        (:meth:`_on_state`).
        """
        for shard in self.shards:
            shard.register_class(cls, monitor_state=False)
        if monitor_state:
            self.shards[0].change.monitor(cls, self._on_state)
        return cls

    def _on_state(self, note: StateNotification) -> None:
        """Hand an attribute write to one shard's Change PM: the shard
        the object lives on, or shard 0 for a transient object.  So a
        write takes one lock, one undo record and one bus event."""
        sid = self.owning_shard(note.instance)
        self.shards[0 if sid is None else sid].change.on_state(note)

    def create_index(self, cls_or_name: Union[Type, str],
                     attribute: str) -> list[Any]:
        """Create the index on every shard (each covers its residents);
        returns the per-shard indexes in shard order."""
        return [shard.create_index(cls_or_name, attribute)
                for shard in self.shards]

    # ------------------------------------------------------------------
    # Objects and queries
    # ------------------------------------------------------------------

    def persist(self, obj: Any, name: Optional[str] = None,
                shard: Optional[int] = None) -> OID:
        """Persist ``obj`` on a shard and return its (routable) OID.

        Placement: an already-resident object stays on its shard; an
        explicit ``shard=`` wins otherwise; new objects round-robin.
        """
        if shard is None:
            shard = self.owning_shard(obj)
        if shard is None:
            shard = next(self._placement) % self.shard_count
        target = self.shards[shard]
        if not target.dictionary.has_type(type(obj).__name__):
            self.register_class(type(obj))
        with self.sentry_registry.bound():
            return target.persist(obj, name)

    def fetch(self, target: Union[str, OID]) -> Any:
        with self.sentry_registry.bound():
            if isinstance(target, OID):
                return self.shard_for(target).fetch(target)
            for shard in self.shards:
                if shard.dictionary.has_name(target):
                    return shard.fetch(target)
            raise ObjectNotFoundError(f"no object named {target!r}")

    def delete(self, target: Union[str, OID, Any]) -> None:
        with self.sentry_registry.bound():
            if isinstance(target, OID):
                self.shard_for(target).delete(target)
                return
            if isinstance(target, str):
                for shard in self.shards:
                    if shard.dictionary.has_name(target):
                        shard.delete(target)
                        return
                raise ObjectNotFoundError(f"no object named {target!r}")
            sid = self.owning_shard(target)
            if sid is None:
                raise ObjectNotFoundError(
                    f"{target!r} is not resident on any shard")
            self.shards[sid].delete(target)

    # ------------------------------------------------------------------
    # Rules and events
    # ------------------------------------------------------------------

    def register_rule(self, rule: Rule) -> Rule:
        """Home the rule's event on one shard and register it there.

        Primitive events: the manager *and* detector live on the spec's
        home shard (stable key hash), so each occurrence is detected and
        recorded exactly once no matter which shard's objects raise it.

        Composite events: the composer lives on the composite's home
        shard with local leaf wiring suppressed; every leaf's manager is
        created on the *leaf's* home shard and connected through the
        cross-shard event bus.  Table 1 coupling validation and rule
        bookkeeping happen on the home shard exactly as on one kernel.
        """
        with self._lock:
            if rule.name in self._rules:
                raise RuleDefinitionError(
                    f"a rule named {rule.name!r} already exists")
            spec = rule.event
            if isinstance(spec, CompositeEventSpec):
                home_id = self.shard_for_key(spec.key())
                home = self.shards[home_id]
                manager = home.events.composite_manager(
                    spec, wire_leaves=False)
                if spec.key() not in self._wired:
                    for leaf in spec.leaves():
                        leaf_id = self.shard_for_key(leaf.key())
                        leaf_home = self.shards[leaf_id]
                        primitive = leaf_home.events.primitive_manager(leaf)
                        if isinstance(leaf, TemporalEventSpec):
                            leaf_home.temporal.register(leaf)
                        self.bus.connect(primitive, leaf_id, home_id,
                                         manager)
                    self._wired.add(spec.key())
                home.register_rule(rule, manager=manager)
            else:
                home_id = self.shard_for_key(spec.key())
                home = self.shards[home_id]
                home.register_rule(rule)
            self._rules[rule.name] = (rule, home)
            return rule

    def unregister_rule(self, name: str) -> None:
        with self._lock:
            rule, home = self._rules.pop(name)
            home.unregister_rule(name)

    def rule_home(self, name: str) -> int:
        """The shard id a rule's event is homed on."""
        return self._rules[name][1].shard_id

    def signal(self, name: str, **parameters: Any) -> None:
        """Raise an explicit user signal on the signal's home shard."""
        home = self.shards[self.shard_for_key(SignalEventSpec(name).key())]
        with self.sentry_registry.bound():
            home.events.emit_signal(name, parameters)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _topology_state(self) -> dict[str, Any]:
        return {"event_bus": self.bus.stats()}

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<ShardedEngine {self.shard_count} shards at "
                f"{self.directory!r} {state}>")
