"""The sharded engine: N kernels, one event space, one OID space.

This is the first change where "the engine" stops being one object.  A
:class:`ShardedEngine` owns N :class:`~repro.core.engine.ReachEngine`
kernels, each with its own storage manager and WAL, lock table,
transaction manager, histories, scheduler and temporal source — and
splits the global concerns explicitly:

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
* **transactions** group, not span: a
  :class:`~repro.core.session.ShardedSession` transaction begins one
  member per shard and registers the member-id set with the engine,
  which every shard's event service consults
  (``EventService.tx_group_resolver``) so same-transaction composite
  scope treats all members as one transaction.  Commit is per-member
  in shard order — explicitly *not* atomic across shards;
* **durability** scales out: each shard's group-commit WAL stream can
  be shipped to a warm read replica
  (:class:`~repro.storage.replication.ReadReplica`), bounded by the
  acked (fsynced) prefix.

Build one with ``ShardedEngine(config=ExecutionConfig(
sharding=ShardingConfig(shards=N)))`` and serve clients from
``create_session``.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from typing import Any, Callable, Optional, Type, Union

from repro.clock import Clock, VirtualClock
from repro.config import ExecutionConfig
from repro.core.algebra import CompositeEventSpec
from repro.core.engine import ReachEngine
from repro.core.events import (
    EventOccurrence,
    SignalEventSpec,
    TemporalEventSpec,
)
from repro.core.rule_builder import RuleDefinitions
from repro.core.rules import Rule
from repro.core.session import ShardedSession
from repro.errors import ObjectNotFoundError, RuleDefinitionError
from repro.obs.admin import AdminServer
from repro.obs.tracer import merge_traces
from repro.oodb.address_space import ShardMap
from repro.oodb.oid import OID
from repro.oodb.sentry import SentryRegistry
from repro.storage.replication import ReadReplica, WALShipper


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


def _merge_stats(values: list[Any]) -> Any:
    """Recursively merge per-shard statistics: numbers sum, dicts merge
    key-by-key, lists concatenate, everything else keeps the first
    shard's value (configs, paths, flags)."""
    first = values[0]
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return sum(v for v in values if isinstance(v, (int, float)))
    if isinstance(first, dict):
        merged: dict[str, Any] = {}
        for value in values:
            if not isinstance(value, dict):
                continue
            for key in value:
                if key in merged:
                    continue
                present = [v[key] for v in values
                           if isinstance(v, dict) and key in v]
                merged[key] = _merge_stats(present)
        return merged
    if isinstance(first, list):
        out: list[Any] = []
        for value in values:
            if isinstance(value, list):
                out.extend(value)
        return out
    return first


class ShardedEngine(RuleDefinitions):
    """Coordinator over N OID-range-sharded :class:`ReachEngine` kernels.

    Exposes the engine surface the wire server and the admin endpoint
    expect.  The genuinely multi-shard surfaces (``statistics()``,
    ``shard_stats()``, sessions, rules, events) aggregate or route across
    the topology; the few single-object services those callers read
    (observability, catalog, the ``/locks`` and ``/wal`` views) are shard
    0's.

    Args:
        directory: root directory; shard *k* lives in
            ``<directory>/shard-k`` (replicas under
            ``<directory>/shard-k/replica``).
        config: execution configuration; ``config.sharding`` supplies
            the shard count and whether to ship WALs.
        clock: shared time source for every shard.
        buffer_capacity: per-shard buffer-pool frames.
    """

    def __init__(self, directory: Optional[str] = None,
                 config: Optional[ExecutionConfig] = None,
                 clock: Optional[Clock] = None,
                 buffer_capacity: int = 128):
        import tempfile

        self.config = config or ExecutionConfig()
        sharding = self.config.sharding
        self.clock = clock or VirtualClock()
        if directory is None:
            directory = tempfile.mkdtemp(prefix="reach-sharded-")
        self.directory = directory
        self.shard_count = sharding.shards
        self.shard_map = ShardMap(shard_count=self.shard_count)
        #: one scoped registry shared by every shard: a single session
        #: binding covers the whole topology, and a spec's detector —
        #: installed only on its home shard — sees every thread bound to
        #: any of this engine's sessions, wherever the object lives.
        self.sentry_registry = SentryRegistry(
            scoped=True, name=f"sharded-{id(self):x}")

        # Shards must not each open an admin port, append to the same
        # telemetry file or ship their own WAL; the coordinator owns all
        # three concerns.
        shard_config = dataclasses.replace(
            self.config, admin_port=None, telemetry_jsonl=None,
            sharding=dataclasses.replace(sharding, wal_ship=False))
        self.shards: list[ReachEngine] = [
            ReachEngine(directory=os.path.join(directory, f"shard-{sid}"),
                        config=shard_config, clock=self.clock,
                        buffer_capacity=buffer_capacity,
                        sentry_registry=self.sentry_registry,
                        shard_id=sid, shard_map=self.shard_map)
            for sid in range(self.shard_count)]

        self.bus = CrossShardEventBus()
        #: member tx id -> frozenset of all member ids of its sharded tx
        self._tx_groups: dict[int, frozenset[int]] = {}
        self._group_lock = threading.Lock()
        resolver: Callable[[int], Optional[frozenset[int]]] = \
            self._tx_groups.get
        for shard in self.shards:
            shard.events.tx_group_resolver = resolver

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

        self.replicas: list[ReadReplica] = []
        self.shippers: list[WALShipper] = []
        if sharding.wal_ship:
            for shard in self.shards:
                replica = ReadReplica(
                    shard.directory,
                    os.path.join(shard.directory, "replica"))
                self.replicas.append(replica)
                self.shippers.append(WALShipper(shard.storage, replica))

        self.admin: Optional[AdminServer] = None
        if self.config.admin_port is not None:
            self.admin = AdminServer(self, port=self.config.admin_port)

        # Duck-typed network front end handle (see ReachEngine._server):
        # a ReachServer over a sharded topology attaches here, to the
        # coordinator, never to an individual shard.
        self._server: Optional[Any] = None

    # ------------------------------------------------------------------
    # Shard-0 services.  Observability and fault points are read by the
    # wire server and the admin endpoint; locks and storage by the admin
    # ``/locks`` and ``/wal`` views; the catalog triple (dictionary,
    # persistence, tx_manager) by the shared rule definitions, which keep
    # persisted DDL in shard 0's catalog.
    # ------------------------------------------------------------------

    @property
    def metrics_registry(self):
        return self.shards[0].metrics_registry

    @property
    def faults(self):
        return self.shards[0].faults

    @property
    def tracer(self):
        return self.shards[0].tracer

    @property
    def flight(self):
        return self.shards[0].flight

    @property
    def telemetry_pipeline(self):
        return self.shards[0].telemetry_pipeline

    @property
    def locks(self):
        return self.shards[0].locks

    @property
    def storage(self):
        return self.shards[0].storage

    @property
    def dictionary(self):
        return self.shards[0].dictionary

    @property
    def persistence(self):
        return self.shards[0].persistence

    @property
    def tx_manager(self):
        return self.shards[0].tx_manager

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
        ``shards=[...]`` restricts it to a subset of shards."""
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._sessions_created += 1
            session = ShardedSession(self, name=name, shards=shards)
            self._sessions.append(session)
        return session

    def sessions(self) -> list[ShardedSession]:
        with self._lock:
            return list(self._sessions)

    tenant_of_session = ReachEngine.tenant_of_session

    def _forget_session(self, session: ShardedSession) -> None:
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)

    # ------------------------------------------------------------------
    # Network front end registration (duck-typed; see ReachEngine)
    # ------------------------------------------------------------------

    def attach_server(self, server: Any) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._server = server

    def detach_server(self, server: Any) -> None:
        with self._lock:
            if self._server is server:
                self._server = None

    def server_stats(self) -> dict[str, Any]:
        server = self._server
        if server is None:
            return {"enabled": False, "connections": {"active": 0},
                    "requests": {"served": 0}}
        return server.stats()

    # ------------------------------------------------------------------
    # Transaction groups (cross-shard composite scope)
    # ------------------------------------------------------------------

    def register_tx_group(self, ids: frozenset[int]) -> None:
        with self._group_lock:
            for tx_id in ids:
                self._tx_groups[tx_id] = ids

    def unregister_tx_group(self, ids: frozenset[int]) -> None:
        """Forget a finished sharded transaction's member group and sweep
        its single-tx composition graphs on every shard (the sharded
        analogue of the per-transaction-EOT discard, Section 3.3: member
        EOTs cannot do it — members end one at a time while later members
        may still raise events for the group)."""
        with self._group_lock:
            for tx_id in ids:
                self._tx_groups.pop(tx_id, None)
        for shard in self.shards:
            for manager in shard.events.composite_managers():
                manager.composer.on_group_end(ids)

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def register_class(self, cls: Type, monitor_state: bool = True) -> Type:
        """Register ``cls`` on every shard.

        Types must resolve everywhere (fetches deserialize on the owning
        shard) and every shard's change PM monitors the class — dirty
        marking then self-routes by residency: only the shard whose
        active space holds the written object reacts to the shared
        registry's state notification.
        """
        for shard in self.shards:
            shard.register_class(cls, monitor_state=monitor_state)
        return cls

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

    def query(self, text: str, **params: Any) -> list[Any]:
        """Scatter the query to every shard and concatenate (results come
        back in shard order; no cross-shard sort is applied)."""
        results: list[Any] = []
        for shard in self.shards:
            results.extend(shard.query(text, **params))
        return results

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

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
        """Raise an explicit user signal on the signal's home shard.

        Span stacks are per-shard-tracer thread locals, so a caller's
        open span (an adopted wire request lives on the coordinator's
        tracer, shard 0's) is invisible to another shard's tracer; a hop span
        re-pins the caller's trace on the home shard so the detection
        cascade lands in the same tree :meth:`trace` later merges.
        """
        spec = SignalEventSpec(name)
        home = self.shards[self.shard_for_key(spec.key())]
        current = self.tracer.current()
        with self.sentry_registry.bound():
            if current is None or home.tracer is self.tracer:
                home.events.emit(spec, parameters)
            else:
                with home.tracer.span(f"hop:signal {name!r}", "bus",
                                      trace_id=current.trace_id,
                                      parent_id=current.span_id):
                    home.events.emit(spec, parameters)

    def drain_detached(self) -> int:
        with self.sentry_registry.bound():
            return sum(shard.scheduler.drain_detached()
                       for shard in self.shards)

    def dead_letters(self) -> list[Any]:
        letters: list[Any] = []
        for shard in self.shards:
            letters.extend(shard.dead_letters())
        return letters

    def requeue(self, index: Optional[int] = None) -> int:
        if index is not None:
            raise ValueError(
                "per-entry requeue is per-shard; call "
                "engine.shards[k].requeue(index) instead")
        with self.sentry_registry.bound():
            return sum(shard.scheduler.requeue_dead_letters(None)
                       for shard in self.shards)

    def wait_for_composition(self, timeout: float = 10.0) -> None:
        for shard in self.shards:
            shard.wait_for_composition(timeout)

    def collect_garbage(self) -> int:
        return sum(shard.collect_garbage() for shard in self.shards)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    STATISTICS_KEYS = ReachEngine.STATISTICS_KEYS
    CONCURRENCY_STATS_KEYS = ReachEngine.CONCURRENCY_STATS_KEYS

    def architecture_inventory(self) -> dict[str, list[str]]:
        return self.shards[0].architecture_inventory()

    def metrics(self):
        return self.shards[0].metrics()

    def trace(self, trace_id: Optional[int] = None):
        """One assembled trace across every shard's tracer retention.

        A single trace id spans tracers: the request/detection spans
        live on the leaf's home shard, cross-shard composition on the
        composite's.  Span/trace ids are allocated from process-global
        counters precisely so this merge is well-defined.
        """
        if trace_id is None:
            latest = self.shards[0].trace(None)
            if latest is None:
                return None
            trace_id = latest.trace_id
        return merge_traces(
            shard.trace(trace_id) for shard in self.shards)

    def traces(self):
        """Every retained trace, merged across shards, oldest first."""
        order: list[int] = []
        seen: set[int] = set()
        for shard in self.shards:
            for trace in shard.traces():
                if trace.trace_id not in seen:
                    seen.add(trace.trace_id)
                    order.append(trace.trace_id)
        merged = (self.trace(trace_id) for trace_id in order)
        return [trace for trace in merged if trace is not None]

    def flight_recorder(self):
        return self.shards[0].flight_recorder()

    def telemetry(self):
        return self.shards[0].telemetry()

    @property
    def admin_address(self) -> Optional[tuple[str, int]]:
        return self.admin.address if self.admin is not None else None

    def dump_observability(self, json_format: bool = False) -> str:
        if json_format:
            import json as _json
            return _json.dumps({
                f"shard-{sid}": _json.loads(
                    shard.dump_observability(json_format=True))
                for sid, shard in enumerate(self.shards)}, indent=2)
        return "\n\n".join(
            f"== shard {sid} ==\n{shard.dump_observability()}"
            for sid, shard in enumerate(self.shards))

    def statistics(self) -> dict[str, Any]:
        """The frozen-key snapshot, aggregated over every shard.

        Numeric counters sum across shards, nested sections merge
        recursively; ``rules`` and ``sessions`` report the coordinator's
        own registries (a rule registers on one home shard, a session
        spans all shards — summing would double-count), and ``shards``
        carries the per-shard breakdown plus replication state.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        merged = _merge_stats([shard.statistics()
                               for shard in self.shards])
        with self._lock:
            merged["rules"] = len(self._rules)
            merged["sessions"] = {"created": self._sessions_created,
                                  "active": len(self._sessions)}
        merged["shards"] = self.shard_stats()
        # The front end attaches to the coordinator, not to any shard;
        # the merged per-shard inert stubs would misreport it.
        merged["server"] = self.server_stats()
        return merged

    def concurrency_stats(self) -> dict[str, Any]:
        """The curated concurrency surface, aggregated over shards
        (numeric totals; ``config`` is shared so the first shard's
        values stand for all)."""
        if self._closed:
            raise RuntimeError("engine is closed")
        return _merge_stats([shard.concurrency_stats()
                             for shard in self.shards])

    def wal_statistics(self) -> dict[str, Any]:
        """The ``statistics()["wal"]`` section aggregated over shards
        (counter totals; per-shard detail lives in ``shard_stats``)."""
        if self._closed:
            raise RuntimeError("engine is closed")
        return _merge_stats([shard.wal_statistics()
                             for shard in self.shards])

    def composer_stats(self) -> dict[str, Any]:
        """Durable-detection-state view over the whole topology: the
        per-composer rows concatenate (a composer lives on exactly one
        home shard), counters sum, and ``last_checkpoint_lsn`` reports
        the per-shard maximum — LSNs are per-shard log positions, so a
        sum would be meaningless."""
        if self._closed:
            raise RuntimeError("engine is closed")
        per_shard = [shard.composer_stats() for shard in self.shards]
        merged = _merge_stats(per_shard)
        merged["last_checkpoint_lsn"] = max(
            (stats.get("last_checkpoint_lsn", 0) for stats in per_shard),
            default=0)
        merged["per_shard_checkpoint_lsn"] = [
            stats.get("last_checkpoint_lsn", 0) for stats in per_shard]
        return merged

    def shard_stats(self) -> dict[str, Any]:
        """The topology view served at ``/shards``: per-shard rows plus
        event-bus and replication state."""
        sharding = self.config.sharding
        stats = {
            "count": self.shard_count,
            "oid_range_size": self.shard_map.range_size,
            "wal_ship": sharding.wal_ship,
            "per_shard": [shard.shard_summary() for shard in self.shards],
            "event_bus": self.bus.stats(),
            "tx_groups": len(self._tx_groups),
        }
        if self.replicas:
            stats["replication"] = {
                "replicas": [replica.stats() for replica in self.replicas],
                "shippers": [shipper.stats() for shipper in self.shippers],
            }
        return stats

    def replica(self, shard_id: int) -> ReadReplica:
        """The read replica of ``shard_id`` (requires ``wal_ship``)."""
        if not self.replicas:
            raise RuntimeError("WAL shipping is not enabled "
                               "(ShardingConfig(wal_ship=True))")
        return self.replicas[shard_id]

    def checkpoint(self) -> None:
        """Checkpoint every shard.  With WAL shipping on, each replica
        is drained to the acked prefix first: checkpoint truncates the
        primary log, and records never shipped would otherwise be lost
        to the replica (its seed copy predates them)."""
        for sid, shard in enumerate(self.shards):
            if self.shippers:
                self.shippers[sid]._poll_once()
            shard.checkpoint()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        # An attached front end drains first, against a still-open
        # topology, mirroring ReachEngine.close().
        server = self._server
        if server is not None and not self._closed:
            try:
                server.close()
            except Exception:
                pass
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._server = None
            open_sessions = list(self._sessions)
        if self.admin is not None:
            self.admin.close()
        for session in open_sessions:
            session.close()
        for shipper in self.shippers:
            shipper.stop()
        for shard in self.shards:
            shard.close()
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    # Records ``engine.abort`` and dumps shard 0's flight ring (the
    # coordinator's ``flight``) before closing, as on one kernel.
    __exit__ = ReachEngine.__exit__

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<ShardedEngine {self.shard_count} shards at "
                f"{self.directory!r} {state}>")
