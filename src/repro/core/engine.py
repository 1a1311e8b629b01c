"""The REACH engine: the shared kernel below every client session.

The paper's Figure 1 meta-architecture plugs policy managers into one
kernel; this module is that kernel.  A :class:`ReachEngine` owns every
process-wide service — storage manager and WAL, data dictionary, the
sentry registry, the event service with its ECA-managers and composers,
the rule scheduler, the temporal event source, the lock table and the
observability stack (a sharded engine's kernels share their
coordinator's) — while per-client state (the current-transaction
stack, the pin cache, the firing context) lives in
:class:`~repro.core.session.Session` objects created from the engine.

The split is the structural prerequisite for serving many concurrent
clients over one engine: N sessions each run transactions against the
same kernel, rules fire in the triggering session's transaction scope,
and nothing a session does leaks into another session — or into another
engine in the same process (each engine has its own scoped
:class:`~repro.oodb.sentry.SentryRegistry`).

Typical use::

    from repro import CouplingMode, MethodEventSpec, ReachEngine, sentried

    @sentried
    class River:
        def __init__(self):
            self.level = 50
        def update_water_level(self, x):
            self.level = x

    engine = ReachEngine()
    engine.register_class(River)
    engine.rule("WaterLevel",
                event=MethodEventSpec("River", "update_water_level",
                                      param_names=("x",)),
                condition=lambda ctx: ctx["x"] < 37,
                action=lambda ctx: print("reduce planned power"),
                coupling=CouplingMode.IMMEDIATE, priority=5)

    river = River()
    with engine.transaction():
        engine.persist(river, "Rhein")
        river.update_water_level(30)   # fires WaterLevel

A sharded topology is built by :class:`~repro.core.sharding.ShardedEngine`
instead; both engines serve concurrent clients through
:meth:`ReachEngine.create_session`.
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import weakref
from typing import Any, Optional, Type, Union

from repro.clock import Clock, VirtualClock
from repro.config import ExecutionConfig
from repro.core.algebra import CompositeEventSpec
from repro.core.coupling import check_supported
from repro.core.eca_manager import (
    EventService,
    ReachRulePolicyManager,
)
from repro.core.events import (
    EventSpec,
    MilestoneEventSpec,
    TemporalEventSpec,
    advance_occurrence_seq,
)
from repro.core.rule_builder import RuleDefinitions
from repro.core.rules import Rule
from repro.core.scheduler import RuleScheduler
from repro.core.session import Session
from repro.core.temporal import TemporalEventSource
from repro.errors import RuleDefinitionError
from repro.faults.registry import FaultRegistry
from repro.obs.admin import AdminServer
from repro.obs.export import JsonlFileExporter, TelemetryPipeline
from repro.obs.flight import NULL_FLIGHT, FlightRecorder
from repro.obs.metrics import MetricsRegistry, merge_stats
from repro.obs.tracer import Trace, Tracer
from repro.oodb.address_space import (
    ActiveAddressSpace,
    PassiveAddressSpace,
    ShardMap,
)
from repro.oodb.change import ChangePolicyManager
from repro.oodb.data_dictionary import FIRST_USER_OID, DataDictionary
from repro.oodb.indexing import HashIndex, IndexPolicyManager
from repro.oodb.locks import LockManager
from repro.oodb.meta import (
    MetaArchitecture,
    PolicyManager,
    SupportModule,
)
from repro.oodb.oid import OID, ShardedOIDAllocator
from repro.oodb.persistence import PersistencePolicyManager
from repro.oodb.query import QueryProcessor
from repro.oodb.sentry import SentryRegistry
from repro.oodb.transactions import (
    Transaction,
    TransactionManager,
    TransactionScope,
)

_engine_ids = itertools.count(1)

#: Seconds between sweeps that discard expired semi-composed events
#: (Section 3.3 lifespan enforcement).
GC_INTERVAL = 1.0

#: Every engine constructed and not yet closed, weakly held: one entry
#: per observability stack, so a sharded engine is listed and its kernels
#: are not.  Test harnesses (``tests/conftest.py``) walk this to dump
#: flight rings and observability state as failure artifacts; nothing in
#: the engine's own lifecycle reads it.
_LIVE_ENGINES: "weakref.WeakSet[EngineBase]" = weakref.WeakSet()


def live_engines() -> list["EngineBase"]:
    """Engines currently open in this process (snapshot, weakly held)."""
    return [eng for eng in list(_LIVE_ENGINES) if not eng.closed]


class TransactionPolicyManager(PolicyManager):
    """Thin wrapper giving the transaction manager a Figure 1 presence."""

    name = "Transaction PM (flat + closed nested)"
    subscribed_kinds = ()

    def __init__(self, tx_manager: TransactionManager):
        super().__init__()
        self.tx_manager = tx_manager

    def describe(self) -> str:
        stats = self.tx_manager.stats
        return (f"{self.name} ({stats['begun']} begun, "
                f"{stats['committed']} committed, "
                f"{stats['aborted']} aborted)")


class _NamedSupportModule(SupportModule):
    def __init__(self, name: str):
        self.name = name


class EngineBase(RuleDefinitions):
    """What both engines share: one stack, the session registry, the
    network front end's hook, the introspection surface, every operation
    that fans out over the kernels, and the lifecycle.

    The stack is the metrics registry, tracer, flight recorder, telemetry
    pipeline, fault registry and lock table.  A :class:`ReachEngine`
    builds its own; a :class:`~repro.core.sharding.ShardedEngine` builds
    one and hands it to every kernel, so the kernels count, trace, record
    and lock in the same objects.

    ``kernels`` is the tuple of :class:`ReachEngine` kernels the engine
    runs on: ``(self,)`` for a ReachEngine, the shards for a sharded
    engine.  The fan-outs below reach each kernel's subsystems (its
    scheduler, event service, storage, ...), never a same-named kernel
    method, so one definition serves one kernel or N.  Written against
    the host's ``config``, ``kernels``, ``shard_map``, ``_rules``,
    ``_sessions``, ``_sessions_created``, ``_lock``, ``_closed``,
    ``_server`` and ``admin``.
    """

    #: Whether this engine built the stack it uses (a sharded engine's
    #: kernels share their coordinator's).
    _owns_stack = True

    def _open_stack(self, directory: str,
                    owner: Optional["EngineBase"] = None) -> None:
        """Build this engine's stack, or take ``owner``'s."""
        if owner is not None:
            self.metrics_registry = owner.metrics_registry
            self.tracer = owner.tracer
            self.flight = owner.flight
            self.telemetry_pipeline = owner.telemetry_pipeline
            self.faults = owner.faults
            self.locks = owner.locks
            return
        config = self.config
        # Inert null-object pipelines unless ``config.observability`` is
        # set.
        self.metrics_registry = MetricsRegistry(enabled=config.observability)
        self.tracer = Tracer(enabled=config.observability,
                             sample_rate=config.trace_sampling)
        # The flight recorder is always on (fixed-cost ring) unless
        # explicitly disabled; it is deliberately independent of
        # ``config.observability`` so the post-mortem record exists even
        # on unobserved engines.
        self.flight = (FlightRecorder(directory=directory)
                       if config.flight_recorder else NULL_FLIGHT)
        # Telemetry export is inert (no thread, no span sink) until an
        # exporter is attached, either here via ``config.telemetry_jsonl``
        # or later through ``engine.telemetry().add_exporter(...)``.
        self.telemetry_pipeline = TelemetryPipeline(
            tracer=self.tracer, metrics=self.metrics_registry)
        if config.telemetry_jsonl:
            self.telemetry_pipeline.add_exporter(
                JsonlFileExporter(config.telemetry_jsonl))
        # Fault injection has the same null-object economics: disabled
        # (the default) hands every instrumentation point the shared no-op
        # point; enabled but disarmed costs one list check per hit.
        self.faults = FaultRegistry(enabled=config.fault_injection,
                                    seed=config.fault_seed,
                                    metrics=self.metrics_registry,
                                    flight=self.flight)
        # Gauges about the stack itself: registered once, by its builder.
        tracer, telemetry = self.tracer, self.telemetry_pipeline
        self.metrics_registry.gauge_fn("tracer.retained", tracer.__len__)
        self.metrics_registry.gauge_fn("tracer.evicted",
                                       lambda: tracer.evicted)
        self.metrics_registry.gauge_fn("telemetry.dropped",
                                       lambda: telemetry.dropped)
        self.locks = LockManager(
            metrics=self.metrics_registry, faults=self.faults,
            flight=self.flight, tracer=self.tracer)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def sessions(self) -> list[Any]:
        with self._lock:
            return list(self._sessions)

    def tenant_of_session(self, session_id: int) -> Optional[str]:
        """The tenant a session belongs to, or None for local sessions.

        The network front end names wire sessions ``<tenant>/<client>``
        (see :meth:`repro.server.server.ReachServer._handshake`); any
        other session name has no tenant.  Used by the scheduler's
        per-tenant SLO histograms (cached there per session id).
        """
        with self._lock:
            for session in self._sessions:
                if session.id == session_id:
                    name = session.name or ""
                    if "/" in name:
                        return name.split("/", 1)[0]
                    return None
        return None

    def _forget_session(self, session: Any) -> None:
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)

    # ------------------------------------------------------------------
    # Network front end registration (duck-typed; see repro.server)
    # ------------------------------------------------------------------

    def attach_server(self, server: Any) -> None:
        """Register a running network front end with this engine.

        The handle only needs ``stats()`` and ``close()``; the engine
        consults it for the ``server`` statistics section and tears it
        down first on :meth:`close` so in-flight wire transactions can
        finish against a still-open engine.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._server = server

    def detach_server(self, server: Any) -> None:
        """Drop the registration; idempotent, ignores stale handles."""
        with self._lock:
            if self._server is server:
                self._server = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics(self) -> MetricsRegistry:
        """The engine's metrics registry (null instruments when
        ``config.observability`` is off)."""
        return self.metrics_registry

    def trace(self, trace_id: Optional[int] = None) -> Optional[Trace]:
        """The most recent trace, or the trace with ``trace_id``.

        ``None`` when tracing is disabled or nothing has been recorded.
        Each :class:`~repro.obs.tracer.Trace` is the span tree of one
        sentried call: detection, ECA dispatch, composition, rule firings
        and their commits.
        """
        return self.tracer.trace(trace_id)

    def traces(self) -> list[Trace]:
        """Every retained trace, oldest first."""
        return self.tracer.traces()

    def flight_recorder(self) -> FlightRecorder:
        """The always-on flight recorder (the shared no-op recorder when
        ``config.flight_recorder`` is False)."""
        return self.flight

    def telemetry(self) -> TelemetryPipeline:
        """The telemetry export pipeline; inert until an exporter is
        attached via :meth:`TelemetryPipeline.add_exporter`."""
        return self.telemetry_pipeline

    @property
    def admin_address(self) -> Optional[tuple[str, int]]:
        """``(host, port)`` of the live admin endpoint, or ``None``."""
        return self.admin.address if self.admin is not None else None

    def dump_observability(self, json_format: bool = False) -> str:
        """Text (default) or JSON dump of the engine's full observable
        state: metrics, retained traces, fault-registry snapshot, dead
        letters, quarantined rules, and the flight-recorder snapshot.
        """
        dead_letters = [{
            "rule": dl.rule_name,
            "error": dl.error,
            "attempts": dl.attempts,
            "mode": dl.work.mode.value,
            "session_id": dl.work.session_id,
        } for dl in self.dead_letters()]
        with self._lock:
            quarantined = sorted(
                rule.name for rule, __ in self._rules.values()
                if rule.quarantined)
        if json_format:
            import json as _json
            return _json.dumps({
                "metrics": self.metrics_registry.snapshot(),
                "traces": [trace.to_dict() for trace in self.traces()],
                "faults": self.faults.stats(),
                "dead_letters": dead_letters,
                "quarantined_rules": quarantined,
                "flight": self.flight.snapshot(),
            }, indent=2)
        parts = [self.metrics_registry.dump_text()]
        for trace in self.traces():
            parts.append(trace.format())
        fault_stats = self.faults.stats()
        parts.append("faults (enabled={enabled})\n  {summary}".format(
            enabled=fault_stats.get("enabled"),
            summary=", ".join(f"{k}={v}" for k, v in fault_stats.items()
                              if k != "enabled") or "none"))
        if dead_letters:
            parts.append("dead letters\n" + "\n".join(
                f"  {dl['rule']} [{dl['mode']}] attempts={dl['attempts']} "
                f"session={dl['session_id']}: {dl['error']}"
                for dl in dead_letters))
        else:
            parts.append("dead letters\n  none")
        parts.append("quarantined rules\n  "
                     + (", ".join(quarantined) if quarantined else "none"))
        flight = self.flight.snapshot()
        parts.append("flight recorder\n  "
                     + " ".join(f"{k}={v}" for k, v in flight.items()))
        return "\n\n".join(parts)

    #: The frozen top-level key set of :meth:`statistics`.  Every key is
    #: present from construction onward; additions require a new entry
    #: here (tests assert equality, catching accidental drift).
    STATISTICS_KEYS = frozenset({
        "transactions", "scheduler", "events", "composers",
        "eca_managers", "storage", "rules", "queries", "observability",
        "sessions", "faults", "flight", "telemetry", "concurrency",
        "shards", "wal", "server",
    })

    #: The frozen key set of ``statistics()["concurrency"]`` — the
    #: curated, stable introspection surface over the striped lock
    #: manager, the WAL group-commit machinery, and the lazy history
    #: merge.  Same contract as :attr:`STATISTICS_KEYS`: tests assert
    #: equality, so additions are deliberate API changes.
    CONCURRENCY_STATS_KEYS = frozenset({
        "locks", "wal", "history",
    })

    def statistics(self) -> dict[str, Any]:
        """A consistent snapshot of every subsystem's counters.

        The key set is exactly :attr:`STATISTICS_KEYS`, and every value is
        well-defined before the first transaction (zeros/empty sections).
        All values come from always-maintained plain attributes, so they
        are correct whether or not ``config.observability`` is enabled;
        the ``observability`` section carries the metrics snapshot (null
        when disabled).  On a sharded engine the kernels' sections
        aggregate over the shards, and ``rules``, ``sessions``,
        ``faults``, ``flight``, ``telemetry``, ``server``,
        ``observability`` and ``concurrency.locks`` come from the
        engine's one registry or stack.

        Keys:

        * ``transactions`` — begun/committed/aborted counts;
        * ``scheduler`` — firing counts per policy (immediate,
          deferred_enqueued, deferred_run, detached_run, ...);
        * ``events`` — detected/composed/consumed plus pending
          semi-composed occurrences;
        * ``composers`` — composer count, emissions, live graph instances;
        * ``eca_managers`` — primitive/composite manager counts and
          occurrences handled;
        * ``storage`` — pages, WAL and buffer-pool counters;
        * ``rules`` — registered rule count;
        * ``queries`` — query-processor counters;
        * ``sessions`` — sessions created/active on this engine;
        * ``faults`` — fault-registry snapshot (enabled, seed, injection
          totals per point; inert zeros when fault injection is off);
        * ``flight`` — flight-recorder snapshot (enabled, capacity,
          recorded/retained/dropped record counts, dumps written);
        * ``telemetry`` — export-pipeline counters (queued, enqueued,
          exported, dropped, export_errors);
        * ``concurrency`` — keys :attr:`CONCURRENCY_STATS_KEYS`:
          ``locks`` (stripe count, total waits/deadlocks/timeouts,
          per-stripe wait count and p50/p99/max in ms), ``wal`` (the
          write-ahead log's live view: commit queue depth, force in
          flight, LSNs) and ``history`` (global-history merges run,
          deferred requests, merge lag, occurrences merged); served with
          the lock table at ``/locks``;
        * ``wal`` — the write-ahead log's live view plus robustness
          counters (lenient-recovery truncations, unknown record types
          skipped, composer-checkpoint bookkeeping and restore
          fallbacks);
        * ``shards`` — the topology (``count``, ``oid_range_size``) and
          one row per kernel (identity, next OID, objects,
          transactions, events, rules, its WAL's live view); a
          single-kernel engine reports itself as a one-shard topology,
          and a sharded engine adds ``event_bus`` and ``tx_groups``;
        * ``server`` — the attached network front end's
          connection/request counters (``{"enabled": False, ...}`` when
          no server is attached);
        * ``observability`` — ``metrics().snapshot()``.

        The admin endpoint's ``/locks``, ``/wal``, ``/shards`` and
        ``/server`` views serve these sections.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        # Lock-free reads throughout: the counters are ints or
        # AtomicCounters (both read atomically under the GIL), so a
        # statistics() poller never blocks a committing session on
        # self._lock.
        sections = [kernel._kernel_sections() for kernel in self.kernels]
        rows = [section.pop("shard") for section in sections]
        stats = merge_stats(sections)
        stats["concurrency"]["locks"] = self.locks.wait_stats()
        stats["shards"] = {
            "count": len(self.kernels),
            "oid_range_size": self.shard_map.range_size,
            "per_shard": rows,
            **self._topology_state(),
        }
        server = self._server
        stats.update({
            "rules": len(self._rules),
            "sessions": {"created": self._sessions_created,
                         "active": len(self._sessions)},
            "faults": self.faults.stats(),
            "flight": self.flight.snapshot(),
            "telemetry": self.telemetry_pipeline.stats(),
            "server": server.stats() if server is not None else {
                "enabled": False, "connections": {"active": 0},
                "requests": {"served": 0}},
            "observability": self.metrics_registry.snapshot(),
        })
        return stats

    def _topology_state(self) -> dict[str, Any]:
        """Topology-wide entries of the ``shards`` section beyond the
        kernel rows (a sharded engine's event bus and groups)."""
        return {}

    def composer_stats(self) -> dict[str, Any]:
        """Durable composite-event detection view (admin ``/composer``):
        per-composer half-matched group counts plus checkpoint/restore
        counters.  The per-composer rows concatenate (a composer lives on
        exactly one kernel) and counters sum; ``last_checkpoint_lsn`` is
        the largest kernel's, since LSNs are per-log positions, and
        ``per_shard_checkpoint_lsn`` lists each kernel's."""
        if self._closed:
            raise RuntimeError("engine is closed")
        per_kernel = []
        for kernel in self.kernels:
            stats = kernel.events.composer_stats()
            wal = kernel.storage.wal_stats()
            stats["last_checkpoint_lsn"] = wal.get(
                "last_composer_checkpoint_lsn", 0)
            stats["checkpoints_written"] = wal.get(
                "composer_checkpoints_written", 0)
            per_kernel.append(stats)
        merged = merge_stats(per_kernel)
        lsns = [stats["last_checkpoint_lsn"] for stats in per_kernel]
        merged["last_checkpoint_lsn"] = max(lsns)
        merged["per_shard_checkpoint_lsn"] = lsns
        return merged

    def architecture_inventory(self) -> dict[str, list[str]]:
        """The Figure 1 view: plugged policy managers + support modules
        (the first kernel's; every kernel plugs the same set)."""
        return self.kernels[0].meta.inventory()

    # ------------------------------------------------------------------
    # Operations over every kernel
    # ------------------------------------------------------------------

    def query(self, text: str, **params: Any) -> list[Any]:
        """Run an OQL-subset query, e.g.
        ``engine.query("select x from River x where x.level < limit",
        limit=37)``.  Each kernel answers for its residents; over several
        kernels the rows come back concatenated in kernel order, with no
        cross-kernel sort (and no cross-kernel aggregate)."""
        results = [kernel.query_processor.execute(text, env=params)
                   for kernel in self.kernels]
        if len(results) == 1:
            return results[0]
        return [row for result in results for row in result]

    def flush(self) -> None:
        """Flush dirty persistent state outside a user transaction."""
        for kernel in self.kernels:
            kernel.persistence.flush_now()

    def checkpoint(self) -> None:
        for kernel in self.kernels:
            kernel.storage.checkpoint()

    def drain_detached(self) -> int:
        """Synchronous mode: run detached work whose dependencies are
        decided.  Each scheduler binds the engine's scope for its drain,
        so detached rule actions deliver their events to it only."""
        return sum(kernel.scheduler.drain_detached()
                   for kernel in self.kernels)

    def wait_for_composition(self, timeout: float = 10.0) -> None:
        for kernel in self.kernels:
            kernel.events.wait_for_composition(timeout)

    def collect_garbage(self) -> int:
        return sum(kernel.events.collect_garbage()
                   for kernel in self.kernels)

    def dead_letters(self) -> list[Any]:
        """Detached work that failed permanently (retries exhausted or the
        rule quarantined): each kernel's, newest last, in kernel order.
        Each entry is a :class:`~repro.core.scheduler.DeadLetter`."""
        return [letter for kernel in self.kernels
                for letter in kernel.scheduler.dead_letter_list()]

    def requeue(self, index: Optional[int] = None) -> int:
        """Re-execute dead-lettered work (all of it, or entry ``index`` of
        :meth:`dead_letters`) with a fresh retry budget; returns the
        number requeued.  Runs under this engine's scope like
        :meth:`drain_detached`."""
        if index is None:
            return sum(kernel.scheduler.requeue_dead_letters(None)
                       for kernel in self.kernels)
        counts = [kernel.scheduler.dead_letter_count()
                  for kernel in self.kernels]
        if index < 0:
            index += sum(counts)
        for kernel, count in zip(self.kernels, counts):
            if 0 <= index < count:
                return kernel.scheduler.requeue_dead_letters(index)
            index -= count
        raise IndexError("dead letter index out of range")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the engine down: cancel timers, drain resolvable detached
        work, stop the worker pools, cancel sentry subscriptions, and
        close every kernel's storage manager (flushing the buffer pool).

        Idempotent — a second call returns immediately.  An attached
        network front end is drained and closed first — while the engine
        is still open, so wire clients' in-flight transactions can
        finish — then open sessions are closed.
        """
        server = self._server
        if server is not None and not self._closed:
            try:
                server.close()          # detaches itself when done
            except Exception:
                pass
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._server = None
            open_sessions = list(self._sessions)
        _LIVE_ENGINES.discard(self)
        if self.admin is not None:
            self.admin.close()
        for session in open_sessions:
            session.close()
        for kernel in self.kernels:
            kernel._stop()
        # The telemetry pipeline drains before storage closes so a final
        # flush can still observe a consistent engine.  A shared stack is
        # closed by its owner, and its lock table cleared once every
        # kernel has stopped.
        if self._owns_stack:
            self.telemetry_pipeline.close()
            self.locks.clear()
        # Pulls a final composer checkpoint: half-matched state present at
        # a clean shutdown survives to the next start.
        for kernel in self.kernels:
            kernel.storage.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An exception unwinding through the engine scope is an unhandled
        # abort: preserve the flight ring before teardown loses it.
        if exc_type is not None and not self._closed:
            try:
                self.flight.record("engine.abort", error=repr(exc))
                self.flight.dump(reason="unhandled-abort")
            except Exception:
                pass
        self.close()


class ReachEngine(EngineBase):
    """The shared kernel of an integrated active OODBMS instance.

    Args:
        directory: storage directory; ``None`` uses a fresh temporary
            directory (transient database).
        config: execution configuration (synchronous by default).
        clock: time source; defaults to a deterministic
            :class:`~repro.clock.VirtualClock`.
        buffer_capacity: buffer-pool frames for the storage manager.
        sentry_registry: low-level event detector; defaults to a fresh
            *scoped* registry so concurrent engines in one process do not
            observe each other's sessions.  A
            :class:`~repro.core.sharding.ShardedEngine` passes one shared
            registry to all of its shards so a single session binding
            covers the whole topology.
        shard_id: this kernel's position in a sharded topology (0 in the
            classic single-kernel case).
        shard_map: the topology's routing state
            (:class:`~repro.oodb.address_space.ShardMap`).  When it names
            more than one shard, the engine's data dictionary allocates
            from a :class:`~repro.oodb.oid.ShardedOIDAllocator` so this
            kernel only ever issues OIDs it owns.
        stack_owner: an engine whose stack (observability and lock
            table) this kernel shares instead of building its own; a
            :class:`~repro.core.sharding.ShardedEngine` passes itself to
            every kernel.
    """

    def __init__(self, directory: Optional[str] = None,
                 config: Optional[ExecutionConfig] = None,
                 clock: Optional[Clock] = None,
                 buffer_capacity: int = 128,
                 sentry_registry: Optional[SentryRegistry] = None,
                 shard_id: int = 0,
                 shard_map: Optional[ShardMap] = None,
                 stack_owner: Optional[EngineBase] = None):
        from repro.storage.storage_manager import StorageManager

        self.engine_id = next(_engine_ids)
        self.config = config or ExecutionConfig()
        self.clock = clock or VirtualClock()
        if directory is None:
            directory = tempfile.mkdtemp(prefix="reach-db-")
        self.directory = directory
        self.shard_id = shard_id
        self.shard_map = shard_map or ShardMap(shard_count=1)
        self.kernels = (self,)
        if self.config.sharding.shards != self.shard_map.shard_count:
            raise ValueError(
                f"ExecutionConfig.sharding.shards is "
                f"{self.config.sharding.shards}, but a ReachEngine is one "
                f"kernel of a {self.shard_map.shard_count}-shard topology; "
                f"build a ShardedEngine to shard the engine")

        # -- observability (repro.obs, repro.faults) and the lock table ---
        # Built first so every subsystem can bind its instruments at
        # construction; a sharded topology's kernels share one stack.
        if stack_owner is not None:
            self._owns_stack = False
        self._open_stack(directory, owner=stack_owner)

        # -- network front end (repro.server) -----------------------------
        # The engine never imports the server package (it sits above core
        # in the layering); a running ReachServer registers itself here
        # via attach_server() so statistics() and close() can reach it.
        self._server: Optional[Any] = None

        # -- low-level event detection -----------------------------------
        # Each engine owns its sentry registry: watches installed through
        # it only deliver while one of this engine's sessions is bound to
        # the delivering thread (or no engine is bound at all), so two
        # engines in one process stay isolated.
        # A registry passed in (a sharded topology's) is counted by its
        # owner, not once per shard.
        if sentry_registry is None:
            sentry_registry = SentryRegistry(
                scoped=True, name=f"engine-{self.engine_id}")
            self.metrics_registry.counter_fn(
                "sentry.notifications",
                lambda: sentry_registry.notifications_delivered)
        self.sentry_registry = sentry_registry

        # -- meta-architecture and support modules (Figure 1) ------------
        self.meta = MetaArchitecture()
        self.tx_manager = TransactionManager(
            self.meta, self.locks, clock=self.clock, tracer=self.tracer,
            metrics=self.metrics_registry)
        self.storage = StorageManager(directory,
                                      buffer_capacity=buffer_capacity,
                                      metrics=self.metrics_registry,
                                      faults=self.faults,
                                      flight=self.flight,
                                      tracer=self.tracer)
        if self.shard_map.shard_count > 1:
            allocator = ShardedOIDAllocator(
                shard_id, self.shard_map.shard_count,
                self.shard_map.range_size, start=FIRST_USER_OID)
            self.dictionary = DataDictionary(allocator=allocator)
        else:
            self.dictionary = DataDictionary()
        self.active_space = ActiveAddressSpace()
        self.passive_space = PassiveAddressSpace(self.storage)
        self.meta.add_support_module(self.active_space)
        self.meta.add_support_module(self.passive_space)
        self.meta.add_support_module(self.dictionary)
        if self.shard_map.shard_count > 1:
            self.meta.add_support_module(self.shard_map)
        self.meta.add_support_module(
            _NamedSupportModule("translation (swizzling serializer)"))
        self.meta.add_support_module(
            _NamedSupportModule("communications (in-process)"))

        # -- policy managers ----------------------------------------------
        # Persistence (dirty marking) and indexing see a state change on
        # the bus inside the Change PM's sentry receiver, which runs
        # before any state-change rule's (it subscribes at register_class).
        self.persistence = self.meta.plug(PersistencePolicyManager(
            self.dictionary, self.active_space, self.passive_space,
            self.tx_manager))
        self.change = self.meta.plug(ChangePolicyManager(
            self.tx_manager, persistence=self.persistence,
            sentry_registry=self.sentry_registry))
        self.indexes = self.meta.plug(IndexPolicyManager(
            self.dictionary, self.tx_manager,
            persistence=self.persistence))
        self.query_processor = self.meta.plug(QueryProcessor(
            self.dictionary, self.persistence,
            index_manager=self.indexes))
        self.meta.plug(TransactionPolicyManager(self.tx_manager))

        # -- REACH ----------------------------------------------------------
        self.scheduler = RuleScheduler(self, self.tx_manager, self.config,
                                       tracer=self.tracer,
                                       metrics=self.metrics_registry,
                                       sentry_registry=self.sentry_registry,
                                       faults=self.faults,
                                       flight=self.flight)
        # Per-tenant SLO attribution: the server names its sessions
        # "<tenant>/<client>", and this hook is how the scheduler maps a
        # firing's session back to that tenant without core importing
        # the server package.
        self.scheduler.tenant_resolver = self.tenant_of_session
        self.events = EventService(
            self.meta, self.tx_manager, self.scheduler,
            self.sentry_registry, self.clock, self.config,
            resolve_class=self.dictionary.type_named,
            tracer=self.tracer, metrics=self.metrics_registry,
            faults=self.faults, flight=self.flight)
        self.rule_pm = self.meta.plug(ReachRulePolicyManager(
            self.events, self.scheduler))
        # Durable composite-event detection: stash the COMPOSER_CHECKPOINT
        # payloads storage recovery found (keyed by composite spec key,
        # oldest first — restore walks them newest-first with fallback),
        # bump the occurrence-seq floor past every checkpointed watermark
        # so post-boot occurrences order strictly after restored ones, and
        # let storage pull snapshots at each force that needs them.
        max_watermark = 0
        for payload in self.storage.recovered_composer_checkpoints:
            try:
                key = payload["key"]
                watermark = payload["watermark"]
                self.events.recovered_composer_state.setdefault(
                    key, []).append(payload)
            except (TypeError, KeyError):
                continue  # malformed: the restore path would reject it too
            if isinstance(watermark, int):
                max_watermark = max(max_watermark, watermark)
        self.storage.recovered_composer_checkpoints.clear()
        if max_watermark:
            advance_occurrence_seq(max_watermark)
        self.storage.composer_checkpoint_provider = \
            self.events.checkpoint_composers
        self.events.recovered_tx_sink = \
            self.tx_manager.seed_recovered_outcomes
        self.temporal = TemporalEventSource(
            self.clock, self.tx_manager,
            dispatch=self.events.dispatch_temporal,
            anchor_subscribe=self._subscribe_anchor)
        self.temporal.schedule_recurring(GC_INTERVAL,
                                         self.events.collect_garbage)

        # Pull-based queue-depth gauges: evaluated only when a metrics
        # snapshot is taken, never on the detection path.  On a shared
        # registry the depths sum over kernels and the age is the oldest.
        self.metrics_registry.gauge_fn(
            "scheduler.detached.depth",
            self.scheduler.pending_detached_count)
        self.metrics_registry.gauge_fn(
            "scheduler.pending_age", self.scheduler.pending_age,
            combine=max)
        self.metrics_registry.gauge_fn(
            "scheduler.deferred.depth",
            self.tx_manager.pending_deferred_count)
        self.metrics_registry.gauge_fn(
            "composer.semi_composed.pending",
            self.events.pending_semi_composed)
        self.metrics_registry.gauge_fn(
            "scheduler.dead_letters.depth",
            self.scheduler.dead_letter_count)

        self._rules: dict[str, tuple[Rule, Any]] = {}
        self._sessions: list[Session] = []
        self._sessions_created = 0
        self._closed = False
        self._lock = threading.RLock()

        # The admin endpoint starts last so every attribute it serves
        # already exists; loopback-only, daemon thread, ephemeral port
        # when admin_port=0 (engine.admin_address has the bound port).
        self.admin: Optional[AdminServer] = None
        if self.config.admin_port is not None:
            self.admin = AdminServer(self, port=self.config.admin_port)
        if self._owns_stack:
            _LIVE_ENGINES.add(self)

    # ------------------------------------------------------------------
    # Sessions and scope
    # ------------------------------------------------------------------

    def create_session(self, name: Optional[str] = None) -> Session:
        """Open a new client session over this engine.

        Each session owns its current-transaction stack (an explicit
        :class:`~repro.oodb.transactions.TransactionContext`), a pin
        cache, and a view of the firing log; use
        ``with session.transaction():`` (or ``session.use()``) to serve
        the client from any thread.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._sessions_created += 1
            session = Session(self, name=name)
            self._sessions.append(session)
        return session

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def register_class(self, cls: Type, monitor_state: bool = True) -> Type:
        """Register an application class with the data dictionary and
        begin monitoring its state changes.

        The class should be decorated with
        :func:`~repro.oodb.sentry.sentried`; monitoring is orthogonal to
        persistence (Section 6.1).
        """
        self.dictionary.register_type(cls)
        if monitor_state:
            self.change.monitor(cls)
        return cls

    def create_index(self, cls_or_name: Union[Type, str],
                     attribute: str) -> HashIndex:
        name = cls_or_name if isinstance(cls_or_name, str) \
            else cls_or_name.__name__
        return self.indexes.create_index(name, attribute)

    # ------------------------------------------------------------------
    # Transactions (engine-level: current ambient context)
    # ------------------------------------------------------------------

    def transaction(self, nested: Optional[bool] = None,
                    deadline: Optional[float] = None) -> TransactionScope:
        """``with engine.transaction() as tx:`` on the calling thread's
        transaction stack — commits on success, aborts on exception, and
        binds this engine's event scope for the body."""
        return TransactionScope(self.tx_manager,
                                self.sentry_registry.bound(),
                                nested=nested, deadline=deadline)

    def current_transaction(self) -> Optional[Transaction]:
        return self.tx_manager.current()

    # ------------------------------------------------------------------
    # Objects and queries
    # ------------------------------------------------------------------

    def persist(self, obj: Any, name: Optional[str] = None) -> OID:
        if not self.dictionary.has_type(type(obj).__name__):
            self.register_class(type(obj))
        return self.persistence.persist(obj, name)

    def fetch(self, target: Union[str, OID]) -> Any:
        return self.persistence.fetch(target)

    def delete(self, target: Union[str, OID, Any]) -> None:
        self.persistence.delete(target)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def register_rule(self, rule: Rule, manager: Any = None) -> Rule:
        """Register a rule, building (or reusing) its ECA-manager.

        A pre-built ``manager`` can be supplied by the sharded
        coordinator, which wires composite managers to remote leaves over
        the event bus instead of letting :meth:`_manager_for` wire them
        locally; Table 1 validation and bookkeeping are identical.
        """
        with self._lock:
            if rule.name in self._rules:
                raise RuleDefinitionError(
                    f"a rule named {rule.name!r} already exists")
            category = rule.event.category()
            check_supported(rule.cond_coupling, category, rule.name)
            check_supported(rule.action_coupling, category, rule.name)
            if manager is None:
                manager = self._manager_for(rule.event)
            manager.add_rule(rule)
            self._rules[rule.name] = (rule, manager)
            return rule

    def _manager_for(self, spec: EventSpec):
        if isinstance(spec, CompositeEventSpec):
            manager = self.events.composite_manager(spec)
            for leaf in spec.leaves():
                if isinstance(leaf, TemporalEventSpec):
                    self.temporal.register(leaf)
            return manager
        manager = self.events.primitive_manager(spec)
        if isinstance(spec, TemporalEventSpec):
            self.temporal.register(spec)
        return manager

    def _subscribe_anchor(self, spec, callback) -> None:
        self.events.primitive_manager(spec).add_listener(callback)

    def unregister_rule(self, name: str) -> None:
        with self._lock:
            rule, manager = self._rules.pop(name)
            manager.remove_rule(rule)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def signal(self, name: str, **parameters: Any) -> None:
        """Raise an explicit user signal (modelled as a method event)."""
        self.events.emit_signal(name, parameters)

    def set_milestone(self, label: str, at: float,
                      tx: Optional[Transaction] = None) -> None:
        """Arm a milestone: if the transaction has not finished by ``at``,
        the milestone event fires and its rules (the contingency plan)
        run detached."""
        tx = tx or self.tx_manager.require_current()
        spec = MilestoneEventSpec(label)
        self.events.primitive_manager(spec)
        self.temporal.arm_milestone(spec, tx.top_level().id, at)

    def arm_progress_milestones(self, label: str,
                                fractions: tuple[float, ...] = (0.5, 0.8),
                                tx: Optional[Transaction] = None) -> list[str]:
        """Track a deadline transaction's progress (paper, Section 3.1).

        For each fraction f, arms the milestone ``"{label}@{f}"`` at
        ``begin + f * (deadline - begin)``.  Requires the transaction to
        have been begun with a ``deadline``.  Returns the milestone labels
        so contingency rules can be attached per checkpoint.
        """
        tx = tx or self.tx_manager.require_current()
        top = tx.top_level()
        if top.deadline is None:
            raise RuleDefinitionError(
                "progress milestones require a transaction deadline")
        labels = []
        span = top.deadline - top.begin_time
        for fraction in fractions:
            if not 0 < fraction <= 1:
                raise ValueError("fractions must be in (0, 1]")
            milestone_label = f"{label}@{fraction}"
            self.set_milestone(milestone_label,
                               at=top.begin_time + fraction * span, tx=top)
            labels.append(milestone_label)
        return labels

    @property
    def history(self):
        """The merged global event history (Section 6.3)."""
        return self.events.global_history

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def _kernel_sections(self) -> dict[str, Any]:
        """The :meth:`statistics` sections this kernel's own subsystems
        keep, and under ``shard`` its row of the ``shards`` section.  The
        WAL's live view is read once and shown in three; the merge in
        :meth:`EngineBase.statistics` copies every shared dict."""
        wal = self.storage.wal_stats()
        composers = self.events.composers()
        primitive = self.events.primitive_managers()
        composite = self.events.composite_managers()
        scheduler = self.scheduler.stats.snapshot()
        scheduler["errors_depth"] = len(self.scheduler.errors)
        scheduler["errors_dropped"] = self.scheduler.errors.dropped
        scheduler["dead_letters"] = self.scheduler.dead_letter_count()
        scheduler["dead_letters_dropped"] = \
            self.scheduler.dead_letters_dropped
        scheduler["quarantined_rules"] = sorted(
            rule.name for rule, __ in list(self._rules.values())
            if rule.quarantined)
        tx_stats = self.tx_manager.stats.snapshot()
        return {
            "transactions": tx_stats,
            "scheduler": scheduler,
            "events": {
                "detected": self.events.events_detected,
                "composed": sum(c.emitted for c in composers),
                "consumed": sum(c.consumed for c in composers),
                "semi_composed_pending":
                    self.events.pending_semi_composed(),
            },
            "composers": {
                "count": len(composers),
                "emitted": sum(c.emitted for c in composers),
                "graph_instances":
                    sum(c.graph_instance_count() for c in composers),
            },
            "eca_managers": {
                "primitive": len(primitive),
                "composite": len(composite),
                "handled": sum(m.handled for m in primitive)
                + sum(m.handled for m in composite),
            },
            "storage": self.storage.stats(),
            "queries": dict(self.query_processor.stats),
            "concurrency": {
                "wal": wal,
                "history": self.events.global_history.stats(),
            },
            "wal": dict(
                wal,
                composer_checkpoint_fallbacks=(
                    self.events.composer_checkpoint_fallbacks),
                composer_restores=self.events.composer_restores,
                composer_checkpoints_emitted=(
                    self.events.composer_checkpoints_emitted)),
            "shard": {
                "shard_id": self.shard_id,
                "directory": self.directory,
                "next_oid": self.dictionary.allocator.next_value,
                "objects": self.storage.object_count(),
                "transactions": tx_stats,
                "events_detected": self.events.events_detected,
                "rules": len(self._rules),
                "wal": wal,
            },
        }

    def _stop(self) -> None:
        """Stop this kernel's machinery, short of closing its storage
        (:meth:`EngineBase.close` does that last)."""
        self._closed = True
        self.temporal.cancel_all()
        try:
            # Give resolvable detached work a last chance to run rather
            # than silently dropping it (synchronous mode).
            self.scheduler.drain_detached()
        except Exception:
            pass
        self.scheduler.close()
        self.events.close()
        self.change.close()
        self.persistence.detach()
