"""Execution configuration for a REACH database instance.

The paper's architecture calls for asynchronous event composition and
parallel rule execution on threads (Sections 2 and 6), while the first REACH
prototype mapped parallel firing onto an ordered sequence because Open OODB
lacked nested transactions (Section 6.4).  Both strategies are first-class
here so that the sequential-vs-parallel measurement the paper proposes can be
run; tests default to the deterministic synchronous mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class ExecutionMode(Enum):
    """How triggered rules and event composition are executed."""

    #: Everything runs inline on the caller's thread in a deterministic
    #: order (the first-prototype strategy of Section 6.4).
    SYNCHRONOUS = "synchronous"

    #: Composition and detached/parallel rules run on worker threads (the
    #: target strategy: 'many small compositors that can be executed by
    #: parallel threads', Section 6.3).
    THREADED = "threaded"


class TieBreakPolicy(Enum):
    """Ordering of same-priority rules (paper, Section 6.4)."""

    OLDEST_FIRST = "oldest_first"   #: default: rule defined earliest fires first
    NEWEST_FIRST = "newest_first"   #: optional: most recently defined fires first


@dataclass
class ShardingConfig:
    """Horizontal scale-out knobs; nested as ``config.sharding``.

    Attributes:
        shards: number of :class:`~repro.core.engine.ReachEngine` kernels
            the database runs.  1 (the default) is the classic
            single-kernel engine with no coordinator in the path.  Above
            1, build a :class:`~repro.core.sharding.ShardedEngine`: it owns
            one kernel per shard with disjoint OID ranges, routes object
            access by OID block and events by spec home, and its sessions
            are :class:`~repro.core.session.ShardedSession`.  A plain
            ``ReachEngine`` given ``shards > 1`` raises ``ValueError``.
            Each shard owns contiguous OID blocks of
            :data:`repro.oodb.oid.DEFAULT_OID_RANGE_SIZE`; the width is
            part of the on-disk routing format, not a knob.
        wal_ship: ship each shard's WAL to a warm read replica
            (``repro.storage.replication``): a tailing reader follows the
            primary's acked (fsynced) prefix and replays committed
            transactions into a replica store under
            ``<dbdir>/shard-K/replica/``.  Off by default.  Shipping is a
            ``ShardedEngine`` service (one shard is fine); a plain
            ``ReachEngine`` given ``wal_ship=True`` raises ``ValueError``.
    """

    shards: int = 1
    wal_ship: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


@dataclass
class ServerConfig:
    """Network front-end knobs (``repro.server``); nested as
    ``config.server``.

    The engine itself never imports the server layer (it sits above
    ``core`` — see ``scripts/check_layering.py``); this config travels
    with the :class:`ExecutionConfig` so one object describes a full
    deployment, and :class:`repro.server.ReachServer` (or the
    ``reproserve`` entry point) reads it when constructed over the
    database.

    Attributes:
        host: interface to bind; loopback by default — exposing the
            engine beyond the machine is an explicit operator decision.
        port: TCP port; 0 (the default) picks an ephemeral port
            (``server.address`` has the real one).
        auth_tokens: bearer-token table mapping token -> tenant name.
            ``None`` (default) disables authentication and serves every
            connection as tenant ``"default"``; an empty dict rejects
            every connection.
        rate_limit: per-tenant request budget in requests/second,
            enforced by a token bucket refilled continuously; ``None``
            (default) is unlimited.  Tenants are isolated — one tenant
            exhausting its bucket never delays another.
        rate_burst: token-bucket capacity: how many requests a tenant
            may burst above the steady-state rate.
        idempotency_capacity: bound on the server-wide cache of
            ``(tenant, idempotency key) -> response`` entries that makes
            retried requests apply exactly once; oldest evicted first.
        max_frame_bytes: largest wire frame accepted or produced; an
            oversized frame draws a structured ``frame_too_large`` error
            and the connection closes.
        drain_timeout: how long :meth:`~repro.server.ReachServer.drain`
            waits for in-flight requests to finish before forcing
            connections closed, in seconds.
        accept_backlog: listen(2) backlog for the accept socket.
    """

    host: str = "127.0.0.1"
    port: int = 0
    auth_tokens: Optional[dict] = None
    rate_limit: Optional[float] = None
    rate_burst: int = 32
    idempotency_capacity: int = 1024
    max_frame_bytes: int = 1 << 20
    drain_timeout: float = 10.0
    accept_backlog: int = 128

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive or None")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        if self.idempotency_capacity < 1:
            raise ValueError("idempotency_capacity must be >= 1")
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes must be >= 64")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        if self.accept_backlog < 1:
            raise ValueError("accept_backlog must be >= 1")


@dataclass
class ExecutionConfig:
    """Tunable knobs for a :class:`~repro.core.engine.ReachEngine` or
    :class:`~repro.core.sharding.ShardedEngine`.

    Attributes:
        mode: synchronous (deterministic) or threaded execution.
        tie_break: same-priority rule ordering.
        simple_events_first: the third deferred-queue policy of Section 6.4 —
            at EOT, rules triggered by simple events fire ahead of rules
            triggered by composite events.
        worker_threads: size of the composer/detached-rule thread pool in
            threaded mode.
        max_rule_recursion: bound on rules triggering rules, to keep
            non-terminating rule sets (Section 6.4 cites termination as an
            open issue) from hanging the system.
        parallel_rules: execute multiple rules fired by one event as
            parallel sibling subtransactions; when False, the set is
            mapped to an ordered firing sequence — the first-prototype
            strategy whose cost Section 6.4 proposes to measure against
            the parallel one.  Parallel siblings need threads, so True
            without ``mode=ExecutionMode.THREADED`` raises ``ValueError``.
        observability: enable the tracing/metrics subsystem
            (``repro.obs``).  Off by default: a disabled pipeline pays
            one no-op call per instrumentation point and ``db.trace()``
            returns ``None``.
        trace_sampling: fraction of would-be trace *roots* actually
            recorded, in [0.0, 1.0] (default 1.0 — trace everything the
            tracer is enabled for).  Sampling gates only root creation:
            spans carrying an explicit context (an adopted wire
            ``TraceContext``, an occurrence's ``trace_id``) or opened
            under an active parent always attach, so a sampled request
            is traced end to end and an unsampled one creates no spans
            anywhere downstream.
        history_capacity: bound on each ECA-manager's local event
            history.  ``None`` (the default) keeps every occurrence, as
            the paper's compensation view requires; long-running
            processes and benchmarks can set a bound so each manager's
            history stays a fixed window instead of the database's whole
            life.
        detached_max_retries: how many times a *failed* detached rule
            execution is retried in a fresh top-level transaction before
            it is dead-lettered.  0 (the default) preserves the original
            fail-once semantics.  Only detached modes retry — immediate
            and deferred rules run inside the triggering transaction's
            scope, and an exclusive causally dependent rule with lock
            transfer must not retry (its inherited locks were released
            when the first attempt aborted).
        retry_base_delay: base of the exponential backoff between retry
            attempts, in seconds; attempt *k* sleeps
            ``retry_base_delay * 2**(k-1)`` plus up to 25% seeded jitter.
        quarantine_threshold: consecutive-failure count at which a rule
            is quarantined (disabled with ``rule.quarantined = True``)
            until an operator re-enables it.  ``None`` (default) never
            quarantines.
        fault_injection: enable the ``repro.faults`` registry so tests
            and torture harnesses can arm named failure points.  Off by
            default: every instrumentation point then holds the shared
            null point and pays one no-op call.
        fault_seed: seed for the fault registry's RNG so probabilistic
            schedules replay deterministically.
        flight_recorder: keep the always-on flight recorder
            (``repro.obs.flight``) — a fixed-cost ring of recent pipeline
            happenings dumped to ``<dbdir>/flight/`` on crash, unhandled
            abort, or on demand.  On by default (unlike ``observability``,
            the post-mortem record must exist when nobody was watching);
            False swaps in the shared no-op recorder.
        telemetry_jsonl: path of a JSONL file to stream span/metric
            records to; ``None`` (default) attaches no exporter (the
            pipeline stays inert until ``db.telemetry().add_exporter``).
        admin_port: serve the live-introspection HTTP endpoint
            (``repro.obs.admin``, loopback only) on this port; 0 picks an
            ephemeral port (``engine.admin_address`` has the real one).
            ``None`` (default) starts no server.
        sharding: the horizontal scale-out knobs
            (:class:`ShardingConfig`): shard count and WAL shipping to
            read replicas.  ``None`` (default) builds the
            defaults (one shard, no shipping).
        server: the network front-end knobs (:class:`ServerConfig`):
            bind address, bearer tokens, per-tenant rate limiting,
            idempotency-cache capacity, frame bound, drain timeout.
            ``None`` (default) describes no server; pass a config and
            construct :class:`repro.server.ReachServer` over the
            engine (or run ``reproserve``) to serve it.
    """

    mode: ExecutionMode = ExecutionMode.SYNCHRONOUS
    tie_break: TieBreakPolicy = TieBreakPolicy.OLDEST_FIRST
    simple_events_first: bool = False
    worker_threads: int = 4
    max_rule_recursion: int = 16
    parallel_rules: bool = False
    observability: bool = False
    trace_sampling: float = 1.0
    history_capacity: Optional[int] = None
    detached_max_retries: int = 0
    retry_base_delay: float = 0.01
    quarantine_threshold: Optional[int] = None
    fault_injection: bool = False
    fault_seed: Optional[int] = None
    flight_recorder: bool = True
    telemetry_jsonl: Optional[str] = None
    admin_port: Optional[int] = None
    sharding: Optional[ShardingConfig] = None
    server: Optional[ServerConfig] = None

    def __post_init__(self) -> None:
        if self.sharding is None:
            self.sharding = ShardingConfig()
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        if self.max_rule_recursion < 1:
            raise ValueError("max_rule_recursion must be >= 1")
        if self.parallel_rules and not self.threaded:
            raise ValueError(
                "ExecutionConfig.parallel_rules=True needs "
                "mode=ExecutionMode.THREADED: parallel sibling rules run "
                "on threads (Section 6.4)")
        if not 0.0 <= self.trace_sampling <= 1.0:
            raise ValueError("trace_sampling must be in [0.0, 1.0]")
        if self.history_capacity is not None and self.history_capacity < 1:
            raise ValueError("history_capacity must be >= 1 or None")
        if self.detached_max_retries < 0:
            raise ValueError("detached_max_retries must be >= 0")
        if self.retry_base_delay < 0:
            raise ValueError("retry_base_delay must be >= 0")
        if self.quarantine_threshold is not None and \
                self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1 or None")
        if self.admin_port is not None and \
                not 0 <= self.admin_port <= 65535:
            raise ValueError("admin_port must be in [0, 65535] or None")

    @property
    def threaded(self) -> bool:
        return self.mode is ExecutionMode.THREADED
