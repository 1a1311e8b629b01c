"""ECA-managers and the event service (paper, Section 6, Figure 2).

"To provide an efficient and highly selective rule firing mechanism, we
use the ECA-managers.  ECA-managers are dedicated to a given event type.
Therefore, they know which set of rules is fired by an event.  If a rule
can be triggered by a simple event, the ECA-manager passes the event and
fires the rule.  ...  If a primitive event is part of a composite event,
the primitive event is passed along to the corresponding event composer."

The flow of Figure 2 maps onto this module:

* a method call is detected by the sentry (implicitly sentried classes),
* the corresponding :class:`PrimitiveECAManager` *creates* the event
  object, *looks up* and fires its direct rules (giving the application
  the go-ahead as soon as no immediately coupled rule remains), *stores*
  the occurrence in its local history, and *propagates* it to the
  composite ECA-managers,
* each :class:`CompositeECAManager` feeds its composer and fires the
  non-immediate rules of completed composites.

Crucially, "only rules that are fired by primitive events can be executed
in an immediate coupling mode": the propagation to composers happens after
the go-ahead and, in threaded mode, asynchronously on worker threads.
"""

from __future__ import annotations

import queue
import threading
from time import perf_counter
from typing import Any, Callable, Hashable, Optional

from repro.config import ExecutionConfig
from repro.core.composer import Composer
from repro.core.events import (
    EventOccurrence,
    EventSpec,
    FlowEventKind,
    FlowEventSpec,
    MethodEventSpec,
    StateChangeEventSpec,
    TemporalEventSpec,
)
from repro.core.algebra import CompositeEventSpec, EventScope
from repro.core.history import HISTORY_SEGMENTS, GlobalHistory, LocalHistory
from repro.core.rules import Rule
from repro.core.scheduler import RuleScheduler
from repro.clock import Clock
from repro.errors import ComposerStateError
from repro.faults.registry import COMPOSER_DISPATCH, NULL_FAULTS, FaultRegistry
from repro.obs.flight import NULL_FLIGHT, FlightRecorder
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import _NULL_SPAN, NULL_TRACER, Tracer
from repro.oodb.meta import (
    MetaArchitecture,
    PolicyManager,
    SystemEvent,
    SystemEventKind,
)
from repro.oodb.sentry import (
    MethodNotification,
    SentryRegistry,
    Subscription,
)
from repro.oodb.transactions import Transaction, TransactionManager


class _RuleSet:
    """The rules of one ECA-manager, with their firing order cached.

    ``rules`` is replaced on every change, never mutated in place, so an
    order computed on one thread for a list another thread has since
    replaced is recognised as stale by identity.
    """

    def __init__(self, scheduler: RuleScheduler):
        self.scheduler = scheduler
        self.rules: list[Rule] = []
        self._order: tuple[list[Rule], tuple[Rule, ...]] = (self.rules, ())

    def add_rule(self, rule: Rule) -> None:
        self.rules = [*self.rules, rule]

    def remove_rule(self, rule: Rule) -> None:
        if rule in self.rules:
            self.rules = [kept for kept in self.rules if kept is not rule]

    def _firing_order(self) -> tuple[Rule, ...]:
        """``rules`` in firing order, sorted on the first firing after a
        change rather than on every ``add_rule``, so defining N rules
        costs one sort, not N."""
        rules = self.rules
        source, ordered = self._order
        if source is not rules:
            ordered = self.scheduler.order_for_firing(rules)
            self._order = (rules, ordered)
        return ordered


class PrimitiveECAManager(_RuleSet):
    """ECA-manager dedicated to one primitive event type."""

    def __init__(self, spec: EventSpec, scheduler: RuleScheduler,
                 global_history: GlobalHistory,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 history_capacity: Optional[int] = None):
        super().__init__(scheduler)
        self.spec = spec
        self.key = spec.key()
        self.tracer = tracer
        #: composite managers (and other listeners) interested in this
        #: primitive event; populated by the event service.
        self.listeners: list[Callable[[EventOccurrence], None]] = []
        self.history = LocalHistory(name=str(self.key),
                                    capacity=history_capacity,
                                    segments=HISTORY_SEGMENTS)
        global_history.attach_source(self.history)
        self.handled = 0
        self._span_name = f"eca:{spec.describe()}"
        self._m_handled = metrics.counter("eca.primitive.handled")

    def add_listener(self,
                     listener: Callable[[EventOccurrence], None]) -> None:
        self.listeners.append(listener)

    def remove_listener(self,
                        listener: Callable[[EventOccurrence], None]) -> None:
        if listener in self.listeners:
            self.listeners.remove(listener)

    def handle(self, occ: EventOccurrence,
               propagate: Callable[[EventOccurrence, list], None]) -> None:
        """Figure 2: create -> store -> fire -> propagate.

        Returning from this method is the go-ahead for the application:
        every immediately coupled rule has run; composition continues
        (possibly asynchronously) without blocking normal processing.
        """
        self.handled += 1
        self._m_handled.inc()
        tracer = self.tracer
        if occ.trace_id is None and not tracer.active():
            span_cm = _NULL_SPAN  # unsampled: skip attribute packing
        else:
            span_cm = tracer.span(self._span_name, "eca",
                                  trace_id=occ.trace_id,
                                  parent_id=occ.span_id,
                                  seq=occ.seq)
        with span_cm as span:
            if span is not None:
                # Downstream spans (rule firings, composer feeds — even on
                # other threads) parent under this ECA span via the
                # occurrence-carried context.
                occ.span_id = span.span_id
            self.history.record(occ)
            if self.rules:
                self.scheduler.fire_rules(self._firing_order(), occ)
            if self.listeners:
                propagate(occ, list(self.listeners))


class CompositeECAManager(_RuleSet):
    """ECA-manager owning one composer and the rules on its composite."""

    def __init__(self, spec: CompositeEventSpec, scheduler: RuleScheduler,
                 global_history: GlobalHistory, name: str = "",
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 history_capacity: Optional[int] = None):
        super().__init__(scheduler)
        self.spec = spec
        self.composer = Composer(spec, name=name, tracer=tracer,
                                 metrics=metrics)
        self.tracer = tracer
        self.history = LocalHistory(name=f"composite:{self.composer.name}",
                                    capacity=history_capacity,
                                    segments=HISTORY_SEGMENTS)
        global_history.attach_source(self.history)
        self._span_name = f"eca:composite:{self.composer.name}"
        self.handled = 0
        self._m_handled = metrics.counter("eca.composite.handled")

    def feed(self, occ: EventOccurrence) -> None:
        """Listener hook: feed a primitive occurrence to the composer and
        fire rules for every completed composite."""
        for emission in self.composer.feed(occ):
            self.handle_composite(emission)

    def handle_composite(self, occ: EventOccurrence) -> None:
        self.handled += 1
        self._m_handled.inc()
        tracer = self.tracer
        if occ.trace_id is None and not tracer.active():
            span_cm = _NULL_SPAN  # unsampled: skip attribute packing
        else:
            span_cm = tracer.span(self._span_name, "eca",
                                  trace_id=occ.trace_id,
                                  parent_id=occ.span_id,
                                  seq=occ.seq)
        with span_cm as span:
            if span is not None:
                occ.span_id = span.span_id
            self.history.record(occ)
            if self.rules:
                self.scheduler.fire_rules(self._firing_order(), occ)


class EventService:
    """Routes detected events to ECA-managers and owns the detectors.

    One service per database.  It installs sentry watches for method
    events, listens on the meta-architecture bus for state-change and
    flow-control events, and accepts temporal occurrences from the
    temporal event source.  Composition propagation is synchronous in
    SYNCHRONOUS mode and queued to worker threads in THREADED mode.
    """

    def __init__(self, meta: MetaArchitecture,
                 tx_manager: TransactionManager,
                 scheduler: RuleScheduler,
                 sentry_registry: SentryRegistry,
                 clock: Clock,
                 config: ExecutionConfig,
                 resolve_class: Callable[[str], type],
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 faults: FaultRegistry = NULL_FAULTS,
                 flight: FlightRecorder = NULL_FLIGHT):
        self.meta = meta
        self.tx_manager = tx_manager
        self.scheduler = scheduler
        self.sentry_registry = sentry_registry
        self.clock = clock
        self.config = config
        self.resolve_class = resolve_class
        self.tracer = tracer
        self.metrics = metrics
        self.flight = flight
        self._m_detected = metrics.counter("events.detected")
        self._fp_dispatch = faults.point(COMPOSER_DISPATCH)
        #: sharded engines install a hook mapping a member transaction id
        #: to the frozen set of ALL member ids of its sharded transaction,
        #: so occurrences detected on any shard correlate under same-tx
        #: composite scope regardless of which member did the detecting.
        #: ``None`` (single-kernel default) leaves tx ids untouched.
        self.tx_group_resolver: Optional[
            Callable[[int], Optional[frozenset[int]]]] = None
        #: engine-installed sink appending one composer snapshot to the
        #: WAL (``StorageManager.append_composer_checkpoint``); ``None``
        #: disables durable composer state (e.g. raw composers in tests).
        self.composer_checkpoint_sink: Optional[
            Callable[[dict], None]] = None
        #: spec key -> chronological COMPOSER_CHECKPOINT payloads found
        #: in the log at recovery; taken (and applied newest first,
        #: falling back on mismatch) when the matching composite manager
        #: is re-created.
        self.recovered_composer_state: dict[Hashable, list[dict]] = {}
        #: engine-installed hook marking pre-crash transaction ids as
        #: decided (``TransactionManager.seed_recovered_outcomes``):
        #: restored half-matches reference transactions of the crashed
        #: incarnation, and detached work scheduled off a recovered
        #: completion would otherwise wait on their outcome forever.
        self.recovered_tx_sink: Optional[
            Callable[[frozenset[int]], int]] = None
        self.composer_checkpoints_emitted = 0
        self.composer_checkpoint_errors = 0
        self.composer_restores = 0
        self.composer_checkpoint_fallbacks = 0
        self.composer_suffix_replayed = 0
        self._detect_span_names: dict[Hashable, str] = {}
        self.global_history = GlobalHistory(metrics=metrics)
        self._primitive: dict[Hashable, PrimitiveECAManager] = {}
        self._composite: dict[Hashable, CompositeECAManager] = {}
        self._subscriptions: list[Subscription] = []
        self._lock = threading.RLock()
        self.events_detected = 0
        #: set by benchmark E5 to simulate the rejected design in which
        #: every method event waits for negative acknowledgements from all
        #: composers before the application proceeds.
        self.force_synchronous_propagation = not config.threaded
        self._queue: Optional[queue.Queue] = None
        self._workers: list[threading.Thread] = []
        self._closing = False
        if config.threaded:
            self._queue = queue.Queue()
            for index in range(config.worker_threads):
                worker = threading.Thread(
                    target=self._composition_worker,
                    name=f"reach-composer-{index}", daemon=True)
                worker.start()
                self._workers.append(worker)

    # ------------------------------------------------------------------
    # Manager registry
    # ------------------------------------------------------------------

    def primitive_manager(self, spec: EventSpec) -> PrimitiveECAManager:
        """Get or create the ECA-manager (and detector) for a primitive."""
        key = spec.key()
        with self._lock:
            manager = self._primitive.get(key)
            if manager is None:
                manager = PrimitiveECAManager(
                    spec, self.scheduler, self.global_history,
                    tracer=self.tracer, metrics=self.metrics,
                    history_capacity=self.config.history_capacity)
                self._primitive[key] = manager
                self._install_detector(spec)
            return manager

    def composite_manager(self, spec: CompositeEventSpec, name: str = "",
                          wire_leaves: bool = True) -> CompositeECAManager:
        key = spec.key()
        with self._lock:
            manager = self._composite.get(key)
            if manager is not None:
                return manager
            manager = CompositeECAManager(
                spec, self.scheduler, self.global_history, name=name,
                tracer=self.tracer, metrics=self.metrics,
                history_capacity=self.config.history_capacity)
            self._composite[key] = manager
            payloads = self.recovered_composer_state.pop(key, None)
        # Durable-detection recovery: if the WAL carried checkpointed
        # state for this multi-transaction composite, rebuild the
        # half-matched graph now — before the leaves are wired, so no
        # live occurrence can race the restore.
        if payloads and manager.composer.scope is EventScope.MULTI_TX:
            self._restore_composer_state(manager, payloads)
        # Every leaf primitive must be detectable and must propagate here.
        # A sharded coordinator passes wire_leaves=False and connects the
        # leaves itself: each leaf detects on its own home shard and feeds
        # this manager through the cross-shard event bus instead.
        if wire_leaves:
            for leaf in spec.leaves():
                primitive = self.primitive_manager(leaf)
                primitive.add_listener(manager.feed)
        return manager

    def _restore_composer_state(self, manager: CompositeECAManager,
                                payloads: list[dict]) -> None:
        """Apply the newest consistent checkpoint, then replay the
        post-checkpoint suffix of the global history.

        Payloads are tried newest-first; a version/spec-key/structure
        mismatch falls back to the previous consistent checkpoint (torn
        frames never got this far — WAL CRC framing already dropped
        them), counted and flight-recorded either way.  Suffix replay
        feeds the composer directly, *not* the manager: any composite
        completed by a replayed occurrence already fired before the
        crash (checkpoints are cut at top-level EOT, after firing),
        so re-emitting it would be a duplicate.
        """
        composer = manager.composer
        watermark: Optional[int] = None
        for payload in reversed(payloads):
            try:
                watermark = composer.restore_state(payload)
            except ComposerStateError as exc:
                self.composer_checkpoint_fallbacks += 1
                if self.flight.enabled:
                    self.flight.record("composer.checkpoint_fallback",
                                       composer=composer.name,
                                       error=str(exc))
                continue
            break
        if watermark is None:
            return  # every payload was inconsistent: start fresh
        self.composer_restores += 1
        if self.recovered_tx_sink is not None and composer.restored_tx_ids:
            self.recovered_tx_sink(composer.restored_tx_ids)
        replayed = 0
        keys = composer.interested_keys
        for occ in self.global_history.entries():
            if occ.seq > watermark and occ.spec_key in keys:
                composer.feed(occ)
                replayed += 1
        self.composer_suffix_replayed += replayed
        if self.flight.enabled:
            self.flight.record("composer.restore", composer=composer.name,
                               watermark=watermark, suffix_replayed=replayed)

    def emit_composer_checkpoints(self) -> int:
        """Snapshot every dirty multi-transaction composer into the WAL
        (top-level EOT); returns the number of checkpoints appended.
        Single-transaction composers hold nothing that outlives a
        transaction and are never snapshotted."""
        sink = self.composer_checkpoint_sink
        if sink is None:
            return 0
        emitted = 0
        for manager in self.composite_managers():
            composer = manager.composer
            if composer.scope is not EventScope.MULTI_TX or \
                    not composer.dirty:
                continue
            try:
                sink(composer.snapshot_state())
            except Exception:
                # A failing append must not poison the commit path; the
                # previous durable checkpoint simply stays authoritative.
                self.composer_checkpoint_errors += 1
                continue
            emitted += 1
        self.composer_checkpoints_emitted += emitted
        return emitted

    def collect_composer_snapshots(self) -> list[dict]:
        """Current full snapshots of every multi-transaction composer
        (checkpoint compaction: N incremental WAL records collapse to
        these).

        Recovered payloads whose composite has not been re-registered
        yet are carried forward verbatim (newest per key) — a storage
        checkpoint must not lose state that is merely waiting for its
        rule to come back.
        """
        snapshots = [manager.composer.snapshot_state()
                     for manager in self.composite_managers()
                     if manager.composer.scope is EventScope.MULTI_TX]
        with self._lock:
            waiting = list(self.recovered_composer_state.values())
        snapshots.extend(payloads[-1] for payloads in waiting if payloads)
        return snapshots

    def composer_stats(self) -> dict[str, Any]:
        """Durable-detection view: half-matched state and checkpoint
        counters (admin ``/composer``, ``reproctl composer``)."""
        composers = []
        half_matched_groups = 0
        pending = 0
        for manager in self.composite_managers():
            composer = manager.composer
            groups = composer.graph_instance_count()
            half_matched_groups += groups
            pending += composer.pending_count()
            composers.append({
                "name": composer.name,
                "scope": composer.scope.value,
                "policy": composer.spec.consumption.value,
                "groups": groups,
                "pending": composer.pending_count(),
                "dirty": composer.dirty,
                "restored_watermark": composer.restored_watermark,
                "dropped_parameters":
                    composer.checkpoint_dropped_parameters,
            })
        return {
            "composers": composers,
            "half_matched_groups": half_matched_groups,
            "pending_semi_composed": pending,
            "checkpoints_emitted": self.composer_checkpoints_emitted,
            "checkpoint_errors": self.composer_checkpoint_errors,
            "restores": self.composer_restores,
            "checkpoint_fallbacks": self.composer_checkpoint_fallbacks,
            "suffix_replayed": self.composer_suffix_replayed,
        }

    def primitive_managers(self) -> list[PrimitiveECAManager]:
        with self._lock:
            return list(self._primitive.values())

    def composite_managers(self) -> list[CompositeECAManager]:
        with self._lock:
            return list(self._composite.values())

    def composers(self) -> list[Composer]:
        return [m.composer for m in self.composite_managers()]

    # ------------------------------------------------------------------
    # Detection: building occurrences
    # ------------------------------------------------------------------

    def _expand_tx_ids(self, tx_ids: frozenset[int]) -> frozenset[int]:
        """Widen member transaction ids to their full sharded-tx group."""
        resolver = self.tx_group_resolver
        if resolver is None or not tx_ids:
            return tx_ids
        expanded = set(tx_ids)
        for tx_id in tx_ids:
            group = resolver(tx_id)
            if group:
                expanded |= group
        return frozenset(expanded)

    def _current_tx_ids(self) -> frozenset[int]:
        tx = self.tx_manager.current()
        if tx is None:
            return frozenset()
        return self._expand_tx_ids(frozenset({tx.top_level().id}))

    def _current_session_id(self) -> Optional[int]:
        """The detecting session, for trace-root and flight attribution:
        the context's session when one is bound to the thread, else the
        current transaction's (covers worker threads running detached
        work whose transaction carries the originating session)."""
        sid = self.tx_manager.current_session_id()
        if sid is not None:
            return sid
        tx = self.tx_manager.current()
        return tx.session_id if tx is not None else None

    def emit(self, spec: EventSpec, parameters: dict[str, Any],
             tx_ids: Optional[frozenset[int]] = None) -> EventOccurrence:
        """Create an occurrence of a registered primitive and route it.

        With tracing enabled this is where a trace is born: the detection
        span roots the trace (or joins the calling thread's open span when
        a rule action raises a cascading event) and its ids travel on the
        occurrence through composition and firing.
        """
        occ = EventOccurrence(
            spec=spec,
            category=spec.category(),
            timestamp=self.clock.now(),
            tx_ids=self._current_tx_ids() if tx_ids is None else tx_ids,
            parameters=parameters)
        tracer = self.tracer
        flight = self.flight
        if not tracer.enabled and not flight.enabled:
            # Disabled fast path: detection costs two attribute checks.
            self.route(occ)
            return occ
        # Span names are cached per spec: describe() walks the spec tree
        # and must not run on every detection.
        span_name = self._detect_span_names.get(occ.spec_key)
        if span_name is None:
            span_name = self._detect_span_names[occ.spec_key] = \
                f"detect:{spec.describe()}"
        sid = self._current_session_id()
        if not tracer.enabled:
            if flight.enabled:
                flight.record("event", seq=occ.seq,
                              spec=span_name[7:], session=sid)
            self.route(occ)
            return occ
        # Signal-time stamp for the end-to-end detection-latency SLO
        # histograms (observed by the scheduler at action completion).
        occ.detected_at = perf_counter()
        if not tracer.active():
            # Root sampling is guaranteed to drop this trace: skip the
            # span attempt (attribute packing included) entirely.  The
            # occurrence travels context-free, like one from an
            # untraced engine, but keeps its SLO timestamp.
            if flight.enabled:
                flight.record("event", seq=occ.seq,
                              spec=span_name[7:], session=sid)
            self.route(occ)
            return occ
        # The detecting session travels on the trace root so exporters
        # and eviction tests can attribute whole traces to sessions.
        if sid is not None:
            span_cm = tracer.span(span_name, "sentry", seq=occ.seq,
                                  session_id=sid)
        else:
            span_cm = tracer.span(span_name, "sentry", seq=occ.seq)
        with span_cm as span:
            # ``span`` is None when root sampling dropped this trace; the
            # occurrence then travels context-free, exactly like one from
            # an untraced engine.
            if span is not None:
                occ.trace_id = span.trace_id
                occ.span_id = span.span_id
            if flight.enabled:
                if span is not None:
                    flight.record("event", seq=occ.seq,
                                  spec=span_name[7:], session=sid,
                                  trace_id=span.trace_id)
                else:
                    flight.record("event", seq=occ.seq,
                                  spec=span_name[7:], session=sid)
            self.route(occ)
        return occ

    def route(self, occ: EventOccurrence) -> None:
        self.events_detected += 1
        self._m_detected.inc()
        with self._lock:
            manager = self._primitive.get(occ.spec_key)
        if manager is not None:
            manager.handle(occ, self._propagate)

    def _propagate(self, occ: EventOccurrence, listeners: list) -> None:
        # An armed dispatch fault can stall (delay) or fail propagation
        # before any composition listener sees the occurrence.
        self._fp_dispatch.hit(seq=occ.seq)
        if self._queue is None or self.force_synchronous_propagation:
            for listener in listeners:
                listener(occ)
        else:
            self._queue.put((occ, listeners))

    def _composition_worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            occ, listeners = item
            # Bind the owning engine's event scope: rules fired from the
            # composer thread must deliver their own (sentried) events to
            # this engine only, not to every engine in the process.
            with self.sentry_registry.bound():
                self._process(occ, listeners)

    def _process(self, occ: EventOccurrence, listeners: list) -> None:
        for listener in listeners:
            try:
                listener(occ)
            except Exception as exc:  # keep the worker alive
                self.scheduler.errors.append((None, exc))

    def wait_for_composition(self, timeout: float = 10.0) -> None:
        """Block until the composition queue is drained (threaded mode)."""
        if self._queue is None:
            return
        import time as _time
        deadline = _time.monotonic() + timeout
        while not self._queue.empty():
            if _time.monotonic() > deadline:
                raise TimeoutError("composition queue did not drain")
            _time.sleep(0.001)

    # ------------------------------------------------------------------
    # Detector installation per primitive flavour
    # ------------------------------------------------------------------

    def _install_detector(self, spec: EventSpec) -> None:
        if isinstance(spec, MethodEventSpec):
            cls = self.resolve_class(spec.class_name)
            subscription = self.sentry_registry.watch_method(
                cls, spec.method,
                self._method_receiver(spec),
                moment=spec.moment)
            self._subscriptions.append(subscription)
        # State-change, flow and temporal events need no per-spec detector:
        # state/flow occurrences are driven from the bus by the rule PM,
        # temporal occurrences by the temporal event source.

    def _method_receiver(self, spec: MethodEventSpec):
        def receive(note: MethodNotification) -> None:
            if note.exception is not None:
                return  # events are raised for successful execution only
            parameters: dict[str, Any] = {
                "instance": note.instance,
                "method": note.method,
                "args": note.args,
                "kwargs": note.kwargs,
                "result": note.result,
            }
            self.emit(spec, parameters)
        return receive

    # -- bus-driven occurrences (called by the rule policy manager) -----------

    def dispatch_state_change(self, event: SystemEvent) -> None:
        instance = event.info.get("instance")
        attribute = event.info.get("attribute")
        if instance is None or attribute is None:
            return
        parameters = {
            "instance": instance,
            "attribute": attribute,
            "old_value": event.info.get("old_value"),
            "new_value": event.info.get("new_value"),
            "had_old_value": event.info.get("had_old_value", False),
        }
        with self._lock:
            candidates = [
                manager for key, manager in self._primitive.items()
                if isinstance(manager.spec, StateChangeEventSpec)
            ]
        for manager in candidates:
            spec = manager.spec
            if spec.attribute is not None and spec.attribute != attribute:
                continue
            cls = self.resolve_class(spec.class_name)
            if not isinstance(instance, cls):
                continue
            self.emit(spec, dict(parameters))

    def dispatch_flow(self, kind: FlowEventKind,
                      event: SystemEvent) -> None:
        spec = FlowEventSpec(kind)
        with self._lock:
            manager = self._primitive.get(spec.key())
        if manager is None:
            return
        tx = event.info.get("tx")
        parameters = dict(event.info)
        tx_ids: Optional[frozenset[int]] = None
        if tx is not None:
            tx_ids = self._expand_tx_ids(frozenset({tx.top_level().id}))
        self.emit(manager.spec, parameters, tx_ids=tx_ids)

    def dispatch_temporal(self, spec: TemporalEventSpec,
                          parameters: dict[str, Any]) -> None:
        """Temporal occurrences originate in no transaction."""
        with self._lock:
            manager = self._primitive.get(spec.key())
        if manager is None:
            return
        self.emit(manager.spec, parameters, tx_ids=frozenset())

    # ------------------------------------------------------------------
    # Lifespan maintenance
    # ------------------------------------------------------------------

    def on_transaction_end(self, tx: Transaction) -> int:
        """Discard single-transaction composition graphs (Section 3.3)."""
        removed = 0
        for manager in self.composite_managers():
            removed += manager.composer.on_transaction_end(tx.id)
        return removed

    def collect_garbage(self) -> int:
        """Sweep expired semi-composed events from all composers."""
        now = self.clock.now()
        return sum(manager.composer.gc(now)
                   for manager in self.composite_managers())

    def pending_semi_composed(self) -> int:
        return sum(manager.composer.pending_count()
                   for manager in self.composite_managers())

    # ------------------------------------------------------------------

    def close(self) -> None:
        self._closing = True
        if self._queue is not None:
            for __ in self._workers:
                self._queue.put(None)
            for worker in self._workers:
                worker.join(timeout=5.0)
            self._queue = None
            self._workers.clear()
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()


class ReachRulePolicyManager(PolicyManager):
    """The Rule PM plugged onto the Open OODB software bus.

    Bridges system events to REACH primitive events, drains deferred rules
    at top-level EOT, enforces composite lifespans and merges the global
    history at transaction end, and releases causally dependent detached
    work once outcomes are known.
    """

    name = "Rule PM (REACH)"
    subscribed_kinds = (
        SystemEventKind.STATE_CHANGE,
        SystemEventKind.TX_BEGIN,
        SystemEventKind.TX_PRE_COMMIT,
        SystemEventKind.TX_COMMIT,
        SystemEventKind.TX_ABORT,
        SystemEventKind.PERSIST,
        SystemEventKind.OBJECT_DELETE,
        SystemEventKind.FETCH,
    )

    _FLOW_OF = {
        SystemEventKind.TX_BEGIN: FlowEventKind.BOT,
        SystemEventKind.TX_PRE_COMMIT: FlowEventKind.EOT,
        SystemEventKind.TX_COMMIT: FlowEventKind.COMMIT,
        SystemEventKind.TX_ABORT: FlowEventKind.ABORT,
        SystemEventKind.PERSIST: FlowEventKind.PERSIST,
        SystemEventKind.OBJECT_DELETE: FlowEventKind.DELETE,
        SystemEventKind.FETCH: FlowEventKind.FETCH,
    }

    def __init__(self, service: EventService, scheduler: RuleScheduler):
        super().__init__()
        self.service = service
        self.scheduler = scheduler

    def on_event(self, event: SystemEvent) -> None:
        kind = event.kind
        if kind is SystemEventKind.STATE_CHANGE:
            self.service.dispatch_state_change(event)
            return
        tx: Optional[Transaction] = event.info.get("tx")
        if kind in (SystemEventKind.TX_BEGIN, SystemEventKind.TX_PRE_COMMIT,
                    SystemEventKind.TX_COMMIT, SystemEventKind.TX_ABORT):
            # Flow events are raised for top-level *user* transactions only;
            # transactions begun for rules would flood the event system and
            # recurse.
            if tx is not None and tx.is_top_level and tx.rule_depth == 0:
                self.service.dispatch_flow(self._FLOW_OF[kind], event)
        else:
            self.service.dispatch_flow(self._FLOW_OF[kind], event)
        if tx is None:
            return
        if not tx.is_top_level:
            return
        if kind is SystemEventKind.TX_PRE_COMMIT:
            self.scheduler.drain_deferred(tx)
            # EOT: persist every multi-transaction composer whose state
            # changed.  This runs before the pre-commit hooks append and
            # force the COMMIT record, so the checkpoint rides the force
            # that acknowledges the commit rather than paying its own.
            self.service.emit_composer_checkpoints()
        elif kind in (SystemEventKind.TX_COMMIT, SystemEventKind.TX_ABORT):
            self.service.on_transaction_end(tx)
            self.service.global_history.merge_transaction(tx.id)
            self.service.global_history.merge_transactionless()
            if kind is SystemEventKind.TX_ABORT:
                self.service.emit_composer_checkpoints()
            self.scheduler.on_transaction_outcome(tx)

    def describe(self) -> str:
        primitive = len(self.service.primitive_managers())
        composite = len(self.service.composite_managers())
        return (f"{self.name} ({primitive} primitive ECA-managers, "
                f"{composite} composite ECA-managers)")
