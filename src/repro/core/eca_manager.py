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
from functools import partial
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
    SignalEventSpec,
    StateChangeEventSpec,
    TemporalEventSpec,
)
from repro.core.algebra import CompositeEventSpec, EventScope
from repro.core.history import GlobalHistory, LocalHistory
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
    StateNotification,
    Subscription,
)
from repro.oodb.transactions import Transaction, TransactionManager

#: flow event kind -> the key of its primitive ECA-manager.
_FLOW_KEYS = {kind: FlowEventSpec(kind).key() for kind in FlowEventKind}


def _total(owners: Callable[[], list], count: str) -> int:
    """The sum of attribute ``count`` over ``owners()``."""
    return sum(getattr(owner, count) for owner in owners())


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
                 history_capacity: Optional[int] = None):
        super().__init__(scheduler)
        self.spec = spec
        self.key = spec.key()
        self.tracer = tracer
        #: composite managers (and other listeners) interested in this
        #: primitive event; populated by the event service.
        self.listeners: list[Callable[[EventOccurrence], None]] = []
        self.history = LocalHistory(name=str(self.key),
                                    capacity=history_capacity)
        global_history.attach_source(self.history)
        self.handled = 0
        self._span_name = f"eca:{spec.describe()}"

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
                                    capacity=history_capacity)
        global_history.attach_source(self.history)
        self._span_name = f"eca:composite:{self.composer.name}"
        self.handled = 0

    def feed(self, occ: EventOccurrence) -> None:
        """Listener hook: feed a primitive occurrence to the composer and
        fire rules for every completed composite."""
        for emission in self.composer.feed(occ):
            self.handle_composite(emission)

    def handle_composite(self, occ: EventOccurrence) -> None:
        self.handled += 1
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

    One service per database.  It installs sentry watches for method and
    state-change events, takes flow-control events from the rule PM, and
    accepts temporal occurrences from the temporal event source.
    Composition propagation is synchronous in SYNCHRONOUS mode and queued
    to worker threads in THREADED mode.
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
        self._fp_dispatch = faults.point(COMPOSER_DISPATCH)
        #: sharded engines install a hook mapping a member transaction id
        #: to the frozen set of ALL member ids of its sharded transaction,
        #: so occurrences detected on any shard correlate under same-tx
        #: composite scope regardless of which member did the detecting.
        #: ``None`` (single-kernel default) leaves tx ids untouched.
        self.tx_group_resolver: Optional[
            Callable[[int], Optional[frozenset[int]]]] = None
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
        #: insert-only, written under ``_lock``; a reader's single ``get``
        #: is atomic under the GIL and takes no lock.
        self._primitive: dict[Hashable, PrimitiveECAManager] = {}
        self._composite: dict[Hashable, CompositeECAManager] = {}
        #: the composers by scope, rebuilt when a composite manager is
        #: created: the force-time checkpoint walks only multi-transaction
        #: ones and the transaction-end sweep only single-transaction ones.
        self.single_tx_composers: tuple[Composer, ...] = ()
        self.multi_tx_composers: tuple[Composer, ...] = ()
        self._subscriptions: list[Subscription] = []
        self._lock = threading.RLock()
        self.events_detected = 0
        metrics.counter_fn("events.detected", lambda: self.events_detected)
        # Each manager and composer keeps its own count; the registry
        # reads their sum.
        for name, owners, count in (
                ("eca.primitive.handled", self.primitive_managers, "handled"),
                ("eca.composite.handled", self.composite_managers, "handled"),
                ("events.composed", self.composers, "emitted"),
                ("events.consumed", self.composers, "consumed"),
                ("composer.gc_removed", self.composers, "gc_removed")):
            metrics.counter_fn(name, partial(_total, owners, count))
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
                # Published only once its detector is installed: a class
                # that cannot be resolved yet leaves no deaf manager behind.
                self._install_detector(spec)
                manager = PrimitiveECAManager(
                    spec, self.scheduler, self.global_history,
                    tracer=self.tracer,
                    history_capacity=self.config.history_capacity)
                self._primitive[key] = manager
            return manager

    def composite_manager(self, spec: CompositeEventSpec, name: str = "",
                          wire_leaves: bool = True) -> CompositeECAManager:
        key = spec.key()
        with self._lock:
            manager = self._composite.get(key)
            if manager is not None:
                return manager
            # Every leaf primitive must be detectable and must propagate
            # here: resolve them all before publishing, so a leaf that
            # cannot be detected yet leaves no deaf manager behind.  A
            # sharded coordinator passes wire_leaves=False and connects
            # the leaves itself: each leaf detects on its own home shard
            # and feeds this manager through the cross-shard event bus.
            leaves = ([self.primitive_manager(leaf) for leaf in spec.leaves()]
                      if wire_leaves else [])
            manager = CompositeECAManager(
                spec, self.scheduler, self.global_history, name=name,
                tracer=self.tracer, metrics=self.metrics,
                history_capacity=self.config.history_capacity)
            self._composite[key] = manager
            composer = manager.composer
            if composer.scope is EventScope.MULTI_TX:
                self.multi_tx_composers += (composer,)
            else:
                self.single_tx_composers += (composer,)
            payloads = self.recovered_composer_state.pop(key, None)
        # Durable-detection recovery: if the WAL carried checkpointed
        # state for this multi-transaction composite, rebuild the
        # half-matched graph now — before the leaves are wired, so no
        # live occurrence can race the restore.
        if payloads and manager.composer.scope is EventScope.MULTI_TX:
            self._restore_composer_state(manager, payloads)
        for primitive in leaves:
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
        crash (checkpoints are cut at a log force, after firing),
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

    def checkpoint_composers(self, append: Callable[[dict], Any],
                             every: bool = False) -> None:
        """Storage's pull hook, run under the storage mutex just before a
        force: hand ``append`` a snapshot of every dirty multi-transaction
        composer.  ``every`` (after checkpoint truncation) takes every
        one, plus the newest recovered payload of each composite not
        re-registered yet: a storage checkpoint must not lose state that
        is merely waiting for its rule to come back.

        Single-transaction composers hold nothing that outlives a
        transaction and are never snapshotted.  A failing snapshot or
        append is counted, never raised into the force; the composer
        stays dirty, so the next force writes it.
        """
        emitted = 0
        for composer in self.multi_tx_composers:
            if not (every or composer.dirty):
                continue
            try:
                composer.checkpoint(append)
            except Exception as exc:
                self.composer_checkpoint_errors += 1
                if self.flight.enabled:
                    self.flight.record("composer.checkpoint_error",
                                       composer=composer.name,
                                       error=repr(exc))
                continue
            emitted += 1
        self.composer_checkpoints_emitted += emitted
        if every:
            with self._lock:
                waiting = list(self.recovered_composer_state.values())
            for payloads in waiting:
                if payloads:
                    append(payloads[-1])

    def composer_stats(self) -> dict[str, Any]:
        """Durable-detection view: half-matched state and checkpoint
        counters (admin ``/composer``, ``reproctl composer``)."""
        composers = []
        half_matched_groups = 0
        pending = 0
        for manager in self.composite_managers():
            composer = manager.composer
            groups = composer.graph_instance_count()
            count = composer.pending_count()
            half_matched_groups += groups
            pending += count
            composers.append({
                "name": composer.name,
                "scope": composer.scope.value,
                "policy": composer.spec.consumption.value,
                "groups": groups,
                "pending": count,
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

    def emit_signal(self, name: str,
                    parameters: dict[str, Any]) -> EventOccurrence:
        """Raise user signal ``name``.  A registered signal's occurrences
        share its manager's spec rather than each keeping its own copy."""
        spec = SignalEventSpec(name)
        manager = self._primitive.get(spec.key())
        return self.emit(manager.spec if manager is not None else spec,
                         parameters)

    def route(self, occ: EventOccurrence) -> None:
        self.events_detected += 1
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
        work = self._queue
        while True:
            item = work.get()
            if item is None:
                work.task_done()
                return
            occ, listeners = item
            # Bind the owning engine's event scope: rules fired from the
            # composer thread must deliver their own (sentried) events to
            # this engine only, not to every engine in the process.
            with self.sentry_registry.bound():
                self._process(occ, listeners)
            work.task_done()

    def _process(self, occ: EventOccurrence, listeners: list) -> None:
        for listener in listeners:
            try:
                listener(occ)
            except Exception as exc:  # keep the worker alive
                self.scheduler.errors.append((None, exc))

    def wait_for_composition(self, timeout: float = 10.0) -> None:
        """Block until every queued item has been composed (threaded
        mode).  An item is finished at its worker's ``task_done``, not
        when it leaves the queue, and work it enqueues is counted first."""
        work = self._queue
        if work is None:
            return
        with work.all_tasks_done:
            if not work.all_tasks_done.wait_for(
                    lambda: not work.unfinished_tasks, timeout):
                raise TimeoutError("composition queue did not drain")

    # ------------------------------------------------------------------
    # Detector installation per primitive flavour
    # ------------------------------------------------------------------

    def _install_detector(self, spec: EventSpec) -> None:
        if isinstance(spec, MethodEventSpec):
            subscription = self.sentry_registry.watch_method(
                self.resolve_class(spec.class_name), spec.method,
                self._method_receiver(spec), moment=spec.moment)
        elif isinstance(spec, StateChangeEventSpec):
            # Subscribed after the Change PM's receiver (installed when
            # the class was registered), so a write's lock, undo record
            # and bus event precede its REACH occurrence.
            subscription = self.sentry_registry.watch_state(
                self.resolve_class(spec.class_name), spec.attribute,
                self._state_receiver(spec))
        else:
            # Flow occurrences are driven by the rule PM, temporal ones
            # by the temporal event source.
            return
        self._subscriptions.append(subscription)

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

    def _state_receiver(self, spec: StateChangeEventSpec):
        def receive(note: StateNotification) -> None:
            self.emit(spec, {
                "instance": note.instance,
                "attribute": note.attribute,
                "old_value": note.old_value,
                "new_value": note.new_value,
                "had_old_value": note.had_old_value,
            })
        return receive

    # -- occurrences driven by the rule PM and the temporal source ------------

    def dispatch_flow(self, kind: FlowEventKind,
                      info: dict[str, Any]) -> None:
        """Raise flow event ``kind`` with parameters ``info`` — only while
        a rule or a listener uses it, so a flow point nobody watches
        costs one dictionary lookup.  A single lookup is atomic under
        the GIL and takes no lock."""
        manager = self._primitive.get(_FLOW_KEYS[kind])
        if manager is None or not (manager.rules or manager.listeners):
            return
        tx = info.get("tx")
        tx_ids: Optional[frozenset[int]] = None
        if tx is not None:
            tx_ids = self._expand_tx_ids(frozenset({tx.top_level().id}))
        self.emit(manager.spec, dict(info), tx_ids=tx_ids)

    def dispatch_temporal(self, spec: TemporalEventSpec,
                          parameters: dict[str, Any]) -> None:
        """Temporal occurrences originate in no transaction."""
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
        for composer in self.single_tx_composers:
            removed += composer.on_transaction_end(tx.id)
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

    Bridges persist, fetch and delete system events to REACH flow
    events (state-change events come straight from the sentry, see
    :meth:`EventService._install_detector`).  Transaction flow is not taken from the bus:
    when plugged, the Rule PM registers one typed hook per lifecycle
    point with the transaction manager
    (:meth:`TransactionManager.set_hooks`).  The hooks raise the BOT/EOT/
    Commit/Abort flow events of user transactions while a rule or a
    composite uses them, drain deferred rules at top-level EOT, enforce
    single-transaction composite lifespans, merge the global history at
    transaction end, and release causally dependent detached work once
    outcomes are known.
    """

    name = "Rule PM (REACH)"
    _FLOW_OF = {
        SystemEventKind.PERSIST: FlowEventKind.PERSIST,
        SystemEventKind.OBJECT_DELETE: FlowEventKind.DELETE,
        SystemEventKind.FETCH: FlowEventKind.FETCH,
    }
    subscribed_kinds = tuple(_FLOW_OF)

    def __init__(self, service: EventService, scheduler: RuleScheduler):
        super().__init__()
        self.service = service
        self.scheduler = scheduler

    def attach(self, meta: MetaArchitecture) -> None:
        super().attach(meta)
        self.service.tx_manager.set_hooks(
            self, begin=(self._on_begin,), eot=(self._on_eot,),
            commit=(partial(self._on_end, FlowEventKind.COMMIT),),
            post_abort=(partial(self._on_end, FlowEventKind.ABORT),))

    def detach(self) -> None:
        super().detach()
        self.service.tx_manager.set_hooks(self)

    def on_event(self, event: SystemEvent) -> None:
        self.service.dispatch_flow(self._FLOW_OF[event.kind], event.info)

    # -- transaction lifecycle hooks (top-level transactions only) --------
    #
    # Flow events are raised for *user* transactions only; transactions
    # begun for rules would flood the event system and recurse.

    def _on_begin(self, tx: Transaction) -> None:
        if tx.rule_depth == 0:
            self.service.dispatch_flow(FlowEventKind.BOT, {"tx": tx})

    def _on_eot(self, tx: Transaction) -> None:
        if tx.rule_depth == 0:
            self.service.dispatch_flow(FlowEventKind.EOT, {"tx": tx})
        if tx.deferred_rules:
            self.scheduler.drain_deferred(tx)

    def _on_end(self, kind: FlowEventKind, tx: Transaction) -> None:
        """Top-level commit (``commit`` point) or abort (``post_abort``)."""
        service = self.service
        try:
            if tx.rule_depth == 0:
                service.dispatch_flow(kind, {"tx": tx})
            service.on_transaction_end(tx)
            service.global_history.merge_transaction(tx.id)
            service.global_history.merge_transactionless()
        finally:  # waiting detached work needs the signal even so
            self.scheduler.on_transaction_outcome(tx)

    def describe(self) -> str:
        primitive = len(self.service.primitive_managers())
        composite = len(self.service.composite_managers())
        return (f"{self.name} ({primitive} primitive ECA-managers, "
                f"{composite} composite ECA-managers)")
