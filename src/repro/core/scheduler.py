"""Rule execution engine: coupling modes, ordering, causal dependencies.

Implements Section 3.2's six coupling modes and Section 6.4's firing
policies:

* **immediate** rules run at the detection point, at a savepoint of the
  triggering transaction (in a fresh top-level transaction when there is
  none);
* **deferred** rules queue on the triggering transaction and drain at the
  *top-level* EOT (control over deferred execution "resides with the
  transaction policy manager"), each at a savepoint, ordered by priority
  with the configured tie-break and the optional simple-events-first
  policy;
* **detached** rules (plain / parallel / sequential / exclusive causally
  dependent) run in new top-level transactions.  They wait in an index
  keyed by undecided trigger id; a commit/abort signal releases exactly
  the work it last blocked, to a worker pool (threaded mode) or to a
  queue drained once no transaction is active — the first-prototype
  strategy of mapping parallel execution onto an ordered firing sequence.

Parameter passing across the detached boundary follows Section 3.2:
references to persistent objects pass as references, transient objects
pass *by value* (a shallow copy detached from the original's identity).

Serial firing needs only the closed-nested semantics — abort containment,
and effects that become permanent only with the top level — and a
savepoint gives both without a transaction object per firing.  Real
subtransactions remain for what needs them: immediate rules fired as
parallel siblings (``parallel_rules`` in threaded mode), one thread each.

Rule failures undo the rule's own effects (rollback to its savepoint, or
abort of its own transaction) and are recorded; a rule marked
``critical`` additionally aborts the triggering transaction.
"""

from __future__ import annotations

import copy
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

from repro.config import ExecutionConfig, TieBreakPolicy
from repro.core.coupling import CouplingMode
from repro.core.events import EventOccurrence
from repro.core.rules import (
    Rule,
    RuleContext,
    firing_sort_key,
    sort_for_firing,
)
from repro.errors import RuleExecutionError, TransactionAborted
from repro.faults.registry import NULL_FAULTS, SCHEDULER_WORKER, FaultRegistry
from repro.obs.flight import NULL_FLIGHT, FlightRecorder
from repro.obs.metrics import NULL_METRICS, AtomicCounters, MetricsRegistry
from repro.obs.tracer import _NULL_SPAN, NULL_TRACER, Tracer
from repro.oodb.sentry import Binding, sentried_types
from repro.oodb.transactions import (
    Transaction,
    TransactionContext,
    TransactionManager,
    TransactionState,
)

#: Execution phases: a 'full' unit evaluates condition then action; an
#: 'action' unit is the action of a rule whose condition already held.
PHASE_FULL = "full"
PHASE_ACTION = "action"

#: The trigger outcome that cancels a causally dependent firing (Table
#: 1's parenthesised notes); plain detached work has none.
_VETO = {CouplingMode.PARALLEL_CAUSALLY_DEPENDENT: TransactionState.ABORTED,
         CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT: TransactionState.ABORTED,
         CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT: TransactionState.COMMITTED}


@dataclass(slots=True)
class FiringRecord:
    """One entry of the scheduler's firing log (tests and benchmarks).

    The same object is the flight recorder's ``rule.fire`` record: the
    ring holds it and reads :meth:`flight_fields` only when read.
    """

    rule_name: str
    mode: CouplingMode
    phase: str
    event_seq: int
    outcome: str               # executed | condition_false | skipped | error
    tx_id: Optional[int] = None
    #: the session the triggering transaction belonged to (None for
    #: engine-internal work).
    session_id: Optional[int] = None
    #: the triggering occurrence's trace, if it was sampled.
    trace_id: Optional[str] = field(default=None, repr=False, compare=False)

    def flight_fields(self) -> dict[str, Any]:
        fields = {"rule": self.rule_name, "mode": self.mode.value,
                  "phase": self.phase, "event_seq": self.event_seq,
                  "outcome": self.outcome, "tx": self.tx_id,
                  "session": self.session_id}
        if self.trace_id is not None:
            fields["trace_id"] = self.trace_id
        return fields


@dataclass(slots=True)
class DetachedWork:
    """A detached rule execution waiting for its dependencies."""

    rule: Rule
    occ: EventOccurrence
    phase: str
    mode: CouplingMode
    deps: frozenset[int]
    bindings: dict[str, Any]
    depth: int
    #: triggering session, captured at schedule time — the detached
    #: transaction runs on a worker/drain thread, in a context of its own
    #: bound to this session.
    session_id: Optional[int] = None
    #: execution attempts so far (retry bookkeeping; reset on requeue).
    attempts: int = 0
    #: undecided dependencies blocking the item, and since when it waits.
    blockers: int = 0
    waiting_since: float = 0.0
    #: a parallel causally dependent attempt that finished its body before
    #: its triggers decided: the open transaction and the body's outcome.
    parked: Optional[tuple[Transaction, str]] = None


@dataclass
class DeadLetter:
    """A detached execution that failed permanently.

    Retained (bounded) after retries are exhausted or the rule was
    quarantined, for inspection via ``db.dead_letters()`` and manual
    re-execution via ``db.requeue()``.
    """

    work: DetachedWork
    error: str
    attempts: int

    @property
    def rule_name(self) -> str:
        return self.work.rule.name


class BoundedErrorLog(list):
    """Drop-in replacement for the plain ``scheduler.errors`` list that
    keeps only the most recent ``capacity`` entries; the number discarded
    is surfaced as ``errors_dropped`` in ``db.statistics()``."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity
        self.dropped = 0

    def append(self, item: Any) -> None:
        super().append(item)
        if len(self) > self.capacity:
            excess = len(self) - self.capacity
            del self[:excess]
            self.dropped += excess


class _DrainFlag(threading.local):
    """Per-thread ``active`` flag, False on every new thread."""

    active = False


class RuleScheduler:
    """Dispatches triggered rules according to their coupling modes."""

    def __init__(self, db: Any, tx_manager: TransactionManager,
                 config: ExecutionConfig,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 sentry_registry: Any = None,
                 faults: FaultRegistry = NULL_FAULTS,
                 flight: FlightRecorder = NULL_FLIGHT):
        self.db = db
        self.tx_manager = tx_manager
        self.config = config
        self._newest_first = config.tie_break is TieBreakPolicy.NEWEST_FIRST
        self._deferred_key = firing_sort_key(
            newest_first=self._newest_first,
            simple_events_first=config.simple_events_first)
        #: the owning engine's sentry registry; worker and drain threads
        #: bind it so rule actions deliver their events to this engine
        #: only (scoped delivery, see :mod:`repro.oodb.sentry`).
        self.sentry_registry = sentry_registry
        self.tracer = tracer
        self.metrics = metrics
        self.flight = flight
        self._observe_latency = metrics.enabled
        self._h_condition = metrics.histogram("rule.condition.latency")
        self._h_action = metrics.histogram("rule.action.latency")
        self._m_fired = {mode: metrics.counter(f"rules.fired.{mode.value}")
                         for mode in CouplingMode}
        self._m_condition_false = metrics.counter("rules.condition_false")
        self._m_errors = metrics.counter("rules.errors")
        self._m_skipped = metrics.counter("rules.skipped")
        self._fp_worker = faults.point(SCHEDULER_WORKER)
        #: rule name -> "fire:<name>", built lazily; firing is the hot
        #: path, so the span name must not be re-formatted per firing.
        self._fire_span_names: dict[str, str] = {}
        # -- end-to-end detection-latency SLO (signal -> action done) ----
        self._h_detection = metrics.histogram("slo.detection_latency")
        #: (rule name, mode) -> its labelled SLO histogram, built lazily.
        self._slo_histograms: dict[tuple[str, CouplingMode], Any] = {}
        #: session id -> tenant name (or None); resolved once per session
        #: through :attr:`tenant_resolver` and cached — firing is hot.
        self._tenant_cache: dict[Optional[int], Optional[str]] = {}
        self._tenant_slo: dict[str, Any] = {}
        #: optional session-id -> tenant-name hook, wired by the engine;
        #: lets per-tenant SLO series exist without core importing server.
        self.tenant_resolver: Optional[
            Callable[[int], Optional[str]]] = None
        self.errors: BoundedErrorLog = BoundedErrorLog(
            self.ERROR_LOG_CAPACITY)
        self.firing_log: deque[FiringRecord] = deque(
            maxlen=self.MAX_FIRING_LOG)
        self._log_lock = threading.Lock()
        #: undecided tx id -> the detached work it blocks, in admission
        #: order; synchronous mode queues released work in ``_ready``,
        #: threaded mode counts what it handed to the pool in ``_in_pool``.
        self._waiting: dict[int, list[DetachedWork]] = {}
        self._ready: deque[DetachedWork] = deque()
        self._in_pool = 0
        self._pending_lock = threading.Lock()
        #: per-thread "a detached drain is running here" flag (synchronous
        #: mode): work a detached commit releases is left to that loop.
        self._draining = _DrainFlag()
        self._dead_letters: list[DeadLetter] = []
        self.dead_letters_dropped = 0
        #: seeded backoff jitter so retry timing replays with the fault
        #: schedule it is usually tested against.
        self._retry_rng = random.Random(config.fault_seed)
        #: trigger tx id -> holding family id for EXC-CD lock transfer
        self._lock_reservations: dict[int, int] = {}
        tx_manager.set_hooks(self, abort=(self._on_trigger_abort,))
        self._pool: Optional[ThreadPoolExecutor] = None
        if config.threaded:
            self._pool = ThreadPoolExecutor(
                max_workers=config.worker_threads,
                thread_name_prefix="reach-detached")
        # Lock-free ledger counters: the firing hot path never waits on
        # a db.statistics() reader or a concurrent firing.
        self.stats = AtomicCounters((
            "immediate", "deferred_enqueued", "deferred_run",
            "detached_run", "detached_skipped", "recursion_limited",
            "parallel_batches", "detached_retries", "dead_lettered",
            "quarantined"))
        for name, fact in (("scheduler.retries", "detached_retries"),
                           ("scheduler.quarantined", "quarantined"),
                           ("scheduler.dead_letters", "dead_lettered")):
            metrics.counter_fn(name, partial(self.stats.__getitem__, fact))

    # ------------------------------------------------------------------
    # Entry point from the ECA managers
    # ------------------------------------------------------------------

    def order_for_firing(self, rules: Iterable[Rule]) -> tuple[Rule, ...]:
        """``rules`` in this engine's firing order (Section 6.4); the
        ECA-managers cache the result until their rule set changes."""
        return tuple(sort_for_firing(rules, newest_first=self._newest_first))

    def fire_rules(self, rules: Iterable[Rule],
                   occ: EventOccurrence) -> None:
        """Dispatch every enabled rule triggered by ``occ``; ``rules``
        arrive in :meth:`order_for_firing` order."""
        ordered = [rule for rule in rules if rule.enabled]
        if not ordered:
            return
        current = self.tx_manager.current()
        depth = current.rule_depth if current is not None else 0
        if depth >= self.config.max_rule_recursion:
            self.stats.inc("recursion_limited")
            session_id = current.session_id if current is not None else None
            for rule in ordered:
                self._log(rule, rule.cond_coupling, PHASE_FULL, occ,
                          "skipped", session_id=session_id)
            return
        immediate_batch: list[Rule] = []
        for rule in ordered:
            mode = rule.cond_coupling
            if mode is CouplingMode.IMMEDIATE:
                immediate_batch.append(rule)
            elif mode is CouplingMode.DEFERRED:
                self._enqueue_deferred(rule, occ, PHASE_FULL)
            else:
                self._schedule_detached(rule, occ, PHASE_FULL, mode,
                                        current)
        if immediate_batch:
            if (self.config.parallel_rules and len(immediate_batch) > 1
                    and current is not None):
                self._fire_parallel(immediate_batch, occ, current)
            else:
                for rule in immediate_batch:
                    self._fire_immediate(rule, occ, PHASE_FULL, current)

    # ------------------------------------------------------------------
    # Immediate
    # ------------------------------------------------------------------

    def _fire_immediate(self, rule: Rule, occ: EventOccurrence, phase: str,
                        current: Optional[Transaction]) -> None:
        """Run ``rule`` at the detection point: at a savepoint of
        ``current``, this thread's transaction, or in a fresh top-level
        transaction when there is none."""
        self.stats.inc("immediate")
        if current is not None:
            self._fire_at_savepoint(rule, occ, phase, current,
                                    CouplingMode.IMMEDIATE)
            return
        tx = self.tx_manager.begin(rule_depth=1)
        self._run_in_tx(rule, occ, phase, tx, CouplingMode.IMMEDIATE)

    def _fire_at_savepoint(self, rule: Rule, occ: EventOccurrence,
                           phase: str, tx: Transaction, mode: CouplingMode,
                           bindings: Optional[dict[str, Any]] = None) -> None:
        """Run one unit inside ``tx``, on the thread that owns it.

        A failure rolls ``tx`` back to the savepoint taken here, undoing
        only this rule's effects; on success they stay ``tx``'s own and
        become permanent only with its top level.  ``rule_depth`` is
        raised for the duration, so cascades are bounded as for a
        subtransaction.
        """
        mark = self.tx_manager.savepoint(tx)
        tx.rule_depth += 1
        try:
            self._run_in_tx(rule, occ, phase, tx, mode, bindings=bindings,
                            mark=mark)
        finally:
            tx.rule_depth -= 1

    def _fire_parallel(self, rules: list[Rule], occ: EventOccurrence,
                       trigger: Transaction) -> None:
        """Run several immediate rules as parallel sibling subtransactions.

        This is the execution model the paper targets once nested
        transactions exist; the thread setup cost it incurs is exactly
        what benchmark E3 compares against ordered sequential firing.
        """
        self.stats.inc("parallel_batches")

        def run_one(rule: Rule) -> None:
            # The sibling thread has no session bound: lend it the trigger's.
            context = TransactionContext(session_id=trigger.session_id)
            with Binding(self.tx_manager, context,
                         self.sentry_registry):
                tx = self.tx_manager.begin_child_of(
                    trigger, rule_depth=trigger.rule_depth + 1)
                self.stats.inc("immediate")
                self._run_in_tx(rule, occ, PHASE_FULL, tx,
                                CouplingMode.IMMEDIATE)

        threads = [threading.Thread(target=run_one, args=(rule,),
                                    name=f"reach-rule-{rule.name}")
                   for rule in rules]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _run_in_tx(self, rule: Rule, occ: EventOccurrence, phase: str,
                   tx: Transaction, mode: CouplingMode,
                   bindings: Optional[dict[str, Any]] = None,
                   mark: Optional[tuple[int, int]] = None) -> None:
        """Run one unit inside ``tx``: a transaction begun for it, which
        is committed or aborted here, or — given a savepoint ``mark`` —
        the triggering transaction, rolled back to the mark on failure."""
        tm = self.tx_manager
        with self._fire_span(rule, occ, mode, phase, tx) as span:
            try:
                outcome = self._run_unit(rule, occ, phase, tx, mode,
                                         bindings=bindings)
                if mark is None:
                    tm.commit(tx)
                rule.consecutive_failures = 0
                self._log(rule, mode, phase, occ, outcome, tx.id,
                          session_id=tx.session_id)
                if span is not None:
                    span.attributes["outcome"] = outcome
            except RuleExecutionError as exc:
                if mark is not None:
                    tm.rollback_to(tx, mark)
                elif tx.state is TransactionState.ACTIVE:
                    tm.abort(tx)
                self.errors.append((rule, exc))
                # Immediate/deferred failures count toward quarantine but
                # are never retried: the rule ran in the triggering
                # transaction's scope and its failure already surfaced
                # there (Table 1 restricts retries to detached modes).
                self._note_failure(rule, occ=occ)
                self._log(rule, mode, phase, occ, "error", tx.id,
                          session_id=tx.session_id)
                if span is not None:
                    span.attributes["outcome"] = "error"
                if rule.critical:
                    raise TransactionAborted(
                        f"critical rule {rule.name!r} failed: {exc}") from exc

    def _fire_span(self, rule: Rule, occ: EventOccurrence,
                   mode: CouplingMode, phase: str, tx: Transaction):
        """The scheduler span of one firing (null context when disabled).

        Branching here keeps the disabled path to one attribute check —
        no span-name formatting, no attribute packing.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return _NULL_SPAN
        if occ.trace_id is None and not tracer.active():
            return _NULL_SPAN  # unsampled: skip attribute packing
        name = self._fire_span_names.get(rule.name)
        if name is None:
            name = self._fire_span_names[rule.name] = f"fire:{rule.name}"
        return tracer.span(name, "scheduler", trace_id=occ.trace_id,
                           parent_id=occ.span_id, mode=mode.value,
                           phase=phase, tx=tx.id)

    def _run_unit(self, rule: Rule, occ: EventOccurrence, phase: str,
                  tx: Transaction, mode: CouplingMode,
                  bindings: Optional[dict[str, Any]] = None) -> str:
        """Condition/action evaluation; returns the firing outcome."""
        ctx = RuleContext(
            rule=rule, event=occ, db=self.db,
            bindings=rule.bind(occ) if bindings is None
            else dict(bindings),
            transaction=tx)
        # The per-phase histograms sample with the traces; the detection
        # SLO (see _log) records every firing.
        observe = self._observe_latency and occ.trace_id is not None
        if phase == PHASE_FULL:
            if observe:
                start = perf_counter()
                held = rule.evaluate_condition(ctx)
                self._h_condition.observe(perf_counter() - start)
            else:
                held = rule.evaluate_condition(ctx)
            if not held:
                rule.condition_rejections += 1
                return "condition_false"
            if rule.action_coupling is not rule.cond_coupling:
                # Split rule: the action runs later in its own mode.
                self._dispatch_action_later(rule, occ, ctx)
                rule.fired_count += 1
                return "executed"
        if observe:
            start = perf_counter()
            rule.execute_action(ctx)
            self._h_action.observe(perf_counter() - start)
        else:
            rule.execute_action(ctx)
        rule.fired_count += 1
        return "executed"

    def _dispatch_action_later(self, rule: Rule, occ: EventOccurrence,
                               ctx: RuleContext) -> None:
        # The condition may have reorganized the bindings for the action
        # (the paper's generated Cond function 'reorganizes the argument
        # list'); carry them forward to the later phase.
        mode = rule.action_coupling
        if mode is CouplingMode.DEFERRED:
            self._enqueue_deferred(rule, occ, PHASE_ACTION,
                                   bindings=dict(ctx.bindings))
        else:
            self._schedule_detached(rule, occ, PHASE_ACTION, mode,
                                    self.tx_manager.current(),
                                    bindings=dict(ctx.bindings))

    # ------------------------------------------------------------------
    # Deferred
    # ------------------------------------------------------------------

    def _enqueue_deferred(self, rule: Rule, occ: EventOccurrence,
                          phase: str,
                          bindings: Optional[dict[str, Any]] = None) -> None:
        # Defer to the *originating* transaction: in threaded mode a
        # composite may complete on a composer thread while the trigger
        # runs elsewhere, so the current-thread transaction is not it.
        tx = None
        for tx_id in occ.tx_ids:
            candidate = self.tx_manager.find_transaction(tx_id)
            if candidate is not None:
                tx = candidate
                break
        if tx is None:
            tx = self.tx_manager.current()
        if tx is None:
            # The trigger already finished (or there never was one): run
            # right away in a fresh transaction (documented relaxation).
            self._fire_immediate(rule, occ, phase, None)
            return
        tx.deferred_rules.append((rule, occ, phase, bindings, self))
        self.stats.inc("deferred_enqueued")

    def drain_deferred(self, tx: Transaction) -> int:
        """Run the deferred queue at top-level EOT.

        Control resides with the transaction policy manager here (Section
        6.4): rules run at savepoints of the committing transaction, on
        the thread committing it, ordered by priority, tie-break, and
        optionally simple-events-first.  Rules enqueued *by* deferred
        rules are drained too, bounded by the recursion limit.  The queue
        holds what every kernel sharing the transaction deferred; each
        rule runs on the scheduler that deferred it, its home kernel's.
        """
        executed = 0
        rounds = 0
        key = self._deferred_key
        while tx.deferred_rules:
            rounds += 1
            if rounds > self.config.max_rule_recursion:
                self.stats.inc("recursion_limited")
                tx.deferred_rules.clear()
                break
            entries = sorted(tx.deferred_rules,
                             key=lambda entry: key(entry[0]))
            tx.deferred_rules.clear()
            for rule, occ, phase, bindings, home in entries:
                home.stats.inc("deferred_run")
                home._fire_at_savepoint(rule, occ, phase, tx,
                                        CouplingMode.DEFERRED,
                                        bindings=bindings)
                executed += 1
        return executed

    # ------------------------------------------------------------------
    # Detached (+ causal dependencies)
    # ------------------------------------------------------------------

    def _schedule_detached(self, rule: Rule, occ: EventOccurrence,
                           phase: str, mode: CouplingMode,
                           current: Optional[Transaction],
                           bindings: Optional[dict[str, Any]] = None) -> None:
        """Admit ``rule`` as detached work; ``current`` is this thread's
        transaction, whose depth and session the work inherits."""
        if current is not None:
            depth, session_id = current.rule_depth, current.session_id
        else:
            depth, session_id = 0, self._session_of(occ)
        work = DetachedWork(
            rule, occ, phase, mode, occ.tx_ids,
            self._detached_bindings(rule.bind(occ) if bindings is None
                                    else bindings),
            depth + 1, session_id)
        if mode is CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT and \
                rule.transfer_locks:
            # Reserve the triggers' locks: if a trigger aborts, its locks
            # move to a holding family instead of being released, and the
            # contingency transaction claims them when it starts
            # (Section 4's resource transfer).
            with self._pending_lock:
                for dep in work.deps:
                    self._lock_reservations[dep] = -dep
        self._admit(work)

    def _session_of(self, occ: EventOccurrence) -> Optional[int]:
        """Session attribution for detached work scheduled outside a
        transaction: the current context's session if one is bound, else
        the session of a (still live) triggering transaction."""
        session_id = self.tx_manager.current_session_id()
        if session_id is not None:
            return session_id
        for tx_id in occ.tx_ids:
            candidate = self.tx_manager.find_transaction(tx_id)
            if candidate is not None and candidate.session_id is not None:
                return candidate.session_id
        return None

    def _on_trigger_abort(self, tx: Transaction) -> None:
        """Abort hook: park a reserved trigger's locks before release."""
        with self._pending_lock:
            reserved = self._lock_reservations.get(tx.id)
        if reserved is not None:
            self.tx_manager.locks.transfer(tx.family_id, reserved)

    def _claim_reserved_locks(self, work: DetachedWork,
                              tx: Transaction) -> None:
        for dep in work.deps:
            with self._pending_lock:
                reserved = self._lock_reservations.pop(dep, None)
            if reserved is not None:
                self.tx_manager.locks.transfer(reserved, tx.family_id)

    def _drop_reservations(self, work: DetachedWork) -> None:
        with self._pending_lock:
            for dep in work.deps:
                reserved = self._lock_reservations.pop(dep, None)
                if reserved is not None:
                    self.tx_manager.locks.release_all(reserved)

    def _detached_bindings(self,
                           raw: dict[str, Any]) -> dict[str, Any]:
        """Apply the parameter-passing rule of Section 3.2."""
        persistence = getattr(self.db, "persistence", None)
        if persistence is None:
            return raw
        for name, value in raw.items():
            if sentried_types[type(value)] and \
                    not persistence.is_persistent(value):
                # Transient object: pass by value (shallow copy detaches
                # it from the originating transaction's workspace).
                raw[name] = copy.copy(value)
        return raw

    # -- the dispatcher ------------------------------------------------------

    def _admit(self, work: DetachedWork) -> None:
        """Index ``work`` under its undecided triggers, or release it.
        Only threaded plain and parallel-CD work starts before them."""
        early = self._pool is not None and work.mode in (
            CouplingMode.DETACHED, CouplingMode.PARALLEL_CAUSALLY_DEPENDENT)
        if not self._wait_on(work, () if early else work.deps):
            self._release([work])

    def _wait_on(self, work: DetachedWork, deps: Iterable[int],
                 parked: Optional[tuple[Transaction, str]] = None) -> bool:
        """Index ``work`` (and its ``parked`` transaction) under its
        undecided ``deps``, False if none.  An id whose outcome signal is
        still on its way counts as undecided, to keep admission order."""
        waiting = self._waiting
        outcome_of = self.tx_manager.outcome_of
        blockers = 0
        with self._pending_lock:
            for dep in deps:
                if dep in waiting or outcome_of(dep) is None:
                    waiting.setdefault(dep, []).append(work)
                    blockers += 1
            if not blockers:
                return False
            work.blockers = blockers
            work.waiting_since = time.monotonic()
            work.parked = parked
        return True

    def on_transaction_outcome(self, tx: Transaction) -> None:
        """Called after every top-level commit/abort: release the work
        ``tx`` was the last undecided blocker of."""
        released = []
        with self._pending_lock:
            for work in self._waiting.pop(tx.id, ()):
                work.blockers -= 1
                if not work.blockers:
                    released.append(work)
        if released or self._ready:
            self._release(released)

    def _release(self, works: list[DetachedWork]) -> None:
        """Hand released work to the pool (threaded mode), or to the
        ready queue and drain it (synchronous mode).  Within a drain
        (a detached commit releasing work) the running loop picks the
        work up, so the drain is not re-entered."""
        if self._pool is not None:
            with self._pending_lock:
                self._in_pool += len(works)
            with suppress(RuntimeError):  # shutting down: the work is lost
                for work in works:
                    self._pool.submit(self._run_pooled, work)
            return
        if works:
            with self._pending_lock:
                self._ready.extend(works)
        if not self._draining.active:
            self.drain_detached()

    def drain_detached(self) -> int:
        """Synchronous mode: run the ready queue, provided no transaction
        is active on this thread (a new top-level transaction could
        deadlock with it otherwise) and no drain is running on it.  The
        owning engine's sentry scope is bound once for the whole drain.
        """
        draining = self._draining
        ready = self._ready
        if not ready or draining.active or \
                self.tx_manager.current() is not None:
            return 0
        draining.active = True
        executed = 0
        try:
            with Binding(registry=self.sentry_registry):
                while True:
                    with self._pending_lock:
                        if not ready:
                            return executed
                        work = ready.popleft()
                    self._run_ready(work)
                    executed += 1
        finally:
            draining.active = False

    def _run_pooled(self, work: DetachedWork) -> None:
        """Pool-worker body: :meth:`_run_ready` behind a catch-all, in
        the owning engine's sentry scope."""
        try:
            # Armed worker-death faults land here, inside the catch-all,
            # so a dead worker is recorded, not lost.
            self._fp_worker.hit(rule=work.rule.name)
            with Binding(registry=self.sentry_registry):
                self._run_ready(work)
        except BaseException as exc:  # workers must not die silently
            self.errors.append((work.rule, exc))
            self._log(work.rule, work.mode, work.phase, work.occ, "error",
                      session_id=work.session_id)
        finally:
            with self._pending_lock:
                self._in_pool -= 1

    def _run_ready(self, work: DetachedWork) -> None:
        """Skip or run one released item from its triggers' recorded
        outcomes."""
        if work.parked is None and self._vetoed(work):
            self._skip(work)
        else:
            self._execute_detached(work)

    def _vetoed(self, work: DetachedWork) -> bool:
        """True iff a decided trigger of ``work`` cancels its mode."""
        veto = _VETO.get(work.mode)
        if veto is None:
            return False
        outcome_of = self.tx_manager.outcome_of
        return any(outcome_of(dep) is veto for dep in work.deps)

    def _execute_detached(self, work: DetachedWork) -> None:
        """Run the rule in a new top-level transaction, retrying failures.

        A failed attempt retries in a fresh transaction with exponential
        backoff and seeded jitter, up to ``detached_max_retries`` times;
        permanently failed work is dead-lettered.  Only detached modes
        reach this path, and of those an exclusive causally dependent
        rule with lock transfer never retries: its inherited locks were
        released when the first attempt aborted, so a retry would run
        with weaker guarantees than the contingency plan assumed.
        """
        rule = work.rule
        while True:
            try:
                self._attempt_detached(work)
            except Exception as exc:
                failure = exc
            else:
                rule.consecutive_failures = 0
                return
            self.errors.append((rule, failure))
            quarantined = self._note_failure(rule, occ=work.occ)
            retries_allowed = 0 if rule.transfer_locks and work.mode is \
                CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT \
                else self.config.detached_max_retries
            if not quarantined and work.attempts <= retries_allowed:
                self.stats.inc("detached_retries")
                # The retry (backoff included) is a span of its own so a
                # trace tree shows each attempt and the waiting between
                # them; it attaches to the originating trace through the
                # occurrence context, exactly like the firing spans.
                with self._retry_span(work) as span:
                    if span is not None:
                        span.attributes["attempt"] = work.attempts
                        span.attributes["error"] = \
                            f"{type(failure).__name__}: {failure}"
                    self._backoff(work.attempts)
                continue
            self._dead_letter(work, failure)
            return

    def _retry_span(self, work: DetachedWork):
        """The span of one detached retry (null context when disabled)."""
        tracer = self.tracer
        if not tracer.enabled:
            return _NULL_SPAN
        occ = work.occ
        return tracer.span(f"retry:{work.rule.name}", "scheduler",
                           trace_id=occ.trace_id, parent_id=occ.span_id,
                           mode=work.mode.value)

    def _attempt_detached(self, work: DetachedWork) -> None:
        """One execution attempt in a fresh top-level transaction, or the
        end of a parked one.

        The transaction lives in a context of its own, bound to the
        triggering session, which any thread can re-activate.  *Any*
        exception — not just :class:`RuleExecutionError` — aborts the
        transaction before propagating, so a failed attempt can never
        leak an ACTIVE transaction into the manager.
        """
        tm = self.tx_manager
        tx, outcome = work.parked or (None, None)
        work.parked = None
        context = TransactionContext(session_id=work.session_id) \
            if tx is None else tx.context
        tm.push_context(context)  # not activate(): this path is hot
        try:
            if tx is None:
                work.attempts += 1
                tx = tm.begin(nested=False, rule_depth=work.depth)
                if work.mode is CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT \
                        and work.rule.transfer_locks:
                    self._claim_reserved_locks(work, tx)
                self.stats.inc("detached_run")
            with self._fire_span(work.rule, work.occ, work.mode,
                                 work.phase, tx) as span:
                try:
                    if outcome is None:  # not resuming a parked attempt
                        outcome = self._run_unit(
                            work.rule, work.occ, work.phase, tx, work.mode,
                            bindings=work.bindings)
                    # Only parallel causally dependent work can run before
                    # its triggers decide; every other item's veto was
                    # read when it was released (_run_ready).
                    if work.mode is not \
                            CouplingMode.PARALLEL_CAUSALLY_DEPENDENT:
                        tm.commit(tx)
                    # Park first, veto second: once _wait_on finds every
                    # trigger decided, their outcomes are final.
                    elif self._wait_on(work, work.deps, (tx, outcome)):
                        outcome = "parked"
                    elif self._vetoed(work):
                        tm.abort(tx)
                        outcome = "skipped"
                    else:
                        tm.commit(tx)
                except BaseException:
                    if tx.state is TransactionState.ACTIVE:
                        tm.abort(tx)
                    outcome = "error"
                    raise
                finally:
                    if outcome != "parked":
                        self._log(work.rule, work.mode, work.phase, work.occ,
                                  outcome, tx.id, session_id=tx.session_id)
                    if span is not None:
                        span.attributes["outcome"] = outcome
        finally:
            tm.pop_context(context)

    def _backoff(self, attempt: int) -> None:
        base = self.config.retry_base_delay
        if base <= 0:
            return
        delay = base * (2 ** (attempt - 1))
        delay *= 1.0 + 0.25 * self._retry_rng.random()
        time.sleep(delay)

    # -- self-healing bookkeeping ---------------------------------------------

    def _note_failure(self, rule: Rule,
                      occ: Optional[EventOccurrence] = None) -> bool:
        """Record one failed execution; True iff the rule is quarantined."""
        rule.consecutive_failures += 1
        threshold = self.config.quarantine_threshold
        if threshold is not None and not rule.quarantined and \
                rule.consecutive_failures >= threshold:
            # Circuit breaker: the rule is disabled until an operator
            # clears ``rule.quarantined`` and re-enables it.
            rule.quarantined = True
            rule.enabled = False
            self.stats.inc("quarantined")
            if occ is not None and occ.trace_id is not None:
                self.flight.record("rule.quarantine", rule=rule.name,
                                   failures=rule.consecutive_failures,
                                   trace_id=occ.trace_id)
            else:
                self.flight.record("rule.quarantine", rule=rule.name,
                                   failures=rule.consecutive_failures)
        return rule.quarantined

    def _dead_letter(self, work: DetachedWork, exc: BaseException) -> None:
        entry = DeadLetter(work=work,
                           error=f"{type(exc).__name__}: {exc}",
                           attempts=work.attempts)
        with self._pending_lock:
            self._dead_letters.append(entry)
            excess = len(self._dead_letters) - self.DEAD_LETTER_CAPACITY
            if excess > 0:
                del self._dead_letters[:excess]
                self.dead_letters_dropped += excess
        self.stats.inc("dead_lettered")
        trace = {} if work.occ.trace_id is None \
            else {"trace_id": work.occ.trace_id}
        self.flight.record("rule.dead_letter", rule=entry.rule_name,
                           error=entry.error, attempts=entry.attempts,
                           **trace)

    def dead_letter_list(self) -> list[DeadLetter]:
        with self._pending_lock:
            return list(self._dead_letters)

    def dead_letter_count(self) -> int:
        with self._pending_lock:
            return len(self._dead_letters)

    def requeue_dead_letters(self, index: Optional[int] = None) -> int:
        """Re-execute dead letters (all of them, or the one at ``index``).

        Attempts reset to zero so the work gets a full retry budget; a
        still-quarantined rule will fail back onto the queue immediately,
        so clear ``rule.quarantined`` / re-enable the rule first.
        Returns the number of entries requeued.
        """
        with self._pending_lock:
            if index is None:
                entries = self._dead_letters[:]
                self._dead_letters.clear()
            else:
                entries = [self._dead_letters.pop(index)]
        for entry in entries:
            entry.work.attempts = 0
            self._admit(entry.work)
        return len(entries)

    def _skip(self, work: DetachedWork) -> None:
        if work.rule.transfer_locks:
            self._drop_reservations(work)
        self.stats.inc("detached_skipped")
        self._log(work.rule, work.mode, work.phase, work.occ, "skipped",
                  session_id=work.session_id)

    # ------------------------------------------------------------------
    # Hooks and bookkeeping
    # ------------------------------------------------------------------

    def pending_detached_count(self) -> int:
        """Detached work waiting (parked included), ready to run, or
        handed to the pool and not yet finished."""
        with self._pending_lock:
            return len({id(work) for works in self._waiting.values()
                        for work in works}) + len(self._ready) + \
                self._in_pool

    def pending_age(self) -> float:
        """Seconds the oldest waiting item has waited (0 when none)."""
        with self._pending_lock:  # each list is in admission order
            since = [w[0].waiting_since for w in self._waiting.values()]
        return time.monotonic() - min(since) if since else 0.0

    #: bound on the in-memory firing log; older records are dropped.  Read
    #: once, when the scheduler is built.
    MAX_FIRING_LOG = 10_000
    #: bound on ``scheduler.errors``; the number of dropped entries is
    #: surfaced in ``db.statistics()``.  Read once, when the scheduler is
    #: built.
    ERROR_LOG_CAPACITY = 1000
    #: bound on the dead-letter queue of permanently failed detached
    #: work; the oldest entries are dropped first.
    DEAD_LETTER_CAPACITY = 256

    def _log(self, rule: Rule, mode: CouplingMode, phase: str,
             occ: EventOccurrence, outcome: str,
             tx_id: Optional[int] = None,
             session_id: Optional[int] = None) -> None:
        if outcome == "executed":
            self._m_fired[mode].inc()
            if self._observe_latency:
                self._observe_detection_latency(rule, mode, occ,
                                                session_id)
        elif outcome == "condition_false":
            self._m_condition_false.inc()
        elif outcome == "error":
            self._m_errors.inc()
        else:
            self._m_skipped.inc()
        record = FiringRecord(rule.name, mode, phase, occ.seq, outcome,
                              tx_id, session_id, occ.trace_id)
        if self.flight.enabled:
            self.flight.append("rule.fire", record)
        with self._log_lock:
            self.firing_log.append(record)

    def _observe_detection_latency(self, rule: Rule, mode: CouplingMode,
                                   occ: EventOccurrence,
                                   session_id: Optional[int]) -> None:
        """Observe signal -> action-completion latency for one firing.

        A composite occurrence carries no stamp of its own; the latency
        is measured from its *completing* component — the composite
        could not have been detected any earlier.  Occurrences with no
        stamp (observability was off at signal time) are skipped.
        Slow samples carry the occurrence's trace id as an exemplar.
        """
        detected_at = occ.detected_at
        if not detected_at and occ.components:
            detected_at = occ.components[-1].detected_at
        if not detected_at:
            return
        elapsed = perf_counter() - detected_at
        exemplar = occ.trace_id
        self._h_detection.observe(elapsed, exemplar)
        key = (rule.name, mode)
        histogram = self._slo_histograms.get(key)
        if histogram is None:
            histogram = self._slo_histograms[key] = self.metrics.histogram(
                f"slo.detection_latency.{rule.name}.{mode.value}")
        histogram.observe(elapsed, exemplar)
        resolver = self.tenant_resolver
        if resolver is None or session_id is None:
            return
        cache = self._tenant_cache
        if session_id in cache:
            tenant = cache[session_id]
        else:
            tenant = cache[session_id] = resolver(session_id)
        if tenant is None:
            return
        tenant_histogram = self._tenant_slo.get(tenant)
        if tenant_histogram is None:
            tenant_histogram = self._tenant_slo[tenant] = \
                self.metrics.histogram(
                    f"slo.tenant.{tenant}.detection_latency")
        tenant_histogram.observe(elapsed, exemplar)

    def firing_log_for(self, session_id: int) -> list[FiringRecord]:
        """The firing-log slice attributed to one session (a consistent
        snapshot; used by :meth:`repro.core.session.Session.firing_log`)."""
        with self._log_lock:
            return [record for record in self.firing_log
                    if record.session_id == session_id]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
