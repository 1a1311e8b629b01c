"""Transaction policy manager: flat and closed-nested transactions.

The paper (Sections 2-4) requires:

* a **nested transaction model** — without it, only serial execution of
  triggered rules is possible in the immediate and deferred modes;
* the ability to **spawn new top-level transactions** for the detached
  coupling modes;
* **access to transaction-manager information** — ids, commit and abort
  signals — to enforce the causal dependencies of the detached causally
  dependent modes (this is exactly what the closed commercial systems
  refused to expose).

This module provides all three.  Rules fired one after another need
only the closed-nested *semantics* — abort containment, and effects that
become permanent only with the top level — which a **savepoint** gives
without a transaction object: :meth:`TransactionManager.savepoint` marks
the triggering transaction and :meth:`TransactionManager.rollback_to`
undoes back to the mark.  Real subtransactions serve what needs them:
user-nested transactions and parallel sibling rules
(:meth:`TransactionManager.begin_child_of`).

Commit and abort raise flow-control system
events on the meta-architecture bus (BOT / EOT / Commit / Abort of Section
3.2), which the REACH rule policy manager turns into primitive events and
which the rule scheduler's dependency tracker consumes.

Locking follows the closed-nested convention: all locks are held by the
transaction *family* (top-level transaction and descendants) and released
when the top level finishes.

Transaction scope is an explicit, first-class context: every client
session owns a :class:`TransactionContext` (its current-transaction
stack) and binds it to whichever thread is serving it via
:meth:`TransactionManager.activate`.  Threads with no bound context fall
back to a per-thread default context, which preserves the historical
one-client-per-thread behaviour (detached rule workers and
``engine.transaction()`` rely on it).
"""

from __future__ import annotations

import enum
import itertools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.errors import (
    NestedTransactionError,
    TransactionStateError,
)
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    SeqlockCounters,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oodb.locks import LockManager, LockMode
from repro.oodb.meta import MetaArchitecture, SystemEventKind


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One (possibly nested) transaction.

    Attributes of note:

    * ``undo_log`` — callbacks restoring in-memory object state, run in
      reverse order on abort; merged into the parent on nested commit.
    * ``deferred_rules`` — (rule, context) pairs queued for execution at EOT
      by the rule scheduler; merged into the parent on nested commit so that
      deferral is always relative to the *top-level* user transaction.
    * ``dirty_objects`` — persistent objects whose state must be flushed at
      top-level commit (maintained by the persistence PM).  A dict used as
      an insertion-ordered set, only ever added to before commit, so a
      savepoint can drop exactly the marks added after it.
    * ``deadline`` — optional absolute time used by milestone events.
    * ``rule_depth`` — recursion depth of rule-triggered work, bounding
      cascades; raised for the duration of each rule fired at a savepoint
      of this transaction.
    """

    _ids = itertools.count(1)

    def __init__(self, parent: Optional["Transaction"] = None,
                 deadline: Optional[float] = None):
        self.id = next(Transaction._ids)
        self.parent = parent
        self.family_id = parent.family_id if parent else self.id
        self.state = TransactionState.ACTIVE
        self.undo_log: list[Callable[[], None]] = []
        self.deferred_rules: list[Any] = []
        self.dirty_objects: dict[Any, None] = {}
        self.deleted_objects: set[Any] = set()
        self.deadline = deadline
        self.rule_depth = parent.rule_depth if parent else 0
        self.active_children = 0
        self.metadata: dict[str, Any] = {}
        self.begin_time: float = 0.0
        #: the context (session scope) this transaction was begun in; set
        #: by the transaction manager, used to pop the right stack even
        #: when completion happens on another thread.
        self.context: Optional["TransactionContext"] = None
        self.session_id: Optional[int] = None

    @property
    def is_top_level(self) -> bool:
        return self.parent is None

    @property
    def is_active(self) -> bool:
        return self.state is TransactionState.ACTIVE

    def record_undo(self, restore: Callable[[], None]) -> None:
        if self.state is not TransactionState.ACTIVE and \
                self.state is not TransactionState.COMMITTING:
            raise TransactionStateError(
                f"transaction {self.id} is {self.state.value}")
        self.undo_log.append(restore)

    def top_level(self) -> "Transaction":
        tx = self
        while tx.parent is not None:
            tx = tx.parent
        return tx

    def __repr__(self) -> str:
        kind = "top" if self.is_top_level else f"sub-of-{self.parent.id}"
        return f"<Transaction {self.id} {kind} {self.state.value}>"


class TransactionContext:
    """An explicit current-transaction stack: one client's scope.

    The first REACH prototype hard-wired one client per thread by keeping
    the current-transaction stack in thread-local storage.  A context
    makes that scope a first-class object instead: a
    :class:`~repro.core.session.Session` owns one and binds it to
    whichever thread currently serves the client, so N sessions can run
    transactions against one engine regardless of the thread topology.

    A context must only be *active* on one thread at a time (one client,
    one request in flight); the session layer enforces this usage.
    """

    __slots__ = ("name", "session_id", "stack")

    def __init__(self, name: str = "",
                 session_id: Optional[int] = None):
        self.name = name
        self.session_id = session_id
        self.stack: list[Transaction] = []

    def current(self) -> Optional[Transaction]:
        return self.stack[-1] if self.stack else None

    def __repr__(self) -> str:
        return (f"<TransactionContext {self.name or id(self)} "
                f"depth={len(self.stack)}>")


class TransactionManager:
    """Creates, tracks, commits and aborts transactions.

    The *current* transaction is resolved through an explicit
    :class:`TransactionContext`: sessions bind their context to the
    serving thread with :meth:`activate`; threads with nothing bound use
    a per-thread default context.  Detached rules running on worker
    threads therefore get independent transaction contexts, exactly like
    the paper's Solaris threads, while client sessions keep their own
    scope even when multiplexed over arbitrary threads.
    """

    def __init__(self, meta: MetaArchitecture, locks: LockManager,
                 clock: Any = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS):
        self.meta = meta
        self.locks = locks
        self.clock = clock
        self.tracer = tracer
        self._m_begun = metrics.counter("tx.begun")
        self._m_committed = metrics.counter("tx.committed")
        self._m_aborted = metrics.counter("tx.aborted")
        self._local = threading.local()
        self._outcomes: dict[int, TransactionState] = {}
        self._outcome_lock = threading.Lock()
        self._outcome_condition = threading.Condition(self._outcome_lock)
        self._outcome_waiters = 0
        self._live: dict[int, Transaction] = {}
        self._live_lock = threading.Lock()
        self.pre_commit_hooks: list[Callable[[Transaction], None]] = []
        self.post_commit_hooks: list[Callable[[Transaction], None]] = []
        self.abort_hooks: list[Callable[[Transaction], None]] = []
        counters = {"begun": 0, "committed": 0, "aborted": 0}
        # Seqlock counters keep db.statistics() reads off the commit path
        # and make concurrent session commits increment lose-free.
        self.stats = SeqlockCounters(counters)

    # -- current-transaction contexts -----------------------------------------

    def _thread_context(self) -> TransactionContext:
        """The per-thread fallback context (legacy one-client-per-thread)."""
        context = getattr(self._local, "default_context", None)
        if context is None:
            context = TransactionContext(
                name=f"thread-{threading.get_ident()}")
            self._local.default_context = context
        return context

    def current_context(self) -> TransactionContext:
        """The innermost bound context, or this thread's default one."""
        bound = getattr(self._local, "bound_contexts", None)
        if bound:
            return bound[-1]
        return self._thread_context()

    def push_context(self, context: TransactionContext) -> None:
        bound = getattr(self._local, "bound_contexts", None)
        if bound is None:
            bound = self._local.bound_contexts = []
        bound.append(context)

    def pop_context(self, context: TransactionContext) -> None:
        bound = getattr(self._local, "bound_contexts", None)
        if not bound or bound[-1] is not context:
            raise TransactionStateError(
                "transaction context bindings must unwind in LIFO order")
        bound.pop()

    @contextmanager
    def activate(self, context: TransactionContext) \
            -> Iterator[TransactionContext]:
        """Bind ``context`` to the calling thread for the ``with`` body."""
        self.push_context(context)
        try:
            yield context
        finally:
            self.pop_context(context)

    def current_session_id(self) -> Optional[int]:
        return self.current_context().session_id

    def _stack(self) -> list[Transaction]:
        return self.current_context().stack

    def current(self) -> Optional[Transaction]:
        stack = self._stack()
        return stack[-1] if stack else None

    def require_current(self) -> Transaction:
        tx = self.current()
        if tx is None:
            raise TransactionStateError("no transaction is active")
        return tx

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, nested: Optional[bool] = None,
              deadline: Optional[float] = None,
              rule_depth: Optional[int] = None) -> Transaction:
        """Begin a transaction.

        ``nested=None`` (default) nests under the current transaction when
        one exists, otherwise begins top-level.  ``nested=False`` forces a
        new top-level transaction (used to spawn detached rules) even if a
        transaction is current on this thread.
        """
        parent = self.current() if nested is not False else None
        if nested is True and parent is None:
            raise NestedTransactionError(
                "nested=True requires an enclosing transaction")
        # COMMITTING parents are allowed: deferred rules run at EOT, after
        # work but before commit, and their actions may nest.
        if parent is not None and parent.state not in (
                TransactionState.ACTIVE, TransactionState.COMMITTING):
            raise TransactionStateError(
                f"cannot nest under {parent}: not active")
        tx = Transaction(parent=parent, deadline=deadline)
        if rule_depth is not None:
            # Set before TX_BEGIN is raised so flow-event suppression for
            # rule-spawned transactions sees the true depth.
            tx.rule_depth = rule_depth
        if self.clock is not None:
            tx.begin_time = self.clock.now()
        if parent is not None:
            parent.active_children += 1
        self._adopt(tx)
        self.meta.raise_event(SystemEventKind.TX_BEGIN, tx=tx)
        return tx

    def _adopt(self, tx: Transaction) -> None:
        """Record ``tx`` in the calling thread's context and the live map."""
        context = self.current_context()
        tx.context = context
        tx.session_id = context.session_id
        context.stack.append(tx)
        with self._live_lock:
            self._live[tx.id] = tx
        self.stats.inc("begun")
        self._m_begun.inc()

    def begin_child_of(self, parent: Transaction,
                       deadline: Optional[float] = None,
                       rule_depth: Optional[int] = None) -> Transaction:
        """Begin a subtransaction of an explicit parent on *this* thread.

        Used for parallel rule execution: sibling subtransactions of the
        triggering transaction run on worker threads, each thread managing
        its own stack while sharing the parent's lock family.
        """
        if parent.state not in (TransactionState.ACTIVE,
                                TransactionState.COMMITTING):
            raise TransactionStateError(
                f"cannot nest under {parent}: not active")
        tx = Transaction(parent=parent, deadline=deadline)
        if rule_depth is not None:
            tx.rule_depth = rule_depth
        if self.clock is not None:
            tx.begin_time = self.clock.now()
        parent.active_children += 1
        self._adopt(tx)
        self.meta.raise_event(SystemEventKind.TX_BEGIN, tx=tx)
        return tx

    def savepoint(self, tx: Transaction) -> tuple[int, int]:
        """Mark ``tx`` so the work that follows can be undone alone.

        For work that runs on the thread owning ``tx`` (sequential rule
        firings), a savepoint replaces a subtransaction: no transaction
        object, stack entry, counter or bus event.  Effects stay ``tx``'s
        own, so they become permanent only with its top level.
        """
        return len(tx.undo_log), len(tx.dirty_objects)

    def rollback_to(self, tx: Transaction, mark: tuple[int, int]) -> None:
        """Undo what ``tx`` did after ``mark`` — exactly what aborting a
        subtransaction begun at the mark would undo.

        Undo records after the mark run in reverse (restoring attributes,
        un-persisting new objects, un-deleting deleted ones) and dirty
        marks added after it are dropped, so the commit flushes nothing
        of the undone work.  Deferred rules enqueued after the mark stay
        queued: they belong to the top level, as they would have after a
        subtransaction abort.
        """
        undo_mark, dirty_mark = mark
        undo = tx.undo_log
        for restore in reversed(undo[undo_mark:]):
            restore()
        del undo[undo_mark:]
        dirty = tx.dirty_objects
        for obj in list(dirty)[dirty_mark:]:
            del dirty[obj]

    def commit(self, tx: Optional[Transaction] = None) -> None:
        """Commit ``tx`` (default: the current transaction).

        Top-level commit: raise EOT (running deferred rules), run
        pre-commit hooks (persistence flush), mark committed, release the
        family's locks, raise Commit, record the outcome for dependency
        tracking, run post-commit hooks.

        Nested commit: merge effects into the parent; the work becomes
        permanent only if every ancestor commits.
        """
        tx = tx or self.require_current()
        # Observability: when a span is already current on this thread
        # (e.g. the scheduler's ``fire:`` span committing a detached
        # rule's transaction), the commit becomes a child span of it; plain
        # user commits open no span at all.
        tracer = self.tracer
        if not tracer.enabled or tracer.current() is None:
            # No open span on this thread means child_span would bail
            # anyway; checking here skips the attribute packing.
            self._commit(tx)
            return
        with tracer.child_span("tx:commit", "tx", tx_id=tx.id,
                               top_level=tx.is_top_level):
            self._commit(tx)

    def _commit(self, tx: Transaction) -> None:
        self._check_completable(tx)
        try:
            tx.state = TransactionState.COMMITTING
            # EOT: deferred rules run now, at savepoints of tx.  They may
            # raise TransactionAborted to veto the commit.
            self.meta.raise_event(SystemEventKind.TX_PRE_COMMIT, tx=tx)
            if tx.is_top_level:
                for hook in self.pre_commit_hooks:
                    hook(tx)
        except BaseException:
            tx.state = TransactionState.ACTIVE
            self.abort(tx)
            raise
        if tx.is_top_level:
            tx.state = TransactionState.COMMITTED
            self.locks.release_all(tx.family_id)
            self._record_outcome(tx)
            self._pop(tx)
            self.stats.inc("committed")
            self._m_committed.inc()
            self.meta.raise_event(SystemEventKind.TX_COMMIT, tx=tx)
            for hook in self.post_commit_hooks:
                hook(tx)
        else:
            parent = tx.parent
            parent.undo_log.extend(tx.undo_log)
            parent.deferred_rules.extend(tx.deferred_rules)
            parent.dirty_objects.update(tx.dirty_objects)
            parent.deleted_objects.update(tx.deleted_objects)
            parent.active_children -= 1
            tx.state = TransactionState.COMMITTED
            self._pop(tx)
            self.stats.inc("committed")
            self._m_committed.inc()
            self.meta.raise_event(SystemEventKind.TX_COMMIT, tx=tx)

    def abort(self, tx: Optional[Transaction] = None) -> None:
        """Abort ``tx``: run its undo log in reverse and signal Abort."""
        tx = tx or self.require_current()
        tracer = self.tracer
        if not tracer.enabled or tracer.current() is None:
            self._abort(tx)
            return
        with tracer.child_span("tx:abort", "tx", tx_id=tx.id,
                               top_level=tx.is_top_level):
            self._abort(tx)

    def _abort(self, tx: Transaction) -> None:
        if tx.state in (TransactionState.COMMITTED, TransactionState.ABORTED):
            raise TransactionStateError(f"{tx} already finished")
        if tx.active_children:
            raise NestedTransactionError(
                f"{tx} still has {tx.active_children} active children")
        for restore in reversed(tx.undo_log):
            restore()
        tx.undo_log.clear()
        tx.deferred_rules.clear()
        tx.state = TransactionState.ABORTED
        if tx.is_top_level:
            for hook in self.abort_hooks:
                hook(tx)
            self.locks.release_all(tx.family_id)
            self._record_outcome(tx)
        else:
            tx.parent.active_children -= 1
        self._pop(tx)
        self.stats.inc("aborted")
        self._m_aborted.inc()
        self.meta.raise_event(SystemEventKind.TX_ABORT, tx=tx)

    def _check_completable(self, tx: Transaction) -> None:
        if tx.state is not TransactionState.ACTIVE:
            raise TransactionStateError(
                f"{tx} cannot commit: state is {tx.state.value}")
        if tx.active_children:
            raise NestedTransactionError(
                f"{tx} cannot commit with {tx.active_children} active "
                "children")

    def _pop(self, tx: Transaction) -> None:
        context = tx.context if tx.context is not None \
            else self.current_context()
        stack = context.stack
        if tx in stack:
            # Usually the top; tolerate out-of-order completion from hooks.
            stack.remove(tx)
        with self._live_lock:
            self._live.pop(tx.id, None)

    def pending_deferred_count(self) -> int:
        """Deferred rules queued on live transactions (a gauge source)."""
        with self._live_lock:
            return sum(len(tx.deferred_rules)
                       for tx in self._live.values())

    def find_transaction(self, tx_id: int) -> Optional[Transaction]:
        """Return a still-running transaction by id, if any.

        Used to target deferred rules at the originating transaction when
        composition completes on another thread, and by milestones."""
        with self._live_lock:
            return self._live.get(tx_id)

    # -- convenience --------------------------------------------------------------

    @contextmanager
    def transaction(self, nested: Optional[bool] = None,
                    deadline: Optional[float] = None) -> Iterator[Transaction]:
        """``with tm.transaction() as tx:`` — commit on success, abort on
        exception (re-raising it)."""
        tx = self.begin(nested=nested, deadline=deadline)
        try:
            yield tx
        except BaseException:
            if tx.state is TransactionState.ACTIVE:
                self.abort(tx)
            raise
        else:
            if tx.state is TransactionState.ACTIVE:
                self.commit(tx)

    def lock(self, resource: Any, mode: LockMode = LockMode.EXCLUSIVE,
             tx: Optional[Transaction] = None) -> None:
        tx = tx or self.require_current()
        self.locks.acquire(tx.family_id, resource, mode)

    # -- outcome tracking (for causal dependencies) ---------------------------------

    def _record_outcome(self, tx: Transaction) -> None:
        with self._outcome_condition:
            self._outcomes[tx.id] = tx.state
            self._outcome_condition.notify_all()

    def outcome_of(self, tx_id: int) -> Optional[TransactionState]:
        """COMMITTED/ABORTED once known, None while still running.

        Only top-level transactions have recorded outcomes; a nested
        transaction's fate is its top level's.
        """
        with self._outcome_lock:
            return self._outcomes.get(tx_id)

    def wait_for_outcome(self, tx_id: int,
                         timeout: float = 30.0) -> Optional[TransactionState]:
        """Block until the outcome of ``tx_id`` is known (threaded mode)."""
        with self._outcome_condition:
            self._outcome_waiters += 1
            try:
                deadline_reached = self._outcome_condition.wait_for(
                    lambda: tx_id in self._outcomes, timeout=timeout)
            finally:
                self._outcome_waiters -= 1
            if not deadline_reached:
                return None
            return self._outcomes[tx_id]

    def outcome_waiters(self) -> int:
        """How many threads are parked in :meth:`wait_for_outcome`.

        Causally-dependent detached workers block here until their
        trigger decides; exposing the count lets tests (and operators)
        observe "a worker reached the await point" without sleeping.
        """
        with self._outcome_condition:
            return self._outcome_waiters

    def seed_recovered_outcomes(self, tx_ids: Any) -> int:
        """Mark pre-crash transaction ids as decided (COMMITTED).

        Durable composer checkpoints are cut at top-level EOTs, so
        multi-transaction half-matches restored from them reference
        transactions of the crashed incarnation.  Those ids can never reach an outcome in
        this incarnation — without seeding, causally-dependent detached
        work triggered by a recovered half-match waits on them forever.
        Ids already decided (or currently live) are left untouched; the
        id counter is advanced past the seeded ids so a fresh process
        cannot recycle a pre-crash id for a new transaction.  Returns the
        number of ids newly seeded.
        """
        seeded = 0
        highest = 0
        with self._outcome_condition:
            for tx_id in tx_ids:
                highest = max(highest, tx_id)
                if tx_id in self._outcomes:
                    continue
                with self._live_lock:
                    if tx_id in self._live:
                        continue
                self._outcomes[tx_id] = TransactionState.COMMITTED
                seeded += 1
            if seeded:
                self._outcome_condition.notify_all()
        if highest:
            # Class-level counter: max() keeps concurrent engines safe.
            Transaction._ids = itertools.count(
                max(next(Transaction._ids), highest + 1))
        return seeded
