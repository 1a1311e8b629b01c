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

Begin, EOT, commit and abort (the flow-control events of Section 3.2)
run *compiled lifecycle hooks*: at each point the manager calls a tuple
of callables, rebuilt whenever a component registers hooks
(:meth:`TransactionManager.set_hooks`) or a policy manager is plugged
onto or unplugged from the meta-architecture bus.  The REACH rule
policy manager registers one typed hook per point when it is plugged;
each does only the work the transaction needs — a flow event only while
a rule or composite uses it, the deferred drain only when rules were
deferred, composer sweeps and checkpoints only over composers of the
matching scope.  A bus event (``TX_BEGIN``/``TX_PRE_COMMIT``/
``TX_COMMIT``/``TX_ABORT``) is raised only while some policy manager
subscribes to that kind, so a transaction nobody watches costs no event
object and no bus dispatch.

Locking follows the closed-nested convention: all locks are held by the
transaction *family* (top-level transaction and descendants) and released
when the top level finishes.  An engine has one manager, shared by its
kernels, so a transaction that touches several shards is still one
transaction and one family.

Transaction scope is an explicit, first-class context: every client
session owns a :class:`TransactionContext` (its current-transaction
stack) and binds it to whichever thread is serving it via
:meth:`TransactionManager.activate`.  Threads with no bound context fall
back to a per-thread default context, which preserves the historical
one-client-per-thread behaviour (``engine.transaction()`` relies on it).
"""

from __future__ import annotations

import enum
import itertools
import threading
from functools import partial
from typing import Any, Callable, Iterable, Optional

from repro.errors import (
    NestedTransactionError,
    TransactionStateError,
)
from repro.obs.metrics import NULL_METRICS, AtomicCounters, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oodb.locks import LockManager, LockMode
from repro.oodb.meta import MetaArchitecture, SystemEventKind
from repro.oodb.sentry import Binding


#: Where :meth:`TransactionManager.set_hooks` can attach a hook, in the
#: order a transaction passes them.  Hooks run for top-level transactions
#: only.  Each pair orders two owners' work around one step of the
#: lifecycle, so it does not depend on the order the owners registered:
#:
#: * ``eot`` runs work that can still add to the transaction (deferred
#:   rules, composer checkpoints); ``pre_commit`` then writes it (the
#:   persistence flush).  A hook raising in either aborts the
#:   transaction.
#: * ``commit`` finishes the rule system's part of the transaction (the
#:   Commit flow event, composite sweeps, history merge, released
#:   detached work); ``post_commit`` observes the finished transaction —
#:   a mediator link forwards what the source buffered for it, the Commit
#:   flow event included.
#: * ``abort`` runs while the aborting family still holds its locks (a
#:   causally dependent rule takes them over); ``post_abort`` runs once
#:   the locks are released and the outcome is recorded.
#:
#: ``begin``, ``eot``, ``commit`` and ``post_abort`` run just before the
#: subscribers of the bus event of the same point (``TX_BEGIN``,
#: ``TX_PRE_COMMIT``, ``TX_COMMIT``, ``TX_ABORT``).
HOOK_POINTS = ("begin", "eot", "pre_commit", "commit", "post_commit",
               "abort", "post_abort")

#: point -> the attribute holding its hook list.  ``pre_commit``,
#: ``post_commit`` and ``abort`` are public: the pipeline benchmark's
#: tracer (``benchmarks/pipeline/spans.py``) swaps those lists for ones
#: that wrap what is appended.  Every list is written only through
#: :meth:`TransactionManager.set_hooks`; an append made around it is not
#: compiled in.
_HOOK_LISTS = {point: f"{point}_hooks"
               if point in ("pre_commit", "post_commit", "abort")
               else f"_{point}_hooks" for point in HOOK_POINTS}


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
    * ``deferred_rules`` — rule firings queued for execution at EOT by the
      rule schedulers; merged into the parent on nested commit so that
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
        self.begin_time: float = 0.0
        #: the context (session scope) this transaction was begun in; set
        #: by the transaction manager, used to pop the right stack even
        #: when completion happens on another thread.
        self.context: Optional["TransactionContext"] = None
        self.session_id: Optional[int] = None
        #: the ``tx_ids`` of every occurrence detected in this
        #: transaction, on any kernel: its top level's id, fixed at begin.
        self.event_tx_ids: frozenset[int] = \
            parent.event_tx_ids if parent else frozenset((self.id,))

    @property
    def is_top_level(self) -> bool:
        return self.parent is None

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


Hook = Callable[[Transaction], None]


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


class _ThreadContexts(threading.local):
    """Per thread: its fallback context (legacy one-client-per-thread),
    then every bound one, innermost last."""

    def __init__(self) -> None:
        self.contexts = [TransactionContext(
            name=f"thread-{threading.get_ident()}")]


class TransactionManager:
    """Creates, tracks, commits and aborts transactions.

    The *current* transaction is resolved through an explicit
    :class:`TransactionContext`: sessions bind their context to the
    serving thread with :meth:`activate`; threads with nothing bound use
    a per-thread default context.  Each detached rule begins in a
    context of its own, independent like the paper's Solaris threads,
    and client sessions keep their own scope even when multiplexed over
    arbitrary threads.
    """

    def __init__(self, meta: MetaArchitecture, locks: LockManager,
                 clock: Any = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS):
        self.meta = meta
        self.locks = locks
        self.clock = clock
        self.tracer = tracer
        self._local = _ThreadContexts()
        #: id -> transaction, for every live one, and top-level id ->
        #: outcome.  Single dict operations are atomic under the GIL, so
        #: neither map takes a lock.
        self._live: dict[int, Transaction] = {}
        self._outcomes: dict[int, TransactionState] = {}
        # Lock-free ledger counters: concurrent session commits increment
        # lose-free and db.statistics() reads never touch the commit path.
        self.stats = AtomicCounters(("begun", "committed", "aborted"))
        for fact in ("begun", "committed", "aborted"):
            metrics.counter_fn(f"tx.{fact}",
                               partial(self.stats.__getitem__, fact))
        # The hooks registered at each point of HOOK_POINTS, in order
        # (attribute names in _HOOK_LISTS).  set_hooks appends to and
        # removes from these lists and _compile turns them into the
        # tuples the hot path reads unlocked.
        self._begin_hooks: list[Hook] = []
        self._eot_hooks: list[Hook] = []
        self.pre_commit_hooks: list[Hook] = []
        self._commit_hooks: list[Hook] = []
        self.post_commit_hooks: list[Hook] = []
        self.abort_hooks: list[Hook] = []
        self._post_abort_hooks: list[Hook] = []
        self._owned: dict[Any, dict[str, tuple[Hook, ...]]] = {}
        self._hooks_lock = threading.RLock()
        meta.watch(self._compile)

    # -- compiled lifecycle ----------------------------------------------------

    def set_hooks(self, owner: Any, **points: Iterable[Hook]) -> None:
        """Replace ``owner``'s lifecycle hooks and recompile.

        ``points`` maps names from :data:`HOOK_POINTS` to the callables
        (each taking the transaction) ``owner`` runs there, after the
        hooks registered at that point before.  ``set_hooks(owner)`` with
        no points unregisters ``owner``.
        """
        unknown = set(points) - set(HOOK_POINTS)
        if unknown:
            raise ValueError(f"unknown lifecycle points: {sorted(unknown)}")
        owned = {point: tuple(hooks) for point, hooks in points.items()
                 if hooks}
        with self._hooks_lock:
            for point, hooks in self._owned.pop(owner, {}).items():
                for hook in hooks:
                    getattr(self, _HOOK_LISTS[point]).remove(hook)
            for point, hooks in owned.items():
                for hook in hooks:
                    getattr(self, _HOOK_LISTS[point]).append(hook)
            if owned:
                self._owned[owner] = owned
            self._compile()

    def _compile(self) -> None:
        """Rebuild the per-point tuples from the registered hooks and the
        bus subscriptions: top-level transactions run both, nested ones
        only the bus event, and only where some manager subscribes."""
        with self._hooks_lock:
            raise_event = self.meta.raise_event

            def bus(kind: SystemEventKind) -> tuple[Hook, ...]:
                if not self.meta.subscribers.get(kind):
                    return ()
                return (lambda tx: raise_event(kind, tx=tx),)

            begin = bus(SystemEventKind.TX_BEGIN)
            eot = bus(SystemEventKind.TX_PRE_COMMIT)
            commit = bus(SystemEventKind.TX_COMMIT)
            abort = bus(SystemEventKind.TX_ABORT)
            self._on_begin = ((*self._begin_hooks, *begin), begin)
            self._on_eot = ((*self._eot_hooks, *eot,
                             *self.pre_commit_hooks), eot)
            self._on_commit = ((*self._commit_hooks, *commit,
                                *self.post_commit_hooks), commit)
            self._on_abort = tuple(self.abort_hooks)
            self._on_post_abort = ((*self._post_abort_hooks, *abort), abort)

    # -- current-transaction contexts -----------------------------------------

    def current_context(self) -> TransactionContext:
        """The innermost bound context, or this thread's default one."""
        return self._local.contexts[-1]

    def push_context(self, context: TransactionContext) -> None:
        self._local.contexts.append(context)

    def pop_context(self, context: TransactionContext) -> None:
        contexts = self._local.contexts
        if len(contexts) < 2 or contexts[-1] is not context:
            raise TransactionStateError(
                "transaction context bindings must unwind in LIFO order")
        contexts.pop()

    def activate(self, context: TransactionContext) -> Binding:
        """Bind ``context`` to the calling thread for a ``with`` body."""
        return Binding(self, context)

    def current_session_id(self) -> Optional[int]:
        return self._local.contexts[-1].session_id

    def current(self) -> Optional[Transaction]:
        stack = self._local.contexts[-1].stack
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
        context = self.current_context()
        parent = context.current() if nested is not False else None
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
            # Set before the begin hooks run so flow-event suppression for
            # rule-spawned transactions sees the true depth.
            tx.rule_depth = rule_depth
        if self.clock is not None:
            tx.begin_time = self.clock.now()
        if parent is not None:
            parent.active_children += 1
        self._adopt(tx, context)
        top, sub = self._on_begin
        for hook in (top if parent is None else sub):
            hook(tx)
        return tx

    def _adopt(self, tx: Transaction, context: TransactionContext) -> None:
        """Record ``tx`` in ``context`` and the live map."""
        tx.context = context
        tx.session_id = context.session_id
        context.stack.append(tx)
        self._live[tx.id] = tx
        self.stats.inc("begun")

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
        self._adopt(tx, self.current_context())
        __, sub = self._on_begin
        for hook in sub:
            hook(tx)
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

        Top-level commit: run the EOT hooks (deferred rules) and the
        pre-commit hooks (persistence flush), mark committed, release the
        family's locks, record the outcome for dependency tracking, then
        run the commit and post-commit hooks.

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
        top_level = tx.parent is None
        try:
            tx.state = TransactionState.COMMITTING
            # EOT: deferred rules run now, at savepoints of tx, then the
            # pre-commit hooks (persistence flush).  Either may raise
            # TransactionAborted to veto the commit.
            top, sub = self._on_eot
            for hook in (top if top_level else sub):
                hook(tx)
        except BaseException:
            tx.state = TransactionState.ACTIVE
            self.abort(tx)
            raise
        if top_level:
            tx.state = TransactionState.COMMITTED
            self.locks.release_all(tx.id)
            self._record_outcome(tx)
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
        top, sub = self._on_commit
        for hook in (top if top_level else sub):
            hook(tx)

    def abort(self, tx: Optional[Transaction] = None) -> None:
        """Abort ``tx``: run its undo log in reverse, then the abort hooks."""
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
        top_level = tx.parent is None
        if top_level:
            for hook in self._on_abort:
                hook(tx)
            self.locks.release_all(tx.id)
            self._record_outcome(tx)
        else:
            tx.parent.active_children -= 1
        self._pop(tx)
        self.stats.inc("aborted")
        top, sub = self._on_post_abort
        for hook in (top if top_level else sub):
            hook(tx)

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
        if stack and stack[-1] is tx:
            stack.pop()
        elif tx in stack:
            # Tolerate out-of-order completion from hooks.
            stack.remove(tx)
        self._live.pop(tx.id, None)

    def pending_deferred_count(self) -> int:
        """Deferred rules queued on live transactions (a gauge source)."""
        return sum(len(tx.deferred_rules)
                   for tx in list(self._live.values()))

    def find_transaction(self, tx_id: int) -> Optional[Transaction]:
        """Return a still-running transaction by id, if any.

        Used to target deferred rules at the originating transaction when
        composition completes on another thread, and by milestones."""
        return self._live.get(tx_id)

    # -- convenience --------------------------------------------------------------

    def transaction(self, nested: Optional[bool] = None,
                    deadline: Optional[float] = None) -> "TransactionScope":
        """``with tm.transaction() as tx:`` — commit on success, abort on
        exception (re-raising it)."""
        return TransactionScope(self, nested=nested, deadline=deadline)

    def lock(self, resource: Any, mode: LockMode = LockMode.EXCLUSIVE,
             tx: Optional[Transaction] = None) -> None:
        tx = tx or self.require_current()
        self.locks.acquire(tx.family_id, resource, mode)

    # -- outcome tracking (for causal dependencies) ---------------------------------

    def _record_outcome(self, tx: Transaction) -> None:
        self._outcomes[tx.id] = tx.state

    def outcome_of(self, tx_id: int) -> Optional[TransactionState]:
        """COMMITTED/ABORTED once known, None while still running.

        Only top-level transactions have recorded outcomes; a nested
        transaction's fate is its top level's.
        """
        return self._outcomes.get(tx_id)

    def seed_recovered_outcomes(self, tx_ids: Any) -> int:
        """Mark pre-crash transaction ids as decided (COMMITTED).

        Multi-transaction half-matches restored from durable composer
        checkpoints reference transactions of the crashed incarnation.
        Those ids can never reach an outcome in this incarnation —
        without seeding, causally-dependent detached work triggered by a
        recovered half-match waits on them forever.
        Ids already decided (or currently live) are left untouched; the
        id counter is advanced past the seeded ids so a fresh process
        cannot recycle a pre-crash id for a new transaction.  Returns the
        number of ids newly seeded.
        """
        seeded = 0
        highest = 0
        for tx_id in tx_ids:
            highest = max(highest, tx_id)
            if tx_id in self._outcomes or tx_id in self._live:
                continue
            self._outcomes[tx_id] = TransactionState.COMMITTED
            seeded += 1
        if highest:
            # Class-level counter: max() keeps concurrent engines safe.
            Transaction._ids = itertools.count(
                max(next(Transaction._ids), highest + 1))
        return seeded


class TransactionScope:
    """The ``with`` scope of one transaction: enter ``binding`` (if any)
    and begin; on exit commit on success, abort on an exception (which
    propagates), then leave the binding."""

    __slots__ = ("manager", "binding", "nested", "deadline", "tx")

    def __init__(self, manager: TransactionManager,
                 binding: Optional[Binding] = None,
                 nested: Optional[bool] = None,
                 deadline: Optional[float] = None):
        self.manager = manager
        self.binding = binding
        self.nested = nested
        self.deadline = deadline
        self.tx: Optional[Transaction] = None

    def __enter__(self) -> Transaction:
        binding = self.binding
        if binding is not None:
            binding.__enter__()
        try:
            self.tx = self.manager.begin(nested=self.nested,
                                         deadline=self.deadline)
        except BaseException:
            if binding is not None:
                binding.__exit__(None, None, None)
            raise
        return self.tx

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        tx = self.tx
        try:
            if tx.state is TransactionState.ACTIVE:
                if exc_type is None:
                    self.manager.commit(tx)
                else:
                    self.manager.abort(tx)
        finally:
            if self.binding is not None:
                self.binding.__exit__(None, None, None)
