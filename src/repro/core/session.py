"""Client sessions: per-client state over a shared :class:`ReachEngine`.

A session is what the paper's client/server outlook (Section 5) calls a
client connection: it owns the state that must *not* be shared between
clients — the current-transaction stack (an explicit
:class:`~repro.oodb.transactions.TransactionContext`), a pin cache of
fetched objects, and its slice of the firing log — while everything heavy
(storage, locks, dictionary, event detection, rule scheduling) lives on
the engine and is shared by all sessions.

A session is not welded to a thread.  Binding is explicit and scoped::

    engine = ReachEngine()
    session = engine.create_session("client-42")
    with session.transaction():
        session.persist(river, "Rhein")
        river.update_water_level(30)    # rules fire in *this* session's
                                        # transaction scope

Any thread may serve the session, but only one at a time — a session is
one client, and a client has one request in flight.  Concurrency comes
from many sessions, not from sharing one.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import ExitStack, contextmanager, suppress
from typing import Any, Iterator, Optional, Union

from repro.errors import NestedTransactionError, TransactionStateError
from repro.oodb.oid import OID
from repro.oodb.sentry import Binding
from repro.oodb.transactions import (
    Transaction,
    TransactionContext,
    TransactionScope,
    TransactionState,
)

_session_ids = itertools.count(1)


class Session:
    """One client's scope over a shared engine.

    Args:
        engine: the owning :class:`~repro.core.engine.ReachEngine`.
        name: label used in diagnostics; defaults to ``session-<id>``.
    """

    def __init__(self, engine: Any, name: Optional[str] = None):
        self.engine = engine
        self.id = next(_session_ids)
        self.name = name or f"session-{self.id}"
        self.context = TransactionContext(name=self.name,
                                          session_id=self.id)
        #: fetch target -> object, held only while a transaction is open.
        self._pins: dict[Any, Any] = {}
        #: serializes serving threads: a session is one client, so two
        #: threads using it concurrently queue up instead of interleaving
        #: (reentrant: binding it again under another session's binding
        #: on the same thread takes it again).
        self._serving = threading.RLock()
        self._binding = Binding(((engine.tx_manager, self.context),),
                                engine.sentry_registry, self._serving)
        self.stats = {"transactions": 0, "commits": 0, "aborts": 0,
                      "fetches": 0, "pin_hits": 0}
        self._closed = False

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def use(self) -> Binding:
        """This session's binding to the calling thread, for a ``with``
        body: the engine's sentry scope plus this session's transaction
        context.  Re-entrant: inside the session's own binding on this
        thread it does nothing."""
        if self._closed:
            raise RuntimeError(f"{self.name} is closed")
        return self._binding

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self, nested: Optional[bool] = None,
                    deadline: Optional[float] = None) -> "_SessionTransaction":
        """``with session.transaction() as tx:`` — commit on success,
        abort on exception, all in this session's scope."""
        return _SessionTransaction(self, nested, deadline)

    def begin(self, nested: Optional[bool] = None,
              deadline: Optional[float] = None) -> Transaction:
        with self.use():
            self.stats["transactions"] += 1
            return self.engine.tx_manager.begin(nested=nested,
                                                deadline=deadline)

    def commit(self, tx: Optional[Transaction] = None) -> None:
        with self.use():
            self.engine.tx_manager.commit(tx)
            self.stats["commits"] += 1
            self._unpin()

    def abort(self, tx: Optional[Transaction] = None) -> None:
        with self.use():
            self.engine.tx_manager.abort(tx)
            self.stats["aborts"] += 1
            self._unpin()

    def current_transaction(self) -> Optional[Transaction]:
        return self.context.current()

    def _unpin(self) -> None:
        """Drop the pin cache once no transaction is open."""
        if not self.context.stack:
            self._pins.clear()

    # ------------------------------------------------------------------
    # Objects and queries
    # ------------------------------------------------------------------

    def persist(self, obj: Any, name: Optional[str] = None) -> OID:
        with self.use():
            return self.engine.persist(obj, name)

    def fetch(self, target: Union[str, OID]) -> Any:
        """Fetch through the engine, consulting this session's pin cache.

        Objects are pinned only while a transaction is open on this
        session (2PL makes them stable until EOT); the cache is dropped
        at transaction end, so nothing stale survives a commit or abort.
        """
        self.stats["fetches"] += 1
        with self.use():
            if self.current_transaction() is not None:
                if target in self._pins:
                    self.stats["pin_hits"] += 1
                    return self._pins[target]
                obj = self.engine.fetch(target)
                self._pins[target] = obj
                return obj
            return self.engine.fetch(target)

    def delete(self, target: Union[str, OID, Any]) -> None:
        with self.use():
            self.engine.delete(target)
            self._pins.clear()

    def query(self, text: str, **params: Any) -> list[Any]:
        with self.use():
            return self.engine.query(text, **params)

    def signal(self, name: str, **parameters: Any) -> None:
        with self.use():
            self.engine.signal(name, **parameters)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def firing_log(self) -> list[Any]:
        """The engine firing-log records attributed to this session."""
        return self.engine.scheduler.firing_log_for(self.id)

    def pinned_count(self) -> int:
        return len(self._pins)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session: abort any transaction still open in its
        context, drop the pins, and detach from the engine.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        while self.context.stack:
            tx = self.context.stack[-1]
            try:
                with self.engine.tx_manager.activate(self.context):
                    self.engine.tx_manager.abort(tx)
            except Exception:
                # Already finishing elsewhere; drop it from the stack.
                if tx in self.context.stack:
                    self.context.stack.remove(tx)
        self._pins.clear()
        self.engine._forget_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Session {self.id} {self.name!r} {state}>"


class _SessionTransaction(TransactionScope):
    """:meth:`Session.transaction`: a transaction scope that also keeps
    the session's counts and drops its pins when the last transaction on
    its stack ends."""

    __slots__ = ("session",)

    def __init__(self, session: Session, nested: Optional[bool],
                 deadline: Optional[float]):
        super().__init__(session.engine.tx_manager, session.use(),
                         nested=nested, deadline=deadline)
        self.session = session

    def __enter__(self) -> Transaction:
        session = self.session
        session.stats["transactions"] += 1
        try:
            return super().__enter__()
        except BaseException:
            session.stats["aborts"] += 1
            session._unpin()
            raise

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        session = self.session
        try:
            super().__exit__(exc_type, *exc_info)
        except BaseException:
            session.stats["aborts"] += 1
            raise
        else:
            session.stats["commits" if exc_type is None else "aborts"] += 1
        finally:
            session._unpin()


class ShardedTransaction:
    """One logical unit of work spanning member transactions on shards.

    Not an atomic distributed transaction: members commit independently
    in shard order (there is no two-phase commit, ROADMAP item 3 — see
    ``docs/architecture.md``).  What the handle does guarantee is that
    every member carries the full group's transaction-id set on the
    occurrences it detects, so same-transaction composite-event scope
    treats work on different shards as one transaction; and that a group
    over two or more shards is one lock family, ``family_id`` (else
    ``None``), holding every lock until its last member is decided.
    """

    def __init__(self, family_id: Optional[int]):
        self.family_id = family_id
        #: shard id -> that shard's member transaction, begun eagerly so
        #: the group's id set is complete before any user work runs.
        self.members: dict[int, Transaction] = {}
        self.ids: frozenset[int] = frozenset()

    def __repr__(self) -> str:
        ids = ", ".join(f"{sid}:{tx.id}" for sid, tx in
                        sorted(self.members.items()))
        return f"<ShardedTransaction [{ids}]>"


class ShardedSession:
    """One client's scope over a :class:`~repro.core.sharding.ShardedEngine`.

    The same client contract as :class:`Session` — one request in flight,
    explicit scoped binding, pin cache dropped at transaction end — but
    the binding covers the whole topology: ``use()`` activates one
    :class:`~repro.oodb.transactions.TransactionContext` per shard (each
    shard has its own transaction manager, so the bindings coexist on one
    thread) plus the single shared sentry registry, and ``transaction()``
    yields a :class:`ShardedTransaction` whose members were begun on
    every participating shard.
    """

    def __init__(self, engine: Any, name: Optional[str] = None,
                 shards: Optional[list[int]] = None):
        self.engine = engine
        self.id = next(_session_ids)
        self.name = name or f"session-{self.id}"
        all_ids = range(engine.shard_count)
        self.shard_ids = sorted(all_ids if shards is None else shards)
        for sid in self.shard_ids:
            if not 0 <= sid < engine.shard_count:
                raise ValueError(f"no shard {sid} in a "
                                 f"{engine.shard_count}-shard topology")
        self.contexts: dict[int, TransactionContext] = {
            sid: TransactionContext(name=f"{self.name}@shard{sid}",
                                    session_id=self.id)
            for sid in self.shard_ids}
        self._pins: dict[Any, Any] = {}
        self._serving = threading.RLock()
        self._binding = Binding(
            tuple((engine.shards[sid].tx_manager, self.contexts[sid])
                  for sid in self.shard_ids),
            engine.sentry_registry, self._serving)
        self.stats = {"transactions": 0, "commits": 0, "aborts": 0,
                      "fetches": 0, "pin_hits": 0}
        #: groups begun and not yet ended, innermost last
        self._groups: list[ShardedTransaction] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def use(self) -> Binding:
        """This session's binding to the calling thread: every
        participating shard's transaction context plus the shared sentry
        scope (re-entrant, like :meth:`Session.use`)."""
        if self._closed:
            raise RuntimeError(f"{self.name} is closed")
        return self._binding

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self, nested: Optional[bool] = None,
                    deadline: Optional[float] = None,
                    shards: Optional[list[int]] = None) \
            -> Iterator[ShardedTransaction]:
        """``with session.transaction() as stx:`` over the shards.

        Member transactions are begun *eagerly* on every participating
        shard (default: all of this session's shards; ``shards=[k]``
        restricts the unit of work to known-local shards and skips the
        rest entirely).  Eager begin is cheap — an untouched member only
        pays in-memory bookkeeping, its storage transaction starts at
        first dirty flush — and it makes the group's id set complete
        before user work runs, which cross-shard composite scope needs.
        Members on two or more shards lock as one family, so every lock
        is held until the last member is decided.

        On success members commit in ascending shard order; a member
        commit failure aborts the not-yet-committed members and
        re-raises, so a failure can leave earlier shards committed
        (documented non-atomicity, ROADMAP item 3).  On exception all
        active members abort in reverse order.
        """
        if nested:
            raise NestedTransactionError(
                "sharded transactions cannot nest; use per-shard "
                "sessions for nested work")
        participating = self.shard_ids if shards is None else sorted(shards)
        for sid in participating:
            if sid not in self.contexts:
                raise ValueError(f"shard {sid} is not part of {self.name}")
        with self.use():
            self.stats["transactions"] += 1
            # A fresh transaction id: nothing else locks under it.
            group = ShardedTransaction(next(Transaction._ids)
                                       if len(participating) > 1 else None)
            self._groups.append(group)
            outcome = "aborts"
            try:
                for sid in participating:
                    group.members[sid] = self.engine.shards[
                        sid].tx_manager.begin(deadline=deadline,
                                              family_id=group.family_id)
                group.ids = frozenset(tx.id for tx in group.members.values())
                for tx in group.members.values():
                    tx.event_tx_ids = group.ids
                yield group
                self._end_group(group, commit=True)
                outcome = "commits"
            finally:
                if outcome == "aborts":     # a failed commit ended it
                    self._end_group(group, commit=False)
                self.stats[outcome] += 1
                if not self._groups:
                    self._pins.clear()

    def _end_group(self, group: ShardedTransaction, commit: bool) -> None:
        """Decide the group's active members — commit them in shard
        order, or abort them in reverse — then end it once
        (:meth:`~repro.core.sharding.ShardedEngine.end_tx_group`).  Until
        then a multi-shard group holds this thread's detached drains on
        its shards: no work they release may wait on the group's locks."""
        try:
            self._groups.remove(group)
        except ValueError:              # close() ended it already
            if commit:
                raise TransactionStateError(
                    f"{group} was aborted when {self.name} closed") from None
            return
        shards = self.engine.shards
        with ExitStack() as drains:
            if group.family_id is not None:
                for sid in group.members:
                    drains.enter_context(shards[sid].scheduler.drain_after())
            try:
                if commit:
                    for sid, tx in group.members.items():
                        shards[sid].tx_manager.commit(tx)
            finally:
                for sid, tx in reversed(group.members.items()):
                    if tx.state is TransactionState.ACTIVE:
                        with suppress(Exception):
                            shards[sid].tx_manager.abort(tx)
                self.engine.end_tx_group(group)

    def current_transaction(self, shard_id: int = 0) -> Optional[Transaction]:
        context = self.contexts.get(shard_id)
        return context.current() if context is not None else None

    # ------------------------------------------------------------------
    # Objects and queries
    # ------------------------------------------------------------------

    def persist(self, obj: Any, name: Optional[str] = None,
                shard: Optional[int] = None) -> OID:
        with self.use():
            return self.engine.persist(obj, name, shard=shard)

    def fetch(self, target: Union[str, OID]) -> Any:
        self.stats["fetches"] += 1
        with self.use():
            if self._groups:
                if target in self._pins:
                    self.stats["pin_hits"] += 1
                    return self._pins[target]
                obj = self.engine.fetch(target)
                self._pins[target] = obj
                return obj
            return self.engine.fetch(target)

    def delete(self, target: Union[str, OID, Any]) -> None:
        with self.use():
            self.engine.delete(target)
            self._pins.clear()

    def query(self, text: str, **params: Any) -> list[Any]:
        with self.use():
            return self.engine.query(text, **params)

    def signal(self, name: str, **parameters: Any) -> None:
        with self.use():
            self.engine.signal(name, **parameters)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def firing_log(self) -> list[Any]:
        """Firing records attributed to this session, over all shards."""
        records = []
        for sid in self.shard_ids:
            records.extend(
                self.engine.shards[sid].scheduler.firing_log_for(self.id))
        return records

    def pinned_count(self) -> int:
        return len(self._pins)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session: abort every open group (so its locks go),
        drop the pins, and detach from the engine.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        with Binding(self._binding.pairs):
            for group in reversed(list(self._groups)):
                self._end_group(group, commit=False)
        self._pins.clear()
        self.engine._forget_session(self)

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<ShardedSession {self.id} {self.name!r} "
                f"shards={self.shard_ids} {state}>")
