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
from typing import Any, Optional, Union

from repro.oodb.oid import OID
from repro.oodb.sentry import Binding
from repro.oodb.transactions import (
    Transaction,
    TransactionContext,
    TransactionScope,
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
        self._binding = Binding(engine.tx_manager, self.context,
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
        """The firing-log records attributed to this session, over every
        kernel of the engine."""
        return [record for kernel in self.engine.kernels
                for record in kernel.scheduler.firing_log_for(self.id)]

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


class ShardedSession(Session):
    """A :class:`Session` over a :class:`~repro.core.sharding.ShardedEngine`.

    The engine has one transaction manager, shared by its shards, so the
    session's one context and ``transaction()`` cover the topology: a
    transaction that touches several shards is one
    :class:`~repro.oodb.transactions.Transaction`, nests like one, and
    commits or aborts as one.  The session adds only placement:
    ``shards=[...]`` names the shards ``persist`` places new objects on
    (round-robin) when no ``shard=`` is given.
    """

    def __init__(self, engine: Any, name: Optional[str] = None,
                 shards: Optional[list[int]] = None):
        for sid in shards or ():
            if not 0 <= sid < engine.shard_count:
                raise ValueError(f"no shard {sid} in a "
                                 f"{engine.shard_count}-shard topology")
        super().__init__(engine, name)
        self.shards = sorted(shards) if shards else None
        self._placement = itertools.count()

    def persist(self, obj: Any, name: Optional[str] = None,
                shard: Optional[int] = None) -> OID:
        if shard is None and self.shards is not None and \
                self.engine.owning_shard(obj) is None:
            shard = self.shards[next(self._placement) % len(self.shards)]
        with self.use():
            return self.engine.persist(obj, name, shard=shard)

    # Bound here only because benchmarks/pipeline/spans.py wraps them on
    # this class by name; ROADMAP item 19 (the benchmark stops patching
    # src/ by name) deletes them.
    fetch = Session.fetch
    signal = Session.signal
    transaction = Session.transaction
