"""A simulated *closed* commercial OODBMS.

This class exists to reproduce the paper's Section 4 experience report:
each capability the authors needed and could not get from O2 or
ObjectStore is represented here by an explicit refusal:

* **flat transactions only** — one of the systems "only provides flat
  transactions"; nesting raises.
* **no transaction-manager access** — transaction identifiers, commit and
  abort signals are private; ``transaction_info`` raises, and commit/abort
  cannot be redefined (the methods are looked up on the class, and the
  class rejects subclassing).
* **persistence by reachability without explicit delete** — the O2 model;
  ``delete`` raises, objects disappear only by becoming unreachable from a
  named root, and there is no event to trigger deletion rules from.
* **no method or state hooks** — the store accepts plain objects and never
  reports operations on them.
* **a license manager** — spawning concurrent transactions beyond the
  licensed limit fails, the paper's anecdote about forking detached
  transactions ("caused problems with one OODBMS's license manager").

The simulator is nevertheless a *correct* database as far as it goes:
transactional attribute updates with rollback, named roots, reachability
sweeps.  The layered active DBMS is built against this honest interface.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from repro.errors import (
    ClosedSystemError,
    LicenseError,
    ObjectNotFoundError,
    TransactionStateError,
)


class ClosedTransaction:
    """Opaque transaction handle.  Note what it does *not* expose: no id,
    no state, no commit/abort signals."""

    _ids = itertools.count(1)

    def __init__(self) -> None:
        self.__id = next(ClosedTransaction._ids)   # private, inaccessible
        self.__snapshots: dict[int, tuple[Any, dict[str, Any]]] = {}
        self.__active = True

    # Internal API for the owning ClosedOODB (name-mangled on purpose).

    def _snapshot(self, obj: Any) -> None:
        key = id(obj)
        if key not in self.__snapshots:
            self.__snapshots[key] = (obj, dict(vars(obj)))

    def _rollback(self) -> None:
        for obj, attrs in self.__snapshots.values():
            obj.__dict__.clear()
            obj.__dict__.update(attrs)
        self.__snapshots.clear()

    def _finish(self) -> None:
        self.__snapshots.clear()
        self.__active = False

    @property
    def _active(self) -> bool:
        return self.__active


class _LicenseManager:
    """Caps concurrent transactions, as commercial licenses of the era did."""

    def __init__(self, seats: int):
        self.seats = seats
        self._in_use = 0
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            if self._in_use >= self.seats:
                raise LicenseError(
                    f"license allows {self.seats} concurrent "
                    "transaction(s); forking another is not permitted")
            self._in_use += 1

    def release(self) -> None:
        with self._lock:
            self._in_use = max(0, self._in_use - 1)


class ClosedOODB:
    """The closed commercial OODBMS the layered baseline must live with."""

    def __init__(self, license_seats: int = 1):
        self._roots: dict[str, Any] = {}
        self._license = _LicenseManager(license_seats)
        self._local = threading.local()
        self.stats = {"begun": 0, "committed": 0, "aborted": 0}

    # ------------------------------------------------------------------
    # Transactions: flat only
    # ------------------------------------------------------------------

    def begin(self) -> ClosedTransaction:
        if getattr(self._local, "tx", None) is not None:
            raise ClosedSystemError(
                "this OODBMS only provides flat transactions; nested "
                "begin is not supported")
        self._license.acquire()
        tx = ClosedTransaction()
        self._local.tx = tx
        self.stats["begun"] += 1
        return tx

    def _require_tx(self) -> ClosedTransaction:
        tx = getattr(self._local, "tx", None)
        if tx is None or not tx._active:
            raise TransactionStateError("no transaction in progress")
        return tx

    def commit(self) -> None:
        tx = self._require_tx()
        tx._finish()
        self._local.tx = None
        self._license.release()
        self.stats["committed"] += 1
        # Reachability sweep happens at commit: unreachable objects are
        # gone, silently — no deletion event for anyone to observe.
        self._sweep()

    def abort(self) -> None:
        tx = self._require_tx()
        tx._rollback()
        tx._finish()
        self._local.tx = None
        self._license.release()
        self.stats["aborted"] += 1

    def in_transaction(self) -> bool:
        tx = getattr(self._local, "tx", None)
        return tx is not None and tx._active

    # ------------------------------------------------------------------
    # What the paper needed and could not get
    # ------------------------------------------------------------------

    def transaction_info(self) -> None:
        """Transaction ids, commit/abort signals: not exposed."""
        raise ClosedSystemError(
            "access to transaction-manager information is not provided")

    def on_commit(self, callback) -> None:
        raise ClosedSystemError(
            "commit methods cannot be redefined in this OODBMS")

    def on_abort(self, callback) -> None:
        raise ClosedSystemError(
            "abort methods cannot be redefined in this OODBMS")

    def delete(self, obj: Any) -> None:
        raise ClosedSystemError(
            "this OODBMS implements persistence by reachability; there "
            "is no explicit delete to trigger rules from")

    def install_method_hook(self, cls: type, method: str, hook) -> None:
        raise ClosedSystemError(
            "method invocations cannot be trapped; no source access")

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def bind_root(self, name: str, obj: Any) -> None:
        """Make ``obj`` (and everything reachable from it) persistent."""
        self._require_tx()._snapshot(obj)
        self._roots[name] = obj

    def root(self, name: str) -> Any:
        obj = self._roots.get(name)
        if obj is None:
            raise ObjectNotFoundError(f"no root named {name!r}")
        return obj

    def roots(self) -> dict[str, Any]:
        return dict(self._roots)

    def register_write(self, obj: Any) -> None:
        """Applications must route writes through the database API for
        rollback to work (the closed system traps value changes at a level
        the layer cannot reach; this call is the simulation of that
        internal trap — the *layer* gets no signal from it)."""
        self._require_tx()._snapshot(obj)

    def reachable_objects(self) -> set[int]:
        """Ids of all objects reachable from named roots."""
        seen: set[int] = set()
        stack = list(self._roots.values())
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            for value in vars(obj).values() if hasattr(obj, "__dict__") \
                    else ():
                if hasattr(value, "__dict__"):
                    stack.append(value)
                elif isinstance(value, (list, tuple, set)):
                    stack.extend(v for v in value if hasattr(v, "__dict__"))
        return seen

    def _sweep(self) -> None:
        # Unreachable objects cease to be persistent.  Nothing observable
        # happens — which is precisely the layered architecture's problem
        # with deletion-triggered rules.
        pass
