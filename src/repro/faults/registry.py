"""Named fault points with deterministic, seeded injection schedules.

The robustness claims of an integrated active OODBMS — rule failures
abort their own subtransaction, recovery tolerates torn log tails, the
scheduler survives worker death — can only be trusted if faults can be
*provoked on demand* at the exact boundary where they would occur in
production.  This module provides that mechanism, mirroring the
``repro.obs`` null-object pattern so the production cost is nil:

* **near-zero cost when disabled**: a registry constructed with
  ``enabled=False`` (the default for every engine unless
  ``ExecutionConfig(fault_injection=True)``) hands out the shared
  :data:`NULL_POINT`, whose :meth:`~FaultPoint.hit` is a no-op method
  call — no dictionary lookup, no branching, no allocation;
* **one attribute check when enabled but disarmed**: a real
  :class:`FaultPoint` with nothing armed returns after ``if not
  self._specs``;
* **deterministic when armed**: trigger decisions (``fail the Nth
  call``, ``probability p``, ``one-shot``) draw from a
  ``random.Random(seed)`` owned by the registry, so a fault schedule
  replays identically for the same seed.

Injection points are threaded through the storage manager and WAL
(append, fsync, torn-tail truncation, page flush, checkpoint, crash),
the buffer pool (evict), the lock manager (acquire), the rule scheduler
(worker death) and the composer dispatch path (queue stall); the
constants below name them.  Application code may define its own points
with :meth:`FaultRegistry.hit`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Optional

from repro.errors import InjectedFault
from repro.obs.flight import NULL_FLIGHT, FlightRecorder
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

# -- well-known fault point names -------------------------------------------

WAL_APPEND = "wal.append"
WAL_FSYNC = "wal.fsync"
WAL_TORN_TAIL = "wal.torn_tail"
STORAGE_COMMIT = "storage.commit"
STORAGE_CHECKPOINT = "storage.checkpoint"
STORAGE_PAGE_FLUSH = "storage.page_flush"
STORAGE_CRASH = "storage.crash"
BUFFER_EVICT = "buffer.evict"
LOCK_ACQUIRE = "locks.acquire"
SCHEDULER_WORKER = "scheduler.worker"
COMPOSER_DISPATCH = "composer.dispatch"
SERVER_ACCEPT = "server.accept"
SERVER_READ = "server.read"
SERVER_WRITE = "server.write"
SERVER_AUTH = "server.auth"

#: Every built-in injection point and where it fires.
KNOWN_POINTS = {
    WAL_APPEND: "before a log record is buffered (storage/wal.py)",
    WAL_FSYNC: "before the log fsync (storage/wal.py)",
    WAL_TORN_TAIL: "during flush: writes a torn tail then raises",
    STORAGE_COMMIT: "at the start of a storage-level commit",
    STORAGE_CHECKPOINT: "at the start of a checkpoint",
    STORAGE_PAGE_FLUSH: "before dirty pages are forced to disk",
    STORAGE_CRASH: "when a crash is simulated (observer hook)",
    BUFFER_EVICT: "before a victim page is evicted",
    LOCK_ACQUIRE: "at the top of every lock acquisition",
    SCHEDULER_WORKER: "at the start of a detached worker's run",
    COMPOSER_DISPATCH: "before composition listeners are invoked",
    SERVER_ACCEPT: "after a client connection is accepted (server/server.py)",
    SERVER_READ: "after a request frame arrived, before it is processed",
    SERVER_WRITE: "before a response frame is written to a connection",
    SERVER_AUTH: "during the hello handshake's token check",
}

_UNSET = object()


class FaultSpec:
    """One armed schedule on a fault point.

    Exactly one trigger rule applies, checked in this order:

    * ``nth`` — trigger on the Nth call to the point (1-based), once;
    * ``probability`` — trigger each call with probability p, drawn from
      the registry's seeded RNG;
    * neither — trigger on every call.

    ``times`` bounds the total number of injections (default 1: a
    one-shot fault); ``None`` means unlimited.  When triggered, the spec
    sleeps ``delay`` seconds if set, invokes ``callback(ctx)`` if set,
    then raises ``exc`` if set.  A spec armed with only a ``payload``
    is a *marker*: :meth:`FaultPoint.hit` returns it and the
    instrumented code decides what to corrupt (the WAL's torn-tail
    point works this way).
    """

    __slots__ = ("point_name", "nth", "probability", "times", "delay",
                 "exc", "callback", "payload", "injections")

    def __init__(self, point_name: str,
                 nth: Optional[int] = None,
                 probability: Optional[float] = None,
                 times: Optional[int] = 1,
                 delay: Optional[float] = None,
                 exc: Any = _UNSET,
                 callback: Optional[Callable[[dict], None]] = None,
                 payload: Optional[dict[str, Any]] = None):
        if nth is not None and nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if times is not None and times < 1:
            raise ValueError("times must be >= 1 or None (unlimited)")
        self.point_name = point_name
        self.nth = nth
        self.probability = probability
        self.times = times
        self.delay = delay
        if exc is _UNSET:
            # Default effect: raise InjectedFault — unless the spec is a
            # pure delay/callback/marker arrangement.
            exc = (None if (delay is not None or callback is not None
                            or payload is not None)
                   else InjectedFault)
        self.exc = exc
        self.callback = callback
        self.payload = payload or {}
        self.injections = 0

    def exhausted(self) -> bool:
        return self.times is not None and self.injections >= self.times

    def __repr__(self) -> str:
        trigger = (f"nth={self.nth}" if self.nth is not None
                   else f"p={self.probability}" if self.probability is not None
                   else "always")
        return (f"<FaultSpec {self.point_name} {trigger} "
                f"times={self.times} injected={self.injections}>")


class FaultPoint:
    """A named injection point held by the instrumented code.

    The owner obtains it once at construction (``faults.point(name)``)
    and calls :meth:`hit` on the hot path; armed specs may raise, sleep,
    call back, or return a marker spec for the caller to act on.
    """

    __slots__ = ("name", "calls", "injected", "_registry", "_specs")

    def __init__(self, name: str, registry: "FaultRegistry"):
        self.name = name
        self.calls = 0
        self.injected = 0
        self._registry = registry
        self._specs: list[FaultSpec] = []

    def hit(self, **ctx: Any) -> Optional[FaultSpec]:
        """Consult the point; the disarmed fast path is one list check."""
        if not self._specs:
            return None
        return self._registry._fire(self, ctx)

    def armed(self) -> bool:
        return bool(self._specs)

    def __repr__(self) -> str:
        return (f"<FaultPoint {self.name} calls={self.calls} "
                f"armed={len(self._specs)}>")


class _NullFaultPoint(FaultPoint):
    """Shared no-op point handed out by a disabled registry."""

    __slots__ = ()

    def __init__(self):  # no registry back-reference
        self.name = "null"
        self.calls = 0
        self.injected = 0
        self._specs = ()

    def hit(self, **ctx: Any) -> None:
        return None


NULL_POINT = _NullFaultPoint()


class FaultRegistry:
    """Names and owns every fault point of one engine instance.

    A registry constructed with ``enabled=False`` returns the shared
    :data:`NULL_POINT` from :meth:`point` and refuses to arm anything —
    the production configuration.  Enabled registries are what tests and
    torture harnesses drive::

        faults = db.faults                      # fault_injection=True
        faults.arm("wal.append", nth=3)         # 3rd append raises
        faults.arm("locks.acquire", delay=0.05, times=None)
        faults.arm("app.flaky", times=2)        # user-defined point

    Injection totals are surfaced in ``db.statistics()``; ``repro.obs``
    reads them as ``faults.injected`` and ``faults.injected.<point>``.
    """

    def __init__(self, enabled: bool = True, seed: Optional[int] = None,
                 metrics: MetricsRegistry = NULL_METRICS,
                 flight: FlightRecorder = NULL_FLIGHT):
        self.enabled = enabled
        self.seed = seed
        self.rng = random.Random(seed)
        self.injections = 0
        self._points: dict[str, FaultPoint] = {}
        self._lock = threading.RLock()
        self._metrics = metrics
        metrics.counter_fn("faults.injected", lambda: self.injections)
        self._flight = flight

    # -- point handles -------------------------------------------------------

    def point(self, name: str) -> FaultPoint:
        """The (created-on-demand) point for ``name``; instrumented code
        keeps the returned reference and calls ``hit()`` on it."""
        if not self.enabled:
            return NULL_POINT
        with self._lock:
            point = self._points.get(name)
            if point is None:
                point = self._points[name] = FaultPoint(name, self)
            return point

    def hit(self, name: str, **ctx: Any) -> Optional[FaultSpec]:
        """One-off consultation by name (application-defined points)."""
        if not self.enabled:
            return None
        return self.point(name).hit(**ctx)

    # -- arming --------------------------------------------------------------

    def arm(self, name: str, *, nth: Optional[int] = None,
            probability: Optional[float] = None,
            times: Optional[int] = 1,
            delay: Optional[float] = None,
            exc: Any = _UNSET,
            callback: Optional[Callable[[dict], None]] = None,
            payload: Optional[dict[str, Any]] = None) -> FaultSpec:
        """Arm a schedule on point ``name`` and return it.

        See :class:`FaultSpec` for the trigger and effect semantics.
        Raises :class:`RuntimeError` on a disabled registry so a test
        that forgot ``ExecutionConfig(fault_injection=True)`` fails
        loudly instead of silently injecting nothing.
        """
        if not self.enabled:
            raise RuntimeError(
                "fault injection is disabled; construct the engine with "
                "ExecutionConfig(fault_injection=True)")
        spec = FaultSpec(name, nth=nth, probability=probability,
                         times=times, delay=delay, exc=exc,
                         callback=callback, payload=payload)
        with self._lock:
            point = self._points.get(name)
            if point is None:
                point = self._points[name] = FaultPoint(name, self)
            point._specs.append(spec)
        return spec

    def disarm(self, name: Optional[str] = None) -> None:
        """Remove armed specs from ``name`` (or from every point)."""
        with self._lock:
            if name is None:
                for point in self._points.values():
                    point._specs.clear()
            else:
                point = self._points.get(name)
                if point is not None:
                    point._specs.clear()

    def armed_points(self) -> list[str]:
        with self._lock:
            return sorted(name for name, point in self._points.items()
                          if point._specs)

    # -- firing --------------------------------------------------------------

    def _fire(self, point: FaultPoint, ctx: dict) -> Optional[FaultSpec]:
        with self._lock:
            point.calls += 1
            triggered = None
            for spec in point._specs:
                if self._should_trigger(spec, point.calls):
                    spec.injections += 1
                    point.injected += 1
                    self.injections += 1
                    triggered = spec
                    break
            point._specs = [s for s in point._specs if not s.exhausted()]
            if triggered is None:
                return None
            if point.injected == 1:
                self._metrics.counter_fn(f"faults.injected.{point.name}",
                                         lambda: point.injected)
        if self._flight.enabled:
            self._flight.record("fault", point=point.name,
                                call=point.calls, spec=repr(triggered))
        # Effects run outside the registry lock: a delay must not stall
        # unrelated points, and callbacks may re-enter the registry.
        if triggered.delay:
            time.sleep(triggered.delay)
        if triggered.callback is not None:
            triggered.callback(dict(ctx, point=point.name))
        if triggered.exc is not None:
            exc = triggered.exc
            if isinstance(exc, type) and issubclass(exc, BaseException):
                exc = exc(f"injected fault at {point.name!r} "
                          f"(call #{point.calls})")
            raise exc
        return triggered

    def _should_trigger(self, spec: FaultSpec, call_index: int) -> bool:
        if spec.exhausted():
            return False
        if spec.nth is not None:
            return call_index == spec.nth
        if spec.probability is not None:
            return self.rng.random() < spec.probability
        return True

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A JSON-serializable snapshot for ``db.statistics()``."""
        with self._lock:
            points = {
                name: {"calls": point.calls,
                       "armed": len(point._specs),
                       "injected": point.injected}
                for name, point in sorted(self._points.items())
                if point.calls or point._specs
            }
            return {
                "enabled": self.enabled,
                "seed": self.seed,
                "injections": self.injections,
                "points": points,
            }


#: Registry used by components not wired to an engine (always disabled).
NULL_FAULTS = FaultRegistry(enabled=False)
