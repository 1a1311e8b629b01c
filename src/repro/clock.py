"""Clock abstractions for temporal events.

The paper requires absolute, relative, periodic, and aperiodic temporal
events plus *milestones* for time-constrained processing (Section 3.1).
Testing and benchmarking those deterministically needs a controllable time
source, so all temporal machinery in the library consumes a :class:`Clock`
instead of calling :func:`time.monotonic` directly.

Two implementations are provided:

* :class:`SystemClock` — wall-clock time for real deployments.
* :class:`VirtualClock` — manually advanced time for tests, simulations and
  benchmarks.  Advancing the clock releases any timers that become due.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable


class Clock:
    """Abstract time source.

    Subclasses provide :meth:`now` and timer scheduling.  Timers invoke a
    zero-argument callback when their deadline is reached; cancellation is
    cooperative via the returned :class:`TimerHandle`.
    """

    def now(self) -> float:
        """Return the current time in seconds (monotonic)."""
        raise NotImplementedError

    def schedule(self, deadline: float, callback: Callable[[], None]) -> "TimerHandle":
        """Arrange for ``callback`` to run at ``deadline`` (absolute time)."""
        raise NotImplementedError

    def sleep(self, duration: float) -> None:
        """Block (or simulate blocking) for ``duration`` seconds."""
        raise NotImplementedError


class TimerHandle:
    """Cancellable handle for a scheduled timer."""

    __slots__ = ("deadline", "_callback", "_cancelled", "_seq")
    _counter = itertools.count()

    def __init__(self, deadline: float, callback: Callable[[], None]):
        self.deadline = deadline
        self._callback = callback
        self._cancelled = False
        self._seq = next(TimerHandle._counter)

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _fire(self) -> None:
        if not self._cancelled:
            self._cancelled = True
            self._callback()

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.deadline, self._seq) < (other.deadline, other._seq)


class VirtualClock(Clock):
    """A deterministic clock advanced explicitly by the test or simulation.

    ``advance(dt)`` moves time forward and fires every timer whose deadline
    falls inside the advanced window, in deadline order.  This makes temporal
    event tests exact: a periodic event with period 5 fires exactly twice
    when the clock advances by 10.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._timers: list[TimerHandle] = []
        self._lock = threading.RLock()

    def now(self) -> float:
        # One attribute read is atomic; advance() rebinds it under the lock.
        return self._now

    def schedule(self, deadline: float, callback: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(deadline, callback)
        with self._lock:
            if deadline <= self._now:
                # Already due: fire immediately, matching SystemClock's
                # behaviour for past deadlines.
                pending_now = [handle]
            else:
                heapq.heappush(self._timers, handle)
                pending_now = []
        for h in pending_now:
            h._fire()
        return handle

    def sleep(self, duration: float) -> None:
        self.advance(duration)

    def advance(self, dt: float) -> None:
        """Advance the clock by ``dt`` seconds, firing due timers in order."""
        if dt < 0:
            raise ValueError("cannot advance a clock backwards")
        with self._lock:
            target = self._now + dt
        while True:
            with self._lock:
                if self._timers and self._timers[0].deadline <= target:
                    handle = heapq.heappop(self._timers)
                    # Time jumps to the timer's deadline so callbacks observe
                    # consistent 'now' values.
                    self._now = max(self._now, handle.deadline)
                else:
                    self._now = target
                    handle = None
            if handle is None:
                return
            handle._fire()


class SystemClock(Clock):
    """Wall-clock time backed by :mod:`time` and :class:`threading.Timer`."""

    def __init__(self):
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin

    def schedule(self, deadline: float, callback: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(deadline, callback)
        delay = max(0.0, deadline - self.now())
        timer = threading.Timer(delay, handle._fire)
        timer.daemon = True
        timer.start()
        return handle

    def sleep(self, duration: float) -> None:
        time.sleep(max(0.0, duration))
