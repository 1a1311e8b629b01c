"""Lock manager: striped strict two-phase locking with deadlock detection.

Locks are held by *transaction families* (a top-level transaction plus all
of its nested descendants), implementing the standard closed-nested rule
that a subtransaction may use any lock held by an ancestor.  Conflicts are
the usual shared/exclusive matrix; upgrades from S to X are supported.

The table is **striped**: resources hash onto ``stripes`` independent
sub-tables, each with its own mutex, condition variable and wait queues,
so concurrent sessions touching disjoint resources never serialize on one
global mutex (the bottleneck ``BENCH_sessions.json`` measured).  Family
operations (``release_all``, ``transfer``, snapshots) visit stripes one
at a time and never hold two stripe mutexes at once, so there is no
stop-the-world phase and no lock-ordering hazard.

Deadlocks are detected with a waits-for graph assembled per-stripe while
the requester holds *no* stripe mutex; a blocked waiter's edges are
stable while it waits, so a real cycle is always found on a later check
even if a single pass raced a concurrent grant.  The requesting family
is the victim and receives :class:`DeadlockError`.  A configurable
timeout bounds worst-case waiting in threaded executions.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.errors import DeadlockError, LockTimeoutError
from repro.faults.registry import LOCK_ACQUIRE, NULL_FAULTS, FaultRegistry
from repro.obs.flight import NULL_FLIGHT, FlightRecorder
from repro.obs.metrics import NULL_METRICS, Histogram, MetricsRegistry

#: Stripe count of every engine's lock table.
DEFAULT_LOCK_STRIPES = 16


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.SHARED and requested is LockMode.SHARED


@dataclass
class _LockState:
    """Per-resource state: current holders and FIFO wait queue."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: list[tuple[int, LockMode]] = field(default_factory=list)


class _Stripe:
    """One independently synchronized slice of the lock table."""

    __slots__ = ("mutex", "condition", "table", "wait_hist")

    def __init__(self, index: int):
        self.mutex = threading.Lock()
        self.condition = threading.Condition(self.mutex)
        self.table: dict[Hashable, _LockState] = {}
        #: always-on wait-latency reservoir (lock-free writes, seqlock
        #: snapshot) feeding the per-stripe p50/p99 of
        #: ``statistics()["concurrency"]["locks"]``.
        self.wait_hist = Histogram(f"locks.stripe{index}.wait",
                                   reservoir_size=1024)


class LockManager:
    """S/X lock table keyed by arbitrary hashable resource ids."""

    def __init__(self, timeout: float = 10.0,
                 stripes: int = DEFAULT_LOCK_STRIPES,
                 metrics: MetricsRegistry = NULL_METRICS,
                 faults: FaultRegistry = NULL_FAULTS,
                 flight: FlightRecorder = NULL_FLIGHT,
                 flight_wait_threshold: float = 0.010,
                 tracer: Any = None):
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self._stripes = tuple(_Stripe(i) for i in range(stripes))
        # Family-indexed view of the table: family id -> held resources,
        # hashed over buckets with their own mutexes.  ``release_all``
        # (every commit) walks only the resources the family actually
        # holds instead of sweeping every stripe — sweeping all stripe
        # mutexes per commit re-creates the very convoy striping removed.
        # Lock order: a family mutex is only ever taken while holding a
        # stripe mutex (grant tracking) or alone; never the reverse.
        self._family_mutexes = tuple(threading.Lock()
                                     for _ in range(stripes))
        self._family_buckets: tuple[dict[int, set[Hashable]], ...] = \
            tuple({} for _ in range(stripes))
        self.timeout = timeout
        self.deadlocks_detected = 0
        self.timeouts = 0
        self.waits = 0
        metrics.counter_fn("locks.waits", lambda: self.waits)
        metrics.counter_fn("locks.deadlocks",
                           lambda: self.deadlocks_detected)
        metrics.counter_fn("locks.timeouts", lambda: self.timeouts)
        self._fp_acquire = faults.point(LOCK_ACQUIRE)
        #: flight ring for waits worth remembering: grants slower than
        #: ``flight_wait_threshold`` seconds, plus every deadlock/timeout.
        self._flight = flight
        self._flight_wait_threshold = flight_wait_threshold
        #: optional tracer handle, only consulted when a slow wait is
        #: flight-recorded: the waiting thread's open span (if any) joins
        #: the record to its trace.
        self._tracer = tracer

    @property
    def stripe_count(self) -> int:
        return len(self._stripes)

    def stripe_index(self, resource: Hashable) -> int:
        """The stripe a resource hashes onto (tests use this to build
        cross-stripe scenarios deterministically)."""
        return hash(resource) % len(self._stripes)

    def _stripe_of(self, resource: Hashable) -> _Stripe:
        return self._stripes[hash(resource) % len(self._stripes)]

    def _family_slot(self, family: int) \
            -> tuple[threading.Lock, dict[int, set[Hashable]]]:
        index = hash(family) % len(self._family_mutexes)
        return self._family_mutexes[index], self._family_buckets[index]

    def _track(self, family: int, resource: Hashable) -> None:
        mutex, bucket = self._family_slot(family)
        with mutex:
            bucket.setdefault(family, set()).add(resource)

    # ------------------------------------------------------------------

    def acquire(self, family: int, resource: Hashable,
                mode: LockMode = LockMode.EXCLUSIVE) -> None:
        """Acquire ``resource`` in ``mode`` on behalf of ``family``.

        Re-acquiring a held lock is a no-op; requesting X while holding S
        upgrades.  Raises :class:`DeadlockError` if the wait would create a
        cycle, :class:`LockTimeoutError` on timeout.
        """
        # Consulted outside the stripe mutex so an injected delay stalls
        # only this caller, not every lock operation in the engine.
        self._fp_acquire.hit(family=family, resource=resource,
                             mode=mode.value)
        stripe = self._stripe_of(resource)
        entry = (family, mode)
        with stripe.condition:
            state = stripe.table.setdefault(resource, _LockState())
            if self._grantable(state, family, mode):
                self._grant(state, family, mode)
                self._track(family, resource)
                return
            state.waiters.append(entry)
            self.waits += 1
        wait_start = time.monotonic()
        deadline = wait_start + self.timeout
        try:
            while True:
                # The cycle check runs with NO stripe mutex held: it
                # visits stripes one at a time, so two concurrent checks
                # can never hold two stripe mutexes and deadlock the
                # manager itself.  Our own wait entry is already
                # registered, so the graph contains this request.
                if self._would_deadlock(family):
                    self.deadlocks_detected += 1
                    self._finish_wait(stripe, family, resource, mode,
                                      wait_start, "deadlock")
                    raise DeadlockError(
                        f"family {family} waiting on {resource!r} "
                        "would deadlock"
                    )
                with stripe.condition:
                    # Re-resolve from the live table: ``clear()`` may have
                    # dropped our state object; re-registering keeps the
                    # wait entry visible to grants and deadlock checks.
                    state = stripe.table.setdefault(resource, _LockState())
                    if entry not in state.waiters:
                        state.waiters.append(entry)
                    if self._grantable(state, family, mode) and \
                            self._is_next_compatible_waiter(state, entry):
                        self._grant(state, family, mode)
                        self._track(family, resource)
                        waited = time.monotonic() - wait_start
                        stripe.wait_hist.observe(waited)
                        if waited >= self._flight_wait_threshold:
                            self._flight_wait(family, resource, mode,
                                              wait_start, "granted")
                        return
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.timeouts += 1
                        self._finish_wait(stripe, family, resource, mode,
                                          wait_start, "timeout")
                        raise LockTimeoutError(
                            f"family {family} timed out waiting for "
                            f"{resource!r} ({mode.value})"
                        )
                    stripe.condition.wait(timeout=min(remaining, 0.1))
        finally:
            with stripe.condition:
                if entry in state.waiters:
                    state.waiters.remove(entry)
                stripe.condition.notify_all()

    def _finish_wait(self, stripe: _Stripe, family: int, resource: Hashable,
                     mode: LockMode, started: float, outcome: str) -> None:
        stripe.wait_hist.observe(time.monotonic() - started)
        self._flight_wait(family, resource, mode, started, outcome)

    def _flight_wait(self, family: int, resource: Hashable, mode: LockMode,
                     started: float, outcome: str) -> None:
        if self._flight.enabled:
            record = {
                "family": family, "resource": repr(resource)[:80],
                "mode": mode.value, "outcome": outcome,
                "wait_ms": round((time.monotonic() - started) * 1e3, 3),
            }
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                span = tracer.current()
                if span is not None:
                    record["trace_id"] = span.trace_id
            self._flight.record("lock.wait", **record)

    def _is_next_compatible_waiter(self, state: _LockState,
                                   entry: tuple[int, LockMode]) -> bool:
        """FIFO fairness: only the earliest waiter is granted."""
        return not state.waiters or state.waiters[0] is entry

    def _grantable(self, state: _LockState, family: int,
                   mode: LockMode) -> bool:
        held = state.holders.get(family)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True
            # Upgrade S -> X: grantable when we are the only holder.
            return len(state.holders) == 1
        return all(_compatible(h, mode) for h in state.holders.values())

    def _grant(self, state: _LockState, family: int, mode: LockMode) -> None:
        held = state.holders.get(family)
        if held is LockMode.EXCLUSIVE:
            return
        if held is LockMode.SHARED and mode is LockMode.SHARED:
            return
        state.holders[family] = mode

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every lock and wake all waiters (engine shutdown).

        States are cleared *in place* (holders and waiter queues emptied
        under each stripe's mutex) rather than replacing the tables, so
        a concurrent ``acquire`` blocked on a state object keeps seeing
        the object it registered with and wakes cleanly instead of
        racing a table swap.
        """
        for stripe in self._stripes:
            with stripe.condition:
                for state in stripe.table.values():
                    state.holders.clear()
                    state.waiters.clear()
                stripe.table.clear()
                stripe.condition.notify_all()
        for mutex, bucket in zip(self._family_mutexes,
                                 self._family_buckets):
            with mutex:
                bucket.clear()

    def _group_by_stripe(self, resources: set[Hashable]) \
            -> dict[_Stripe, list[Hashable]]:
        grouped: dict[_Stripe, list[Hashable]] = {}
        for resource in resources:
            grouped.setdefault(self._stripe_of(resource), []).append(resource)
        return grouped

    def release_all(self, family: int) -> None:
        """Release every lock held by ``family`` (end of 2PL phase two).

        O(resources held): the family bucket names exactly the resources
        (and therefore stripes) to visit, so commits by sessions working
        on disjoint data never touch the same stripe mutex.
        """
        mutex, bucket = self._family_slot(family)
        if family not in bucket:
            # Locked nothing (most rule transactions): skip the mutex.  The
            # family is finishing, so nothing can add an entry for it now.
            return
        with mutex:
            resources = bucket.pop(family, None)
        if not resources:
            return
        for stripe, held in self._group_by_stripe(resources).items():
            with stripe.condition:
                for resource in held:
                    state = stripe.table.get(resource)
                    if state is None:
                        continue
                    state.holders.pop(family, None)
                    if not state.holders and not state.waiters:
                        del stripe.table[resource]
                stripe.condition.notify_all()

    def transfer(self, from_family: int, to_family: int) -> None:
        """Move every lock from one family to another.

        Needed by the exclusive causally dependent coupling mode: the paper
        notes the need 'to transfer resources from one transaction to the
        other once it is determined that the spawning transaction is to be
        aborted' (Section 4).  The move is atomic per stripe (stripes are
        visited one at a time, never nested).
        """
        mutex, bucket = self._family_slot(from_family)
        with mutex:
            resources = bucket.pop(from_family, None)
        if not resources:
            return
        for stripe, held in self._group_by_stripe(resources).items():
            with stripe.condition:
                for resource in held:
                    state = stripe.table.get(resource)
                    if state is None:
                        continue
                    mode = state.holders.pop(from_family, None)
                    if mode is not None:
                        existing = state.holders.get(to_family)
                        if existing is not LockMode.EXCLUSIVE:
                            if mode is LockMode.EXCLUSIVE or existing is None:
                                state.holders[to_family] = mode
                stripe.condition.notify_all()
        mutex, bucket = self._family_slot(to_family)
        with mutex:
            bucket.setdefault(to_family, set()).update(resources)

    # ------------------------------------------------------------------

    def holders_of(self, resource: Hashable) -> dict[int, LockMode]:
        stripe = self._stripe_of(resource)
        with stripe.mutex:
            state = stripe.table.get(resource)
            return dict(state.holders) if state else {}

    def snapshot(self) -> dict[str, Any]:
        """Live lock-table view for the admin endpoint: every resource
        with holders or waiters, plus the deadlock/timeout totals.
        Assembled stripe by stripe — consistent per stripe, no
        stop-the-world lock across stripes."""
        resources = {}
        occupancy = []
        for stripe in self._stripes:
            with stripe.mutex:
                held = 0
                for res, state in stripe.table.items():
                    if not state.holders and not state.waiters:
                        continue
                    held += 1
                    resources[repr(res)] = {
                        "holders": {str(fam): mode.value
                                    for fam, mode in state.holders.items()},
                        "waiters": [{"family": fam, "mode": mode.value}
                                    for fam, mode in state.waiters],
                    }
                occupancy.append(held)
        return {
            "resources": resources,
            "stripes": len(self._stripes),
            "stripe_occupancy": occupancy,
            "deadlocks_detected": self.deadlocks_detected,
            "timeouts": self.timeouts,
        }

    def wait_stats(self) -> dict[str, Any]:
        """Per-stripe wait-latency aggregate (ms) for
        ``statistics()["concurrency"]["locks"]``: how long blocked
        acquires waited, by stripe, from the always-on per-stripe
        reservoirs."""
        per_stripe = []
        for stripe in self._stripes:
            snap = stripe.wait_hist.snapshot()
            per_stripe.append({
                "waits": snap["count"],
                "p50_ms": round(snap["p50"] * 1e3, 3),
                "p99_ms": round(snap["p99"] * 1e3, 3),
                "max_ms": round(snap["max"] * 1e3, 3),
            })
        return {
            "stripes": len(self._stripes),
            "waits": self.waits,
            "deadlocks_detected": self.deadlocks_detected,
            "timeouts": self.timeouts,
            "per_stripe": per_stripe,
        }

    def locks_held_by(self, family: int) -> list[Hashable]:
        mutex, bucket = self._family_slot(family)
        with mutex:
            return list(bucket.get(family, ()))

    def _would_deadlock(self, requester: int) -> bool:
        """Cycle check over the waits-for graph.

        Called with NO stripe mutex held; each stripe's edges are read
        under that stripe's mutex only.  A waiter's edges are stable
        while it blocks, so any real cycle involving the requester is
        found — possibly one wakeup late, never spuriously: an edge is
        only reported while the conflicting hold is actually in place.
        """
        edges: dict[int, set[int]] = {}
        for stripe in self._stripes:
            with stripe.mutex:
                for state in stripe.table.values():
                    for waiter, mode in state.waiters:
                        blockers = {
                            holder for holder, held in state.holders.items()
                            if holder != waiter and not _compatible(held,
                                                                    mode)
                        }
                        if blockers:
                            edges.setdefault(waiter, set()).update(blockers)
        # DFS from requester looking for a cycle back to requester.
        seen: set[int] = set()
        stack = list(edges.get(requester, ()))
        while stack:
            node = stack.pop()
            if node == requester:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        return False
