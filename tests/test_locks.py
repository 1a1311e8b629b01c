"""Lock manager: compatibility, upgrades, deadlock detection, transfer."""

import threading

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.oodb.locks import LockManager, LockMode

from tests.conftest import wait_for_waiter


@pytest.fixture
def locks():
    return LockManager(timeout=2.0)


class TestCompatibility:
    def test_shared_locks_coexist(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        assert set(locks.holders_of("r")) == {1, 2}

    def test_exclusive_blocks_others(self, locks):
        locks.timeout = 0.2
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, "r", LockMode.SHARED)

    def test_reacquire_is_noop(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        locks.acquire(1, "r", LockMode.SHARED)  # weaker request: still X
        assert locks.holders_of("r") == {1: LockMode.EXCLUSIVE}

    def test_upgrade_when_sole_holder(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.holders_of("r") == {1: LockMode.EXCLUSIVE}

    def test_upgrade_blocked_by_other_sharer(self, locks):
        locks.timeout = 0.2
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockTimeoutError):
            locks.acquire(1, "r", LockMode.EXCLUSIVE)


class TestRelease:
    def test_release_all_frees_everything(self, locks):
        locks.acquire(1, "a")
        locks.acquire(1, "b")
        locks.release_all(1)
        assert locks.locks_held_by(1) == []
        locks.acquire(2, "a")  # no longer blocked

    def test_release_unblocks_waiter(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def waiter():
            locks.acquire(2, "r", LockMode.EXCLUSIVE)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        wait_for_waiter(locks, 2, "r")
        assert not acquired.is_set()
        locks.release_all(1)
        thread.join(timeout=2.0)
        assert acquired.is_set()


class TestDeadlock:
    def test_two_family_cycle_detected(self, locks):
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(2, "b", LockMode.EXCLUSIVE)

        def family_one():
            try:
                locks.acquire(1, "b", LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError):
                pass
            finally:
                locks.release_all(1)

        thread = threading.Thread(target=family_one)
        thread.start()
        wait_for_waiter(locks, 1, "b")
        # Family 2 requesting "a" completes the cycle; it is the victim.
        with pytest.raises(DeadlockError):
            locks.acquire(2, "a", LockMode.EXCLUSIVE)
        locks.release_all(2)
        thread.join(timeout=3.0)
        assert locks.deadlocks_detected >= 1

    def test_no_false_positive_without_cycle(self, locks):
        locks.acquire(1, "a")
        locks.acquire(2, "b")
        # Straight-line wait, no cycle: must time out, not deadlock.
        locks.timeout = 0.15
        with pytest.raises(LockTimeoutError):
            locks.acquire(3, "a")


class TestFailureMetrics:
    def test_timeouts_and_deadlocks_are_counted_separately(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry(enabled=True)
        locks = LockManager(timeout=0.1, metrics=metrics)

        # A plain timeout: no cycle, the holder just never releases.
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, "r", LockMode.SHARED)
        assert locks.timeouts == 1
        assert locks.deadlocks_detected == 0

        # A genuine deadlock: two families each wanting the other's lock.
        locks.release_all(1)
        locks.release_all(2)
        locks.timeout = 2.0
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(2, "b", LockMode.EXCLUSIVE)

        def family_one():
            try:
                locks.acquire(1, "b", LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError):
                pass
            finally:
                locks.release_all(1)

        thread = threading.Thread(target=family_one)
        thread.start()
        wait_for_waiter(locks, 1, "b")
        with pytest.raises(DeadlockError):
            locks.acquire(2, "a", LockMode.EXCLUSIVE)
        locks.release_all(2)
        thread.join(timeout=3.0)

        # The two failure modes are distinguishable in the counters.
        counters = metrics.snapshot()["counters"]
        assert counters["locks.timeouts"] == locks.timeouts == 1
        assert counters["locks.deadlocks"] >= 1
        assert locks.deadlocks_detected >= 1


class TestTransfer:
    def test_transfer_moves_locks(self, locks):
        """Section 4: exclusive causally dependent mode needs resource
        transfer from the aborting trigger to the contingency rule."""
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(1, "b", LockMode.SHARED)
        locks.transfer(1, 2)
        assert locks.locks_held_by(1) == []
        assert set(locks.locks_held_by(2)) == {"a", "b"}
        assert locks.holders_of("a") == {2: LockMode.EXCLUSIVE}

    def test_transfer_does_not_downgrade_existing(self, locks):
        locks.acquire(1, "a", LockMode.SHARED)
        locks.acquire(2, "a", LockMode.SHARED)
        locks.transfer(1, 2)
        assert locks.holders_of("a") == {2: LockMode.SHARED}


def _cross_stripe_pair(locks):
    """Two resource names guaranteed to live in different stripes."""
    base = "stripe-a"
    for i in range(256):
        other = f"stripe-b{i}"
        if locks.stripe_index(other) != locks.stripe_index(base):
            return base, other
    pytest.fail("could not find resources hashing to distinct stripes")


class TestStriping:
    """ISSUE 6: the lock table is striped; deadlock detection and the
    snapshot/stats surfaces must work across stripes without a global
    stop-the-world mutex."""

    def test_default_stripe_count(self, locks):
        assert locks.stripe_count == 16

    def test_stripes_must_be_positive(self):
        with pytest.raises(ValueError):
            LockManager(stripes=0)

    def test_single_stripe_keeps_contract(self):
        locks = LockManager(timeout=0.2, stripes=1)
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockTimeoutError):
            locks.acquire(3, "r", LockMode.EXCLUSIVE)
        locks.release_all(1)
        locks.release_all(2)
        assert locks.holders_of("r") == {}

    def test_cross_stripe_deadlock_detected(self, locks):
        """The classic two-family cycle, with the two resources pinned
        to *different* stripes: detection must traverse the wait graph
        across stripe boundaries."""
        res_a, res_b = _cross_stripe_pair(locks)
        locks.acquire(1, res_a, LockMode.EXCLUSIVE)
        locks.acquire(2, res_b, LockMode.EXCLUSIVE)

        def family_one():
            try:
                locks.acquire(1, res_b, LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError):
                pass
            finally:
                locks.release_all(1)

        thread = threading.Thread(target=family_one)
        thread.start()
        wait_for_waiter(locks, 1, res_b)
        with pytest.raises(DeadlockError):
            locks.acquire(2, res_a, LockMode.EXCLUSIVE)
        locks.release_all(2)
        thread.join(timeout=3.0)
        assert locks.deadlocks_detected >= 1

    def test_cross_stripe_chain_is_not_a_deadlock(self, locks):
        """A straight-line wait chain spanning two stripes must time
        out, never be mis-flagged as a cycle."""
        res_a, res_b = _cross_stripe_pair(locks)
        locks.timeout = 0.15
        locks.acquire(1, res_a, LockMode.EXCLUSIVE)
        locks.acquire(1, res_b, LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, res_a, LockMode.EXCLUSIVE)
        assert locks.deadlocks_detected == 0

    def test_snapshot_spans_stripes(self, locks):
        res_a, res_b = _cross_stripe_pair(locks)
        locks.acquire(1, res_a)
        locks.acquire(2, res_b)
        snap = locks.snapshot()
        assert snap["stripes"] == locks.stripe_count
        assert set(snap["resources"]) == {repr(res_a), repr(res_b)}
        assert sum(snap["stripe_occupancy"]) == 2
        assert snap["stripe_occupancy"][locks.stripe_index(res_a)] >= 1

    def test_wait_stats_shape(self, locks):
        stats = locks.wait_stats()
        assert stats["stripes"] == locks.stripe_count
        assert len(stats["per_stripe"]) == locks.stripe_count
        for entry in stats["per_stripe"]:
            assert {"waits", "p50_ms", "p99_ms", "max_ms"} <= set(entry)

    def test_release_all_only_touches_held_stripes(self, locks):
        """release_all is driven by the family's own resource index, so
        locks held by other families in other stripes are untouched."""
        res_a, res_b = _cross_stripe_pair(locks)
        locks.acquire(1, res_a)
        locks.acquire(2, res_b)
        locks.release_all(1)
        assert locks.locks_held_by(1) == []
        assert locks.holders_of(res_b) == {2: LockMode.EXCLUSIVE}

    def test_clear_does_not_strand_concurrent_acquirer(self, locks):
        """clear() while a waiter is parked: the waiter must re-register
        against the fresh table and be granted, not wake up holding a
        reference to an orphaned lock state."""
        locks.acquire(1, "hot", LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def waiter():
            locks.acquire(2, "hot", LockMode.EXCLUSIVE)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        wait_for_waiter(locks, 2, "hot")
        assert not acquired.is_set()
        locks.clear()
        thread.join(timeout=2.0)
        assert acquired.is_set()
        # The grant landed in the live table, not the discarded state.
        assert locks.holders_of("hot") == {2: LockMode.EXCLUSIVE}
        assert locks.locks_held_by(2) == ["hot"]
