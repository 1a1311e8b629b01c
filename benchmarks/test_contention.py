"""Lock contention under a shared hot object: the wait histogram.

The session-throughput benchmark measures the *uncontended* shared path
(sessions touch disjoint objects).  This harness measures the opposite:
16 sessions repeatedly updating the **same** persisted object, so every
transaction's exclusive lock conflicts with 15 others and the lock
manager's wait machinery is the workload.  Each transaction takes the
ledger's exclusive lock before its read-modify-write (two-phase locking),
so the final balance is exact.

The signal is the engine's always-on ``statistics()["concurrency"]["locks"]``:
total waits, deadlocks and timeouts, and per-stripe wait reservoirs
(count and p50/p99/max in ms).  The harness writes them to
``benchmarks/results/BENCH_contention.json``, alongside the
disjoint-resource scaling in ``BENCH_sessions.json``.

A hot single object cannot benefit from striping (all conflicts hash to
one stripe by construction).  The assertions are on correctness and
accounting, not a speedup claim.
"""

import threading
import time

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    sentried,
)

SESSIONS = 16
TX_PER_SESSION = 40


@sentried(track_state=False)
class Ledger:
    def __init__(self):
        self.balance = 0

    def credit(self, amount):
        self.balance += amount


CREDIT = MethodEventSpec("Ledger", "credit", param_names=("amount",))


def _run_contended(tmp_path):
    engine = ReachEngine(directory=str(tmp_path / "contended"))
    try:
        engine.register_class(Ledger)
        engine.rule("audit", CREDIT,
                    condition=lambda ctx: ctx["amount"] > 0,
                    action=lambda ctx: None,
                    coupling=CouplingMode.IMMEDIATE)
        ledger = Ledger()
        with engine.transaction():
            oid = engine.persist(ledger, "hot-ledger")

        sessions = [engine.create_session(f"client-{i}")
                    for i in range(SESSIONS)]
        errors = []
        barrier = threading.Barrier(SESSIONS + 1)

        def client(session):
            try:
                barrier.wait()
                for __ in range(TX_PER_SESSION):
                    with session.transaction():
                        engine.tx_manager.lock(oid)
                        # Yield the interpreter while holding the lock so
                        # the other sessions queue on it.
                        time.sleep(0)
                        ledger.credit(1)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(session,))
                   for session in sessions]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        assert errors == []
        assert ledger.balance == SESSIONS * TX_PER_SESSION

        stats = engine.statistics()["concurrency"]
        locks = stats["locks"]
        # The hot ledger hashes to one stripe: its reservoir is the
        # contended wait distribution.
        hot = max(locks["per_stripe"], key=lambda stripe: stripe["waits"])
        total_tx = SESSIONS * TX_PER_SESSION
        return {
            "stripes": locks["stripes"],
            "sessions": SESSIONS,
            "tx_per_session": TX_PER_SESSION,
            "elapsed_s": elapsed,
            "tx_per_sec": total_tx / elapsed,
            "lock_waits": locks["waits"],
            "wait_p50_ms": hot["p50_ms"],
            "wait_p99_ms": hot["p99_ms"],
            "wait_max_ms": hot["max_ms"],
            "concurrency_locks": locks,
            "history_merge": stats["history"],
        }
    finally:
        engine.close()


def test_contended_lock_waits(tmp_path, bench_contention_report):
    level = _run_contended(tmp_path)

    locks = level["concurrency_locks"]
    # Sixteen sessions on one exclusive lock do block each other, and
    # every blocked acquire lands in the per-stripe reservoirs.
    assert level["lock_waits"] > 0
    assert sum(stripe["waits"] for stripe in locks["per_stripe"]) == \
        level["lock_waits"]
    # No deadlocks or timeouts on a single hot resource under FIFO.
    assert locks["deadlocks_detected"] == 0
    assert locks["timeouts"] == 0

    bench_contention_report("lock_contention", {
        "sessions": SESSIONS,
        "tx_per_session": TX_PER_SESSION,
        "levels": [level],
    })
    print(f"\n{level['stripes']:>2} stripes: "
          f"{level['tx_per_sec']:,.0f} tx/s, "
          f"{level['lock_waits']} waits, "
          f"p50={level['wait_p50_ms']:.3f}ms "
          f"p99={level['wait_p99_ms']:.3f}ms")
