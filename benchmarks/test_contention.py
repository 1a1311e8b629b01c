"""Lock contention under a shared hot object: the wait histogram.

The session-throughput benchmark measures the *uncontended* shared path
(sessions touch disjoint objects).  This harness measures the opposite:
16 sessions repeatedly updating the **same** persisted object, so every
transaction's exclusive lock conflicts with 15 others and the lock
manager's wait machinery is the workload.

The raw signal is the flight recorder's ``lock.wait`` events — the
always-on ring records one entry per blocked acquire (the threshold is
set to 0 here), carrying the measured ``wait_ms`` and the outcome
(granted/deadlock/timeout).  The harness aggregates them into an
exponential-bucket histogram and writes
``benchmarks/results/BENCH_contention.json`` with:

* the wait histogram and p50/p99 of the 16-stripe lock table on the
  contended workload, alongside the disjoint-resource scaling in
  ``BENCH_sessions.json``;
* the engine's ``concurrency_stats()["locks"]`` per-stripe aggregates,
  exercising the curated introspection surface end to end.

A hot single object cannot benefit from striping (all conflicts hash to
one stripe by construction).  The assertions are on histogram integrity,
not a speedup claim.
"""

import threading
import time

from repro import (
    CouplingMode,
    ExecutionConfig,
    MethodEventSpec,
    ReachEngine,
    sentried,
)

SESSIONS = 16
TX_PER_SESSION = 40

#: exponential bucket upper bounds, in milliseconds
BUCKET_BOUNDS_MS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                    50.0, 100.0, float("inf"))


@sentried(track_state=False)
class Ledger:
    def __init__(self):
        self.balance = 0

    def credit(self, amount):
        self.balance += amount


CREDIT = MethodEventSpec("Ledger", "credit", param_names=("amount",))


def _bucketize(waits_ms):
    counts = [0] * len(BUCKET_BOUNDS_MS)
    for wait in waits_ms:
        for index, bound in enumerate(BUCKET_BOUNDS_MS):
            if wait <= bound:
                counts[index] += 1
                break
    labels = [f"<={bound}ms" if bound != float("inf") else ">100ms"
              for bound in BUCKET_BOUNDS_MS]
    return dict(zip(labels, counts))


def _percentile(ordered, q):
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q / 100 * (len(ordered) - 1))))
    return ordered[index]


def _run_contended(tmp_path):
    config = ExecutionConfig(
        flight_capacity=SESSIONS * TX_PER_SESSION * 4,
        flight_lock_wait_threshold=0.0)
    engine = ReachEngine(directory=str(tmp_path / "contended"),
                         config=config)
    try:
        engine.register_class(Ledger)
        engine.rule("audit", CREDIT,
                    condition=lambda ctx: ctx["amount"] > 0,
                    action=lambda ctx: None,
                    coupling=CouplingMode.IMMEDIATE)
        ledger = Ledger()
        with engine.transaction():
            engine.persist(ledger, "hot-ledger")

        sessions = [engine.create_session(f"client-{i}")
                    for i in range(SESSIONS)]
        errors = []
        barrier = threading.Barrier(SESSIONS + 1)

        def client(session):
            try:
                barrier.wait()
                for __ in range(TX_PER_SESSION):
                    with session.transaction():
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

        wait_events = engine.flight_recorder().entries(category="lock.wait")
        waits_ms = sorted(event["wait_ms"] for event in wait_events)
        outcomes = {}
        for event in wait_events:
            outcomes[event["outcome"]] = outcomes.get(event["outcome"], 0) + 1

        stats = engine.concurrency_stats()
        total_tx = SESSIONS * TX_PER_SESSION
        return {
            "stripes": stats["locks"]["stripes"],
            "sessions": SESSIONS,
            "tx_per_session": TX_PER_SESSION,
            "elapsed_s": elapsed,
            "tx_per_sec": total_tx / elapsed,
            "lock_waits_recorded": len(waits_ms),
            "wait_outcomes": outcomes,
            "wait_histogram_ms": _bucketize(waits_ms),
            "wait_p50_ms": _percentile(waits_ms, 50),
            "wait_p99_ms": _percentile(waits_ms, 99),
            "wait_max_ms": waits_ms[-1] if waits_ms else 0.0,
            "concurrency_locks": stats["locks"],
            "history_merge": stats["history"],
        }
    finally:
        engine.close()


def test_contended_lock_waits(tmp_path, bench_contention_report):
    level = _run_contended(tmp_path)

    # Every transaction commits; the histogram must account for every
    # recorded wait (no silent truncation by the flight ring).
    assert sum(level["wait_histogram_ms"].values()) == \
        level["lock_waits_recorded"]
    # No deadlocks or timeouts on a single hot resource under FIFO.
    assert set(level["wait_outcomes"]) <= {"granted"}
    # The curated surface agrees with the flight-derived view on
    # totals: engine-side wait counts include the same blocked
    # acquires the ring recorded.
    assert level["concurrency_locks"]["waits"] >= \
        level["lock_waits_recorded"]

    bench_contention_report("lock_contention", {
        "sessions": SESSIONS,
        "tx_per_session": TX_PER_SESSION,
        "levels": [level],
    })
    print(f"\n{level['stripes']:>2} stripes: "
          f"{level['tx_per_sec']:,.0f} tx/s, "
          f"{level['lock_waits_recorded']} waits, "
          f"p50={level['wait_p50_ms']:.3f}ms "
          f"p99={level['wait_p99_ms']:.3f}ms")
