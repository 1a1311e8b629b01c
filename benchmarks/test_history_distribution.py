"""E7 — Distributed event histories vs a central log (Section 6.3).

"The maintenance of a highly distributed history eliminates the
bottleneck that would result from centrally logging the occurrence of
events.  The price one pays ... is an overhead when the effects of a rule
must be compensated.  Therefore, a global history is maintained by a
background process after a transaction has committed."

Setup: W detector threads, each producing events for its own ECA-manager.

* **distributed**: each thread appends to its manager's local history
  (no shared state on the detection path); the global history merges
  after the fact.
* **central**: every thread appends to one shared, locked log.

Measured: detection-path recording throughput for both, the post-commit
merge cost (the "price" of distribution), and equivalence of the final
ordered histories.
"""

import threading
import time

import pytest

from repro.core.events import EventOccurrence, MethodEventSpec
from repro.core.history import CentralHistory, GlobalHistory, LocalHistory

WRITERS = 8
EVENTS_PER_WRITER = 2000


def _occurrences(writer_index):
    spec = MethodEventSpec(f"Sensor{writer_index}", "read")
    return [EventOccurrence(spec, spec.category(), float(i),
                            tx_ids=frozenset({1}))
            for i in range(EVENTS_PER_WRITER)]


def _run_threads(target_for):
    threads = [threading.Thread(target=target_for(w))
               for w in range(WRITERS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _distributed_run():
    global_history = GlobalHistory()
    locals_ = []
    batches = []
    for writer in range(WRITERS):
        local = LocalHistory(f"manager-{writer}")
        global_history.attach_source(local)
        locals_.append(local)
        batches.append(_occurrences(writer))

    def target_for(writer):
        local = locals_[writer]
        batch = batches[writer]

        def run():
            for occ in batch:
                local.record(occ)
        return run

    detect_time = _run_threads(target_for)
    merge_start = time.perf_counter()
    global_history.merge_transaction(1)
    merged = global_history.drain()
    merge_time = time.perf_counter() - merge_start
    return detect_time, merge_time, merged, global_history


def _central_run():
    central = CentralHistory()
    batches = [_occurrences(writer) for writer in range(WRITERS)]

    def target_for(writer):
        batch = batches[writer]

        def run():
            for occ in batch:
                central.record(occ)
        return run

    detect_time = _run_threads(target_for)
    return detect_time, central


def test_distributed_detection_path(benchmark):
    def run():
        local = LocalHistory("m")
        for occ in _occurrences(0):
            local.record(occ)

    benchmark(run)


def test_central_detection_path(benchmark):
    """Same volume through one lock shared by nobody — the *uncontended*
    floor for the central design; the report below adds contention."""
    def run():
        central = CentralHistory()
        for occ in _occurrences(0):
            central.record(occ)

    benchmark(run)


def test_contention_report(benchmark, results_report):
    dist_detect, merge_time, merged, global_history = _distributed_run()
    central_detect, central = _central_run()

    total = WRITERS * EVENTS_PER_WRITER
    lines = [
        f"E7: event history under {WRITERS} concurrent detectors "
        f"({total} events)",
        "",
        f"  distributed: detection {dist_detect * 1000:8.1f} ms "
        f"({total / dist_detect / 1000:.0f}k ev/s), "
        f"background merge {merge_time * 1000:.1f} ms",
        f"  central:     detection {central_detect * 1000:8.1f} ms "
        f"({total / central_detect / 1000:.0f}k ev/s)",
        "",
        f"  merged global history entries: {merged}",
        f"  global order == sequence order: "
        f"{[e.seq for e in global_history.entries()] == sorted(e.seq for e in global_history.entries())}",
    ]
    text = results_report("E7_history_distribution", lines)
    print("\n" + text)

    assert merged == total
    entries = global_history.entries()
    assert [e.seq for e in entries] == sorted(e.seq for e in entries)
    assert len(central.entries()) == total
    # Shape: the detection path must not be slower distributed than
    # central (the merge happens off the detection path).
    assert dist_detect <= central_detect * 1.5
