"""E5 — Why composite events may not fire immediate rules (Sections 3.2,
6.4).

"If a method-event is raised and composite events are allowed to trigger
rules in immediate mode, the normal flow of execution must be stopped
every time a method event is raised until the event composers have
signaled that no complex event ... has been completed.  This overhead is
prohibitive."

The harness measures the *caller-visible* latency of a method invocation
in threaded mode under both designs:

* **REACH design**: the primitive ECA-manager gives the go-ahead right
  after the direct rules; composition proceeds asynchronously on worker
  threads.
* **Rejected design**: the caller waits for every composer to process the
  event (the negative acknowledgement) before continuing — simulated by
  forcing synchronous propagation.

Expected shape: caller latency under the rejected design grows with the
number and cost of composers; under the REACH design it stays flat.
"""

import time

import pytest

from repro import (
    CouplingMode,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    sentried,
)

COMPOSERS = 12


@sentried
class Feed:
    def push(self, value):
        return value


PUSH = MethodEventSpec("Feed", "push")


def _database(tmp_path, wait_for_composers: bool):
    config = ExecutionConfig(mode=ExecutionMode.THREADED, worker_threads=2)
    db = ReachEngine(directory=str(tmp_path), config=config)
    db.register_class(Feed)
    # Composers whose evaluation is deliberately non-trivial: each guards
    # a deferred rule on (push ; signal-i).
    for index in range(COMPOSERS):
        spec = Sequence(PUSH, SignalEventSpec(f"never-{index}"))
        db.rule(f"combo-{index}", spec,
                condition=lambda ctx: _busy(0.0005) or True,
                action=lambda ctx: None,
                coupling=CouplingMode.DEFERRED)
    # Make the composers themselves costly by attaching a slow listener
    # to the push manager (simulating expensive composition work).
    manager = db.events.primitive_manager(PUSH)
    for __ in range(4):
        manager.add_listener(lambda occ: _busy(0.0005))
    db.events.force_synchronous_propagation = wait_for_composers
    return db


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return False


def _caller_latency(db, rounds=30):
    feed = Feed()
    samples = []
    with db.transaction():
        for __ in range(rounds):
            start = time.perf_counter()
            feed.push(1)
            samples.append(time.perf_counter() - start)
    db.wait_for_composition()
    return sorted(samples)[len(samples) // 2]


def test_reach_go_ahead(benchmark, tmp_path):
    db = _database(tmp_path / "async", wait_for_composers=False)
    feed = Feed()
    tx = db.tx_manager.begin()
    benchmark.pedantic(feed.push, args=(1,), rounds=50, iterations=1)
    db.tx_manager.abort(tx)
    db.wait_for_composition()
    db.close()


def test_rejected_wait_for_negative_ack(benchmark, tmp_path):
    db = _database(tmp_path / "sync", wait_for_composers=True)
    feed = Feed()
    tx = db.tx_manager.begin()
    benchmark.pedantic(feed.push, args=(1,), rounds=50, iterations=1)
    db.tx_manager.abort(tx)
    db.close()


def test_stall_report(benchmark, tmp_path, results_report):
    async_db = _database(tmp_path / "ra", wait_for_composers=False)
    async_latency = _caller_latency(async_db)
    async_db.close()

    sync_db = _database(tmp_path / "rs", wait_for_composers=True)
    sync_latency = _caller_latency(sync_db)
    sync_db.close()

    lines = [
        "E5: caller-visible method latency with composite events pending",
        "",
        f"  REACH go-ahead (async composition):   "
        f"{async_latency * 1e6:10.1f} us/call",
        f"  rejected design (wait for neg. acks): "
        f"{sync_latency * 1e6:10.1f} us/call",
        f"  stall factor: {sync_latency / async_latency:.1f}x",
    ]
    text = results_report("E5_immediate_composite", lines)
    print("\n" + text)

    # Shape: waiting for negative acknowledgements must cost the caller
    # substantially more than the go-ahead design.
    assert sync_latency > async_latency * 2
