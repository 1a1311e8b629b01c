"""Nothing grows without bound in a steady state.

The rule path holds constant memory once its bounded rings are full.

One engine at the default config runs signal-only transactions through a
multi-transaction RECENT conjunction under a DETACHED rule and an
IMMEDIATE rule on a plain signal.  After a warm-up that fills every
bounded ring — each ECA-manager's local history (``history_capacity``)
and the scheduler's firing log (``MAX_FIRING_LOG``) — further
transactions must leave no GC-tracked objects behind and no log frames
buffered: composer state is written at a log force, and a signal-only
commit forces nothing.

The data file holds constant size under updates that keep each object's
image size: a committed update, and its redo after a crash, rewrites the
object's records in place.
"""

from __future__ import annotations

import gc

import os
import random

from repro import ExecutionConfig, ReachEngine, sentried
from repro.core.algebra import EventScope
from repro.core.consumption import ConsumptionPolicy
from repro.core.events import SignalEventSpec
from repro.core.rules import CouplingMode
from repro.core.scheduler import RuleScheduler
from repro.oodb.oid import OID
from repro.storage.storage_manager import StorageManager

MEASURED = 2_000


def _one_tx(db) -> None:
    with db.transaction():
        db.signal("a")
        db.signal("c")
        db.signal("x")


def test_signal_only_transactions_retain_nothing(tmp_path):
    capacity = ExecutionConfig().history_capacity
    db = ReachEngine(directory=str(tmp_path))
    a, c = SignalEventSpec("a"), SignalEventSpec("c")
    db.rule("conj", (a & c).scoped(EventScope.MULTI_TX).within(3600.0)
            .consumed(ConsumptionPolicy.RECENT),
            action=lambda ctx: None, coupling=CouplingMode.DETACHED)
    db.rule("imm", SignalEventSpec("x"), action=lambda ctx: None,
            coupling=CouplingMode.IMMEDIATE)
    # Two firings per transaction: the firing log fills after half its
    # bound, every history after ``capacity`` transactions.
    warm_up = max(capacity, RuleScheduler.MAX_FIRING_LOG // 2) + 1_000
    try:
        for __ in range(warm_up):
            _one_tx(db)
        db.drain_detached()
        gc.collect()
        objects = len(gc.get_objects())
        buffered = db.storage.wal_stats()["buffered_records"]

        for __ in range(MEASURED):
            _one_tx(db)
        db.drain_detached()
        gc.collect()
        growth = (len(gc.get_objects()) - objects) / MEASURED
        assert growth < 0.1, f"{growth:.3f} objects retained per tx"
        assert db.storage.wal_stats()["buffered_records"] == buffered
    finally:
        db.close()


@sentried
class _Record:
    def __init__(self, stamp):
        self.stamp = stamp
        self.payload = "x" * 1_024


def test_same_size_updates_do_not_grow_the_data_file(tmp_path):
    objects, updates = 200, 300
    db = ReachEngine(directory=str(tmp_path))
    db.register_class(_Record)
    data_file = os.path.join(str(tmp_path), StorageManager.DATA_FILE)
    rng = random.Random(7)
    names = [f"r{index:03d}" for index in range(objects)]

    def update(name, stamp):
        with db.transaction():
            db.fetch(name).stamp = f"{stamp:08d}"

    def footprint():
        db.checkpoint()
        return db.storage.stats()["pages"], os.path.getsize(data_file)

    try:
        with db.transaction():
            for name in names:
                db.persist(_Record(f"{0:08d}"), name)
        for stamp, name in enumerate(names):
            update(name, stamp)
        warm = footprint()
        for phase in range(2):
            for stamp in range(updates):
                update(rng.choice(names), stamp)
            assert footprint() == warm, f"grew after phase {phase + 1}"
    finally:
        db.close()


def test_repeated_crash_recovery_does_not_grow_the_data_file(tmp_path):
    """Redo rewrites every object the log covers where it already lies,
    so crash after crash leaves the data file as it is."""
    path = str(tmp_path / "store")
    storage = StorageManager(path, buffer_capacity=8)
    pages = []
    try:
        for tx_id in range(1, 6):
            storage.begin(tx_id)
            for value in range(1, 301):
                storage.write(tx_id, OID(value), bytes([tx_id]) * 600)
            storage.commit(tx_id)
            storage.crash()
            storage = StorageManager(path, buffer_capacity=8)
            pages.append(storage.stats()["pages"])
        assert pages == pages[:1] * 5, pages
    finally:
        storage.close()
