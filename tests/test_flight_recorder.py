"""Flight recorder (``repro.obs.flight``): the always-on ring of recent
pipeline happenings and its crash/abort/on-demand dumps.

Covers the PR-5 acceptance criteria:

* fixed-cost ring semantics — bounded retention, wrap-around drop
  accounting, order preservation;
* always-on by default (independent of ``config.observability``) with a
  shared no-op recorder when ``flight_recorder=False``;
* subsystem happenings land in the ring: event detections with session
  attribution, rule firings, quarantine and dead-letter transitions,
  lock waits over the threshold, WAL forces, fault activations;
* dumps: on demand, on unhandled abort escaping the ``with`` block, and
  (via the torture harness, tested elsewhere) on simulated crash; the
  JSONL round-trips through :func:`load_dump`/:func:`latest_dump`.
"""

import threading

import pytest

from repro import ExecutionConfig, MethodEventSpec, ReachEngine, sentried
from repro.core.coupling import CouplingMode
from repro.errors import DeadlockError
from repro.obs.flight import (
    NULL_FLIGHT,
    DUMP_FORMAT,
    FlightRecorder,
    latest_dump,
    load_dump,
)
from repro.oodb.locks import LockManager, LockMode

from tests.conftest import wait_for_waiter


@sentried
class Pump:
    def __init__(self):
        self.rpm = 0

    def spin(self, rpm):
        self.rpm = rpm


SPIN = MethodEventSpec("Pump", "spin", param_names=("rpm",))


def make_db(tmp_path, **config_kwargs):
    database = ReachEngine(directory=str(tmp_path / "flight-db"),
                           config=ExecutionConfig(**config_kwargs))
    database.register_class(Pump)
    return database


# ---------------------------------------------------------------------------
# Ring semantics
# ---------------------------------------------------------------------------


class TestRing:
    def test_bounded_retention_with_drop_accounting(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", n=index)
        assert recorder.recorded == 10
        assert len(recorder) == 4
        assert recorder.dropped == 6
        # Oldest-first eviction: only the newest four survive.
        assert [e["n"] for e in recorder.entries()] == [6, 7, 8, 9]

    def test_entries_filter_by_category(self):
        recorder = FlightRecorder(capacity=16)
        recorder.record("a", x=1)
        recorder.record("b", x=2)
        recorder.record("a", x=3)
        assert [e["x"] for e in recorder.entries("a")] == [1, 3]
        assert [e["x"] for e in recorder.entries("b")] == [2]

    def test_snapshot_shape(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("t")
        snap = recorder.snapshot()
        assert snap == {"enabled": True, "capacity": 8, "recorded": 1,
                        "retained": 1, "dropped": 0, "dumps": 0}

    def test_clear_keeps_the_seq_monotonic(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("t")
        recorder.clear()
        recorder.record("t")
        seqs = [e["seq"] for e in recorder.entries()]
        assert seqs == [2]
        assert recorder.recorded == 2

    def test_null_recorder_is_inert(self):
        NULL_FLIGHT.record("anything", x=1)
        assert len(NULL_FLIGHT) == 0
        assert NULL_FLIGHT.enabled is False
        assert NULL_FLIGHT.dump(reason="x") is None


# ---------------------------------------------------------------------------
# Dump files
# ---------------------------------------------------------------------------


class TestDump:
    def test_roundtrip_header_and_records(self, tmp_path):
        recorder = FlightRecorder(capacity=4, directory=str(tmp_path))
        for index in range(6):
            recorder.record("tick", n=index)
        path = recorder.dump(reason="unit test!")
        assert path is not None and path.endswith(".jsonl")
        assert "/flight/" in path
        assert "unit-test-" in path  # reason sanitized into the name
        header, records = load_dump(path)
        assert header["format"] == DUMP_FORMAT
        assert header["reason"] == "unit test!"
        assert header["recorded"] == 6
        assert header["retained"] == 4
        assert header["dropped"] == 2
        assert [r["n"] for r in records] == [2, 3, 4, 5]

    def test_latest_dump_finds_the_newest(self, tmp_path):
        recorder = FlightRecorder(capacity=4, directory=str(tmp_path))
        recorder.record("t")
        recorder.dump(reason="first")
        second = recorder.dump(reason="second")
        assert latest_dump(str(tmp_path)) == second
        assert recorder.snapshot()["dumps"] == 2

    def test_latest_dump_none_without_directory(self, tmp_path):
        assert latest_dump(str(tmp_path)) is None
        recorder = FlightRecorder(capacity=4)  # no directory configured
        recorder.record("t")
        assert recorder.dump() is None

    def test_unserializable_fields_fall_back_to_repr(self, tmp_path):
        recorder = FlightRecorder(capacity=4, directory=str(tmp_path))
        recorder.record("odd", obj=object())
        __, records = load_dump(recorder.dump())
        assert records[0]["obj"].startswith("<object object")


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_on_by_default_even_without_observability(self, tmp_path):
        db = make_db(tmp_path)  # observability stays off
        assert db.metrics().enabled is False
        recorder = db.flight_recorder()
        assert recorder.enabled is True
        fired = []
        db.on(SPIN).do(lambda ctx: fired.append(ctx["rpm"]))\
            .named("SpinWatch")
        pump = Pump()
        with db.transaction():
            db.persist(pump, "p")
            pump.spin(900)
        assert fired == [900]
        events = recorder.entries("event")
        assert any("Pump.spin" in e["spec"] for e in events)
        fires = recorder.entries("rule.fire")
        assert [f for f in fires if f["rule"] == "SpinWatch"
                and f["outcome"] == "executed"]
        # And the disabled-metrics guard: flight never touched them.
        assert db.metrics().snapshot()["counters"] == {}
        db.close()

    def test_flight_recorder_false_swaps_in_the_null(self, tmp_path):
        db = make_db(tmp_path, flight_recorder=False)
        assert db.flight_recorder() is NULL_FLIGHT
        assert db.statistics()["flight"]["enabled"] is False
        db.close()

    def test_event_records_carry_the_session(self, tmp_path):
        db = make_db(tmp_path)
        db.on(SPIN).do(lambda ctx: None).named("Watch")
        session = db.create_session("attribution")
        pump = Pump()
        with session.transaction():
            session.persist(pump, "p")
            pump.spin(5)
        events = db.flight_recorder().entries("event")
        assert any(e["session"] == session.id for e in events)
        db.close()

    def test_wal_flushes_are_recorded(self, tmp_path):
        db = make_db(tmp_path)
        with db.transaction():
            db.persist(Pump(), "p")
        flushes = db.flight_recorder().entries("wal.flush")
        assert flushes and flushes[-1]["lsn"] >= 1
        lsns = [f["lsn"] for f in flushes]
        assert lsns == sorted(lsns)
        db.close()

    def test_quarantine_and_dead_letter_transitions(self, tmp_path):
        db = make_db(tmp_path, quarantine_threshold=2,
                     detached_max_retries=0, retry_base_delay=0.0)

        def explode(ctx):
            raise RuntimeError("boom")

        db.on(SPIN).do(explode)\
            .coupling(CouplingMode.DETACHED).named("Exploder")
        pump = Pump()
        with db.transaction():
            db.persist(pump, "p")
        for __ in range(2):
            with db.transaction():
                pump.spin(1)
        db.drain_detached()
        recorder = db.flight_recorder()
        letters = recorder.entries("rule.dead_letter")
        assert letters and letters[0]["rule"] == "Exploder"
        quarantines = recorder.entries("rule.quarantine")
        assert quarantines and quarantines[0]["rule"] == "Exploder"
        assert quarantines[0]["failures"] == 2
        db.close()

    def test_fault_activations_are_recorded(self, tmp_path):
        db = make_db(tmp_path, fault_injection=True, fault_seed=7)
        db.faults.arm("wal.fsync", delay=0.0, times=1)
        with db.transaction():
            db.persist(Pump(), "p")
        faults = db.flight_recorder().entries("fault")
        assert faults and faults[0]["point"] == "wal.fsync"
        db.close()

    def test_unhandled_abort_dumps_the_ring(self, tmp_path):
        directory = str(tmp_path / "abort-db")
        with pytest.raises(RuntimeError):
            with ReachEngine(directory=directory) as db:
                db.register_class(Pump)
                with db.transaction():
                    db.persist(Pump(), "p")
                raise RuntimeError("operator error")
        path = latest_dump(directory)
        assert path is not None and "unhandled-abort" in path
        header, records = load_dump(path)
        assert header["reason"] == "unhandled-abort"
        aborts = [r for r in records if r["category"] == "engine.abort"]
        assert aborts and "operator error" in aborts[0]["error"]

    def test_on_demand_dump_via_the_facade(self, tmp_path):
        db = make_db(tmp_path)
        with db.transaction():
            db.persist(Pump(), "p")
        path = db.flight_recorder().dump()
        assert path is not None
        header, __ = load_dump(path)
        assert header["reason"] == "on-demand"
        assert db.statistics()["flight"]["dumps"] == 1
        db.close()


# ---------------------------------------------------------------------------
# Lock waits
# ---------------------------------------------------------------------------


class TestLockWaits:
    def test_deadlock_is_always_recorded(self):
        recorder = FlightRecorder(capacity=64)
        locks = LockManager(timeout=1.0, flight=recorder,
                            flight_wait_threshold=10.0)
        locks.acquire(1, "r1", LockMode.EXCLUSIVE)
        locks.acquire(2, "r2", LockMode.EXCLUSIVE)

        def contender():
            try:
                locks.acquire(2, "r1", LockMode.EXCLUSIVE)
            except Exception:
                pass

        thread = threading.Thread(target=contender)
        thread.start()
        wait_for_waiter(locks, 2, "r1")
        with pytest.raises(DeadlockError):
            locks.acquire(1, "r2", LockMode.EXCLUSIVE)
        locks.release_all(1)
        thread.join()
        waits = recorder.entries("lock.wait")
        assert any(w["outcome"] == "deadlock" for w in waits)

    def test_fast_grants_below_threshold_stay_out_of_the_ring(self):
        recorder = FlightRecorder(capacity=64)
        locks = LockManager(timeout=1.0, flight=recorder,
                            flight_wait_threshold=10.0)
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)   # compatible, no wait
        assert recorder.entries("lock.wait") == []
