"""Shared fixtures for the test suite, plus the failure-artifact hook:
when ``REPRO_ARTIFACT_DIR`` is set (CI does), every failing test dumps
each live engine's flight ring and observability snapshot there so the
post-mortem record survives the ephemeral tmp_path."""

from __future__ import annotations

import os
import re
import shutil
import time

import pytest

from repro import ExecutionConfig, ExecutionMode, ReachEngine, VirtualClock
from repro.bench.workloads import Reactor, River


def wait_until(condition, timeout=5.0, interval=0.005, message=None):
    """Poll ``condition`` until it is truthy; the bounded replacement for
    fixed ``time.sleep`` waits on loaded CI machines.

    Returns the condition's (truthy) value, so calls can both wait and
    capture: ``count = wait_until(lambda: bucket.count() or None)``.
    Raises AssertionError after ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    while True:
        result = condition()
        if result:
            return result
        if time.monotonic() >= deadline:
            raise AssertionError(
                message or f"condition not met within {timeout}s")
        time.sleep(interval)


@pytest.fixture
def wait_for():
    """Fixture view of :func:`wait_until` for tests preferring injection."""
    return wait_until


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    artifact_dir = os.environ.get("REPRO_ARTIFACT_DIR")
    if not artifact_dir:
        return
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    try:
        from repro.core.engine import live_engines

        engines = live_engines()
        if not engines:
            return
        os.makedirs(artifact_dir, exist_ok=True)
        stem = re.sub(r"[^A-Za-z0-9_.-]+", "-", item.nodeid).strip("-")[-80:]
        for index, engine in enumerate(engines):
            base = os.path.join(artifact_dir, f"{stem}-engine{index}")
            try:
                with open(f"{base}-observability.json", "w",
                          encoding="utf-8") as fh:
                    fh.write(engine.dump_observability(json_format=True))
            except Exception:
                pass
            try:
                dump = engine.flight.dump(reason="test-failure")
                if dump:
                    shutil.copy(dump, f"{base}-flight.jsonl")
            except Exception:
                pass
    except Exception:
        pass  # artifact capture must never mask the real failure


@pytest.fixture
def db(tmp_path):
    """A synchronous-mode database on a temporary directory."""
    database = ReachEngine(directory=str(tmp_path / "db"))
    yield database
    database.close()


@pytest.fixture
def threaded_db(tmp_path):
    """A threaded-mode database (worker pool, async composition)."""
    config = ExecutionConfig(mode=ExecutionMode.THREADED, worker_threads=4)
    database = ReachEngine(directory=str(tmp_path / "tdb"), config=config)
    yield database
    database.close()


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def plant(db):
    """The paper's power-plant objects, registered and persisted."""
    db.register_class(River)
    db.register_class(Reactor)
    river = River("Rhein")
    reactor = Reactor("BlockA")
    with db.transaction():
        db.persist(river, "Rhein")
        db.persist(reactor, "BlockA")
    return db, river, reactor
