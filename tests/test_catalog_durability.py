"""The catalog record is logged when it changed, and only then.

A durable commit writes what the transaction changed: the name catalog
joins the storage transaction only while the dictionary holds a change
no durable image has.  These tests pin the cost (WAL bytes per update do
not grow with the number of names) and the safety of skipping the
rewrite (names survive crashes, concurrent binders and failed commits).
"""

import sys
import threading

import pytest

from repro import (
    ExecutionConfig,
    InjectedFault,
    ReachEngine,
    sentried,
)
from repro.errors import ObjectNotFoundError


@sentried
class Blob:
    def __init__(self, label):
        self.label = label
        self.payload = "x" * 1024
        self.version = 0

    def touch(self):
        self.version += 1


def _open(directory, **config):
    db = ReachEngine(directory=str(directory),
                     config=ExecutionConfig(**config))
    db.register_class(Blob)
    return db


def _wal_bytes_per_update(directory, names, updates=5):
    db = _open(directory)
    try:
        blobs = [Blob(f"b{i}") for i in range(names)]
        with db.transaction():
            for blob in blobs:
                db.persist(blob, blob.label)
        db.checkpoint()
        start = db.storage.stats()["wal_bytes"]
        for __ in range(updates):
            with db.transaction():
                blobs[0].touch()
        return (db.storage.stats()["wal_bytes"] - start) / updates
    finally:
        db.close()


class TestCommitCostsWhatItWrites:
    def test_wal_bytes_per_update_do_not_grow_with_the_catalog(
            self, tmp_path):
        small = _wal_bytes_per_update(tmp_path / "small", names=10)
        large = _wal_bytes_per_update(tmp_path / "large", names=2000)
        assert large <= 1.25 * small, (small, large)


class TestNamesSurviveCatalogCleanCommits:
    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_crash_after_clean_commits_keeps_every_name(
            self, tmp_path, checkpoint):
        db = _open(tmp_path / "db")
        blobs = [Blob(f"n{i}") for i in range(20)]
        with db.transaction():
            for blob in blobs:
                db.persist(blob, blob.label)
        if checkpoint:
            db.checkpoint()
        for __ in range(3):            # catalog-clean commits
            with db.transaction():
                for blob in blobs:
                    blob.touch()
        assert not db.dictionary.dirty
        db.storage.crash()
        db.close()

        reopened = _open(tmp_path / "db")
        try:
            for blob in blobs:
                assert reopened.fetch(blob.label).version == 3
            # Allocation continues above the recovered OIDs.
            with reopened.transaction():
                fresh = reopened.persist(Blob("fresh"), "fresh")
            assert fresh.value > max(
                reopened.dictionary.resolve_name(b.label).value
                for b in blobs)
        finally:
            reopened.close()


class TestConcurrentBinders:
    SESSIONS = 3
    ROUNDS = 12

    def test_every_acked_name_resolves_after_a_crash(self, tmp_path):
        engine = ReachEngine(directory=str(tmp_path / "eng"))
        engine.register_class(Blob)
        acked = [[] for __ in range(self.SESSIONS)]
        errors = []

        def client(index, session):
            try:
                for round_ in range(self.ROUNDS):
                    label = f"s{index}-r{round_}"
                    with session.transaction():
                        session.persist(Blob(label), label)
                    acked[index].append(label)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=client,
                    args=(i, engine.create_session(f"client-{i}")))
                for i in range(self.SESSIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            engine.storage.crash()
            engine.close()
        assert errors == []

        reopened = ReachEngine(directory=str(tmp_path / "eng"))
        try:
            reopened.register_class(Blob)
            for labels in acked:
                assert len(labels) == self.ROUNDS
                for label in labels:
                    assert reopened.fetch(label).label == label
        finally:
            reopened.close()

    def test_a_binder_waits_for_the_image_that_carries_its_name(
            self, tmp_path):
        """B's name sits in A's in-flight catalog image: B must not ack
        before that image is durable, and writes its own when A fails."""
        engine = ReachEngine(directory=str(tmp_path / "eng"))
        engine.register_class(Blob)
        a = engine.create_session("a")
        b = engine.create_session("b")
        a_in_commit = threading.Event()
        release_a = threading.Event()
        real_commit = engine.storage.commit
        a_tx_ids = []

        def commit(tx_id):
            if tx_id in a_tx_ids:
                a_in_commit.set()
                release_a.wait(timeout=30)
                raise InjectedFault("A's commit fails after the wait")
            real_commit(tx_id)

        engine.storage.commit = commit
        outcomes = {}

        def run_a():
            try:
                with a.transaction() as tx:
                    a_tx_ids.append(tx.id)
                    a.persist(Blob("A"), "A")
            except InjectedFault as exc:
                outcomes["a"] = exc

        def run_b():
            b.commit()
            outcomes["b"] = "committed"

        try:
            b.begin()
            b.persist(Blob("B"), "B")
            thread_a = threading.Thread(target=run_a)
            thread_a.start()
            assert a_in_commit.wait(timeout=30)
            thread_b = threading.Thread(target=run_b)
            thread_b.start()
            thread_b.join(timeout=0.5)
            assert thread_b.is_alive()      # waiting for A's image
            release_a.set()
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)
            assert not thread_a.is_alive() and not thread_b.is_alive()
            assert isinstance(outcomes["a"], InjectedFault)
            assert outcomes["b"] == "committed"
        finally:
            release_a.set()
            engine.storage.crash()
            engine.close()

        reopened = ReachEngine(directory=str(tmp_path / "eng"))
        try:
            reopened.register_class(Blob)
            assert reopened.fetch("B").label == "B"
            with pytest.raises(ObjectNotFoundError):
                reopened.fetch("A")
        finally:
            reopened.close()


class TestFailedCatalogCommit:
    def test_commit_fault_leaves_the_catalog_dirty_for_the_next_commit(
            self, tmp_path):
        db = _open(tmp_path / "db", fault_injection=True)
        kept = Blob("kept")
        with db.transaction():
            db.persist(kept, "kept")
        assert not db.dictionary.dirty

        db.faults.arm("storage.commit", nth=1)
        with pytest.raises(InjectedFault):
            with db.transaction():
                db.persist(Blob("lost"), "lost")
        assert db.dictionary.dirty

        with db.transaction():
            db.persist(Blob("next"), "next")
        assert not db.dictionary.dirty
        db.storage.crash()
        db.close()

        reopened = _open(tmp_path / "db")
        try:
            assert reopened.fetch("kept").label == "kept"
            assert reopened.fetch("next").label == "next"
            with pytest.raises(ObjectNotFoundError):
                reopened.fetch("lost")
        finally:
            reopened.close()
