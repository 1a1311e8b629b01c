"""Crash-durable composite-event detection.

Three layers of coverage for the COMPOSER_CHECKPOINT protocol:

* a hypothesis property — for random operator trees, policies, and
  primitive streams, crashing at a random prefix (snapshot the composer,
  round-trip the payload through the storage serializer exactly as the
  WAL does, restore into a fresh composer) and feeding the suffix must
  produce the same emissions as the uninterrupted reference evaluator
  from ``test_algebra_properties`` — never a duplicate, never a
  forgotten half-match, for all four SNOOP policies and both scopes (a
  crash ends every open transaction, so single-transaction graphs are
  dropped at the cut on both sides);
* engine-level reopen tests — a half-matched multi-transaction sequence
  survives a real crash (flush + torn close), completes exactly once in
  the next incarnation, and does not complete again on a refeed; the
  checkpoint is pulled into the force of the data commit that
  acknowledged it, also while signal-only feeds race that commit; a
  failed frame append leaves the state for the next force; an open
  single-transaction half-match is never restored; a corrupt
  (future-versioned) checkpoint frame falls back to the previous
  consistent checkpoint and is counted;
* codec pins — a single-transaction snapshot carries no group, and a
  restore accepts only the global group.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, ReachEngine, sentried
from repro.bench.crash_torture import parse_wal_prefix
from repro.errors import ComposerStateError
from repro.core.algebra import EventScope, Sequence
from repro.core.composer import Composer
from repro.core.consumption import ConsumptionPolicy
from repro.core.events import EventOccurrence, SignalEventSpec
from repro.core.rules import CouplingMode
from repro.storage.serializer import deserialize, serialize
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import _FRAME, LogRecord, LogRecordType

from tests.test_algebra_properties import (
    TREES,
    A,
    B,
    RefEvaluator,
    _seqs,
    occ,
)

_streams = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(min_value=1, max_value=3)),
    min_size=0, max_size=40)

_policies = st.sampled_from(list(ConsumptionPolicy))

_trees = st.sampled_from(TREES)


def _feed_and_compare(composer, reference, occurrences, start):
    """Feed both evaluators in lockstep; compare emissions per step as
    multisets of component-seq sets (ordering differences tolerated)."""
    for index, occurrence in enumerate(occurrences, start):
        got = composer.feed(occurrence)
        want = reference.feed(occurrence)
        got_sets = sorted(
            sorted(c.seq for c in e.all_primitive_components())
            for e in got)
        want_sets = sorted(sorted(_seqs(e)) for e in want)
        assert got_sets == want_sets, (
            f"step {index}: recovered composer emitted {got_sets}, "
            f"uninterrupted reference expects {want_sets} — "
            + ("duplicate completion" if len(got_sets) > len(want_sets)
               else "forgotten half-match"))


class TestCrashRecoverResumeProperty:
    """Satellite oracle: crash at a random prefix, recover, feed the
    suffix; firings must equal the uninterrupted reference run."""

    @given(_streams, _policies, _trees,
           st.integers(min_value=0, max_value=40), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_recovery_resumes_exactly_where_the_crash_cut(
            self, stream, policy, tree, cut, multi_tx):
        __, make_spec, make_ref = tree

        def build_spec():
            spec = make_spec(policy)
            if multi_tx:
                spec = spec.scoped(EventScope.MULTI_TX).within(1e9)
            return spec

        split = min(cut, len(stream))
        occurrences = [occ(kind, float(index), tx=tx)
                       for index, (kind, tx) in enumerate(stream)]
        reference = RefEvaluator(make_ref, policy, multi_tx=multi_tx)

        live = Composer(build_spec())
        _feed_and_compare(live, reference, occurrences[:split], 0)

        # The WAL round trip: snapshot -> serializer -> restore, exactly
        # the bytes a COMPOSER_CHECKPOINT record carries.
        payload = deserialize(serialize(live.snapshot_state()))
        recovered = Composer(build_spec())
        watermark = recovered.restore_state(payload)
        assert watermark == payload["watermark"]
        if not multi_tx:
            # The crash ended every open transaction: their graphs die
            # with it, and later occurrences belong to new transactions.
            reference.instances.clear()

        _feed_and_compare(recovered, reference, occurrences[split:], split)


class TestSnapshotCodecPins:
    def test_single_tx_snapshot_carries_no_group(self):
        """Only the multi-transaction graph outlives a transaction, so a
        single-tx composer's snapshot is empty even mid-match — for one
        transaction and for a cross-shard member-id group alike."""
        live = Composer(Sequence(A, B).consumed(ConsumptionPolicy.CHRONICLE))
        for tx_ids in (frozenset({3}), frozenset({7, 11})):
            assert live.feed(EventOccurrence(
                A, A.category(), 0.0, tx_ids=tx_ids)) == []
        assert live.graph_instance_count() == 2
        payload = deserialize(serialize(live.snapshot_state()))
        assert payload["groups"] == []

        recovered = Composer(
            Sequence(A, B).consumed(ConsumptionPolicy.CHRONICLE))
        recovered.restore_state(payload)
        assert recovered.graph_instance_count() == 0
        assert recovered.restored_tx_ids == frozenset()

    def test_restore_rejects_a_non_global_group(self):
        spec = (Sequence(A, B).consumed(ConsumptionPolicy.CHRONICLE)
                .scoped(EventScope.MULTI_TX).within(1e9))
        live = Composer(spec)
        live.feed(EventOccurrence(A, A.category(), 0.0,
                                  tx_ids=frozenset({3})))
        payload = live.snapshot_state()
        [(__, state)] = payload["groups"]
        payload["groups"] = [(("tx", 3), state)]
        with pytest.raises(ComposerStateError):
            Composer(spec).restore_state(payload)

    def test_restore_rejects_future_version(self):
        live = Composer(Sequence(A, B))
        payload = live.snapshot_state()
        payload["v"] = 99
        with pytest.raises(ComposerStateError):
            Composer(Sequence(A, B)).restore_state(payload)


def _crash(db):
    db.storage.flush()
    db.storage.crash()
    db.close()


@sentried
class Ledger:
    def __init__(self):
        self.entries = 0


class TestEngineReopen:
    """The full stack: log forces pull checkpoints into the WAL,
    recovery rebuilds the half-matched state, pre-crash transactions are
    seeded so detached composites can still fire."""

    SPEC = (Sequence(SignalEventSpec("dur-a"), SignalEventSpec("dur-b"))
            .consumed(ConsumptionPolicy.CHRONICLE)
            .scoped(EventScope.MULTI_TX).within(1e9))
    OTHER = (Sequence(SignalEventSpec("dur-x"), SignalEventSpec("dur-y"))
             .consumed(ConsumptionPolicy.CHRONICLE)
             .scoped(EventScope.MULTI_TX).within(1e9))
    SINGLE_TX = Sequence(SignalEventSpec("dur-a"), SignalEventSpec("dur-b"))

    def _open(self, path, fired, spec=SPEC, config=None):
        db = ReachEngine(directory=str(path), config=config)
        db.register_class(Ledger)
        db.rule("dur-rule", spec,
                action=lambda ctx: fired.append(
                    len(ctx.event.all_primitive_components())),
                coupling=CouplingMode.DETACHED)
        return db

    def test_acknowledged_commit_carries_its_composer_checkpoint(
            self, tmp_path):
        """The frame is forced with the COMMIT it belongs to: a copy of
        the directory taken as soon as ``commit`` returns (what a power
        cut preserves) already restores the half-match."""
        fired: list[int] = []
        db = self._open(tmp_path / "live", fired)
        with db.transaction():
            db.persist(Ledger(), "ledger")
            db.signal("dur-a")
        shutil.copytree(tmp_path / "live", tmp_path / "image")
        db.close()

        db = self._open(tmp_path / "image", fired)
        assert db.statistics()["wal"]["composer_restores"] == 1
        with db.transaction():
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2]
        db.close()

    def test_mixed_workload_logs_one_commit_frame_per_transaction(
            self, tmp_path):
        """Insert, update, delete, an abort and catalog changes: the log
        holds one COMMIT frame per committed transaction, carrying all
        of its operations, plus CHECKPOINT and COMPOSER_CHECKPOINT
        frames and nothing else."""
        fired: list[int] = []
        db = self._open(tmp_path, fired)
        ledger, spare = Ledger(), Ledger()
        with db.transaction():                   # inserts + catalog
            db.persist(ledger, "ledger")
            db.persist(spare, "spare")
            db.signal("dur-a")
        with db.transaction():                   # update
            ledger.entries = 1
            db.persistence.mark_dirty(ledger)
        with pytest.raises(RuntimeError):
            with db.transaction():               # abort: logs nothing
                ledger.entries = 99
                db.persistence.mark_dirty(ledger)
                raise RuntimeError("abort")
        with db.transaction():                   # delete + catalog
            db.delete(spare)
        ledger_oid = db.persistence.oid_of(ledger)
        db.storage.flush()
        with open(tmp_path / StorageManager.LOG_FILE, "rb") as fh:
            records = parse_wal_prefix(fh.read())
        db.close()

        assert {r.type for r in records} == {
            LogRecordType.CHECKPOINT, LogRecordType.COMPOSER_CHECKPOINT,
            LogRecordType.COMMIT}
        commits = [r for r in records if r.type is LogRecordType.COMMIT]
        assert len(commits) == 3
        assert len({r.tx_id for r in commits}) == 3
        inserted, updated, deleted = (dict(r.ops) for r in commits)
        assert len(inserted) == 3                # two objects + catalog
        assert list(updated) == [ledger_oid.value]
        assert None in deleted.values()          # the delete
        assert len(deleted) == 2                 # ...and the catalog

    def test_open_single_tx_half_match_is_not_restored(self, tmp_path):
        """A crash ends every open transaction, so a single-transaction
        graph in the crash image has nothing to resume."""
        fired: list[int] = []
        db = self._open(tmp_path / "live", fired, spec=self.SINGLE_TX)
        victim = db.create_session("victim")
        witness = db.create_session("witness")
        victim.begin()
        victim.signal("dur-a")
        with witness.transaction():
            pass                    # another transaction's EOT
        db.storage.flush()
        shutil.copytree(tmp_path / "live", tmp_path / "image")
        victim.commit()
        db.close()

        db = self._open(tmp_path / "image", fired, spec=self.SINGLE_TX)
        assert db.composer_stats()["half_matched_groups"] == 0
        db.checkpoint()
        _crash(db)
        db = self._open(tmp_path / "image", fired, spec=self.SINGLE_TX)
        assert db.composer_stats()["half_matched_groups"] == 0
        with db.transaction():
            db.signal("dur-a")
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2]
        db.close()

    def test_single_tx_composers_write_no_checkpoint(self, tmp_path):
        """Signal-only transactions over one single-tx and one multi-tx
        composite: one composer checkpoint per force, the multi-tx one."""
        fired: list[int] = []
        db = self._open(tmp_path, fired, spec=self.SINGLE_TX)
        db.rule("multi", self.OTHER, action=lambda ctx: None,
                coupling=CouplingMode.DETACHED)
        written = db.statistics()["wal"]["composer_checkpoints_written"]
        for __ in range(5):
            with db.transaction():
                db.signal("dur-a")
                db.signal("dur-x")
            db.storage.flush()
        assert db.statistics()["wal"][
            "composer_checkpoints_written"] - written == 5
        db.close()

    def test_failed_checkpoint_append_leaves_the_composer_dirty(
            self, tmp_path):
        """A force whose composer frame fails to append must not mark the
        state written: the next force writes it, and the half-match
        survives the crash."""
        fired: list[int] = []
        config = ExecutionConfig(fault_injection=True)
        db = self._open(tmp_path, fired, config=config)
        db.faults.arm("wal.append", times=1)
        with db.transaction():
            db.signal("dur-a")
        db.storage.flush()          # the frame's append fails
        db.storage.flush()          # the composer is still dirty
        assert db.composer_stats()["checkpoint_errors"] == 1
        _crash(db)

        db = self._open(tmp_path, fired, config=config)
        assert db.statistics()["wal"]["composer_restores"] == 1
        with db.transaction():
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2]
        db.close()

    def test_writer_commits_cover_committed_feeds(self, tmp_path):
        """Composer state is pulled at the force: a data commit racing
        signal-only feeds to a multi-transaction composite is
        acknowledged only with a snapshot covering every feed committed
        before its EOT.  One feeder and two writers (more threads than
        cores) run with a short switch interval so the pull, the feeds
        and the COMMIT appends interleave."""
        feeds, writes, writers = 150, 30, 2
        live, image = tmp_path / "live", tmp_path / "image"
        fired: list[int] = []
        db = self._open(live, fired)
        fed_seqs: list[int] = []
        db.events.primitive_manager(SignalEventSpec("dur-a")).add_listener(
            lambda occurrence: fed_seqs.append(occurrence.seq))
        committed: list[int] = []        # seqs of committed feeds
        covered: dict[int, int] = {}     # writer tx id -> seq due
        errors: list[BaseException] = []

        def feeder():
            session = db.create_session("feeder")
            try:
                for __ in range(feeds):
                    with session.transaction():
                        session.signal("dur-a")
                    committed.append(fed_seqs[-1])
            except BaseException as exc:
                errors.append(exc)

        def writer():
            session = db.create_session()
            try:
                for __ in range(writes):
                    with session.transaction() as tx:
                        session.persist(Ledger())
                        covered[tx.id] = max(committed, default=0)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=feeder)] + [
            threading.Thread(target=writer) for __ in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Quiescent: the last writer's force put everything it covers on
        # disk; what a power cut now preserves is this image.
        shutil.copytree(live, image)
        db.close()

        watermark = 0
        checked = 0
        log = (image / StorageManager.LOG_FILE).read_bytes()
        for record in parse_wal_prefix(log):
            if record.type is LogRecordType.COMPOSER_CHECKPOINT:
                watermark = record.payload["watermark"]
            elif record.type is LogRecordType.COMMIT and \
                    record.tx_id in covered:
                assert watermark >= covered[record.tx_id], record.tx_id
                checked += 1
        assert checked == writes * writers

        db = self._open(image, fired)
        stats = db.composer_stats()
        [entry] = stats["composers"]
        assert db.statistics()["wal"]["composer_restores"] == 1
        assert entry["restored_watermark"] == watermark
        assert stats["pending_semi_composed"] == sum(
            1 for seq in fed_seqs if seq <= watermark)
        db.close()

    def test_applied_payloads_are_released(self, tmp_path):
        """A restored key leaves the recovered stash; a key whose rule is
        not registered yet is carried through a storage checkpoint."""
        fired: list[int] = []
        other: list[int] = []
        db = self._open(tmp_path, fired)
        db.rule("other", self.OTHER, action=lambda ctx: other.append(1),
                coupling=CouplingMode.DETACHED)
        with db.transaction():
            db.signal("dur-a")
            db.signal("dur-x")
        _crash(db)

        db = self._open(tmp_path, fired)
        recovered = db.events.recovered_composer_state
        assert self.SPEC.key() not in recovered
        assert self.OTHER.key() in recovered
        assert db.statistics()["wal"]["composer_checkpoints_recovered"] >= 2
        db.checkpoint()
        _crash(db)

        db = self._open(tmp_path, fired)
        db.rule("other", self.OTHER, action=lambda ctx: other.append(1),
                coupling=CouplingMode.DETACHED)
        assert db.events.recovered_composer_state == {}
        with db.transaction():
            db.signal("dur-b")
            db.signal("dur-y")
        db.drain_detached()
        assert fired == [2] and other == [1]
        db.close()

    def test_half_match_completes_exactly_once_across_crash(self, tmp_path):
        fired: list[int] = []
        db = self._open(tmp_path, fired)
        with db.transaction():
            db.signal("dur-a")
        db.drain_detached()
        assert fired == []  # half-matched, nothing to fire yet
        db.storage.flush()
        assert db.statistics()["wal"]["composer_checkpoints_written"] >= 1
        _crash(db)

        db = self._open(tmp_path, fired)
        assert db.statistics()["wal"]["composer_restores"] == 1
        stats = db.composer_stats()
        assert stats["half_matched_groups"] >= 1
        assert stats["last_checkpoint_lsn"] > 0
        with db.transaction():
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2], "recovered half-match must fire exactly once"

        # A refeed of the terminator alone must find nothing: the
        # restored initiator was consumed by the completion.
        with db.transaction():
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2]
        _crash(db)

        # Third incarnation: the completed state is durable too — no
        # resurrection of the consumed half-match.
        db = self._open(tmp_path, fired)
        with db.transaction():
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2]
        db.close()

    def test_corrupt_checkpoint_falls_back_and_is_counted(self, tmp_path):
        fired: list[int] = []
        db = self._open(tmp_path, fired)
        with db.transaction():
            db.signal("dur-a")
        db.drain_detached()
        _crash(db)

        # Append a well-framed COMPOSER_CHECKPOINT from "the future":
        # CRC-valid, so lenient recovery keeps it in the consistent
        # prefix, but its version is unknown so restore must fall back
        # to the previous consistent checkpoint underneath it.
        bogus = LogRecord(
            LogRecordType.COMPOSER_CHECKPOINT, tx_id=0, lsn=1 << 30,
            payload={"v": 99, "key": self.SPEC.key(),
                     "watermark": 0, "groups": []}).encode()
        with open(os.path.join(str(tmp_path), StorageManager.LOG_FILE),
                  "ab") as handle:
            handle.write(_FRAME.pack(len(bogus), zlib.crc32(bogus)) + bogus)

        db = self._open(tmp_path, fired)
        wal = db.statistics()["wal"]
        assert wal["composer_checkpoint_fallbacks"] >= 1
        assert wal["composer_restores"] == 1
        assert db.statistics()["wal"]["composer_checkpoint_fallbacks"] >= 1
        with db.transaction():
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2], (
            "fallback must land on the half-matched checkpoint")
        db.close()

    def test_stats_surfaces_expose_durable_detection_state(self, tmp_path):
        fired: list[int] = []
        db = self._open(tmp_path, fired)
        with db.transaction():
            db.signal("dur-a")
        db.drain_detached()
        db.storage.flush()

        wal = db.statistics()["wal"]
        for key in ("recovery_truncations", "unknown_records_skipped",
                    "composer_checkpoints_written",
                    "last_composer_checkpoint_lsn",
                    "composer_checkpoint_fallbacks", "composer_restores",
                    "composer_checkpoints_emitted"):
            assert key in wal, key

        stats = db.composer_stats()
        assert stats["half_matched_groups"] >= 1
        assert stats["pending_semi_composed"] >= 1
        assert stats["checkpoints_written"] >= 1
        assert stats["last_checkpoint_lsn"] > 0
        [entry] = stats["composers"]
        assert entry["scope"] == EventScope.MULTI_TX.value
        assert entry["policy"] == ConsumptionPolicy.CHRONICLE.value
        db.close()


    def test_composer_stats_walks_each_composer_once(self, tmp_path):
        """Each composer's pending count is read once per call, so the
        totals are the sum of the rows even during a concurrent feed."""
        fired: list[int] = []
        db = self._open(tmp_path, fired)
        db.rule("dur-other", self.OTHER, action=lambda ctx: None,
                coupling=CouplingMode.DETACHED)
        with db.transaction():
            db.signal("dur-a")
            db.signal("dur-x")
        walks: dict[str, int] = {}
        for manager in db.events.composite_managers():
            composer = manager.composer

            def counted(__walk=composer.pending_count, __name=composer.name):
                walks[__name] = walks.get(__name, 0) + 1
                return __walk()

            composer.pending_count = counted
        stats = db.composer_stats()
        assert len(walks) == 2
        assert set(walks.values()) == {1}
        assert stats["pending_semi_composed"] == sum(
            row["pending"] for row in stats["composers"]) >= 2
        db.close()
