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
  checkpoint is forced with the commit that acknowledged it; an open
  single-transaction half-match is never restored; a corrupt
  (future-versioned) checkpoint frame falls back to the previous
  consistent checkpoint and is counted;
* codec pins — a single-transaction snapshot carries no group, and a
  restore accepts only the global group.
"""

from __future__ import annotations

import os
import shutil
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ReachEngine, sentried
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
    """The full stack: top-level EOTs cut checkpoints into the WAL,
    recovery rebuilds the half-matched state, pre-crash transactions are
    seeded so detached composites can still fire."""

    SPEC = (Sequence(SignalEventSpec("dur-a"), SignalEventSpec("dur-b"))
            .consumed(ConsumptionPolicy.CHRONICLE)
            .scoped(EventScope.MULTI_TX).within(1e9))
    OTHER = (Sequence(SignalEventSpec("dur-x"), SignalEventSpec("dur-y"))
             .consumed(ConsumptionPolicy.CHRONICLE)
             .scoped(EventScope.MULTI_TX).within(1e9))
    SINGLE_TX = Sequence(SignalEventSpec("dur-a"), SignalEventSpec("dur-b"))

    def _open(self, path, fired, spec=SPEC):
        db = ReachEngine(directory=str(path))
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
        assert db.wal_statistics()["composer_restores"] == 1
        with db.transaction():
            db.signal("dur-b")
        db.drain_detached()
        assert fired == [2]
        db.close()

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
        composite: one composer checkpoint per commit, the multi-tx one."""
        fired: list[int] = []
        db = self._open(tmp_path, fired, spec=self.SINGLE_TX)
        db.rule("multi", self.OTHER, action=lambda ctx: None,
                coupling=CouplingMode.DETACHED)
        written = db.statistics()["wal"]["composer_checkpoints_written"]
        for __ in range(5):
            with db.transaction():
                db.signal("dur-a")
                db.signal("dur-x")
        assert db.statistics()["wal"][
            "composer_checkpoints_written"] - written == 5
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
        assert db.wal_statistics()["composer_checkpoints_recovered"] >= 2
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
        assert db.wal_statistics()["composer_checkpoints_written"] >= 1
        _crash(db)

        db = self._open(tmp_path, fired)
        assert db.wal_statistics()["composer_restores"] == 1
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
        wal = db.wal_statistics()
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
