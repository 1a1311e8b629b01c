"""Crash-durable composite-event detection.

Three layers of coverage for the COMPOSER_CHECKPOINT protocol:

* a hypothesis property — for random operator trees, policies, and
  primitive streams, crashing at a random prefix (snapshot the composer,
  round-trip the payload through the storage serializer exactly as the
  WAL does, restore into a fresh composer) and feeding the suffix must
  produce the same emissions as the uninterrupted reference evaluator
  from ``test_algebra_properties`` — never a duplicate, never a
  forgotten half-match, for all four SNOOP policies and both scopes;
* engine-level reopen tests — a half-matched multi-transaction sequence
  survives a real crash (flush + torn close), completes exactly once in
  the next incarnation, and does not complete again on a refeed; a
  corrupt (future-versioned) checkpoint frame falls back to the previous
  consistent checkpoint and is counted;
* round-trip pins — cross-shard frozenset group keys and restored ghost
  transaction ids survive the snapshot codec.
"""

from __future__ import annotations

import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ReachEngine
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

        _feed_and_compare(recovered, reference, occurrences[split:], split)


class TestSnapshotCodecPins:
    def test_frozenset_group_key_survives_round_trip(self):
        """Cross-shard groups key on the member-id frozenset; the codec
        must rebuild the exact key so on_group_end can still sweep it."""
        spec = Sequence(A, B).consumed(ConsumptionPolicy.CHRONICLE)
        group = frozenset({7, 11})
        live = Composer(spec)
        assert live.feed(EventOccurrence(
            A, A.category(), 0.0, tx_ids=group)) == []

        recovered = Composer(
            Sequence(A, B).consumed(ConsumptionPolicy.CHRONICLE))
        recovered.restore_state(deserialize(serialize(
            live.snapshot_state())))
        assert group in recovered.groups()
        assert recovered.restored_tx_ids == group

        emitted = recovered.feed(EventOccurrence(
            B, B.category(), 1.0, tx_ids=group))
        assert len(emitted) == 1
        assert len(emitted[0].all_primitive_components()) == 2
        assert recovered.on_group_end(group) == 0  # consumed, nothing left

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


class TestEngineReopen:
    """The full stack: commit boundaries cut checkpoints into the WAL,
    recovery rebuilds the half-matched state, ghost transactions are
    seeded so detached composites can still fire."""

    SPEC = (Sequence(SignalEventSpec("dur-a"), SignalEventSpec("dur-b"))
            .consumed(ConsumptionPolicy.CHRONICLE)
            .scoped(EventScope.MULTI_TX).within(1e9))

    def _open(self, path, fired):
        db = ReachEngine(directory=str(path))
        db.rule("dur-rule", self.SPEC,
                action=lambda ctx: fired.append(
                    len(ctx.event.all_primitive_components())),
                coupling=CouplingMode.DETACHED)
        return db

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
