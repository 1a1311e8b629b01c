"""Crash-point recovery torture: every WAL record boundary (and a set of
mid-record torn tails) is a crash the database must recover from with
winners replayed, losers absent, and allocator/index state consistent."""

from repro.bench.crash_torture import (
    parse_wal_prefix,
    run_composer_torture,
    run_database_torture,
    run_replica_torture,
    run_storage_torture,
    torn_offsets,
    wal_record_boundaries,
)
from repro.obs.flight import load_dump
from repro.oodb.oid import OID
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import LogRecordType


class TestWalImageAnalysis:
    def _image(self, tmp_path):
        sm = StorageManager(str(tmp_path / "img"))
        sm.begin(1)
        sm.write(1, OID(5), b"x" * 100)
        sm.commit(1)
        sm.flush()
        with open(str(tmp_path / "img" / StorageManager.LOG_FILE),
                  "rb") as fh:
            return fh.read()

    def test_boundaries_cover_the_whole_image(self, tmp_path):
        image = self._image(tmp_path)
        boundaries = wal_record_boundaries(image)
        assert boundaries[0] == 0
        assert boundaries[-1] == len(image)
        assert boundaries == sorted(set(boundaries))

    def test_parse_round_trips_every_record(self, tmp_path):
        image = self._image(tmp_path)
        records = parse_wal_prefix(image)
        # bootstrap CHECKPOINT + one COMMIT carrying the insert
        types = [r.type for r in records]
        assert types == [LogRecordType.CHECKPOINT, LogRecordType.COMMIT]
        assert list(records[-1].ops) == [(5, b"x" * 100)]
        assert len(records) == len(wal_record_boundaries(image)) - 1

    def test_torn_offsets_fall_strictly_inside_records(self, tmp_path):
        image = self._image(tmp_path)
        boundaries = wal_record_boundaries(image)
        for cut in torn_offsets(boundaries):
            assert cut not in boundaries
            assert 0 < cut < len(image)


class TestStorageTorture:
    def test_every_cut_recovers_consistently(self, tmp_path):
        report = run_storage_torture(str(tmp_path))
        # Workload shape: enough winners and losers that prefixes differ.
        assert report.total_winners >= 2
        assert report.total_losers >= 2
        # Every record boundary was a crash point, plus torn tails.
        assert report.boundary_cuts >= 10
        assert report.torn_cuts >= 10
        # Cuts must span the whole range of winner counts.
        winner_counts = {cut.winners for cut in report.cuts}
        assert 0 in winner_counts
        assert report.total_winners in winner_counts

    def test_crash_dumps_a_flight_record_matching_the_wal(self, tmp_path):
        """The simulated crash must leave a readable flight dump whose
        last recorded WAL force names the recovered log's final LSN."""
        report = run_storage_torture(str(tmp_path))
        assert report.flight_dump_path is not None
        assert report.flight_lsn_matches is True
        header, records = load_dump(report.flight_dump_path)
        assert header["reason"] == "crash"
        assert records, "crash dump must retain ring contents"
        categories = {r["category"] for r in records}
        assert "wal.flush" in categories
        assert records[-1]["category"] == "storage.crash"
        # seq strictly increases: the ring preserved record order.
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)


class TestDatabaseTorture:
    def test_every_cut_recovers_consistently(self, tmp_path):
        report = run_database_torture(str(tmp_path))
        assert report.total_winners >= 2
        assert report.total_losers >= 2
        assert report.boundary_cuts >= 10
        assert report.torn_cuts >= 10
        winner_counts = {cut.winners for cut in report.cuts}
        assert 0 in winner_counts
        assert report.total_winners in winner_counts

    def test_engine_flight_recorder_survives_the_crash(self, tmp_path):
        """The full database's own (always-on) flight recorder dumps at
        the simulated crash, and its WAL story matches recovery's."""
        report = run_database_torture(str(tmp_path))
        assert report.flight_dump_path is not None
        assert report.flight_lsn_matches is True
        __, records = load_dump(report.flight_dump_path)
        categories = {r["category"] for r in records}
        # A database workload leaves richer happenings than raw storage.
        assert "wal.flush" in categories
        assert "storage.crash" in categories


class TestReplicaTorture:
    def test_replica_recovers_exactly_the_acked_prefix(self, tmp_path):
        """Kill the primary mid-batch (ISSUE 7): a replica tailing the
        surviving log — and one per crash-cut prefix — must show exactly
        the acked transactions: none lost, no phantom loser applied.
        The assertions proper live inside ``run_replica_torture``; what
        is pinned here is that the workload actually exercised the
        interesting regime."""
        report = run_replica_torture(str(tmp_path))
        assert report.total_winners >= 2
        assert report.total_losers >= 2
        # Commits genuinely shared fsyncs, so cuts land mid-batch.
        assert report.max_commit_batch_observed >= 2
        assert report.boundary_cuts >= 10
        assert report.torn_cuts >= 10
        winner_counts = {cut.winners for cut in report.cuts}
        assert 0 in winner_counts          # pre-first-commit cuts
        assert report.total_winners in winner_counts   # full-log cuts


class TestComposerTorture:
    def test_every_mid_composition_cut_recovers_exactly_once(self, tmp_path):
        """Kill the engine between the Nth and N+1th constituent of every
        algebra operator under every SNOOP policy (ISSUE 8): the
        recovered composer, fed the rest of the stream, must fire
        exactly what the uninterrupted oracle predicts — never a
        duplicate, never a forgotten half-match.  The per-cut assertions
        live inside ``run_composer_torture``; what is pinned here is
        that the matrix actually exercised the interesting regime."""
        report = run_composer_torture(str(tmp_path))
        # 7 operator trees x 4 consumption policies.
        assert len(report.cases) == 28
        assert report.total_completions >= 28
        assert report.boundary_cuts >= 100
        assert report.torn_cuts >= 100
        # Commit boundaries really cut checkpoints...
        assert report.checkpoint_records_seen >= 28
        # ...and torn tails really landed *inside* checkpoint frames, so
        # lenient recovery fell back to the previous consistent one.
        assert report.checkpoint_torn_cuts >= 28
        for cut in report.cuts:
            assert cut.fired == cut.expected, cut
            assert 0 <= cut.covered <= cut.covered + cut.replayed
        # Cuts spanned the regimes: pre-first-checkpoint (nothing
        # covered), mid-composition, and fully-covered streams.
        covered = {cut.covered for cut in report.cuts}
        assert 0 in covered
        assert any(c > 0 for c in covered)
        assert any(cut.replayed > 0 and cut.covered > 0
                   for cut in report.cuts)
        # Replicas skip COMPOSER_CHECKPOINT frames rather than choking.
        assert report.replica_checkpoints_skipped >= 1
        # The crash ended the open cross-shard transaction: no group
        # graph comes back, and a fresh pair fires exactly once.
        assert report.sharded_restored_groups == 0
        assert report.sharded_recovered_fired == 1
