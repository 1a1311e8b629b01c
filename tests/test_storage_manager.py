"""Storage manager: transactional durability, recovery, fragmentation."""

import os
import pathlib
import shutil
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.crash_torture import wal_record_boundaries
from repro.errors import RecordNotFoundError, StorageError
from repro.oodb.oid import OID
from repro.storage.buffer import PageFile
from repro.storage.pages import MAX_RECORD_SIZE, Page
from repro.storage.replication import ReadReplica
from repro.storage.serializer import serialize
from repro.storage.storage_manager import _FRAG_HEADER, StorageManager
from repro.storage.wal import _FRAME


@pytest.fixture
def store(tmp_path):
    sm = StorageManager(str(tmp_path / "store"))
    yield sm
    sm.close()


class TestTransactionalProtocol:
    def test_committed_write_is_readable(self, store):
        store.begin(1)
        store.write(1, OID(5), b"value")
        store.commit(1)
        assert store.read(None, OID(5)) == b"value"

    def test_uncommitted_write_visible_only_to_owner(self, store):
        store.begin(1)
        store.write(1, OID(5), b"mine")
        assert store.read(1, OID(5)) == b"mine"
        with pytest.raises(RecordNotFoundError):
            store.read(None, OID(5))
        store.commit(1)

    def test_abort_discards_writes(self, store):
        store.begin(1)
        store.write(1, OID(5), b"gone")
        store.abort(1)
        assert not store.exists(None, OID(5))

    def test_update_replaces_image(self, store):
        store.begin(1)
        store.write(1, OID(5), b"v1")
        store.commit(1)
        store.begin(2)
        store.write(2, OID(5), b"v2")
        store.commit(2)
        assert store.read(None, OID(5)) == b"v2"

    def test_delete_removes_object(self, store):
        store.begin(1)
        store.write(1, OID(5), b"v")
        store.commit(1)
        store.begin(2)
        store.delete(2, OID(5))
        store.commit(2)
        assert not store.exists(None, OID(5))

    def test_delete_in_tx_hides_from_owner(self, store):
        store.begin(1)
        store.write(1, OID(5), b"v")
        store.commit(1)
        store.begin(2)
        store.delete(2, OID(5))
        with pytest.raises(RecordNotFoundError):
            store.read(2, OID(5))
        store.abort(2)
        assert store.read(None, OID(5)) == b"v"

    def test_delete_of_missing_object_raises(self, store):
        store.begin(1)
        with pytest.raises(RecordNotFoundError):
            store.delete(1, OID(99))
        store.abort(1)

    def test_double_begin_rejected(self, store):
        store.begin(1)
        with pytest.raises(StorageError):
            store.begin(1)
        store.abort(1)

    def test_operations_require_active_tx(self, store):
        with pytest.raises(StorageError):
            store.write(42, OID(1), b"x")


class TestRecovery:
    def test_crash_before_commit_loses_nothing_committed(self, tmp_path):
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(2), b"durable")
        sm.commit(1)
        sm.begin(2)
        sm.write(2, OID(3), b"in-flight")
        sm.crash()
        recovered = StorageManager(path)
        assert recovered.read(None, OID(2)) == b"durable"
        assert not recovered.exists(None, OID(3))
        recovered.close()

    def test_crash_after_commit_before_page_flush_redoes(self, tmp_path):
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(2), b"A" * 5000)   # multi-fragment record
        sm.commit(1)
        sm.crash()  # dirty pages dropped, but the commit record is durable
        recovered = StorageManager(path)
        assert recovered.read(None, OID(2)) == b"A" * 5000
        recovered.close()

    def test_recovery_replays_deletes(self, tmp_path):
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(2), b"short-lived")
        sm.commit(1)
        sm.flush()
        sm.begin(2)
        sm.delete(2, OID(2))
        sm.commit(2)
        sm.crash()
        recovered = StorageManager(path)
        assert not recovered.exists(None, OID(2))
        recovered.close()

    def test_checkpoint_then_restart(self, tmp_path):
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(2), b"checkpointed")
        sm.commit(1)
        sm.checkpoint()
        sm.close()
        recovered = StorageManager(path)
        assert recovered.read(None, OID(2)) == b"checkpointed"
        recovered.close()

    def test_unwritten_page_inside_the_file_reads_as_new(self, tmp_path):
        # Page 1 is written back by eviction while page 0 stays resident,
        # so the crash leaves page 0 as a hole of zeros below page 1.
        path = str(tmp_path / "store")
        sm = StorageManager(path, buffer_capacity=2)
        for tx_id in (1, 2, 3):
            if tx_id == 3:
                assert sm.read(None, OID(1)) == b"1" * 3_000
            sm.begin(tx_id)
            sm.write(tx_id, OID(tx_id), str(tx_id).encode() * 3_000)
            sm.commit(tx_id)
        sm.crash()
        recovered = StorageManager(path)
        got = {oid.value: recovered.read(None, oid)
               for oid in recovered.iter_oids()}
        recovered.close()
        assert got == {v: str(v).encode() * 3_000 for v in (1, 2, 3)}

    @pytest.mark.parametrize("fault", ["duplicate", "missing"])
    def test_broken_fragment_set_no_record_covers_is_rejected(
            self, tmp_path, fault):
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(1), b"x" * (2 * MAX_RECORD_SIZE))  # 3 fragments
        sm.commit(1)
        sm.checkpoint()  # empties the log: no record covers OID 1
        sm.close()
        page_file = PageFile(os.path.join(path, StorageManager.DATA_FILE))
        for page_id in range(page_file.page_count()):
            page = Page(page_id, page_file.read_page(page_id))
            for slot, record in list(page.iter_records()):
                oid_value, seq, total = _FRAG_HEADER.unpack_from(record)
                if seq != 1:
                    continue
                if fault == "duplicate":  # seqs 0, 0, 2: three of three
                    page.update(slot, _FRAG_HEADER.pack(oid_value, 0, total)
                                + record[_FRAG_HEADER.size:])
                else:
                    page.delete(slot)
                page_file.write_page(page_id, page.to_bytes())
        page_file.close()
        with pytest.raises(StorageError):
            StorageManager(path)

    def test_torn_multi_op_commit_frame_recovers_none_of_its_ops(
            self, tmp_path):
        """A COMMIT frame cut anywhere by the crash takes every one of
        its operations with it: none is redone on its own."""
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(1), b"one-0")
        sm.write(1, OID(3), b"three-0")
        sm.commit(1)
        sm.flush()
        log_path = os.path.join(path, StorageManager.LOG_FILE)
        frame_start = os.path.getsize(log_path)
        sm.begin(2)                        # update, insert, delete, big image
        sm.write(2, OID(1), b"one-1")
        sm.write(2, OID(2), b"two-0")
        sm.delete(2, OID(3))
        sm.write(2, OID(4), b"four" * 2_000)
        sm.commit(2)
        sm.crash()
        sm.close()
        with open(log_path, "rb") as fh:
            image = fh.read()
        assert len(wal_record_boundaries(image[frame_start:])) == 2
        for cut in (frame_start + 3, frame_start + 8, frame_start + 100,
                    len(image) - 1):
            directory = str(tmp_path / f"cut-{cut}")
            shutil.copytree(path, directory)
            with open(os.path.join(directory, StorageManager.LOG_FILE),
                      "wb") as fh:
                fh.write(image[:cut])
            recovered = StorageManager(directory)
            try:
                assert recovered.read(None, OID(1)) == b"one-0"
                assert recovered.read(None, OID(3)) == b"three-0"
                assert not recovered.exists(None, OID(2))
                assert not recovered.exists(None, OID(4))
            finally:
                recovered.close()
        recovered = StorageManager(path)   # the whole frame: all redone
        try:
            assert recovered.read(None, OID(1)) == b"one-1"
            assert recovered.read(None, OID(2)) == b"two-0"
            assert not recovered.exists(None, OID(3))
            assert recovered.read(None, OID(4)) == b"four" * 2_000
        finally:
            recovered.close()

    def test_log_in_the_per_operation_format_is_refused(self, tmp_path):
        """A log of one record per operation (BEGIN, INSERT, UPDATE,
        DELETE, ABORT, COMMIT) is refused whole: recovery raises before
        it touches the data file or the log, and a replica refuses it
        too, so none of its committed data is skipped."""
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(1), b"checkpointed")
        sm.commit(1)
        sm.checkpoint()
        sm.close()

        def frame(tag, tx_id, lsn, oid_value=0, after=None):
            payload = serialize({"t": tag, "x": tx_id, "l": lsn,
                                 "o": oid_value, "a": after, "p": {}})
            return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

        log_path = os.path.join(path, StorageManager.LOG_FILE)
        data_path = os.path.join(path, StorageManager.DATA_FILE)
        with open(log_path, "wb") as fh:
            fh.write(frame("checkpoint", 0, 10)
                     + frame("begin", 2, 11)
                     + frame("update", 2, 12, 1, b"committed-update")
                     + frame("insert", 2, 13, 5, b"committed-insert")
                     + frame("commit", 2, 14)
                     + frame("begin", 3, 15)
                     + frame("delete", 3, 16, 1)
                     + frame("abort", 3, 17))
        files = [pathlib.Path(p) for p in (log_path, data_path)]
        before = [f.read_bytes() for f in files]
        with pytest.raises(StorageError, match="recover and checkpoint"):
            StorageManager(path)
        assert [f.read_bytes() for f in files] == before
        replica = ReadReplica(path, str(tmp_path / "replica"))
        try:
            with pytest.raises(StorageError,
                               match="recover and checkpoint"):
                replica.poll()
        finally:
            replica.close()

    def test_checkpoint_with_active_tx_rejected(self, store):
        store.begin(1)
        with pytest.raises(StorageError):
            store.checkpoint()
        store.abort(1)


class TestInPlaceUpdate:
    def test_grown_fragment_that_no_longer_fits_is_relocated(self, tmp_path):
        path = str(tmp_path / "store")
        sm = StorageManager(path)
        sm.begin(1)
        sm.write(1, OID(5), b"a" * 1_500)
        sm.write(1, OID(6), b"b" * 2_000)
        sm.commit(1)
        assert sm.stats()["pages"] == 1
        sm.begin(2)
        sm.write(2, OID(5), b"c" * 3_000)
        sm.commit(2)
        assert sm.stats()["pages"] == 2
        assert sm.read(None, OID(5)) == b"c" * 3_000
        sm.close()
        reopened = StorageManager(path)
        assert reopened.read(None, OID(5)) == b"c" * 3_000
        assert reopened.read(None, OID(6)) == b"b" * 2_000
        reopened.close()


class TestFragmentation:
    def test_large_object_spans_pages(self, store):
        blob = bytes(range(256)) * 64  # 16 KiB > one page
        assert len(blob) > MAX_RECORD_SIZE
        store.begin(1)
        store.write(1, OID(9), blob)
        store.commit(1)
        assert store.read(None, OID(9)) == blob
        assert store.stats()["pages"] >= 4

    def test_shrinking_update_reclaims_fragments(self, store):
        store.begin(1)
        store.write(1, OID(9), b"z" * 20000)
        store.commit(1)
        store.begin(2)
        store.write(2, OID(9), b"tiny")
        store.commit(2)
        assert store.read(None, OID(9)) == b"tiny"

    def test_empty_image_round_trips(self, store):
        store.begin(1)
        store.write(1, OID(4), b"")
        store.commit(1)
        assert store.read(None, OID(4)) == b""


class TestIntrospection:
    def test_iter_and_max_oid(self, store):
        store.begin(1)
        for value in (3, 8, 5):
            store.write(1, OID(value), b"x")
        store.commit(1)
        assert [oid.value for oid in store.iter_oids()] == [3, 5, 8]
        assert store.max_oid_value() == 8
        assert store.object_count() == 3


@st.composite
def _history(draw):
    ops = []
    for __ in range(draw(st.integers(min_value=1, max_value=15))):
        commit = draw(st.booleans())
        writes = draw(st.lists(
            st.tuples(st.integers(min_value=1, max_value=6),
                      st.binary(min_size=0, max_size=200)),
            min_size=1, max_size=4))
        ops.append((commit, writes))
    return ops


@st.composite
def _same_size_history(draw):
    """Commit/abort histories in which each object keeps one image size
    that fits a single fragment, so every update can stay in place."""
    sizes = draw(st.lists(st.integers(min_value=0, max_value=3_600),
                          min_size=12, max_size=12))
    ops = []
    for __ in range(draw(st.integers(min_value=1, max_value=20))):
        commit = draw(st.booleans())
        writes = [(oid_value, bytes([draw(st.integers(0, 255))])
                   * sizes[oid_value - 1])
                  for oid_value in draw(st.lists(
                      st.integers(min_value=1, max_value=12),
                      min_size=1, max_size=4))]
        ops.append((commit, writes))
    return ops


@st.composite
def _resized_history(draw):
    """Commit/abort histories whose every write draws a new size, from
    one byte to three pages: records move between pages and fragment
    counts change.  A ``None`` payload deletes the object."""
    ops = []
    for __ in range(draw(st.integers(min_value=1, max_value=14))):
        commit = draw(st.booleans())
        writes = draw(st.lists(
            st.tuples(st.integers(min_value=1, max_value=8),
                      st.one_of(
                          st.none(),
                          st.builds(lambda size, byte: bytes([byte]) * size,
                                    st.integers(1, 12_000),
                                    st.integers(0, 255)))),
            min_size=1, max_size=4))
        ops.append((commit, writes))
    return ops


def _replay(sm, history) -> dict[int, bytes]:
    """Run ``history`` against ``sm``; returns the committed model.  A
    ``None`` payload deletes the object if it exists at that point."""
    model: dict[int, bytes] = {}
    for tx_id, (commit, writes) in enumerate(history, start=1):
        sm.begin(tx_id)
        staged: dict[int, bytes | None] = {}
        for oid_value, payload in writes:
            if payload is None:
                if staged.get(oid_value, model.get(oid_value)) is None:
                    continue
                sm.delete(tx_id, OID(oid_value))
            else:
                sm.write(tx_id, OID(oid_value), payload)
            staged[oid_value] = payload
        if commit:
            sm.commit(tx_id)
            model.update(staged)
        else:
            sm.abort(tx_id)
    return {oid: image for oid, image in model.items() if image is not None}


def _recovered(tmp_path_factory, history, **storage_args):
    """Replay ``history``, crash and reopen; returns the committed model
    and the recovered state."""
    path = str(tmp_path_factory.mktemp("sm") / "store")
    sm = StorageManager(path, **storage_args)
    model = _replay(sm, history)
    sm.crash()
    recovered = StorageManager(path)
    got = {oid.value: recovered.read(None, oid)
           for oid in recovered.iter_oids()}
    recovered.close()
    return model, got


class TestRecoveryProperty:
    @given(_history())
    @settings(max_examples=30, deadline=None)
    def test_recovered_state_equals_committed_model(self, tmp_path_factory,
                                                    history):
        model, got = _recovered(tmp_path_factory, history)
        assert got == model

    @given(_same_size_history())
    @settings(max_examples=60, deadline=None)
    def test_same_size_updates_recover_after_steal(self, tmp_path_factory,
                                                   history):
        # Two frames force committed pages to disk between commits, so
        # recovery starts from a page file newer than the last checkpoint.
        model, got = _recovered(tmp_path_factory, history, buffer_capacity=2)
        assert got == model

    @given(_resized_history())
    @settings(max_examples=60, deadline=None)
    def test_relocated_and_multi_fragment_records_recover_after_steal(
            self, tmp_path_factory, history):
        # With two frames, a record that moved, or an image split over
        # pages, can reach disk in part before the crash.
        model, got = _recovered(tmp_path_factory, history, buffer_capacity=2)
        assert got == model
