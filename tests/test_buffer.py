"""Buffer pool: pinning, eviction, LRU behaviour, WAL discipline."""

import pytest

from repro.errors import StorageError
from repro.oodb.oid import OID
from repro.storage.buffer import BufferPool, PageFile
from repro.storage.pages import PAGE_SIZE
from repro.storage.storage_manager import StorageManager
from repro.storage.wal import LogRecordType


@pytest.fixture
def page_file(tmp_path):
    pf = PageFile(str(tmp_path / "data.pages"))
    yield pf
    pf.close()


class TestPageFile:
    def test_missing_page_reads_none(self, page_file):
        assert page_file.read_page(0) is None

    def test_write_read_round_trip(self, page_file):
        image = bytes(range(256)) * (PAGE_SIZE // 256)
        page_file.write_page(3, image)
        assert page_file.read_page(3) == image
        assert page_file.page_count() == 4

    def test_wrong_size_write_rejected(self, page_file):
        with pytest.raises(StorageError):
            page_file.write_page(0, b"short")


class TestBufferPool:
    def test_create_and_fetch(self, page_file):
        pool = BufferPool(page_file, capacity=4)
        page = pool.fetch(0, create=True)
        page.insert(b"hello")
        pool.unpin(0, dirty=True)
        again = pool.fetch(0)
        assert again.read(0) == b"hello"
        pool.unpin(0)

    def test_fetch_missing_without_create_raises(self, page_file):
        pool = BufferPool(page_file, capacity=4)
        with pytest.raises(StorageError):
            pool.fetch(9)

    def test_hits_and_misses_are_counted(self, page_file):
        pool = BufferPool(page_file, capacity=4)
        pool.fetch(0, create=True)
        pool.unpin(0)
        pool.fetch(0)
        pool.unpin(0)
        assert pool.misses == 1
        assert pool.hits == 1

    def test_eviction_writes_dirty_page(self, page_file):
        pool = BufferPool(page_file, capacity=2)
        page = pool.fetch(0, create=True)
        page.insert(b"persist me")
        pool.unpin(0, dirty=True)
        for page_id in (1, 2, 3):
            pool.fetch(page_id, create=True)
            pool.unpin(page_id)
        assert pool.evictions >= 1
        # The dirty frame reached disk even though flush was never called.
        raw = page_file.read_page(0)
        assert raw is not None and b"persist me" in raw

    def test_pinned_pages_are_not_evicted(self, page_file):
        pool = BufferPool(page_file, capacity=2)
        pool.fetch(0, create=True)  # stays pinned
        pool.fetch(1, create=True)
        pool.unpin(1)
        pool.fetch(2, create=True)  # evicts page 1, not pinned page 0
        assert pool.resident_page_count == 2
        page = pool.fetch(0)  # still resident: a hit
        assert pool.hits >= 1

    def test_all_pinned_exhausts_pool(self, page_file):
        pool = BufferPool(page_file, capacity=2)
        pool.fetch(0, create=True)
        pool.fetch(1, create=True)
        with pytest.raises(StorageError):
            pool.fetch(2, create=True)

    def test_unpin_unknown_page_raises(self, page_file):
        pool = BufferPool(page_file, capacity=2)
        with pytest.raises(StorageError):
            pool.unpin(5)

    def test_wal_rule_flushes_log_before_page(self, tmp_path, monkeypatch):
        """The WAL rule, checked by what happens: with one buffer frame,
        evictions write pages between and inside commits, and at every
        page write the log is durable up to the COMMIT frame of every
        transaction already applied to pages."""
        sm = StorageManager(str(tmp_path / "store"), buffer_capacity=1)
        wal = sm._wal
        commits, applied, written = [], [], []
        append, apply, write_page = wal.append, sm._apply, PageFile.write_page

        def logged_append(record):
            lsn = append(record)
            if record.type is LogRecordType.COMMIT:
                commits.append(lsn)
            return lsn

        def logged_apply(operations):
            applied.append(commits[-1])    # one committer: the last COMMIT
            apply(operations)

        def checked_write_page(page_file, page_id, data):
            if applied:
                assert wal.flushed_lsn >= applied[-1]
            written.append(page_id)
            write_page(page_file, page_id, data)

        monkeypatch.setattr(wal, "append", logged_append)
        monkeypatch.setattr(sm, "_apply", logged_apply)
        monkeypatch.setattr(PageFile, "write_page", checked_write_page)
        try:
            for tx in range(1, 51):
                sm.begin(tx)
                for oid_value in {tx % 9, tx * 5 % 9}:
                    sm.write(tx, OID(oid_value + 1), bytes([tx]) * 1_200)
                sm.commit(tx)
            assert len(applied) == 50
            assert len(written) >= 50      # evictions, not one final flush
        finally:
            sm.close()

    def test_drop_all_simulates_crash(self, page_file):
        pool = BufferPool(page_file, capacity=4)
        page = pool.fetch(0, create=True)
        page.insert(b"volatile")
        pool.unpin(0, dirty=True)
        pool.drop_all()
        assert pool.resident_page_count == 0
        assert page_file.read_page(0) is None  # never written
