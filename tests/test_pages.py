"""Slotted pages: record operations, compaction, and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, PageFullError
from repro.storage.pages import MAX_RECORD_SIZE, PAGE_SIZE, Page


class TestBasicOperations:
    def test_insert_and_read(self):
        page = Page(0)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records_keep_distinct_slots(self):
        page = Page(0)
        slots = [page.insert(f"rec-{i}".encode()) for i in range(10)]
        assert len(set(slots)) == 10
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"rec-{i}".encode()

    def test_delete_frees_slot(self):
        page = Page(0)
        slot = page.insert(b"data")
        page.delete(slot)
        with pytest.raises(PageError):
            page.read(slot)

    def test_deleted_slot_is_reused(self):
        page = Page(0)
        first = page.insert(b"a")
        page.insert(b"b")
        page.delete(first)
        reused = page.insert(b"c")
        assert reused == first
        assert page.read(reused) == b"c"

    def test_update_in_place_when_smaller(self):
        page = Page(0)
        slot = page.insert(b"long record payload")
        page.update(slot, b"short")
        assert page.read(slot) == b"short"

    def test_update_grows_record(self):
        page = Page(0)
        slot = page.insert(b"tiny")
        page.update(slot, b"x" * 500)
        assert page.read(slot) == b"x" * 500

    def test_double_delete_raises(self):
        page = Page(0)
        slot = page.insert(b"once")
        page.delete(slot)
        with pytest.raises(PageError):
            page.delete(slot)

    def test_bad_slot_raises(self):
        page = Page(0)
        with pytest.raises(PageError):
            page.read(3)

    def test_oversized_record_rejected(self):
        page = Page(0)
        with pytest.raises(PageError):
            page.insert(b"x" * (MAX_RECORD_SIZE + 1))

    def test_max_record_fits_in_empty_page(self):
        page = Page(0)
        slot = page.insert(b"x" * MAX_RECORD_SIZE)
        assert page.read(slot) == b"x" * MAX_RECORD_SIZE

    def test_page_full_error(self):
        page = Page(0)
        page.insert(b"x" * MAX_RECORD_SIZE)
        with pytest.raises(PageFullError):
            page.insert(b"y")


class TestCompaction:
    def test_compaction_reclaims_holes(self):
        page = Page(0)
        big = b"x" * 1000
        slots = [page.insert(big) for __ in range(3)]
        page.delete(slots[1])
        # Without compaction the contiguous space cannot fit another big
        # record plus directory growth; insert triggers compaction.
        new_slot = page.insert(b"y" * 1000)
        assert page.read(new_slot) == b"y" * 1000
        assert page.read(slots[0]) == big
        assert page.read(slots[2]) == big

    def test_compaction_preserves_all_live_records(self):
        page = Page(0)
        slots = {page.insert(f"r{i}".encode() * 20): i for i in range(20)}
        for slot in list(slots)[::2]:
            page.delete(slot)
            del slots[slot]
        page.compact()
        for slot, i in slots.items():
            assert page.read(slot) == f"r{i}".encode() * 20


class TestPersistence:
    def test_round_trip_through_bytes(self):
        page = Page(3)
        slot_a = page.insert(b"alpha")
        slot_b = page.insert(b"beta")
        restored = Page(3, page.to_bytes())
        assert restored.read(slot_a) == b"alpha"
        assert restored.read(slot_b) == b"beta"

    def test_wrong_size_image_rejected(self):
        with pytest.raises(PageError):
            Page(0, b"short")

    def test_old_header_lsn_field_reads_and_is_written_as_zero(self):
        """Bytes 4..8 of the header once held a page LSN.  A page image
        with a value there still reads unchanged, and a rewrite stores
        0 in the field."""
        page = Page(0)
        slot = page.insert(b"kept")
        image = bytearray(page.to_bytes())
        assert image[4:8] == bytes(4)
        image[4:8] = (77).to_bytes(4, "big")
        old = Page(0, bytes(image))
        assert old.read(slot) == b"kept"
        old.insert(b"more")
        assert old.to_bytes()[4:8] == bytes(4)


@st.composite
def _operations(draw):
    ops = []
    for __ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(["insert", "delete", "update"]))
        payload = draw(st.binary(min_size=0, max_size=300))
        ops.append((kind, payload))
    return ops


class TestProperties:
    @given(_operations())
    @settings(max_examples=100)
    def test_page_matches_dict_model(self, operations):
        """The page behaves like a dict of slot -> bytes under a random
        sequence of inserts, deletes, and updates."""
        page = Page(0)
        model: dict[int, bytes] = {}
        for kind, payload in operations:
            if kind == "insert":
                try:
                    slot = page.insert(payload)
                except PageFullError:
                    continue
                model[slot] = payload
            elif kind == "delete" and model:
                slot = sorted(model)[0]
                page.delete(slot)
                del model[slot]
            elif kind == "update" and model:
                slot = sorted(model)[-1]
                try:
                    page.update(slot, payload)
                except PageFullError:
                    del model[slot]  # update() freed the slot first
                    continue
                model[slot] = payload
        assert dict(page.iter_records()) == model

    @given(_operations())
    @settings(max_examples=50)
    def test_serialization_round_trip_preserves_records(self, operations):
        page = Page(0)
        for kind, payload in operations:
            if kind == "insert":
                try:
                    page.insert(payload)
                except PageFullError:
                    break
        live = dict(page.iter_records())
        assert dict(Page(0, page.to_bytes()).iter_records()) == live
