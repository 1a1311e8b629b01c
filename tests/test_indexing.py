"""Index PM: active maintenance via events, transactional undo."""

import pytest

from repro import ReachEngine, sentried
from repro.errors import IndexError_


@sentried
class Device:
    def __init__(self, serial, zone):
        self.serial = serial
        self.zone = zone

    def move_to(self, zone):
        self.zone = zone


@pytest.fixture
def idb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "idb"))
    database.register_class(Device)
    yield database
    database.close()


def _oids(index, value):
    return index.lookup(value)


class TestMaintenance:
    def test_persist_inserts_into_index(self, idb):
        index = idb.create_index("Device", "zone")
        with idb.transaction():
            oid = idb.persist(Device("d1", "north"))
        assert _oids(index, "north") == {oid}

    def test_state_change_moves_entry(self, idb):
        index = idb.create_index("Device", "zone")
        device = Device("d1", "north")
        with idb.transaction():
            oid = idb.persist(device)
        with idb.transaction():
            device.move_to("south")
        assert _oids(index, "north") == set()
        assert _oids(index, "south") == {oid}

    def test_delete_removes_entry(self, idb):
        index = idb.create_index("Device", "zone")
        device = Device("d1", "north")
        with idb.transaction():
            idb.persist(device)
        with idb.transaction():
            idb.delete(device)
        assert _oids(index, "north") == set()

    def test_backfill_of_existing_extent(self, idb):
        with idb.transaction():
            oid_a = idb.persist(Device("a", "east"))
            oid_b = idb.persist(Device("b", "east"))
        index = idb.create_index("Device", "zone")
        assert _oids(index, "east") == {oid_a, oid_b}

    def test_abort_rolls_back_index_updates(self, idb):
        index = idb.create_index("Device", "zone")
        device = Device("d1", "north")
        with idb.transaction():
            oid = idb.persist(device)
        try:
            with idb.transaction():
                device.move_to("south")
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert _oids(index, "north") == {oid}
        assert _oids(index, "south") == set()

    def test_aborted_persist_leaves_no_entry(self, idb):
        index = idb.create_index("Device", "zone")
        try:
            with idb.transaction():
                idb.persist(Device("d1", "west"))
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert _oids(index, "west") == set()


class TestIndexStructure:
    def test_duplicate_index_rejected(self, idb):
        idb.create_index("Device", "zone")
        with pytest.raises(IndexError_):
            idb.create_index("Device", "zone")

    def test_drop_index(self, idb):
        idb.create_index("Device", "zone")
        idb.indexes.drop_index("Device", "zone")
        assert idb.indexes.index_for("Device", "zone") is None

    def test_unhashable_values_counted_not_crashing(self, idb):
        index = idb.create_index("Device", "zone")
        with idb.transaction():
            idb.persist(Device("d1", ["not", "hashable"]))
        assert index.unindexable >= 1

    def test_len_and_distinct(self, idb):
        index = idb.create_index("Device", "zone")
        with idb.transaction():
            idb.persist(Device("a", "z1"))
            idb.persist(Device("b", "z1"))
            idb.persist(Device("c", "z2"))
        assert len(index) == 3
        assert index.distinct_values() == 2

    def test_base_class_index_serves_subclass(self, idb):
        @sentried
        class SpecialDevice(Device):
            pass

        idb.register_class(SpecialDevice)
        idb.create_index("Device", "zone")
        assert idb.indexes.index_for("SpecialDevice", "zone") is not None
