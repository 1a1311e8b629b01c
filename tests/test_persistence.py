"""Persistence PM: persist/fetch/delete, swizzling, undo, durability."""

import pytest

from repro import ReachEngine, sentried
from repro.errors import (
    DuplicateNameError,
    NotPersistentError,
    ObjectNotFoundError,
)


@sentried
class Node:
    def __init__(self, label, next_node=None):
        self.label = label
        self.next_node = next_node

    def relabel(self, label):
        self.label = label


@pytest.fixture
def ndb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "pdb"))
    database.register_class(Node)
    yield database
    database.close()


class TestPersistFetch:
    def test_persist_assigns_oid_and_name(self, ndb):
        node = Node("a")
        with ndb.transaction():
            oid = ndb.persist(node, "root")
        assert not oid.is_null
        assert ndb.fetch("root") is node
        assert ndb.fetch(oid) is node

    def test_identity_map_one_object_per_oid(self, ndb):
        node = Node("a")
        with ndb.transaction():
            oid = ndb.persist(node)
        assert ndb.fetch(oid) is ndb.fetch(oid)

    def test_persist_is_idempotent(self, ndb):
        node = Node("a")
        with ndb.transaction():
            first = ndb.persist(node)
            second = ndb.persist(node, "late-name")
        assert first == second
        assert ndb.fetch("late-name") is node

    def test_duplicate_name_rejected(self, ndb):
        with ndb.transaction():
            ndb.persist(Node("a"), "n")
            with pytest.raises(DuplicateNameError):
                ndb.persist(Node("b"), "n")

    def test_unknown_name_raises(self, ndb):
        with pytest.raises(ObjectNotFoundError):
            ndb.fetch("ghost")


class TestDurability:
    def test_state_survives_restart(self, ndb, tmp_path):
        node = Node("original")
        with ndb.transaction():
            ndb.persist(node, "root")
        with ndb.transaction():
            node.relabel("updated")
        directory = ndb.directory
        ndb.close()

        reopened = ReachEngine(directory=directory)
        reopened.register_class(Node)
        restored = reopened.fetch("root")
        assert restored.label == "updated"
        reopened.close()

    def test_references_swizzle_across_restart(self, ndb):
        tail = Node("tail")
        head = Node("head", next_node=tail)
        with ndb.transaction():
            ndb.persist(head, "head")
            ndb.persist(tail)
        directory = ndb.directory
        ndb.close()

        reopened = ReachEngine(directory=directory)
        reopened.register_class(Node)
        restored = reopened.fetch("head")
        assert restored.next_node.label == "tail"
        reopened.close()

    def test_reachability_persists_transients_at_flush(self, ndb):
        """Section 4 / persistence model: objects referenced from
        persistent state are swept in (no dangling stored refs)."""
        head = Node("head", next_node=Node("implicit"))
        with ndb.transaction():
            ndb.persist(head, "head")
        assert ndb.persistence.is_persistent(head.next_node)

    def test_cycle_round_trips(self, ndb):
        a = Node("a")
        b = Node("b", next_node=a)
        a.next_node = b
        with ndb.transaction():
            ndb.persist(a, "a")
            ndb.persist(b)
        directory = ndb.directory
        ndb.close()
        reopened = ReachEngine(directory=directory)
        reopened.register_class(Node)
        loaded = reopened.fetch("a")
        assert loaded.next_node.next_node is loaded
        reopened.close()

    def test_container_attributes_round_trip(self, ndb):
        node = Node("holder")
        node.tags = ["x", "y"]
        node.table = {"k": [1, 2, (3, 4)]}
        with ndb.transaction():
            ndb.persist(node, "holder")
        directory = ndb.directory
        ndb.close()
        reopened = ReachEngine(directory=directory)
        reopened.register_class(Node)
        loaded = reopened.fetch("holder")
        assert loaded.tags == ["x", "y"]
        assert loaded.table == {"k": [1, 2, (3, 4)]}
        reopened.close()


class TestAbortSemantics:
    def test_abort_unpersists(self, ndb):
        node = Node("a")
        try:
            with ndb.transaction():
                ndb.persist(node, "doomed")
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert not ndb.persistence.is_persistent(node)
        with pytest.raises(ObjectNotFoundError):
            ndb.fetch("doomed")

    def test_abort_restores_attributes(self, ndb):
        node = Node("before")
        with ndb.transaction():
            ndb.persist(node, "n")
        try:
            with ndb.transaction():
                node.relabel("after")
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert node.label == "before"

    def test_aborted_changes_not_flushed(self, ndb):
        node = Node("v1")
        with ndb.transaction():
            ndb.persist(node, "n")
        try:
            with ndb.transaction():
                node.relabel("v2")
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        directory = ndb.directory
        ndb.close()
        reopened = ReachEngine(directory=directory)
        reopened.register_class(Node)
        assert reopened.fetch("n").label == "v1"
        reopened.close()


class TestDelete:
    def test_explicit_delete(self, ndb):
        node = Node("a")
        with ndb.transaction():
            ndb.persist(node, "n")
        with ndb.transaction():
            ndb.delete(node)
        with pytest.raises(ObjectNotFoundError):
            ndb.fetch("n")

    def test_delete_is_durable(self, ndb):
        node = Node("a")
        with ndb.transaction():
            ndb.persist(node, "n")
        with ndb.transaction():
            ndb.delete("n")
        directory = ndb.directory
        ndb.close()
        reopened = ReachEngine(directory=directory)
        reopened.register_class(Node)
        with pytest.raises(ObjectNotFoundError):
            reopened.fetch("n")
        reopened.close()

    def test_delete_undone_by_abort(self, ndb):
        node = Node("a")
        with ndb.transaction():
            ndb.persist(node, "n")
        try:
            with ndb.transaction():
                ndb.delete(node)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert ndb.fetch("n") is node

    def test_delete_transient_rejected(self, ndb):
        with ndb.transaction():
            with pytest.raises(NotPersistentError):
                ndb.delete(Node("transient"))

    def test_fetch_after_delete_in_same_tx_fails(self, ndb):
        node = Node("a")
        with ndb.transaction():
            oid = ndb.persist(node, "n")
        with ndb.transaction():
            ndb.delete(node)
            with pytest.raises(ObjectNotFoundError):
                ndb.fetch(oid)
