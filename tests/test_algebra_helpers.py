"""N-ary algebra builders."""

import pytest

from repro import ReachEngine, CouplingMode, SignalEventSpec
from repro.core.algebra import (
    Conjunction,
    Disjunction,
    Sequence,
    all_of,
    any_of,
    sequence_of,
)
from repro.errors import EventDefinitionError

A, B, C = (SignalEventSpec(name) for name in "abc")


class TestBuilders:
    def test_all_of_builds_conjunction_tree(self):
        spec = all_of(A, B, C)
        assert isinstance(spec, Conjunction)
        assert [leaf.signal_name for leaf in spec.leaves()] == \
            ["a", "b", "c"]

    def test_any_of_builds_disjunction_tree(self):
        spec = any_of(A, B, C)
        assert isinstance(spec, Disjunction)
        assert len(spec.leaves()) == 3

    def test_sequence_of_builds_ordered_tree(self):
        spec = sequence_of(A, B, C)
        assert isinstance(spec, Sequence)
        assert [leaf.signal_name for leaf in spec.leaves()] == \
            ["a", "b", "c"]

    def test_single_operand_passes_through(self):
        assert all_of(A) is A
        assert any_of(B) is B
        assert sequence_of(C) is C

    def test_empty_rejected(self):
        for builder in (all_of, any_of, sequence_of):
            with pytest.raises(EventDefinitionError):
                builder()


class TestBehaviour:
    @pytest.fixture
    def hdb(self, tmp_path):
        database = ReachEngine(directory=str(tmp_path / "hdb"))
        yield database
        database.close()

    def test_all_of_needs_every_signal(self, hdb):
        fired = []
        hdb.rule("all", all_of(A, B, C),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DEFERRED)
        with hdb.transaction():
            hdb.signal("a")
            hdb.signal("c")
        assert fired == []
        with hdb.transaction():
            hdb.signal("b")
            hdb.signal("c")
            hdb.signal("a")
        assert fired == [1]

    def test_sequence_of_enforces_order(self, hdb):
        fired = []
        hdb.rule("seq", sequence_of(A, B, C),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DEFERRED)
        with hdb.transaction():
            hdb.signal("b")
            hdb.signal("a")
            hdb.signal("c")
        assert fired == []     # b came before a
        with hdb.transaction():
            hdb.signal("a")
            hdb.signal("b")
            hdb.signal("c")
        assert fired == [1]

    def test_any_of_fires_per_match(self, hdb):
        fired = []
        hdb.rule("any", any_of(A, B, C),
                 action=lambda ctx: fired.append(1),
                 coupling=CouplingMode.DEFERRED)
        with hdb.transaction():
            hdb.signal("b")
            hdb.signal("c")
        assert fired == [1, 1]
