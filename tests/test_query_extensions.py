"""Query extensions: aggregates, distinct, ordered-index range scans."""

import pytest

from repro import ReachEngine, sentried
from repro.errors import QueryError
from repro.oodb.indexing import OrderedIndex
from repro.oodb.oid import OID


@sentried
class Reading:
    def __init__(self, sensor, value, unit="C"):
        self.sensor = sensor
        self.value = value
        self.unit = unit


@pytest.fixture
def qdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "qx"))
    database.register_class(Reading)
    with database.transaction():
        for index in range(10):
            database.persist(
                Reading(f"s{index % 3}", index * 10), f"R{index}")
    yield database
    database.close()


class TestAggregates:
    def test_count(self, qdb):
        assert qdb.query("select count(x) from Reading x") == 10

    def test_count_with_where(self, qdb):
        assert qdb.query(
            "select count(x) from Reading x where x.value >= 50") == 5

    def test_sum_and_avg(self, qdb):
        assert qdb.query("select sum(x.value) from Reading x") == 450
        assert qdb.query("select avg(x.value) from Reading x") == 45

    def test_min_and_max(self, qdb):
        assert qdb.query("select min(x.value) from Reading x") == 0
        assert qdb.query("select max(x.value) from Reading x") == 90

    def test_aggregates_over_empty_set(self, qdb):
        assert qdb.query(
            "select count(x) from Reading x where x.value > 999") == 0
        assert qdb.query(
            "select sum(x.value) from Reading x where x.value > 999") \
            is None

    def test_aggregate_arity_checked(self, qdb):
        with pytest.raises(QueryError):
            qdb.query("select count(x, x) from Reading x")


class TestDistinct:
    def test_distinct_projection(self, qdb):
        sensors = qdb.query("select distinct x.sensor from Reading x")
        assert sorted(sensors) == ["s0", "s1", "s2"]

    def test_distinct_preserves_first_occurrence_order(self, qdb):
        units = qdb.query("select distinct x.unit from Reading x")
        assert units == ["C"]

    def test_count_over_projection(self, qdb):
        assert qdb.query("select count(x.sensor) from Reading x") == 10


class TestOrderedIndex:
    def test_range_lookup(self):
        index = OrderedIndex("Reading", "value")
        for value in (5, 1, 9, 3, 7):
            index.insert(value, OID(value))
        assert index.range(low=3, high=7) == {OID(3), OID(5), OID(7)}
        assert index.range(low=3, high=7, low_inclusive=False) == \
            {OID(5), OID(7)}
        assert index.range(low=3, high=7, high_inclusive=False) == \
            {OID(3), OID(5)}
        assert index.range(high=3) == {OID(1), OID(3)}
        assert index.range(low=8) == {OID(9)}
        assert index.range() == {OID(v) for v in (1, 3, 5, 7, 9)}

    def test_equality_via_lookup(self):
        index = OrderedIndex("Reading", "value")
        index.insert(4, OID(1))
        index.insert(4, OID(2))
        assert index.lookup(4) == {OID(1), OID(2)}

    def test_remove(self):
        index = OrderedIndex("Reading", "value")
        index.insert(4, OID(1))
        assert index.remove(4, OID(1))
        assert not index.remove(4, OID(1))
        assert len(index) == 0

    def test_uncomparable_values_counted(self):
        index = OrderedIndex("Reading", "value")
        assert not index.insert(None, OID(1))
        assert not index.insert({"no": "order"}, OID(2))
        assert index.unindexable == 2

    def test_distinct_values(self):
        index = OrderedIndex("Reading", "value")
        index.insert(1, OID(1))
        index.insert(1, OID(2))
        index.insert(2, OID(3))
        assert index.distinct_values() == 2


class TestRangeAccessPath:
    def test_range_query_uses_ordered_index(self, qdb):
        qdb.indexes.create_index("Reading", "value", ordered=True)
        before = dict(qdb.query_processor.stats)
        rows = qdb.query(
            "select x.value from Reading x "
            "where x.value >= 30 and x.value < 60")
        assert sorted(rows) == [30, 40, 50]
        stats = qdb.query_processor.stats
        assert stats["index_lookups"] == before["index_lookups"] + 1
        assert stats["extent_scans"] == before["extent_scans"]

    def test_one_sided_range(self, qdb):
        qdb.indexes.create_index("Reading", "value", ordered=True)
        rows = qdb.query("select x.value from Reading x "
                         "where x.value > 70")
        assert sorted(rows) == [80, 90]
        assert qdb.query_processor.stats["index_lookups"] >= 1

    def test_hash_index_does_not_serve_ranges(self, qdb):
        qdb.indexes.create_index("Reading", "value")   # hash
        before = qdb.query_processor.stats["extent_scans"]
        qdb.query("select x from Reading x where x.value > 70")
        assert qdb.query_processor.stats["extent_scans"] == before + 1

    def test_ordered_index_serves_equality_too(self, qdb):
        qdb.indexes.create_index("Reading", "value", ordered=True)
        rows = qdb.query("select x from Reading x where x.value == 40")
        assert len(rows) == 1
        assert qdb.query_processor.stats["index_lookups"] >= 1

    def test_range_index_maintained_actively(self, qdb):
        index = qdb.indexes.create_index("Reading", "value", ordered=True)
        reading = qdb.fetch("R0")
        with qdb.transaction():
            reading.value = 55
        assert index.range(low=54, high=56) != set()
        rows = qdb.query("select x.value from Reading x "
                         "where x.value >= 54 and x.value <= 56")
        assert rows == [55]
