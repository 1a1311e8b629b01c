"""Query PM: OQL-subset parsing, evaluation, index access paths."""

import pytest

from repro import ReachEngine, sentried
from repro.errors import QueryError
from repro.oodb.query import parse_query


@sentried
class Instrument:
    def __init__(self, name, kind, reading):
        self.name = name
        self.kind = kind
        self.reading = reading

    def hot(self):
        return self.reading > 50


@sentried
class Thermometer(Instrument):
    def __init__(self, name, reading):
        super().__init__(name, "thermo", reading)


@pytest.fixture
def qdb(tmp_path):
    database = ReachEngine(directory=str(tmp_path / "qdb"))
    database.register_class(Instrument)
    database.register_class(Thermometer)
    with database.transaction():
        for i in range(10):
            database.persist(Instrument(f"i{i}", "gauge", i * 10), f"I{i}")
        database.persist(Thermometer("t0", 75), "T0")
    yield database
    database.close()


class TestParsing:
    def test_minimal_select(self):
        query = parse_query("select x from Instrument x")
        assert query.class_name == "Instrument"
        assert query.variable == "x"
        assert query.where is None

    def test_full_clause_set(self):
        query = parse_query(
            "select x.name from Instrument x where x.reading > 10 "
            "order by x.reading desc limit 3")
        assert query.where is not None
        assert query.descending
        assert query.limit == 3

    @pytest.mark.parametrize("bad", [
        "update Instrument set x = 1",
        "select from Instrument x",
        "select x from",
        "select x from Instrument x limit 2.5",
        "select x from Instrument x bogus",
    ])
    def test_malformed_queries_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestExecution:
    def test_full_scan(self, qdb):
        rows = qdb.query("select x from Instrument x")
        assert len(rows) == 11  # 10 gauges + 1 thermometer (subclass)

    def test_where_filter(self, qdb):
        rows = qdb.query(
            "select x.name from Instrument x where x.reading >= 80")
        assert sorted(rows) == ["i8", "i9"]

    def test_method_call_in_where(self, qdb):
        rows = qdb.query("select x.name from Instrument x where x.hot()")
        assert "i9" in rows and "i0" not in rows

    def test_projection_expression(self, qdb):
        rows = qdb.query(
            "select x.reading * 2 from Instrument x where x.name == 'i3'")
        assert rows == [60]

    def test_order_by_and_limit(self, qdb):
        rows = qdb.query(
            "select x.name from Instrument x where x.kind == 'gauge' "
            "order by x.reading desc limit 2")
        assert rows == ["i9", "i8"]

    def test_order_by_ascending_default(self, qdb):
        rows = qdb.query(
            "select x.reading from Instrument x where x.kind == 'gauge' "
            "order by x.reading limit 3")
        assert rows == [0, 10, 20]

    def test_query_parameters(self, qdb):
        rows = qdb.query(
            "select x.name from Instrument x where x.reading < limit_val",
            limit_val=20)
        assert sorted(rows) == ["i0", "i1"]

    def test_subclass_extent(self, qdb):
        rows = qdb.query("select x.name from Thermometer x")
        assert rows == ["t0"]

    def test_unknown_class_raises(self, qdb):
        with pytest.raises(QueryError):
            qdb.query("select x from Ghost x")


class TestIndexAccess:
    def test_equality_uses_index(self, qdb):
        qdb.create_index("Instrument", "name")
        before = dict(qdb.query_processor.stats)
        rows = qdb.query(
            "select x from Instrument x where x.name == 'i4'")
        assert len(rows) == 1 and rows[0].name == "i4"
        stats = qdb.query_processor.stats
        assert stats["index_lookups"] == before["index_lookups"] + 1
        assert stats["extent_scans"] == before["extent_scans"]

    def test_index_with_conjunction(self, qdb):
        qdb.create_index("Instrument", "kind")
        rows = qdb.query(
            "select x.name from Instrument x "
            "where x.kind == 'gauge' and x.reading > 70")
        assert sorted(rows) == ["i8", "i9"]
        assert qdb.query_processor.stats["index_lookups"] >= 1

    def test_index_results_match_scan_results(self, qdb):
        scan = set(qdb.query(
            "select x.name from Instrument x where x.kind == 'gauge'"))
        qdb.create_index("Instrument", "kind")
        indexed = set(qdb.query(
            "select x.name from Instrument x where x.kind == 'gauge'"))
        assert indexed == scan

    def test_non_equality_predicates_scan(self, qdb):
        qdb.create_index("Instrument", "reading")
        before = qdb.query_processor.stats["extent_scans"]
        qdb.query("select x from Instrument x where x.reading > 10")
        assert qdb.query_processor.stats["extent_scans"] == before + 1
