"""Live introspection endpoint (``repro.obs.admin``) and the matching
``scripts/reproctl.py`` CLI.

An engine started with ``ExecutionConfig(admin_port=0)`` binds a
loopback HTTP server on an ephemeral port (``db.admin_address``); these
tests exercise every route against a real engine, validate the
``/metrics`` body as Prometheus text exposition format, and — the PR-5
acceptance bar — drive ``reproctl stats`` as a subprocess against a
live sixteen-session engine.
"""

import json
import re
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import (
    ExecutionConfig,
    MethodEventSpec,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.core.algebra import EventScope, Sequence
from repro.core.rules import CouplingMode

REPROCTL = str(Path(__file__).resolve().parent.parent
               / "scripts" / "reproctl.py")


@sentried
class Meter:
    def __init__(self):
        self.reading = 0

    def advance(self, by):
        self.reading += by


ADVANCE = MethodEventSpec("Meter", "advance", param_names=("by",))


@pytest.fixture
def db(tmp_path):
    database = ReachEngine(
        directory=str(tmp_path / "admin-db"),
        config=ExecutionConfig(observability=True, admin_port=0))
    database.register_class(Meter)
    database.on(ADVANCE).do(lambda ctx: None).named("MeterWatch")
    meter = Meter()
    with database.transaction():
        database.persist(meter, "m")
        meter.advance(3)
    yield database
    database.close()


def get(db, path):
    host, port = db.admin_address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=5.0) as response:
        return (response.status, response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


class TestEndpoints:
    def test_no_admin_port_means_no_server(self, tmp_path):
        database = ReachEngine(directory=str(tmp_path / "plain-db"))
        assert database.admin_address is None
        database.close()

    def test_index_catalogues_the_routes(self, db):
        status, content_type, body = get(db, "/")
        assert status == 200
        assert content_type.startswith("application/json")
        endpoints = json.loads(body)["endpoints"]
        for route in ("/stats", "/metrics", "/traces", "/slow-rules",
                      "/locks", "/wal", "/flight", "/flight/dump",
                      "/trace/<id>", "/why/<seq>"):
            assert route in endpoints

    def test_stats_serves_the_frozen_key_snapshot(self, db):
        __, __, body = get(db, "/stats")
        assert set(json.loads(body)) == set(ReachEngine.STATISTICS_KEYS)

    def test_metrics_is_prometheus_text(self, db):
        line = re.compile(
            r"^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*"
            r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
            r"(-?\d+(\.\d+)?([eE]-?\d+)?|[+-]Inf|NaN))$")
        __, content_type, body = get(db, "/metrics")
        assert content_type.startswith("text/plain")
        for text_line in body.rstrip("\n").split("\n"):
            assert line.match(text_line), f"bad line: {text_line!r}"
        assert "reach_up 1" in body

    def test_traces_respect_the_limit(self, db):
        __, __, body = get(db, "/traces?limit=1")
        payload = json.loads(body)
        assert payload["count"] >= 1
        assert len(payload["traces"]) == 1
        assert payload["traces"][0]["spans"]

    def test_slow_rules_aggregate_firing_latency(self, db):
        __, __, body = get(db, "/slow-rules")
        rows = json.loads(body)["rules"]
        (row,) = [r for r in rows if r["rule"] == "MeterWatch"]
        assert row["firings"] >= 1
        assert row["mean_s"] > 0.0
        assert row["quarantined"] is False
        assert row["event"] == "after Meter.advance()"
        assert row["coupling"] == "immediate"
        assert row["priority"] == 0
        assert row["fired"] >= 1
        assert row["condition_rejections"] == 0

    def test_locks_and_wal_report_their_snapshots(self, db):
        __, __, locks_body = get(db, "/locks")
        locks = json.loads(locks_body)
        assert {"resources", "deadlocks_detected", "timeouts"} <= set(locks)
        assert locks["stripes"] == 16
        assert len(locks["stripe_occupancy"]) == 16
        # The curated concurrency snapshot rides along (ISSUE 6).
        concurrency = locks["concurrency"]
        assert set(concurrency) == {"locks", "wal", "history"}
        assert concurrency["locks"]["stripes"] == 16
        assert {"merge_lag", "merged_entries"} <= \
            set(concurrency["history"])
        __, __, wal_body = get(db, "/wal")
        wal = json.loads(wal_body)
        assert wal["flushed_lsn"] >= 1
        assert wal["size_bytes"] > 0

    def test_composer_reports_half_matched_state(self, db):
        # Half-compose a sequence so the durable-detection view has a
        # live group to report.
        seq = (Sequence(SignalEventSpec("adm-a"), SignalEventSpec("adm-b"))
               .scoped(EventScope.MULTI_TX).within(1e9))
        db.on(seq).do(lambda ctx: None).coupling(
            CouplingMode.DETACHED).named("HalfMatch")
        with db.transaction():
            db.signal("adm-a")
        db.storage.flush()  # the half-match is durable at the next force
        __, __, body = get(db, "/composer")
        payload = json.loads(body)
        assert payload["half_matched_groups"] >= 1
        assert payload["checkpoints_written"] >= 1
        assert payload["last_checkpoint_lsn"] > 0
        names = {entry["name"] for entry in payload["composers"]}
        assert any("adm-a" in name for name in names)

    def test_flight_tail_returns_recent_entries(self, db):
        __, __, body = get(db, "/flight?tail=5")
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert 0 < len(payload["entries"]) <= 5

    def test_flight_dump_writes_a_file(self, db):
        __, __, body = get(db, "/flight/dump?reason=test")
        path = json.loads(body)["path"]
        assert path is not None and Path(path).exists()
        header = json.loads(Path(path).read_text().splitlines()[0])
        assert header["reason"] == "test"

    def test_why_explains_an_occurrence_found_in_the_flight_ring(self, db):
        __, __, flight_body = get(db, "/flight?tail=50")
        (seq,) = {entry["event_seq"]
                  for entry in json.loads(flight_body)["entries"]
                  if entry.get("rule") == "MeterWatch"}
        __, content_type, body = get(db, f"/why/{seq}")
        assert content_type.startswith("application/json")
        answer = json.loads(body)
        assert set(answer) == {
            "seq", "event", "category", "timestamp", "transactions",
            "shard", "parameters", "components", "firings"}
        assert answer["seq"] == seq
        assert answer["event"] == "after Meter.advance()"
        assert answer["shard"] == 0
        assert answer["components"] == []
        assert [(f["rule"], f["outcome"], f["shard"])
                for f in answer["firings"]] == \
            [("MeterWatch", "executed", 0)]

    def test_why_unknown_seq_is_a_404_with_a_retention_hint(self, db):
        host, port = db.admin_address
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{host}:{port}/why/987654321",
                                   timeout=5.0)
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "seq=987654321" in payload["error"]
        assert "history_capacity" in payload["hint"]

    @pytest.mark.parametrize("path,name", [
        ("/slow-rules?limit=x", "limit"),
        ("/traces?limit=x", "limit"),
        ("/flight?tail=x", "tail"),
        ("/why/x", "seq"),
    ])
    def test_non_integer_parameter_is_a_400_naming_it(self, db, path,
                                                      name):
        host, port = db.admin_address
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{host}:{port}{path}",
                                   timeout=5.0)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["error"] == f"{name} must be an integer, got 'x'"

    def test_unknown_route_is_a_404_with_the_catalogue(self, db):
        host, port = db.admin_address
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=5.0)
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "/stats" in payload["endpoints"]


class TestReproctl:
    def test_stats_against_a_live_sixteen_session_engine(self, tmp_path):
        database = ReachEngine(
            directory=str(tmp_path / "fleet-db"),
            config=ExecutionConfig(observability=True, admin_port=0))
        database.register_class(Meter)
        database.on(ADVANCE).do(lambda ctx: None).named("MeterWatch")

        def session_worker(index):
            session = database.create_session(f"s{index}")
            meter = Meter()
            with session.transaction():
                session.persist(meter, f"m{index}")
                meter.advance(index)

        threads = [threading.Thread(target=session_worker, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        host, port = database.admin_address
        try:
            result = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "stats"],
                capture_output=True, text=True, timeout=30)
            assert result.returncode == 0, result.stderr
            assert "sessions" in result.stdout
            assert re.search(r"tx\s+begun=\d+ committed=\d+",
                             result.stdout)

            raw = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "--json", "stats"],
                capture_output=True, text=True, timeout=30)
            stats = json.loads(raw.stdout)
            assert stats["sessions"]["created"] >= 16
            assert stats["transactions"]["committed"] >= 16

            metrics = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "metrics"],
                capture_output=True, text=True, timeout=30)
            assert metrics.returncode == 0
            assert "reach_up 1" in metrics.stdout

            composer = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "--json", "composer"],
                capture_output=True, text=True, timeout=30)
            assert composer.returncode == 0, composer.stderr
            view = json.loads(composer.stdout)
            assert "half_matched_groups" in view
            assert "last_checkpoint_lsn" in view
        finally:
            database.close()

    def test_unreachable_port_exits_nonzero(self):
        result = subprocess.run(
            [sys.executable, REPROCTL, "--port", "1",
             "--timeout", "0.5", "stats"],
            capture_output=True, text=True, timeout=30)
        assert result.returncode == 1
        assert "cannot reach" in result.stderr


class TestServerRoute:
    """The ``/server`` admin route and the reproctl commands over it."""

    def test_server_route_is_inert_without_a_front_end(self, db):
        status, __, body = get(db, "/server")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is False
        assert payload["connections"]["active"] == 0

    def test_server_route_reports_the_live_front_end(self, tmp_path):
        from repro.server import ReachClient, ReachServer
        database = ReachEngine(
            directory=str(tmp_path / "srv-db"),
            config=ExecutionConfig(admin_port=0))
        server = ReachServer(database).start()
        try:
            client = ReachClient(*server.address)
            client.ping()
            client.close()
            __, __, body = get(database, "/server")
            payload = json.loads(body)
            assert payload["enabled"] is True
            assert payload["requests"]["served"] >= 1
            assert list(payload["address"]) == list(server.address)
        finally:
            database.close()

    def test_reproctl_server_summarizes_the_front_end(self, tmp_path):
        from repro.server import ReachClient, ReachServer
        database = ReachEngine(
            directory=str(tmp_path / "ctl-db"),
            config=ExecutionConfig(admin_port=0))
        server = ReachServer(database).start()
        try:
            client = ReachClient(*server.address)
            client.ping()
            client.close()
            host, port = database.admin_address
            pretty = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "server"],
                capture_output=True, text=True, timeout=30)
            assert pretty.returncode == 0, pretty.stderr
            assert "listening" in pretty.stdout
            raw = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "--json", "server"],
                capture_output=True, text=True, timeout=30)
            assert raw.returncode == 0, raw.stderr
            payload = json.loads(raw.stdout)
            assert payload["enabled"] is True
        finally:
            database.close()

    def test_wire_ping_good_and_bad_token(self, tmp_path):
        from repro.config import ServerConfig
        from repro.server import ReachServer
        database = ReachEngine(directory=str(tmp_path / "ping-db"))
        server = ReachServer(
            database,
            ServerConfig(auth_tokens={"s3cret": "acme"})).start()
        try:
            host, port = server.address
            good = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "wire-ping", "--token", "s3cret"],
                capture_output=True, text=True, timeout=30)
            assert good.returncode == 0, good.stderr
            probe = json.loads(good.stdout)
            assert probe["pong"]["pong"] is True
            assert probe["server"]["tenant"] == "acme"

            bad = subprocess.run(
                [sys.executable, REPROCTL, "--host", host,
                 "--port", str(port), "wire-ping", "--token", "wrong"],
                capture_output=True, text=True, timeout=30)
            assert bad.returncode == 2
            assert "rejected" in bad.stderr
            assert "auth" in bad.stderr
        finally:
            database.close()

    def test_wire_ping_unreachable_exits_one(self):
        result = subprocess.run(
            [sys.executable, REPROCTL, "--port", "1",
             "--timeout", "0.5", "wire-ping"],
            capture_output=True, text=True, timeout=30)
        assert result.returncode == 1
        assert "cannot reach" in result.stderr


class TestReproctlTraceAndTop:
    """``reproctl trace <id>`` / ``reproctl top`` and their exit codes."""

    def _ctl(self, db, *args):
        host, port = db.admin_address
        return subprocess.run(
            [sys.executable, REPROCTL, "--host", host,
             "--port", str(port), *args],
            capture_output=True, text=True, timeout=30)

    def test_trace_renders_the_span_tree(self, db):
        trace = db.trace()
        result = self._ctl(db, "trace", str(trace.trace_id))
        assert result.returncode == 0, result.stderr
        assert (f"trace {trace.trace_id} spans={len(trace.spans)}"
                in result.stdout)
        assert "detect:" in result.stdout
        raw = self._ctl(db, "--json", "trace", str(trace.trace_id))
        assert raw.returncode == 0, raw.stderr
        assert json.loads(raw.stdout)["trace_id"] == trace.trace_id

    def test_unknown_trace_id_exits_two(self, db):
        result = self._ctl(db, "trace", "987654321987")
        assert result.returncode == 2
        assert "404" in result.stderr
        assert "no such trace" in result.stderr

    def test_garbage_trace_id_exits_two(self, db):
        result = self._ctl(db, "trace", "not-a-trace-id")
        assert result.returncode == 2
        assert "400" in result.stderr

    def test_missing_trace_id_is_a_usage_error(self, db):
        result = self._ctl(db, "trace")
        assert result.returncode == 2
        assert "trace id" in result.stderr

    def test_why_renders_the_occurrence_and_its_firings(self, db):
        seq = db.history.entries()[-1].seq
        result = self._ctl(db, "why", str(seq))
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == (f"event seq={seq}: after Meter.advance() "
                            "(shard 0)")
        assert "  rule firings:" in lines
        assert any(line.startswith("    MeterWatch [immediate/")
                   and "-> executed" in line for line in lines)
        raw = self._ctl(db, "--json", "why", str(seq))
        assert raw.returncode == 0, raw.stderr
        assert json.loads(raw.stdout)["seq"] == seq

    def test_why_unknown_seq_exits_two(self, db):
        result = self._ctl(db, "why", "987654321")
        assert result.returncode == 2
        assert "404" in result.stderr
        assert "no recorded occurrence" in result.stderr

    def test_top_summarizes_rules_and_tenants(self, db):
        result = self._ctl(db, "top")
        assert result.returncode == 0, result.stderr
        assert "slowest rules" in result.stdout
        assert "slowest tenants" in result.stdout
        raw = self._ctl(db, "--json", "top")
        assert raw.returncode == 0, raw.stderr
        payload = json.loads(raw.stdout)
        assert "rules" in payload and "server" in payload

    def test_top_unreachable_exits_one(self):
        result = subprocess.run(
            [sys.executable, REPROCTL, "--port", "1",
             "--timeout", "0.5", "top"],
            capture_output=True, text=True, timeout=30)
        assert result.returncode == 1
        assert "cannot reach" in result.stderr
