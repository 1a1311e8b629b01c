"""Behavioural suite for the ``reproserve`` front end and ReachClient.

Covers the trust boundary the network adds on top of the engine: auth
rejection, idempotent replay (exactly-once across retried requests),
rate-limit isolation between tenants, graceful drain finishing in-flight
transactions, 16 concurrent wire clients with in-process-grade session
isolation, and — under the fault-seed matrix — connections cut
mid-commit preserving the ack-implies-durable invariant across the
wire.

Seed-parametrizable like the other fault suites: CI re-runs it under
several ``REPRO_FAULT_SEED`` values; every assertion must hold for any
seed.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro import ExecutionConfig, ReachEngine, ServerConfig, ShardingConfig
from repro.errors import (
    AuthenticationError,
    ConnectionClosedError,
    RateLimitedError,
    ReachClientError,
)
from repro.core.sharding import ShardedEngine
from repro.server import ReachClient, ReachServer, protocol
from repro.server import server as server_module
from tests.conftest import wait_until

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def make_served(tmp_path, server_config=None, **config_kwargs):
    config_kwargs.setdefault("fault_injection", True)
    config_kwargs.setdefault("fault_seed", FAULT_SEED)
    db = ReachEngine(directory=str(tmp_path / "sdb"),
                     config=ExecutionConfig(server=server_config,
                                              **config_kwargs))
    server = ReachServer(db, server_config).start()
    return db, server


@pytest.fixture
def served(tmp_path):
    db, server = make_served(tmp_path)
    yield db, server
    server.close()
    db.close()


def connect(server, **kwargs):
    host, port = server.address
    return ReachClient(host, port, **kwargs)


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------


class TestAuth:
    def test_open_server_lands_in_default_tenant(self, served):
        db, server = served
        with connect(server) as client:
            assert client.tenant == "default"
            assert client.ping()["pong"] is True

    def test_bad_token_is_rejected(self, tmp_path):
        db, server = make_served(
            tmp_path, ServerConfig(auth_tokens={"s3cret": "acme"}))
        try:
            with pytest.raises(AuthenticationError):
                connect(server, token="wrong")
            with pytest.raises(AuthenticationError):
                connect(server)                      # missing token
            assert server.stats()["connections"]["rejected_auth"] == 2
            with connect(server, token="s3cret") as client:
                assert client.tenant == "acme"
        finally:
            server.close()
            db.close()

    def test_empty_token_map_rejects_everyone(self, tmp_path):
        db, server = make_served(tmp_path, ServerConfig(auth_tokens={}))
        try:
            with pytest.raises(AuthenticationError):
                connect(server, token="anything")
        finally:
            server.close()
            db.close()

    def test_auth_reject_is_flight_recorded(self, tmp_path):
        db, server = make_served(
            tmp_path, ServerConfig(auth_tokens={"t": "tenant"}))
        try:
            with pytest.raises(AuthenticationError):
                connect(server, token="nope")
            rejects = [e for e in db.flight.entries("server")
                       if e.get("action") == "auth_reject"]
            assert rejects
        finally:
            server.close()
            db.close()


# ---------------------------------------------------------------------------
# Idempotency
# ---------------------------------------------------------------------------


class TestIdempotency:
    def test_replay_returns_cached_result_and_applies_once(self, served):
        db, server = served
        with connect(server) as client:
            key = client.fresh_idempotency_key()
            with client.transaction():
                first = client.put("Doc", {"n": 1}, idem=key)
            assert client.last_replayed is False
            # Same key, same tenant: the server must NOT re-apply.
            replay = client.call_op("put", name="Doc",
                                    fields={"n": 999}, idem=key)
            assert client.last_replayed is True
            assert replay == first
            assert client.fetch("Doc")["fields"]["n"] == 1

    def test_replay_survives_reconnect(self, served):
        db, server = served
        client = connect(server)
        key = client.fresh_idempotency_key()
        client.begin()
        client.put("R", {"v": 7})
        ack = client.commit(idem=key)
        client.reconnect()
        replay = client.retry("commit", key)
        assert client.last_replayed is True
        assert replay == ack
        assert client.fetch("R")["fields"]["v"] == 7
        assert server.stats()["requests"]["idempotent_replays"] >= 1
        client.close()

    def test_idempotency_keys_are_tenant_scoped(self, tmp_path):
        db, server = make_served(
            tmp_path,
            ServerConfig(auth_tokens={"a": "acme", "g": "globex"}))
        try:
            with connect(server, token="a") as acme, \
                    connect(server, token="g") as globex:
                with acme.transaction():
                    acme.put("A", {"who": "acme"}, idem="shared-key")
                # Same key from another tenant is NOT a replay.
                with globex.transaction():
                    globex.put("G", {"who": "globex"}, idem="shared-key")
                assert globex.last_replayed is False
                assert globex.fetch("G")["fields"]["who"] == "globex"
        finally:
            server.close()
            db.close()

    def test_cache_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "IDEMPOTENCY_CAPACITY", 8)
        db, server = make_served(tmp_path)
        try:
            with connect(server) as client:
                for i in range(32):
                    client.ping()
                    client.call_op("ping", idem=f"k{i}")
                assert server.stats()["idempotency_entries"] <= 8
        finally:
            server.close()
            db.close()


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------


class TestRateLimit:
    def test_over_budget_gets_structured_error(self, tmp_path):
        db, server = make_served(
            tmp_path, ServerConfig(rate_limit=0.001, rate_burst=3))
        try:
            with connect(server) as client:
                for _ in range(3):
                    client.ping()
                with pytest.raises(RateLimitedError):
                    client.ping()
                stats = server.stats()
                assert stats["requests"]["rate_limited"] >= 1
                limited = [e for e in db.flight.entries("server")
                           if e.get("action") == "rate_limited"]
                assert limited
        finally:
            server.close()
            db.close()

    def test_tenants_are_isolated(self, tmp_path):
        """One tenant exhausting its bucket never spends the other's."""
        db, server = make_served(
            tmp_path,
            ServerConfig(auth_tokens={"a": "acme", "g": "globex"},
                         rate_limit=0.001, rate_burst=4))
        try:
            with connect(server, token="a") as greedy, \
                    connect(server, token="g") as polite:
                for _ in range(4):
                    greedy.ping()
                with pytest.raises(RateLimitedError):
                    greedy.ping()
                # The other tenant's full burst is still available.
                for _ in range(4):
                    polite.ping()
                tenants = server.stats()["tenants"]
                assert tenants["acme"]["rate_limited"] >= 1
                assert tenants["globex"]["rate_limited"] == 0
        finally:
            server.close()
            db.close()

    def test_bucket_refills(self, tmp_path):
        db, server = make_served(
            tmp_path, ServerConfig(rate_limit=200.0, rate_burst=1))
        try:
            with connect(server) as client:
                client.ping()
                # Refill at 200/s: within a bounded poll the next request
                # is admitted again.
                wait_until(lambda: _ping_admitted(client), timeout=2.0)
        finally:
            server.close()
            db.close()


    def test_registry_reads_the_tenant_counts(self, tmp_path):
        """The registry's per-tenant counters are reads of the server's
        own counts, so rate-limited and replayed requests count in both
        the same way."""
        db, server = make_served(
            tmp_path, ServerConfig(rate_limit=0.001, rate_burst=3),
            observability=True)
        try:
            with connect(server) as client:
                client.call_op("ping", idem="once")
                client.call_op("ping", idem="once")
                assert client.last_replayed is True
                with pytest.raises(ReachClientError):
                    client.fetch("no-such-object")
                with pytest.raises(RateLimitedError):
                    client.ping()
            tenant = server.stats()["tenants"][server_module.DEFAULT_TENANT]
            assert (tenant["requests"], tenant["rate_limited"],
                    tenant["errors"]) == (4, 1, 1)
            counters = db.metrics().snapshot()["counters"]
            for fact in ("requests", "rate_limited", "errors"):
                name = f"server.tenant.{server_module.DEFAULT_TENANT}.{fact}"
                assert counters[name] == tenant[fact], fact
        finally:
            server.close()
            db.close()


def _ping_admitted(client):
    try:
        client.ping()
        return True
    except RateLimitedError:
        return False


class TestPipelining:
    def test_second_reply_is_not_held_back(self, served):
        """Two requests written back to back get both replies at once:
        the server's sockets send without Nagle's delay, which would
        hold the second reply until the client acknowledged the first."""
        db, server = served
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            protocol.write_frame(sock, protocol.request("hello", 1))
            assert protocol.read_frame(sock)["ok"]
            pair = (protocol.encode_frame(protocol.request("ping", 2))
                    + protocol.encode_frame(protocol.request("ping", 3)))
            elapsed = []
            for _ in range(5):
                started = time.perf_counter()
                sock.sendall(pair)
                replies = [protocol.read_frame(sock) for _ in range(2)]
                elapsed.append(time.perf_counter() - started)
                assert [r["id"] for r in replies] == [2, 3]
        finally:
            sock.close()
        assert sorted(elapsed)[2] < 0.020, elapsed


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_completes_in_flight_commit(self, served):
        db, server = served
        client = connect(server)
        client.begin()
        client.put("InFlight", {"v": 1})

        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(server.drain(timeout=10.0)))
        drainer.start()
        wait_until(lambda: server.stats()["draining"])

        # New connections are refused while draining...
        with pytest.raises((ConnectionClosedError, ReachClientError,
                            OSError)):
            connect(server)
        # ...and new transactions on surviving connections are refused...
        with pytest.raises(ReachClientError) as exc_info:
            client.begin()
        assert exc_info.value.code == protocol.ERR_DRAINING
        # ...but the in-flight transaction finishes and is acked.
        ack = client.commit()
        assert ack["committed"] is True

        drainer.join(timeout=10.0)
        assert drained == [True]
        stats = db.statistics()
        assert stats["transactions"]["committed"] >= 1
        assert stats["server"]["connections"]["active"] == 0
        # Durable: the committed object is fetchable via the embedded API.
        assert db.fetch("InFlight").v == 1

    def test_drain_shuts_idle_connections(self, served):
        db, server = served
        idle = connect(server)
        assert idle.ping()["pong"] is True
        assert server.drain(timeout=5.0) is True
        wait_until(lambda: server.stats()["connections"]["active"] == 0)
        with pytest.raises((ConnectionClosedError, OSError)):
            idle.ping()

    def test_drain_is_flight_recorded_and_flushes_telemetry(self, served):
        db, server = served
        with connect(server) as client:
            client.ping()
        server.drain(timeout=5.0)
        actions = [e.get("action")
                   for e in db.flight.entries("server")]
        assert "drain_begin" in actions
        assert "drain_end" in actions

    def test_sigterm_requests_drain(self, served):
        db, server = served
        server.install_signal_handlers()
        assert not server.stop_requested.is_set()
        # Invoke the handler directly (pytest owns the real signal flow).
        handler = signal.getsignal(signal.SIGTERM)
        handler(signal.SIGTERM, None)
        assert server.stop_requested.is_set()


# ---------------------------------------------------------------------------
# Concurrency: 16 wire clients, in-process-grade isolation
# ---------------------------------------------------------------------------


class TestConcurrentClients:
    def test_16_clients_see_session_isolation(self, served):
        db, server = served
        clients = 16
        tx_per_client = 10
        errors = []
        barrier = threading.Barrier(clients)

        def worker(index):
            try:
                client = connect(server, client_name=f"w{index}")
                barrier.wait(timeout=10.0)
                for i in range(tx_per_client):
                    with client.transaction():
                        client.put(f"obj-{index}", {"count": i + 1})
                got = client.fetch(f"obj-{index}")["fields"]["count"]
                assert got == tx_per_client
                client.close()
            except Exception as exc:   # noqa: BLE001 - collected below
                errors.append((index, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []

        # No cross-client bleed: every object holds exactly its owner's
        # final value, and the engine saw every commit.
        for index in range(clients):
            assert db.fetch(f"obj-{index}").count == tx_per_client
        stats = db.statistics()
        assert stats["transactions"]["committed"] >= clients * tx_per_client
        assert stats["server"]["connections"]["accepted"] >= clients
        # Teardown is asynchronous after the goodbye ack.
        wait_until(
            lambda: server.stats()["connections"]["active"] == 0)

    def test_sessions_are_torn_down_on_disconnect(self, served):
        db, server = served
        before = db.statistics()["sessions"]["active"]
        client = connect(server)
        client.begin()
        client.put("Abandoned", {"v": 1})
        wait_until(
            lambda: db.statistics()["sessions"]["active"] == before + 1)
        # Cut the connection with the transaction still open: the server
        # must abort it and close the session.
        client._sock.close()
        wait_until(
            lambda: db.statistics()["sessions"]["active"] == before)
        assert db.statistics()["transactions"]["aborted"] >= 1
        with pytest.raises(Exception):
            db.fetch("Abandoned")


# ---------------------------------------------------------------------------
# Fault matrix: cut connections mid-commit, ack-implies-durable
# ---------------------------------------------------------------------------


class TestCutMidCommit:
    def test_ack_cut_mid_commit_preserves_exactly_once(self, tmp_path):
        """The PR-4 invariant across the wire: if the commit was applied
        but the ack was cut, a retry under the same idempotency key
        replays the ack without re-applying; the commit is durable."""
        db, server = make_served(tmp_path)
        client = connect(server)
        key = client.fresh_idempotency_key()
        client.begin()
        client.put("Durable", {"v": 42})
        # Cut the connection exactly at the commit-ack write.
        db.faults.arm("server.write", nth=1)
        with pytest.raises(ConnectionClosedError):
            client.commit(idem=key)
        # The client never saw an ack — but the commit happened; retry
        # under the same key must replay, not double-apply or fail.
        ack = client.retry("commit", key)
        assert client.last_replayed is True
        assert ack["committed"] is True
        assert client.fetch("Durable")["fields"]["v"] == 42
        committed = db.statistics()["transactions"]["committed"]
        client.close()
        server.close()
        db.close()

        # Ack-implies-durable: the acked commit survives restart.
        from repro.server import Document
        reopened = ReachEngine(directory=str(tmp_path / "sdb"))
        try:
            reopened.register_class(Document)
            assert reopened.fetch("Durable").v == 42
            assert committed >= 1
        finally:
            reopened.close()

    def test_unacked_uncommitted_work_is_aborted(self, tmp_path):
        """The dual invariant: no ack and no commit means no trace."""
        db, server = make_served(tmp_path)
        try:
            client = connect(server)
            client.begin()
            client.put("Ghost", {"v": 1})
            # The commit request arrives; the connection is cut before
            # it is processed.
            db.faults.arm("server.read", nth=1)
            with pytest.raises(ConnectionClosedError):
                client.commit()
            wait_until(
                lambda: db.statistics()["server"]["connections"]["active"]
                == 0)
            with pytest.raises(Exception):
                db.fetch("Ghost")
        finally:
            server.close()
            db.close()

    def test_accept_and_auth_faults_do_not_wedge_the_server(self, tmp_path):
        db, server = make_served(tmp_path)
        try:
            db.faults.arm("server.accept", nth=1)
            with pytest.raises((ConnectionClosedError, OSError)):
                connect(server)
            db.faults.arm("server.auth", nth=1)
            with pytest.raises(AuthenticationError):
                connect(server)
            # The server keeps serving afterwards.
            with connect(server) as client:
                assert client.ping()["pong"] is True
            assert server.stats()["requests"]["faults"] >= 2
        finally:
            server.close()
            db.close()


# ---------------------------------------------------------------------------
# Teardown ordering: idempotent, leak-free shutdown
# ---------------------------------------------------------------------------


def _server_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("reproserve-")]


class TestTeardown:
    def test_db_close_with_server_running_is_leak_free(self, tmp_path):
        before_threads = set(threading.enumerate())
        db, server = make_served(tmp_path)
        host, port = server.address
        clients = [connect(server) for _ in range(4)]
        for client in clients:
            client.ping()
        assert _server_threads()
        # Close the DATABASE first: the engine must drain and close the
        # attached server before tearing down sessions.
        db.close()
        wait_until(lambda: not _server_threads(), timeout=10.0)
        leaked = [t for t in threading.enumerate()
                  if t not in before_threads and t.is_alive()
                  and t.name.startswith(("reproserve", "telemetry"))]
        assert leaked == []
        # Idempotent in every order, with no effect the second time.
        db.close()
        server.close()
        server.close()
        assert db.closed
        # The listener socket is gone: connecting is refused.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_server_close_then_db_close(self, tmp_path):
        db, server = make_served(tmp_path)
        with connect(server) as client:
            with client.transaction():
                client.put("X", {"v": 1})
        server.close()
        assert db.statistics()["server"]["enabled"] is False
        db.close()
        wait_until(lambda: not _server_threads(), timeout=10.0)

    def test_engine_close_finishes_in_flight_wire_tx(self, tmp_path):
        """db.close() while a wire transaction is open: the drain gives
        it a grace window; a quickly-committing client gets its ack."""
        db, server = make_served(
            tmp_path, ServerConfig(drain_timeout=5.0))
        client = connect(server)
        client.begin()
        client.put("Last", {"v": 9})
        closer = threading.Thread(target=db.close)
        closer.start()
        wait_until(lambda: server.stats()["draining"])
        ack = client.commit()
        assert ack["committed"] is True
        closer.join(timeout=15.0)
        assert not closer.is_alive()
        assert db.closed
        from repro.server import Document
        reopened = ReachEngine(directory=str(tmp_path / "sdb"))
        try:
            reopened.register_class(Document)
            assert reopened.fetch("Last").v == 9
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# Statistics and sharded serving
# ---------------------------------------------------------------------------


class TestIntrospection:
    def test_server_section_in_statistics(self, served):
        db, server = served
        with connect(server) as client:
            client.ping()
            stats = client.statistics()
        assert set(stats) == set(ReachEngine.STATISTICS_KEYS)
        section = stats["server"]
        assert section["enabled"] is True
        assert section["connections"]["accepted"] >= 1
        assert section["requests"]["served"] >= 1

    def test_unattached_engine_reports_inert_server_section(self, db):
        section = db.statistics()["server"]
        assert section["enabled"] is False
        assert section["connections"]["active"] == 0

    def test_wire_rules_fire_and_drop(self, served):
        db, server = served
        with connect(server) as client:
            with client.transaction():
                client.put("Tank", {"level": 50})
            names = (client.rule("HighWater")
                     .priority(3)
                     .declare("Document", "doc")
                     .on("after doc.set(fields)")
                     .when("True")
                     .do("doc.touch()")
                     .define())
            assert names == ["HighWater"]
            with client.transaction():
                client.call("Tank", "set", level=80)
            assert client.firing_log()["count"] >= 1
            assert client.drop_rule("HighWater") == "HighWater"

    def test_sharded_engine_serves_the_wire(self, tmp_path):
        db = ShardedEngine(
            directory=str(tmp_path / "shdb"),
            config=ExecutionConfig(sharding=ShardingConfig(shards=2)))
        server = ReachServer(db).start()
        try:
            with connect(server) as client:
                with client.transaction():
                    client.put("S1", {"v": 1})
                    client.put("S2", {"v": 2})
                assert client.fetch("S1")["fields"]["v"] == 1
                assert client.fetch("S2")["fields"]["v"] == 2
                stats = client.statistics()
                assert stats["server"]["enabled"] is True
                assert stats["shards"]["count"] == 2
        finally:
            server.close()
            db.close()

    def test_sharded_engine_accepts_wire_rule_definitions(self, tmp_path):
        db = ShardedEngine(
            directory=str(tmp_path / "shrules"),
            config=ExecutionConfig(sharding=ShardingConfig(shards=2)))
        server = ReachServer(db).start()
        try:
            with connect(server) as client:
                assert client.define_rules(
                    'rule Ping { event signal "ping"; action imm n; };') \
                    == ["Ping"]
                with client.transaction():
                    client.signal("ping", n=1)
                assert client.firing_log()["count"] == 1
            assert db.get_rule("Ping").fired_count == 1
        finally:
            server.close()
            db.close()


class TestReproserveEntryPoint:
    """The ``reproserve`` console script end to end: boot, serve one
    real client, drain on SIGTERM, exit 0."""

    def test_parse_tokens(self):
        from repro.server.main import _parse_tokens
        assert _parse_tokens([]) is None
        assert _parse_tokens(["a=t1", "b=t2"]) == {"a": "t1", "b": "t2"}
        with pytest.raises(SystemExit):
            _parse_tokens(["no-separator"])
        with pytest.raises(SystemExit):
            _parse_tokens(["=tenant"])

    def test_parser_defaults(self):
        from repro.server.main import build_parser
        args = build_parser().parse_args([])
        assert args.port == 7707
        assert args.token == []
        assert args.rate_limit is None

    def test_serve_and_sigterm_drain(self, tmp_path):
        import re
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.main",
             "--port", "0", "--data-dir", str(tmp_path / "served"),
             "--token", "s3cret=acme"],
            cwd=os.path.join(os.path.dirname(__file__), os.pardir),
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            banner = proc.stderr.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))

            client = ReachClient(host, port, token="s3cret")
            with client.transaction():
                client.put("entrypoint", {"ok": 1})
            assert client.fetch("entrypoint")["fields"]["ok"] == 1
            client.close()

            proc.send_signal(signal.SIGTERM)
            out = proc.stderr.read()
            assert proc.wait(timeout=30) == 0
            assert "draining" in out and "stopped" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
