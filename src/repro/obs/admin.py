"""Live introspection: a stdlib-only HTTP admin endpoint.

An operator of a 16-session deployment needs to ask a *running* engine
"which rules are slow, who holds locks, how deep is the WAL?" without a
Python prompt inside the process.  :class:`AdminServer` binds a
``ThreadingHTTPServer`` on loopback (``ExecutionConfig(admin_port=...)``;
port 0 picks an ephemeral port, exposed via ``engine.admin_address``)
and serves JSON — plus Prometheus text on ``/metrics`` — assembled from
the engine's existing introspection surfaces:

========================  ==================================================
``/stats``                ``engine.statistics()`` (the frozen-key snapshot)
``/metrics``              Prometheus text exposition of the metric registry
``/traces``               retained span trees (``?limit=N`` for the tail)
``/trace/<id>``           one assembled trace (merged across shard tracers)
``/slow-rules``           per-rule firing latency aggregated from traces
``/locks``                lock table + ``concurrency_stats()`` (stripe waits)
``/wal``                  WAL depth: LSNs, buffered records, group commit
``/composer``             half-matched composites + checkpoint/restore LSNs
``/shards``               shard topology: per-shard counters, replication
``/flight``               flight-recorder state (``?tail=N`` recent entries)
``/flight/dump``          trigger a dump; returns the file path
========================  ==================================================

This module sits in the ``obs`` layer and therefore must not import
``core``/``oodb``/``storage`` (see ``scripts/check_layering.py``); the
engine is duck-typed.  ``scripts/reproctl.py`` is the matching CLI.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.obs.export import render_prometheus


def slow_rules(engine: Any, limit: int = 20) -> list[dict[str, Any]]:
    """Per-rule firing-latency aggregate from the retained traces.

    Scheduler spans are named ``fire:<rule>``; with tracing disabled the
    aggregate is empty but registered rules are still listed (with their
    quarantine state) so the endpoint stays useful.
    """
    aggregate: dict[str, dict[str, Any]] = {}
    for trace in engine.tracer.traces():
        for span in trace.spans:
            if span.kind != "scheduler" or not span.finished \
                    or not span.name.startswith("fire:"):
                continue
            entry = aggregate.setdefault(span.name[5:], {
                "firings": 0, "total_s": 0.0, "max_s": 0.0})
            entry["firings"] += 1
            entry["total_s"] += span.duration
            if span.duration > entry["max_s"]:
                entry["max_s"] = span.duration
    rows = []
    names = set(aggregate)
    names.update(rule.name for rule in engine.rules())
    for name in names:
        entry = aggregate.get(name, {"firings": 0, "total_s": 0.0,
                                     "max_s": 0.0})
        firings = entry["firings"]
        row = {
            "rule": name,
            "firings": firings,
            "mean_s": entry["total_s"] / firings if firings else 0.0,
            "max_s": entry["max_s"],
            "total_s": entry["total_s"],
        }
        try:
            rule = engine.get_rule(name)
            row["quarantined"] = bool(rule.quarantined)
            row["enabled"] = bool(rule.enabled)
        except KeyError:
            row["quarantined"] = False
            row["enabled"] = None
        rows.append(row)
    rows.sort(key=lambda r: (r["mean_s"], r["total_s"]), reverse=True)
    return rows[:limit]


class _EndpointError(Exception):
    """An endpoint-specific HTTP error (status + JSON payload)."""

    def __init__(self, status: int, payload: dict[str, Any]):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


class AdminServer:
    """Loopback HTTP server over one engine; one daemon thread per request
    (``ThreadingHTTPServer``), started at construction, stopped by
    :meth:`close` (the engine calls it during shutdown)."""

    def __init__(self, engine: Any, port: int = 0, host: str = "127.0.0.1"):
        self.engine = engine
        self._httpd = ThreadingHTTPServer((host, port), self._make_handler())
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="reach-admin", daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    # -- request handling ----------------------------------------------------

    def _make_handler(self):
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: Any) -> None:
                pass  # admin traffic must not spam the process's stderr

            def do_GET(self) -> None:
                server._handle(self)

            def do_POST(self) -> None:
                server._handle(self)

        return _Handler

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(request.path)
        query = {key: values[-1]
                 for key, values in parse_qs(parsed.query).items()}
        try:
            result = self._dispatch(parsed.path, query)
        except _EndpointError as exc:
            self._respond(request, exc.status, "application/json",
                          json.dumps(exc.payload))
            return
        except KeyError:
            self._respond(request, 404, "application/json",
                          json.dumps({"error": f"no such endpoint: "
                                               f"{parsed.path}",
                                      "endpoints": sorted(_ROUTES)}))
            return
        except Exception as exc:  # engine closed mid-request, bad query, ...
            self._respond(request, 500, "application/json",
                          json.dumps({"error": repr(exc)}))
            return
        content_type, body = result
        self._respond(request, 200, content_type, body)

    @staticmethod
    def _respond(request: BaseHTTPRequestHandler, status: int,
                 content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        request.send_response(status)
        request.send_header("Content-Type",
                            f"{content_type}; charset=utf-8")
        request.send_header("Content-Length", str(len(payload)))
        request.end_headers()
        request.wfile.write(payload)

    def _dispatch(self, path: str, query: dict[str, str]) \
            -> tuple[str, str]:
        normalized = path.rstrip("/") or "/"
        if normalized.startswith("/trace/"):
            return self._trace(normalized[len("/trace/"):], query)
        handler = _ROUTES[normalized]
        return handler(self, query)

    # -- endpoints -----------------------------------------------------------

    def _json(self, payload: Any) -> tuple[str, str]:
        return ("application/json",
                json.dumps(payload, indent=2, default=repr))

    def _index(self, query: dict[str, str]) -> tuple[str, str]:
        return self._json(
            {"endpoints": sorted(_ROUTES) + ["/trace/<id>"]})

    def _stats(self, query: dict[str, str]) -> tuple[str, str]:
        return self._json(self.engine.statistics())

    def _metrics(self, query: dict[str, str]) -> tuple[str, str]:
        text = render_prometheus(self.engine.metrics_registry.snapshot())
        return ("text/plain; version=0.0.4", text)

    def _traces(self, query: dict[str, str]) -> tuple[str, str]:
        traces = self.engine.tracer.traces()
        limit = int(query.get("limit", 0))
        if limit > 0:
            traces = traces[-limit:]
        return self._json({"count": len(traces),
                           "traces": [trace.to_dict() for trace in traces]})

    def _trace(self, raw_id: str, query: dict[str, str]) -> tuple[str, str]:
        # One assembled cross-component trace tree.  ``engine.trace`` on
        # a sharded topology merges every shard's tracer retention, so a
        # trace spanning wire request, detection, cross-shard composition
        # and detached execution comes back as one tree.
        try:
            trace_id = int(raw_id)
        except ValueError:
            raise _EndpointError(400, {
                "error": f"trace id must be an integer, got {raw_id!r}"})
        trace = self.engine.trace(trace_id)
        if trace is None:
            raise _EndpointError(404, {
                "error": f"no such trace: {trace_id}",
                "hint": "traces are retained up to the tracer capacity; "
                        "see /traces for what is currently held"})
        return self._json(trace.to_dict())

    def _slow_rules(self, query: dict[str, str]) -> tuple[str, str]:
        limit = int(query.get("limit", 20))
        return self._json({"rules": slow_rules(self.engine, limit=limit)})

    def _locks(self, query: dict[str, str]) -> tuple[str, str]:
        # The live lock-table view plus the curated concurrency surface
        # (stripe wait percentiles, WAL, history merge lag).  The legacy
        # top-level keys (resources/deadlocks_detected/timeouts) are part
        # of the endpoint's contract and stay.
        payload = self.engine.locks.snapshot()
        payload["concurrency"] = self.engine.concurrency_stats()
        return self._json(payload)

    def _wal(self, query: dict[str, str]) -> tuple[str, str]:
        return self._json(self.engine.storage.wal_stats())

    def _composer(self, query: dict[str, str]) -> tuple[str, str]:
        # Durable composite-event detection: per-composer half-matched
        # group counts, pending semi-composed occurrences, checkpoint /
        # restore / fallback counters, and the last durable checkpoint
        # LSN — "how much detection state would a crash lose right now?"
        return self._json(self.engine.composer_stats())

    def _shards(self, query: dict[str, str]) -> tuple[str, str]:
        # Topology view: shard count, OID block size, per-shard hot
        # counters, replication state.  Duck-typed like everything else —
        # a single-kernel engine reports itself as a one-shard topology.
        return self._json(self.engine.shard_stats())

    def _server(self, query: dict[str, str]) -> tuple[str, str]:
        # The network front end, when one is attached: listen address,
        # connection/request counters, per-tenant rate-limit state.  An
        # engine without a server answers the inert stub, not a 404 —
        # pollers can rely on the shape.
        return self._json(self.engine.server_stats())

    def _flight(self, query: dict[str, str]) -> tuple[str, str]:
        flight = self.engine.flight
        payload = flight.snapshot()
        tail = int(query.get("tail", 0))
        if tail > 0:
            payload["entries"] = flight.entries()[-tail:]
        return self._json(payload)

    def _flight_dump(self, query: dict[str, str]) -> tuple[str, str]:
        path = self.engine.flight.dump(reason=query.get("reason", "admin"))
        return self._json({"path": path})


_ROUTES = {
    "/": AdminServer._index,
    "/stats": AdminServer._stats,
    "/metrics": AdminServer._metrics,
    "/traces": AdminServer._traces,
    "/slow-rules": AdminServer._slow_rules,
    "/locks": AdminServer._locks,
    "/wal": AdminServer._wal,
    "/composer": AdminServer._composer,
    "/shards": AdminServer._shards,
    "/server": AdminServer._server,
    "/flight": AdminServer._flight,
    "/flight/dump": AdminServer._flight_dump,
}
