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
``/trace/<id>``           one assembled trace tree
``/slow-rules``           per-rule firing latency from traces, plus each
                          rule's coupling, priority and counts
``/why/<seq>``            one event occurrence, its components and firings
``/locks``                the engine's lock table + ``concurrency``
``/wal``                  the ``wal`` section + every kernel's WAL row
``/composer``             half-matched composites + checkpoint/restore LSNs
``/shards``               the ``shards`` section: topology, per-shard rows
``/server``               the ``server`` section (network front end)
``/flight``               flight-recorder state (``?tail=N`` recent entries)
``/flight/dump``          trigger a dump; returns the file path
========================  ==================================================

A non-integer numeric parameter (``?limit=``, ``?tail=``, a trace id
or a seq) answers 400 naming it; an unknown trace or seq answers 404.

This module sits in the ``obs`` layer and therefore must not import
``core``/``oodb``/``storage`` (see ``scripts/check_layering.py``); the
engine is duck-typed over its ``kernels`` (the engine itself, or the
shards of a sharded engine).  ``scripts/reproctl.py`` is the matching
CLI.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.export import render_prometheus


def slow_rules(engine: Any, limit: int = 20) -> list[dict[str, Any]]:
    """Per-rule firing-latency aggregate from the retained traces.

    Scheduler spans are named ``fire:<rule>``; with tracing disabled the
    aggregate is empty but registered rules are still listed, each with
    its event, condition/action coupling, priority, fired count,
    condition rejections and quarantine state, so the endpoint stays
    useful.
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
    rules = {rule.name: rule for rule in engine.rules()}
    rows = []
    for name in set(aggregate) | set(rules):
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
        row.update(_rule_columns(rules.get(name)))
        rows.append(row)
    rows.sort(key=lambda r: (r["mean_s"], r["total_s"]), reverse=True)
    return rows[:limit]


def _rule_columns(rule: Any) -> dict[str, Any]:
    """A registered rule's own state for its ``/slow-rules`` row; a rule
    seen in the traces but since dropped has none."""
    if rule is None:
        return {"quarantined": False, "enabled": None, "event": None,
                "coupling": None, "priority": None, "fired": None,
                "condition_rejections": None}
    coupling = rule.cond_coupling.value
    if rule.action_coupling is not rule.cond_coupling:
        coupling += f" / {rule.action_coupling.value}"
    return {"quarantined": bool(rule.quarantined),
            "enabled": bool(rule.enabled),
            "event": rule.event.describe(),
            "coupling": coupling,
            "priority": rule.priority,
            "fired": rule.fired_count,
            "condition_rejections": rule.condition_rejections}


def why(engine: Any, seq: int) -> Optional[dict[str, Any]]:
    """Explain one event occurrence: why did (or didn't) a rule fire?

    ``seq`` is the occurrence's global sequence number, the
    ``event_seq`` of the flight recorder's ``event`` and ``rule.fire``
    records.  The answer holds the occurrence with its parameters, its
    primitive components, and every firing record it caused with its
    outcome (``executed``, ``condition_false``, ``skipped``, ``error``);
    each carries the kernel (``shard``) whose history or scheduler holds
    it.
    ``None`` when no kernel's retained history holds ``seq``: ECA-manager
    histories keep their newest ``history_capacity`` occurrences.
    """
    held = ((shard, occ) for shard, kernel in enumerate(engine.kernels)
            for manager in (kernel.events.primitive_managers()
                            + kernel.events.composite_managers())
            for occ in manager.history.entries() if occ.seq == seq)
    shard, occ = next(held, (None, None))
    if occ is None:
        return None
    return {
        "seq": seq,
        "event": occ.spec.describe(),
        "category": occ.category.value,
        "timestamp": occ.timestamp,
        "transactions": sorted(occ.tx_ids),
        "shard": shard,
        "parameters": dict(occ.parameters),
        "components": [{"seq": part.seq, "event": part.spec.describe(),
                        "timestamp": part.timestamp}
                       for part in occ.all_primitive_components()]
        if occ.components else [],
        "firings": [dict(record.flight_fields(), shard=index)
                    for index, kernel in enumerate(engine.kernels)
                    for record in list(kernel.scheduler.firing_log)
                    if record.event_seq == seq],
    }


def _integer(name: str, raw: Any) -> int:
    """``raw`` as an int, or a 400 naming the parameter."""
    try:
        return int(raw)
    except ValueError:
        raise _EndpointError(400, {
            "error": f"{name} must be an integer, got {raw!r}"}) from None


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
        for prefix, handler in _ID_ROUTES.items():
            if normalized.startswith(prefix):
                return handler(self, normalized[len(prefix):], query)
        handler = _ROUTES[normalized]
        return handler(self, query)

    # -- endpoints -----------------------------------------------------------

    def _json(self, payload: Any) -> tuple[str, str]:
        return ("application/json",
                json.dumps(payload, indent=2, default=repr))

    def _index(self, query: dict[str, str]) -> tuple[str, str]:
        return self._json(
            {"endpoints": sorted(_ROUTES) + ["/trace/<id>", "/why/<seq>"]})

    def _stats(self, query: dict[str, str]) -> tuple[str, str]:
        return self._json(self.engine.statistics())

    def _metrics(self, query: dict[str, str]) -> tuple[str, str]:
        text = render_prometheus(self.engine.metrics_registry.snapshot())
        return ("text/plain; version=0.0.4", text)

    def _traces(self, query: dict[str, str]) -> tuple[str, str]:
        traces = self.engine.tracer.traces()
        limit = _integer("limit", query.get("limit", 0))
        if limit > 0:
            traces = traces[-limit:]
        return self._json({"count": len(traces),
                           "traces": [trace.to_dict() for trace in traces]})

    def _trace(self, raw_id: str, query: dict[str, str]) -> tuple[str, str]:
        # One cross-component trace tree.  A sharded topology's kernels
        # share one tracer, so a trace spanning wire request, detection,
        # cross-shard composition and detached execution is one tree.
        trace_id = _integer("trace id", raw_id)
        trace = self.engine.trace(trace_id)
        if trace is None:
            raise _EndpointError(404, {
                "error": f"no such trace: {trace_id}",
                "hint": "traces are retained up to the tracer capacity; "
                        "see /traces for what is currently held"})
        return self._json(trace.to_dict())

    def _slow_rules(self, query: dict[str, str]) -> tuple[str, str]:
        limit = _integer("limit", query.get("limit", 20))
        return self._json({"rules": slow_rules(self.engine, limit=limit)})

    def _why(self, raw_seq: str, query: dict[str, str]) -> tuple[str, str]:
        seq = _integer("seq", raw_seq)
        answer = why(self.engine, seq)
        if answer is None:
            raise _EndpointError(404, {
                "error": f"no recorded occurrence with seq={seq}",
                "hint": "each ECA-manager keeps its newest "
                        "history_capacity occurrences; see /flight for "
                        "recent event_seq values"})
        return self._json(answer)

    def _locks(self, query: dict[str, str]) -> tuple[str, str]:
        # The engine's one live lock table (its kernels share it), plus
        # the statistics' concurrency section (stripe wait percentiles,
        # WAL, history merge lag).  The top-level keys (resources/
        # stripes/stripe_occupancy/deadlocks_detected/timeouts) are part
        # of the endpoint's contract and stay.
        payload = self.engine.locks.snapshot()
        payload["concurrency"] = self.engine.statistics()["concurrency"]
        return self._json(payload)

    def _wal(self, query: dict[str, str]) -> tuple[str, str]:
        # The statistics' wal section (one kernel's log, or the sum over
        # a sharded engine's) and, under ``per_shard``, every kernel's
        # own log from the shards section.
        stats = self.engine.statistics()
        payload = stats["wal"]
        payload["per_shard"] = [row["wal"]
                                for row in stats["shards"]["per_shard"]]
        return self._json(payload)

    def _composer(self, query: dict[str, str]) -> tuple[str, str]:
        # Durable composite-event detection: per-composer half-matched
        # group counts, pending semi-composed occurrences, checkpoint /
        # restore / fallback counters, and the last durable checkpoint
        # LSN — "how much detection state would a crash lose right now?"
        return self._json(self.engine.composer_stats())

    def _shards(self, query: dict[str, str]) -> tuple[str, str]:
        # Topology view: shard count, OID block size, per-shard hot
        # counters, event bus.  Duck-typed like everything else —
        # a single-kernel engine reports itself as a one-shard topology.
        return self._json(self.engine.statistics()["shards"])

    def _server(self, query: dict[str, str]) -> tuple[str, str]:
        # The network front end, when one is attached: listen address,
        # connection/request counters, per-tenant rate-limit state.  An
        # engine without a server answers the inert stub, not a 404 —
        # pollers can rely on the shape.
        return self._json(self.engine.statistics()["server"])

    def _flight(self, query: dict[str, str]) -> tuple[str, str]:
        flight = self.engine.flight
        payload = flight.snapshot()
        tail = _integer("tail", query.get("tail", 0))
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

#: Routes whose last path segment is an integer id.
_ID_ROUTES = {
    "/trace/": AdminServer._trace,
    "/why/": AdminServer._why,
}
