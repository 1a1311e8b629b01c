#!/usr/bin/env python3
"""reproctl — talk to a live REACH engine's admin endpoint.

Start the engine with an admin port::

    engine = ReachEngine(config=ExecutionConfig(admin_port=8787))

then, from any shell (stdlib + the repro wire codec — the script adds
``src/`` to its path, no install needed)::

    python scripts/reproctl.py --port 8787 stats
    python scripts/reproctl.py --port 8787 slow-rules
    python scripts/reproctl.py --port 8787 metrics     # Prometheus text
    python scripts/reproctl.py --port 8787 shards      # shard topology
    python scripts/reproctl.py --port 8787 server      # network front end
    python scripts/reproctl.py --port 8787 composer    # half-matched state
    python scripts/reproctl.py --port 8787 flight --tail 20
    python scripts/reproctl.py --port 8787 dump        # flight dump to disk
    python scripts/reproctl.py --port 8787 top         # slowest rules/tenants
    python scripts/reproctl.py --port 8787 trace 8123456789   # one trace tree
    python scripts/reproctl.py --port 8787 why 42      # one event's firings

Against a ``reproserve`` wire port (not the admin port), ``wire-ping``
speaks the length-prefixed JSON protocol itself — handshake + ping —
which makes it the smallest possible liveness/auth probe::

    python scripts/reproctl.py --port 7707 wire-ping --token s3cret

Exit codes: 0 ok, 1 unreachable, 2 rejected (bad token / server error).
HTTP plumbing and wire framing both come from ``repro.server.protocol``
so reproctl can never drift from what the server actually speaks.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import urllib.error

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.errors import ProtocolError, ReachError  # noqa: E402
from repro.server import protocol  # noqa: E402

COMMANDS = {
    "stats": "/stats",
    "metrics": "/metrics",
    "traces": "/traces",
    "slow-rules": "/slow-rules",
    "locks": "/locks",
    "wal": "/wal",
    "composer": "/composer",
    "shards": "/shards",
    "server": "/server",
    "flight": "/flight",
    "dump": "/flight/dump",
}

WIRE_COMMANDS = {"wire-ping"}

#: commands with their own fetch/render logic (not a 1:1 endpoint map):
#: ``trace <id>`` fetches one assembled trace tree, ``why <seq>`` one
#: event occurrence with its components and rule firings (the seq is the
#: ``event_seq`` of a ``flight`` entry), ``top`` composes the live
#: slowest-rules / slowest-tenants view from two endpoints.
COMPOSED_COMMANDS = {"trace", "why", "top"}


def summarize_stats(stats: dict) -> str:
    tx = stats.get("transactions", {})
    sched = stats.get("scheduler", {})
    storage = stats.get("storage", {})
    sessions = stats.get("sessions", {})
    events = stats.get("events", {})
    flight = stats.get("flight", {})
    lines = [
        f"sessions   created={sessions.get('created', 0)} "
        f"active={sessions.get('active', 0)}",
        f"tx         begun={tx.get('begun', 0)} "
        f"committed={tx.get('committed', 0)} "
        f"aborted={tx.get('aborted', 0)}",
        f"events     detected={events.get('detected', 0)} "
        f"semi_composed={events.get('semi_composed_pending', 0)}",
        f"scheduler  immediate={sched.get('immediate', 0)} "
        f"deferred_run={sched.get('deferred_run', 0)} "
        f"detached_run={sched.get('detached_run', 0)} "
        f"dead_letters={sched.get('dead_letters', 0)}",
        f"rules      registered={stats.get('rules', 0)} "
        f"quarantined={len(sched.get('quarantined_rules', []))}",
        f"storage    objects={storage.get('objects', 0)} "
        f"pages={storage.get('pages', 0)} "
        f"wal_bytes={storage.get('wal_bytes', 0)}",
        f"flight     recorded={flight.get('recorded', 0)} "
        f"retained={flight.get('retained', 0)} "
        f"dropped={flight.get('dropped', 0)}",
    ]
    return "\n".join(lines)


def summarize_server(stats: dict) -> str:
    if not stats.get("enabled"):
        return "server     not attached"
    connections = stats.get("connections", {})
    requests = stats.get("requests", {})
    address = stats.get("address") or ["?", "?"]
    lines = [
        f"listening  {address[0]}:{address[1]} "
        f"draining={stats.get('draining', False)}",
        f"conns      accepted={connections.get('accepted', 0)} "
        f"active={connections.get('active', 0)} "
        f"rejected_auth={connections.get('rejected_auth', 0)}",
        f"requests   served={requests.get('served', 0)} "
        f"errors={requests.get('errors', 0)} "
        f"rate_limited={requests.get('rate_limited', 0)} "
        f"replays={requests.get('idempotent_replays', 0)}",
    ]
    for tenant, counters in sorted(stats.get("tenants", {}).items()):
        line = (f"tenant     {tenant}: "
                f"requests={counters.get('requests', 0)} "
                f"errors={counters.get('errors', 0)} "
                f"rate_limited={counters.get('rate_limited', 0)}")
        latency = counters.get("latency") or {}
        if latency.get("count"):
            line += (f" p50={latency.get('p50', 0) * 1e3:.2f}ms"
                     f" p99={latency.get('p99', 0) * 1e3:.2f}ms")
        lines.append(line)
    return "\n".join(lines)


def summarize_trace(trace: dict) -> str:
    """Render one assembled trace tree, children indented under parents."""
    spans = trace.get("spans", [])
    lines = [f"trace {trace.get('trace_id')} spans={len(spans)}"]
    by_parent: dict = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    span_ids = {span.get("span_id") for span in spans}

    def wing(span: dict, depth: int) -> None:
        duration = span.get("duration")
        shown = (f"{duration * 1e3:.3f}ms" if isinstance(duration, float)
                 else "open")
        attrs = span.get("attributes") or {}
        decor = " ".join(f"{key}={attrs[key]}" for key in
                         ("tenant", "op", "mode", "outcome", "attempt")
                         if key in attrs)
        lines.append(f"  {'  ' * depth}{span.get('name')} "
                     f"[{span.get('kind')}] {shown}"
                     + (f"  {decor}" if decor else ""))
        for child in by_parent.get(span.get("span_id"), []):
            wing(child, depth + 1)

    # Roots: no parent, or a parent recorded in another process (the
    # client's span id is never in a server-side retention).
    for span in spans:
        if span.get("parent_id") not in span_ids:
            wing(span, 0)
    return "\n".join(lines)


def summarize_why(answer: dict) -> str:
    """Render one ``/why/<seq>`` answer: the occurrence, what it was
    composed from, and every rule firing it caused with its outcome."""
    lines = [f"event seq={answer.get('seq')}: {answer.get('event')} "
             f"(shard {answer.get('shard')})",
             f"  at {answer.get('timestamp', 0.0):.3f}, transactions "
             f"{answer.get('transactions') or '(none)'}",
             f"  category: {answer.get('category')}"]
    components = answer.get("components") or []
    if components:
        lines.append("  composed from:")
        lines.extend(f"    seq={part.get('seq')} {part.get('event')} "
                     f"@{part.get('timestamp', 0.0):.3f}"
                     for part in components)
    if answer.get("parameters"):
        lines.append(f"  parameters: {answer['parameters']}")
    firings = answer.get("firings") or []
    if not firings:
        lines.append("  rule firings: none")
        return "\n".join(lines)
    lines.append("  rule firings:")
    for record in firings:
        tx = record.get("tx")
        lines.append(f"    {record.get('rule')} "
                     f"[{record.get('mode')}/{record.get('phase')}] "
                     f"-> {record.get('outcome')}"
                     + (f" (tx {tx})" if tx else "")
                     + f" on shard {record.get('shard')}")
    return "\n".join(lines)


def summarize_top(rules: list, server: dict) -> str:
    """The ``reproctl top`` view: slowest rules, slowest tenants."""
    lines = ["slowest rules (mean firing latency)"]
    firing = [row for row in rules if row.get("firings")]
    if firing:
        for row in firing:
            flags = " QUARANTINED" if row.get("quarantined") else ""
            lines.append(
                f"  {row.get('rule', '?'):24s} "
                f"firings={row.get('firings', 0):<6d} "
                f"mean={row.get('mean_s', 0.0) * 1e3:8.3f}ms "
                f"max={row.get('max_s', 0.0) * 1e3:8.3f}ms{flags}")
    else:
        lines.append("  (no firings in the retained traces)")
    lines.append("slowest tenants (request latency)")
    tenants = (server or {}).get("tenants", {})
    rows = []
    for tenant, counters in tenants.items():
        latency = counters.get("latency") or {}
        rows.append((latency.get("p99", 0.0), tenant, counters, latency))
    rows.sort(reverse=True)
    if rows:
        for p99, tenant, counters, latency in rows:
            lines.append(
                f"  {tenant:24s} "
                f"requests={counters.get('requests', 0):<6d} "
                f"errors={counters.get('errors', 0):<4d} "
                f"rate_limited={counters.get('rate_limited', 0):<4d} "
                f"p50={latency.get('p50', 0.0) * 1e3:8.3f}ms "
                f"p99={p99 * 1e3:8.3f}ms")
    else:
        lines.append("  (no tenant traffic; is a reproserve attached?)")
    return "\n".join(lines)


#: commands printed as a text summary unless ``--json`` is given.
SUMMARIES = {
    "stats": summarize_stats,
    "server": summarize_server,
    "trace": summarize_trace,
    "why": summarize_why,
}


def wire_ping(host: str, port: int, token: str | None,
              timeout: float) -> int:
    """Handshake + ping against a reproserve wire port."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        print(f"reproctl: cannot reach {host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    try:
        sock.settimeout(timeout)
        protocol.write_frame(
            sock, protocol.request("hello", 0, token=token,
                                   client="reproctl"))
        hello = protocol.read_frame(sock)
        if not hello.get("ok"):
            error = hello.get("error", {})
            print(f"reproctl: rejected: [{error.get('code')}] "
                  f"{error.get('message')}", file=sys.stderr)
            return 2
        protocol.write_frame(sock, protocol.request("ping", 1))
        pong = protocol.read_frame(sock)
        result = hello.get("result", {})
        print(json.dumps({"server": result,
                          "pong": pong.get("result", {})}, indent=2))
        return 0
    except (ReachError, ProtocolError, OSError) as exc:
        print(f"reproctl: wire error: {exc}", file=sys.stderr)
        return 1
    finally:
        sock.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reproctl",
        description="query a live REACH engine's admin endpoint")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True,
                        help="admin port (ExecutionConfig(admin_port=...)) "
                             "or, for wire-*, the reproserve port")
    parser.add_argument("--timeout", type=float, default=5.0)
    parser.add_argument("--json", action="store_true", dest="raw_json",
                        help="print raw JSON even for summarized commands")
    parser.add_argument("--token", default=None,
                        help="bearer token (wire commands)")
    parser.add_argument("command",
                        choices=sorted(COMMANDS) + sorted(WIRE_COMMANDS)
                        + sorted(COMPOSED_COMMANDS),
                        help="endpoint to query")
    parser.add_argument("argument", nargs="?", default=None,
                        help="trace: the trace id to fetch; why: the "
                             "event seq to explain")
    parser.add_argument("--limit", type=int, default=0,
                        help="traces/slow-rules/top: cap the returned rows")
    parser.add_argument("--tail", type=int, default=0,
                        help="flight: include the N most recent entries")
    args = parser.parse_args(argv)

    if args.command in WIRE_COMMANDS:
        return wire_ping(args.host, args.port, args.token, args.timeout)
    if args.command == "top":
        return top(args)

    if args.command == "trace":
        if args.argument is None:
            parser.error("trace requires a trace id "
                         "(reproctl ... trace <id>)")
        path = f"/trace/{args.argument}"
    elif args.command == "why":
        if args.argument is None:
            parser.error("why requires an event seq "
                         "(reproctl ... why <seq>)")
        path = f"/why/{args.argument}"
    else:
        path = COMMANDS[args.command]
    params = {"limit": args.limit or "", "tail": args.tail or ""}
    try:
        content_type, body = protocol.http_get(
            args.host, args.port, path, params,
            timeout=args.timeout, token=args.token)
    except protocol.AdminUnreachable as exc:
        print(f"reproctl: {exc}", file=sys.stderr)
        return 1
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            detail = f" ({payload.get('error', '')})"
        except Exception:
            pass
        print(f"reproctl: server answered {exc.code}: {exc.reason}{detail}",
              file=sys.stderr)
        return 2

    if args.command == "metrics":
        sys.stdout.write(body)
        return 0
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        sys.stdout.write(body)
        return 0
    summarize = SUMMARIES.get(args.command)
    if summarize is not None and not args.raw_json:
        print(summarize(payload))
        return 0
    print(json.dumps(payload, indent=2))
    return 0


def top(args: argparse.Namespace) -> int:
    """Compose the live slowest-rules / slowest-tenants view."""
    try:
        _, rules_body = protocol.http_get(
            args.host, args.port, "/slow-rules",
            {"limit": args.limit or ""},
            timeout=args.timeout, token=args.token)
        _, server_body = protocol.http_get(
            args.host, args.port, "/server",
            timeout=args.timeout, token=args.token)
    except protocol.AdminUnreachable as exc:
        print(f"reproctl: {exc}", file=sys.stderr)
        return 1
    except urllib.error.HTTPError as exc:
        print(f"reproctl: server answered {exc.code}: {exc.reason}",
              file=sys.stderr)
        return 2
    rules = json.loads(rules_body).get("rules", [])
    server = json.loads(server_body)
    if args.raw_json:
        print(json.dumps({"rules": rules, "server": server}, indent=2))
        return 0
    print(summarize_top(rules, server))
    return 0


if __name__ == "__main__":
    sys.exit(main())
