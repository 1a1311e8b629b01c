"""``ReachClient``: the Python client for a ``reproserve`` endpoint.

The client mirrors the in-process :class:`~repro.core.session.Session`
API over the wire — ``begin``/``commit``/``abort`` (plus the
``transaction()`` contextmanager), ``put``/``fetch``/``call``/``query``,
signals, rule definition through a fluent builder, and statistics — so
moving an application from embedded to client/server is a one-line
change of what it constructs.

Reliability model:

* Every request carries a client-generated id; responses are matched by
  echoing it.
* ``commit(idempotent=True)`` (and any call given an ``idem=`` key)
  tags the request with an idempotency key.  If the connection dies
  before the ack arrives, :meth:`ReachClient.retry` — or a manual
  reconnect + re-send of the same key — returns the server's cached
  ack without re-applying the request.  This is the client half of the
  ack-implies-durable contract.
* Server-side errors surface as :class:`~repro.errors.ReachClientError`
  (``exc.code`` holds the structured error code:
  ``auth``, ``rate_limited``, ``not_found``, ``tx_error``, ...).
"""

from __future__ import annotations

import itertools
import socket
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.errors import (
    AuthenticationError,
    ConnectionClosedError,
    ProtocolError,
    RateLimitedError,
    ReachClientError,
)
from repro.obs.tracer import TraceContext, mint_trace_id
from repro.server import protocol


class RemoteRuleBuilder:
    """Fluent builder assembling REACH rule DDL for a remote engine.

    Mirrors the in-process fluent rule API in spirit, but compiles to
    the textual rule language (the only wire-safe representation of
    conditions and actions)::

        client.rule("LowWater").priority(7) \\
              .on("after doc.set(fields)") \\
              .declare("Document", "doc") \\
              .when("doc.level < 10", coupling="immediate") \\
              .do("doc.touch()", coupling="deferred") \\
              .define()
    """

    def __init__(self, client: "ReachClient", name: str):
        self._client = client
        self._name = name
        self._priority: Optional[int] = None
        self._decls: list[str] = []
        self._event: Optional[str] = None
        self._condition: Optional[tuple[str, str]] = None
        self._actions: list[tuple[str, str]] = []

    def priority(self, value: int) -> "RemoteRuleBuilder":
        self._priority = int(value)
        return self

    def declare(self, class_name: str, var: str,
                named: Optional[str] = None) -> "RemoteRuleBuilder":
        decl = f"decl {class_name} {var}"
        if named is not None:
            decl += f' named "{named}"'
        self._decls.append(decl + ";")
        return self

    def on(self, event: str) -> "RemoteRuleBuilder":
        """The event clause body, e.g. ``"after doc.set(fields)"`` or a
        composite like ``"after a.set(x) then after b.set(y) within 5"``."""
        self._event = event.rstrip(";")
        return self

    def when(self, expr: str,
             coupling: str = "immediate") -> "RemoteRuleBuilder":
        self._condition = (_COUPLING[coupling], expr)
        return self

    def do(self, stmt: str,
           coupling: str = "immediate") -> "RemoteRuleBuilder":
        self._actions.append((_COUPLING[coupling], stmt))
        return self

    def ddl(self) -> str:
        if self._event is None:
            raise ValueError(f"rule {self._name!r} has no event clause")
        if not self._actions:
            raise ValueError(f"rule {self._name!r} has no action")
        lines = [f"rule {self._name} {{"]
        if self._priority is not None:
            lines.append(f"  prio {self._priority};")
        for decl in self._decls:
            lines.append(f"  {decl}")
        lines.append(f"  event {self._event};")
        if self._condition is not None:
            mode, expr = self._condition
            lines.append(f"  cond {mode} {expr};")
        first_mode = self._actions[0][0]
        stmts = ", ".join(stmt for _, stmt in self._actions)
        lines.append(f"  action {first_mode} {stmts};")
        lines.append("};")
        return "\n".join(lines)

    def define(self) -> list[str]:
        """Ship the assembled DDL; returns the defined rule names."""
        return self._client.define_rules(self.ddl())


_COUPLING = {
    "immediate": "imm", "imm": "imm",
    "deferred": "def", "def": "def",
    "detached": "det", "det": "det",
}


class ReachClient:
    """A connection to a ``reproserve`` endpoint.

    Thread-compatible, not thread-safe: one client is one session, and
    requests are serialized by an internal lock just like the server
    side serializes a session.  Open one client per worker thread.
    """

    _client_ids = itertools.count(1)

    def __init__(self, host: str, port: int,
                 token: Optional[str] = None,
                 client_name: Optional[str] = None,
                 timeout: Optional[float] = 30.0,
                 max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
                 trace_sampling: float = 1.0):
        if not 0.0 <= trace_sampling <= 1.0:
            raise ValueError("trace_sampling must be in [0.0, 1.0]")
        self.host = host
        self.port = port
        self.token = token
        self.client_name = client_name or f"client-{next(self._client_ids)}"
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        #: fraction of requests that mint a trace context (the client
        #: half of distributed tracing; the server only records adopted
        #: contexts when its engine runs with observability on).
        self.trace_sampling = trace_sampling
        self._sample_acc = 0.0
        #: the context minted for the most recent sampled request —
        #: ``client.last_trace.trace_id`` is what ``/trace/<id>`` and
        #: ``reproctl trace`` take.
        self.last_trace: Optional[TraceContext] = None
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._idem_ids = itertools.count(1)
        self._sock: Optional[socket.socket] = None
        self.tenant: Optional[str] = None
        self.session_name: Optional[str] = None
        self.last_replayed = False
        self._connect()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        hello = self._roundtrip("hello", token=self.token,
                                client=self.client_name)
        self.tenant = hello["tenant"]
        self.session_name = hello["session"]

    def reconnect(self) -> None:
        """Drop the current socket (if any) and re-handshake.  The new
        connection is a fresh server session; idempotency keys are the
        only state that survives (they live server-side, per tenant)."""
        with self._lock:
            self._close_socket()
            self._connect()

    def _close_socket(self) -> None:
        sock = self._sock
        self._sock = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _roundtrip(self, op: str, **params: Any) -> Any:
        sock = self._sock
        if sock is None:
            raise ConnectionClosedError("client is not connected")
        request_id = next(self._request_ids)
        params = {key: value for key, value in params.items()
                  if value is not None}
        frame = protocol.request(op, request_id, **params)
        context = self._mint_trace()
        if context is not None:
            frame[protocol.TRACE_KEY] = protocol.encode_trace(context)
        try:
            protocol.write_frame(sock, frame,
                                 max_bytes=self.max_frame_bytes)
            response = protocol.read_frame(sock,
                                           max_bytes=self.max_frame_bytes)
        except (ConnectionClosedError, OSError) as exc:
            self._close_socket()
            if isinstance(exc, ConnectionClosedError):
                raise
            raise ConnectionClosedError(f"connection lost: {exc}") from exc
        if not isinstance(response, dict) or "ok" not in response:
            raise ProtocolError(f"malformed response: {response!r}")
        if response.get("id") not in (request_id, None):
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}")
        self.last_replayed = bool(response.get("replayed"))
        if response["ok"]:
            return response.get("result")
        error = response.get("error") or {}
        code = error.get("code", "app_error")
        message = error.get("message", "unknown server error")
        if code == protocol.ERR_AUTH:
            raise AuthenticationError(message)
        if code == protocol.ERR_RATE_LIMITED:
            raise RateLimitedError(message)
        raise ReachClientError(code, message)

    def _mint_trace(self) -> Optional[TraceContext]:
        """The per-request sampling decision; None when unsampled.

        The unsampled path is one float add and a compare — the
        near-zero budget the obs-overhead CI job asserts.
        """
        rate = self.trace_sampling
        if rate <= 0.0:
            return None
        if rate < 1.0:
            acc = self._sample_acc + rate
            if acc < 1.0:
                self._sample_acc = acc
                return None
            self._sample_acc = acc - 1.0
        context = TraceContext(mint_trace_id())
        self.last_trace = context
        return context

    def call_op(self, op: str, **params: Any) -> Any:
        """Escape hatch: send any raw protocol op."""
        with self._lock:
            return self._roundtrip(op, **params)

    def fresh_idempotency_key(self) -> str:
        """A key unique to this client instance, for tagging retryable
        requests."""
        return f"{self.client_name}/{next(self._idem_ids)}"

    # ------------------------------------------------------------------
    # Session API
    # ------------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.call_op("ping")

    def begin(self) -> int:
        """Open a transaction; returns the new nesting depth."""
        return self.call_op("begin")["depth"]

    def commit(self, idem: Optional[str] = None,
               idempotent: bool = False) -> dict[str, Any]:
        """Commit the innermost open transaction.

        With ``idempotent=True`` (or an explicit ``idem`` key) the
        commit is tagged so a retry after a lost ack returns the cached
        ack instead of failing with "no open transaction"."""
        if idempotent and idem is None:
            idem = self.fresh_idempotency_key()
        return self.call_op("commit", idem=idem)

    def abort(self) -> dict[str, Any]:
        return self.call_op("abort")

    @contextmanager
    def transaction(self) -> Iterator["ReachClient"]:
        """``with client.transaction():`` — commit on success, abort on
        exception, like the in-process session."""
        self.begin()
        try:
            yield self
        except BaseException:
            try:
                self.abort()
            except (ReachClientError, ConnectionClosedError):
                pass
            raise
        else:
            self.commit()

    def put(self, name: str, fields: Optional[dict[str, Any]] = None,
            kind: str = "document",
            idem: Optional[str] = None) -> dict[str, Any]:
        """Create (or update the fields of) the named Document."""
        return self.call_op("put", name=name, fields=fields or {},
                            kind=kind, idem=idem)

    def fetch(self, target: Any) -> Optional[dict[str, Any]]:
        """Fetch by name (str) or OID integer; returns the serialized
        object view (``{"type": ..., "fields": {...}}``) or None."""
        return self.call_op("fetch", target=target)["object"]

    def call(self, target: Any, method: str, *args: Any,
             idem: Optional[str] = None, **kwargs: Any) -> Any:
        """Invoke a monitored method on a stored object (fires events)."""
        return self.call_op("call", target=target, method=method,
                            args=list(args), kwargs=kwargs,
                            idem=idem)["result"]

    def delete(self, target: Any, idem: Optional[str] = None) -> None:
        self.call_op("delete", target=target, idem=idem)

    def query(self, text: str, **params: Any) -> list[Any]:
        return self.call_op("query", text=text, params=params)["rows"]

    def signal(self, name: str, **parameters: Any) -> None:
        self.call_op("signal", name=name, parameters=parameters)

    def rule(self, name: str) -> RemoteRuleBuilder:
        """Start a fluent rule definition (see :class:`RemoteRuleBuilder`)."""
        return RemoteRuleBuilder(self, name)

    def define_rules(self, ddl: str) -> list[str]:
        return self.call_op("define_rule", ddl=ddl)["rules"]

    def drop_rule(self, name: str) -> str:
        return self.call_op("drop_rule", name=name)["dropped"]

    def firing_log(self) -> dict[str, Any]:
        return self.call_op("firing_log")

    def statistics(self) -> dict[str, Any]:
        """The engine's full frozen-key statistics snapshot."""
        return self.call_op("stats")

    # ------------------------------------------------------------------
    # Retry and lifecycle
    # ------------------------------------------------------------------

    def retry(self, op: str, idem: str, **params: Any) -> Any:
        """Reconnect if needed and re-send ``op`` under the same
        idempotency key.  If the original attempt was applied, the
        server replays its cached ack (``self.last_replayed`` becomes
        True); otherwise the request is applied now.  Either way it is
        applied exactly once."""
        with self._lock:
            if self._sock is None:
                self._connect()
            return self._roundtrip(op, idem=idem, **params)

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        """Say goodbye and drop the socket.  Idempotent."""
        with self._lock:
            if self._sock is None:
                return
            try:
                self._roundtrip("close")
            except (ReachClientError, ConnectionClosedError,
                    ProtocolError, OSError):
                pass
            self._close_socket()

    def __enter__(self) -> "ReachClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return (f"<ReachClient {self.client_name} {state} "
                f"{self.host}:{self.port}>")
