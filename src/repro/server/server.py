"""``reproserve``: the threaded socket front end over a REACH engine.

The server maps authenticated connections onto engine sessions — one
:class:`~repro.core.session.Session` (or ``ShardedSession``) per
connection, served by a dedicated thread so the session's serving lock
and transaction context stay on the thread that opened them.  On the
wire it speaks the length-prefixed JSON protocol from
:mod:`repro.server.protocol`.

The REACH paper's architecture treats the active OODBMS as a shared
service that many applications connect to; this module is that boundary,
and it is where the engine's transactional guarantees must survive
client failure:

* **Auth**: the first frame must be a ``hello`` carrying a bearer token
  (when ``ServerConfig.auth_tokens`` is set); the token names the
  *tenant*, which scopes rate limiting and idempotency.
* **Rate limiting**: a per-tenant token bucket
  (``rate_limit``/``rate_burst``); one tenant saturating its bucket
  never consumes another tenant's budget.
* **Idempotency**: any request may carry an ``idem`` key.  The response
  is cached *before* the ack is written, so a client whose connection
  died mid-ack can reconnect and retry the same key: the cached ack is
  replayed and the request is applied exactly once.  This is what makes
  ack-implies-durable hold across the wire — an acked commit is durable,
  and an unacked commit is safely retryable.
* **Graceful drain**: :meth:`ReachServer.drain` (wired to SIGTERM by
  :meth:`install_signal_handlers`) stops accepting, lets connections
  with open transactions finish them, shuts everything else down, and
  flushes telemetry.

The server registers itself with the engine via
``engine.attach_server(self)`` — the engine never imports this package
(layering: ``core`` sits below ``server``), it only holds the duck-typed
handle so ``statistics()["server"]`` and ``close()`` reach us.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import OrderedDict
from functools import partial
from typing import Any, Optional

from repro.config import ServerConfig
from repro.errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    InjectedFault,
    ObjectNotFoundError,
    ProtocolError,
    ReachClientError,
    ReachError,
    RuleError,
    TransactionError,
)
from repro.faults.registry import (
    SERVER_ACCEPT,
    SERVER_AUTH,
    SERVER_READ,
    SERVER_WRITE,
)
from repro.obs.metrics import Histogram
from repro.obs.tracer import _NULL_SPAN as _NULL_REQUEST_SPAN
from repro.oodb.oid import OID
from repro.oodb.sentry import sentried
from repro.server import protocol
from repro.server.protocol import (
    ERR_AUTH,
    ERR_BAD_REQUEST,
    ERR_DRAINING,
    ERR_MALFORMED,
    ERR_RATE_LIMITED,
    ERR_UNKNOWN_OP,
    PROTOCOL_VERSION,
    error_response,
    ok_response,
)

#: Tenant used when ``auth_tokens`` is None (open server).
DEFAULT_TENANT = "default"

#: Bound on the server-wide cache of ``(tenant, idempotency key) ->
#: response`` entries that makes retried requests apply exactly once;
#: oldest evicted first.
IDEMPOTENCY_CAPACITY = 1024

#: listen(2) backlog of the accept socket: room for a burst of at least
#: 256 simultaneous connects.
ACCEPT_BACKLOG = 256


@sentried(methods=["set", "touch"])
class Document:
    """The generic wire-addressable persistent class.

    Remote clients have no way to ship Python classes, so ``put``
    materialises their objects as Documents: a ``kind`` tag plus
    arbitrary JSON-able fields.  ``set`` and ``touch`` are monitored
    methods — rules can subscribe to ``after doc.set(...)`` exactly as
    they would to an application method, which keeps the active
    semantics reachable from the wire.
    """

    def __init__(self, kind: str = "document", **fields: Any):
        self.kind = kind
        for key, value in fields.items():
            setattr(self, key, value)

    def set(self, **fields: Any) -> int:
        for key, value in fields.items():
            setattr(self, key, value)
        return len(fields)

    def touch(self) -> None:
        return None


def serialize_object(obj: Any) -> Optional[dict[str, Any]]:
    """A wire-shaped view of a fetched object: type tag + public state."""
    if obj is None:
        return None
    state = {key: value for key, value in vars(obj).items()
             if not key.startswith("_")}
    return {"type": type(obj).__name__, "fields": state}


class _TokenBucket:
    """Per-tenant token bucket; refills continuously at ``rate``/s."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class _IdempotencyCache:
    """Bounded LRU of ``(tenant, key) -> result`` for replayed requests."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.replays = 0
        self._entries: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, tenant: str, key: str) -> Any:
        with self._lock:
            token = (tenant, key)
            if token not in self._entries:
                return None
            self._entries.move_to_end(token)
            self.replays += 1
            return self._entries[token]

    def put(self, tenant: str, key: str, result: Any) -> None:
        with self._lock:
            token = (tenant, key)
            self._entries[token] = result
            self._entries.move_to_end(token)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _WireAbort(BaseException):
    """Private signal thrown through a transaction contextmanager to
    abort it; BaseException so nothing in the body can swallow it."""


class _TxHandle:
    """An imperatively driven ``session.transaction()``.

    The wire protocol needs explicit begin/commit/abort; the handle
    enters the session's transaction scope on ``begin`` and exits it on
    ``commit``/``abort``, so the session stays bound, counted and pinned
    for the whole transaction as a local ``with`` body would keep it.
    Both ends MUST run on the same thread (the session's serving lock is
    an RLock), which the thread-per-connection design guarantees.
    """

    def __init__(self, session: Any):
        self._cm = session.transaction()
        self.tx = self._cm.__enter__()
        self._done = False

    def commit(self) -> None:
        if self._done:
            return
        self._done = True
        self._cm.__exit__(None, None, None)

    def abort(self) -> None:
        if self._done:
            return
        self._done = True
        try:
            # Exiting with an exception aborts the transaction and
            # unbinds the session; __exit__ does not re-raise it.
            self._cm.__exit__(_WireAbort, _WireAbort("wire abort"), None)
        except _WireAbort:
            pass


class _Connection:
    """One accepted socket: its session, open transactions, counters."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, sock: socket.socket, peer: Any):
        self.id = next(self._ids)
        self.sock = sock
        self.peer = peer
        self.tenant = DEFAULT_TENANT
        self.session: Any = None
        self.tx_handles: list[_TxHandle] = []
        self.requests = 0
        self.closing = False

    def shutdown(self) -> None:
        """Unblock the serving thread's recv; idempotent and race-safe."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class ReachServer:
    """The threaded socket server; one instance per engine.

    Lifecycle: construct over an engine, :meth:`start` (binds, attaches
    to the engine, spawns the accept loop), then :meth:`drain` /
    :meth:`close`.  ``close`` is idempotent and is also invoked by
    ``engine.close()`` through the attach handle, so tearing down either
    side tears down both, exactly once.
    """

    def __init__(self, engine: Any, config: Optional[ServerConfig] = None):
        execution = getattr(engine, "config", None)
        if config is None:
            config = getattr(execution, "server", None) or ServerConfig()
        self.engine = engine
        self.config = config
        self.flight = engine.flight
        self._fp_accept = engine.faults.point(SERVER_ACCEPT)
        self._fp_read = engine.faults.point(SERVER_READ)
        self._fp_write = engine.faults.point(SERVER_WRITE)
        self._fp_auth = engine.faults.point(SERVER_AUTH)
        self._listener: Optional[socket.socket] = None
        self._address: Optional[tuple[str, int]] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._connections: dict[int, _Connection] = {}
        self._threads: dict[int, threading.Thread] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self._idempotency = _IdempotencyCache(IDEMPOTENCY_CAPACITY)
        self._draining = False
        self._closed = False
        self._started = False
        self.stop_requested = threading.Event()
        self._counters = {
            "accepted": 0, "rejected_auth": 0, "served": 0, "errors": 0,
            "rate_limited": 0, "protocol_errors": 0, "faults": 0,
        }
        self._tenant_counters: dict[str, dict[str, int]] = {}
        self._tenant_latency: dict[str, Histogram] = {}
        self._request_span_names: dict[str, str] = {}
        self._ops = {
            "ping": self._op_ping,
            "begin": self._op_begin,
            "commit": self._op_commit,
            "abort": self._op_abort,
            "put": self._op_put,
            "fetch": self._op_fetch,
            "call": self._op_call,
            "delete": self._op_delete,
            "query": self._op_query,
            "signal": self._op_signal,
            "define_rule": self._op_define_rule,
            "drop_rule": self._op_drop_rule,
            "firing_log": self._op_firing_log,
            "stats": self._op_stats,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    def start(self) -> "ReachServer":
        if self._started:
            return self
        self._started = True
        # Remote clients create Documents; registering eagerly means the
        # class resolves on every shard before the first wire put.
        self.engine.register_class(Document)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(ACCEPT_BACKLOG)
        self._listener = listener
        self._address = tuple(listener.getsockname()[:2])
        self.engine.attach_server(self)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="reproserve-accept", daemon=True)
        self._accept_thread.start()
        self.flight.record("server", action="start",
                           address=list(self.address))
        return self

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain request.

        The handler only records the request and sets
        :attr:`stop_requested`; the serve loop (see
        :mod:`repro.server.main`) observes the event and performs the
        actual drain outside signal context.
        """
        import signal

        def _handler(signum: int, frame: Any) -> None:
            self.flight.record("server", action="signal", signum=signum)
            self.stop_requested.set()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting, finish in-flight transactions, flush telemetry.

        Connections with no open transaction are shut down immediately;
        connections mid-transaction keep their socket until their stack
        empties (their next post-transaction request closes them).
        Returns True when every connection finished inside ``timeout``
        (default ``ServerConfig.drain_timeout``), False when the
        deadline forced the rest.
        """
        if timeout is None:
            timeout = self.config.drain_timeout
        with self._lock:
            first = not self._draining
            self._draining = True
            idle = [conn for conn in self._connections.values()
                    if not conn.tx_handles]
            in_flight = sum(1 for conn in self._connections.values()
                            if conn.tx_handles)
        if first:
            self.flight.record("server", action="drain_begin",
                               in_flight=in_flight)
        self._close_listener()
        for conn in idle:
            conn.closing = True
            conn.shutdown()
        deadline = time.monotonic() + timeout
        with self._settled:
            while self._connections:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._settled.wait(remaining)
            drained = not self._connections
            stragglers = list(self._connections.values())
        for conn in stragglers:
            conn.closing = True
            conn.shutdown()
        with self._settled:
            deadline = time.monotonic() + 1.0
            while self._connections and time.monotonic() < deadline:
                self._settled.wait(0.1)
        try:
            self.engine.telemetry_pipeline.flush(timeout=5.0)
        except Exception:
            pass
        if first:
            self.flight.record("server", action="drain_end",
                               graceful=drained)
        return drained

    def close(self) -> None:
        """Drain, then tear everything down.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._started:
            self.drain()
            self._close_listener()
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=5.0)
            with self._lock:
                threads = list(self._threads.values())
            for thread in threads:
                thread.join(timeout=5.0)
            self.flight.record("server", action="stop")
        self.engine.detach_server(self)

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is None:
            return
        try:
            # shutdown() unblocks a concurrent accept() (a bare close()
            # leaves the accept thread parked on Linux).
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Accept / serve
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                sock, peer = listener.accept()
            except OSError:
                return                      # listener closed: drain/close
            # Replies go out as soon as they are written: without this,
            # Nagle holds a reply while an earlier one is unacknowledged.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._draining or self._closed:
                    refused = True
                else:
                    refused = False
                    self._counters["accepted"] += 1
                    conn = _Connection(sock, peer)
                    self._connections[conn.id] = conn
                    thread = threading.Thread(
                        target=self._serve_connection, args=(conn,),
                        name=f"reproserve-conn-{conn.id}", daemon=True)
                    self._threads[conn.id] = thread
            if refused:
                try:
                    protocol.write_frame(sock, error_response(
                        None, ERR_DRAINING, "server is draining"))
                except Exception:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            thread.start()

    def _serve_connection(self, conn: _Connection) -> None:
        try:
            try:
                self._fp_accept.hit(peer=str(conn.peer))
            except InjectedFault:
                self._bump("faults")
                return
            self.flight.record("server", action="connect", conn=conn.id,
                               peer=str(conn.peer))
            if not self._handshake(conn):
                return
            while True:
                try:
                    payload = protocol.read_frame(conn.sock)
                    # The request arrived; a fault here cuts the
                    # connection before it is processed.
                    self._fp_read.hit(conn=conn.id)
                except (ConnectionClosedError, OSError, InjectedFault):
                    return
                except (FrameTooLargeError, ProtocolError) as exc:
                    # Framing is no longer trustworthy after garbage:
                    # answer with a structured error, then hang up.
                    self._bump("protocol_errors")
                    code = (protocol.ERR_FRAME_TOO_LARGE
                            if isinstance(exc, FrameTooLargeError)
                            else ERR_MALFORMED)
                    self._try_write(conn, error_response(
                        None, code, str(exc)))
                    return
                response = self._dispatch(conn, payload)
                if not self._try_write(conn, response):
                    return
                if conn.closing:
                    return
                if self._draining and not conn.tx_handles:
                    return
        finally:
            self._teardown_connection(conn)

    def _handshake(self, conn: _Connection) -> bool:
        try:
            hello = protocol.read_frame(conn.sock)
        except (ConnectionClosedError, OSError):
            return False
        except (FrameTooLargeError, ProtocolError) as exc:
            self._bump("protocol_errors")
            self._try_write(conn, error_response(None, ERR_MALFORMED,
                                                 str(exc)))
            return False
        if not isinstance(hello, dict) or hello.get("op") != "hello":
            self._bump("protocol_errors")
            self._try_write(conn, error_response(
                None, ERR_MALFORMED, "first frame must be a hello"))
            return False
        request_id = hello.get("id")
        try:
            self._fp_auth.hit(conn=conn.id)
            tenant = self._authenticate(hello.get("token"))
        except InjectedFault as exc:
            self._bump("faults")
            self._try_write(conn, error_response(
                request_id, ERR_AUTH, f"authentication unavailable: {exc}"))
            return False
        if tenant is None:
            self._bump("rejected_auth")
            self.flight.record("server", action="auth_reject", conn=conn.id)
            self._try_write(conn, error_response(
                request_id, ERR_AUTH, "invalid or missing bearer token"))
            return False
        conn.tenant = tenant
        client_name = hello.get("client") or f"wire-{conn.id}"
        conn.session = self.engine.create_session(
            name=f"{tenant}/{client_name}")
        context = protocol.decode_trace(hello.get(protocol.TRACE_KEY))
        if context is not None:
            self.flight.record("server", action="hello", conn=conn.id,
                               tenant=tenant, trace_id=context.trace_id)
        return self._try_write(conn, ok_response(request_id, {
            "protocol": PROTOCOL_VERSION,
            "server": "reproserve",
            "tenant": tenant,
            "session": conn.session.name,
        }))

    def _authenticate(self, token: Any) -> Optional[str]:
        tokens = self.config.auth_tokens
        if tokens is None:
            return DEFAULT_TENANT
        if not isinstance(token, str):
            return None
        return tokens.get(token)

    def _teardown_connection(self, conn: _Connection) -> None:
        # Disconnect teardown runs on the serving thread itself, the only
        # thread allowed to unwind this session's transactions.
        while conn.tx_handles:
            handle = conn.tx_handles.pop()
            try:
                handle.abort()
            except Exception:
                pass
        if conn.session is not None:
            try:
                conn.session.close()
            except Exception:
                pass
        conn.shutdown()
        try:
            conn.sock.close()
        except OSError:
            pass
        with self._settled:
            self._connections.pop(conn.id, None)
            self._threads.pop(conn.id, None)
            self._settled.notify_all()
        self.flight.record("server", action="disconnect", conn=conn.id,
                           requests=conn.requests)

    def _try_write(self, conn: _Connection, response: Any) -> bool:
        try:
            self._fp_write.hit(conn=conn.id)
            protocol.write_frame(conn.sock, response)
            return True
        except InjectedFault:
            self._bump("faults")
            return False
        except FrameTooLargeError:
            # The *response* outgrew the frame bound; degrade rather
            # than hang up so the client gets a structured error.
            try:
                protocol.write_frame(conn.sock, error_response(
                    response.get("id") if isinstance(response, dict)
                    else None,
                    protocol.ERR_FRAME_TOO_LARGE,
                    "response exceeded the frame bound"))
                return True
            except Exception:
                return False
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, conn: _Connection, payload: Any) -> dict[str, Any]:
        if not isinstance(payload, dict):
            self._bump("protocol_errors")
            return error_response(None, ERR_MALFORMED,
                                  "request must be a JSON object")
        request_id = payload.get("id")
        op = payload.get("op")
        if not isinstance(op, str):
            self._bump("protocol_errors")
            return error_response(request_id, ERR_MALFORMED,
                                  "request has no 'op' string")
        if op == "close":
            conn.closing = True
            return ok_response(request_id, {"closing": True})
        handler = self._ops.get(op)
        if handler is None:
            self._bump("errors")
            return error_response(request_id, ERR_UNKNOWN_OP,
                                  f"unknown op {op!r}")
        context = protocol.decode_trace(payload.get(protocol.TRACE_KEY))
        if not self._admit(conn):
            record = {"action": "rate_limited", "tenant": conn.tenant,
                      "op": op}
            if context is not None:
                record["trace_id"] = context.trace_id
            self.flight.record("server", **record)
            return error_response(request_id, ERR_RATE_LIMITED,
                                  f"tenant {conn.tenant!r} is over its "
                                  f"request budget")
        idem = payload.get("idem")
        if isinstance(idem, str):
            cached = self._idempotency.get(conn.tenant, idem)
            if cached is not None:
                self._bump("served")
                return ok_response(request_id, cached, replayed=True)
        conn.requests += 1
        # The request span: adopted from the client's wire context when
        # one rode along (so the whole server-side cascade lands in the
        # client's trace), locally rooted (subject to trace sampling)
        # otherwise.  Synchronous detection parents onto it through the
        # thread-local stack; detached work inherits via the occurrence.
        tracer = self.engine.tracer
        if context is not None and context.sampled:
            span_cm = tracer.span(
                self._span_name(op), "server",
                trace_id=context.trace_id, parent_id=context.span_id,
                tenant=conn.tenant, op=op)
        elif tracer.enabled:
            span_cm = tracer.span(self._span_name(op), "server",
                                  tenant=conn.tenant, op=op)
        else:
            span_cm = _NULL_REQUEST_SPAN
        started = time.perf_counter()
        failure: Optional[tuple[str, str, str]] = None
        result: Any = None
        with span_cm as span:
            try:
                result = handler(conn, payload)
            except ReachClientError as exc:
                failure = ("errors", exc.code, exc.message)
            except InjectedFault as exc:
                failure = ("faults", "fault", str(exc))
            except ObjectNotFoundError as exc:
                failure = ("errors", "not_found", str(exc))
            except TransactionError as exc:
                failure = ("errors", "tx_error", str(exc))
            except RuleError as exc:
                failure = ("errors", "rule_error", str(exc))
            except (ReachError, Exception) as exc:
                failure = ("errors", protocol.ERR_APP,
                           f"{type(exc).__name__}: {exc}")
            if span is not None and failure is not None:
                span.attributes["error"] = failure[1]
        self._observe_request(
            conn.tenant, time.perf_counter() - started,
            failed=failure is not None,
            trace_id=context.trace_id if context is not None else None)
        if failure is not None:
            counter, code, message = failure
            self._bump(counter)
            return error_response(request_id, code, message)
        self._bump("served")
        if isinstance(idem, str):
            # Cache BEFORE the ack write: if the connection dies during
            # the ack, a retry of the same key replays this result
            # instead of re-applying the request.
            self._idempotency.put(conn.tenant, idem, result)
        return ok_response(request_id, result)

    def _span_name(self, op: str) -> str:
        name = self._request_span_names.get(op)
        if name is None:
            name = self._request_span_names[op] = f"request:{op}"
        return name

    def _observe_request(self, tenant: str, elapsed: float,
                         failed: bool, trace_id: Optional[int]) -> None:
        """Per-tenant SLO bookkeeping for one served/errored request."""
        with self._lock:
            if failed:
                self._tenant_entry(tenant)["errors"] += 1
            histogram = self._tenant_latency.get(tenant)
            if histogram is None:
                # One histogram per tenant: the engine registry's when it
                # is enabled (so render_prometheus exports it), else ours.
                name = f"server.tenant.{tenant}.latency"
                registry = self.engine.metrics_registry
                histogram = self._tenant_latency[tenant] = (
                    registry.histogram(name) if registry.enabled
                    else Histogram(name))
        histogram.observe(elapsed, exemplar=trace_id)

    def _tenant_entry(self, tenant: str) -> dict[str, int]:
        """``tenant``'s request counts (caller holds the lock).  The
        first sight of a tenant registers the engine registry's
        ``server.tenant.<tenant>.<fact>`` counters as reads of them."""
        counters = self._tenant_counters.get(tenant)
        if counters is None:
            counters = self._tenant_counters[tenant] = {
                "requests": 0, "rate_limited": 0, "errors": 0}
            registry = self.engine.metrics_registry
            for fact in counters:
                registry.counter_fn(f"server.tenant.{tenant}.{fact}",
                                    partial(counters.__getitem__, fact))
        return counters

    def _admit(self, conn: _Connection) -> bool:
        tenant = conn.tenant
        with self._lock:
            self._tenant_entry(tenant)["requests"] += 1
            if self.config.rate_limit is None:
                return True
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = _TokenBucket(
                    self.config.rate_limit, self.config.rate_burst)
        if bucket.try_acquire():
            return True
        with self._lock:
            self._tenant_counters[tenant]["rate_limited"] += 1
            self._counters["rate_limited"] += 1
        return False

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @staticmethod
    def _require_str(payload: dict[str, Any], key: str) -> str:
        value = payload.get(key)
        if not isinstance(value, str) or not value:
            raise ReachClientError(ERR_BAD_REQUEST,
                                   f"missing or non-string {key!r}")
        return value

    @staticmethod
    def _target(payload: dict[str, Any]) -> Any:
        target = payload.get("target", payload.get("name"))
        if isinstance(target, int):
            return OID(target)
        if isinstance(target, str) and target:
            return target
        raise ReachClientError(ERR_BAD_REQUEST,
                               "missing 'target' (name or OID integer)")

    @staticmethod
    def _fields(payload: dict[str, Any], key: str = "fields") \
            -> dict[str, Any]:
        fields = payload.get(key) or {}
        if not isinstance(fields, dict) or \
                not all(isinstance(k, str) and k.isidentifier()
                        and not k.startswith("_") for k in fields):
            raise ReachClientError(
                ERR_BAD_REQUEST,
                f"{key!r} must map identifier names to values")
        return fields

    def _op_ping(self, conn: _Connection,
                 payload: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "draining": self._draining}

    def _op_begin(self, conn: _Connection,
                  payload: dict[str, Any]) -> dict[str, Any]:
        if self._draining:
            raise ReachClientError(ERR_DRAINING,
                                   "server is draining; no new transactions")
        conn.tx_handles.append(_TxHandle(conn.session))
        return {"depth": len(conn.tx_handles)}

    def _op_commit(self, conn: _Connection,
                   payload: dict[str, Any]) -> dict[str, Any]:
        if not conn.tx_handles:
            raise ReachClientError(ERR_BAD_REQUEST, "no open transaction")
        handle = conn.tx_handles.pop()
        handle.commit()
        return {"depth": len(conn.tx_handles), "committed": True}

    def _op_abort(self, conn: _Connection,
                  payload: dict[str, Any]) -> dict[str, Any]:
        if not conn.tx_handles:
            raise ReachClientError(ERR_BAD_REQUEST, "no open transaction")
        handle = conn.tx_handles.pop()
        handle.abort()
        return {"depth": len(conn.tx_handles), "aborted": True}

    def _op_put(self, conn: _Connection,
                payload: dict[str, Any]) -> dict[str, Any]:
        name = self._require_str(payload, "name")
        fields = self._fields(payload)
        kind = payload.get("kind") or "document"
        session = conn.session
        with session.use():
            try:
                obj = session.fetch(name)
                created = False
            except ObjectNotFoundError:
                obj = None
                created = True
            if created:
                doc = Document(kind=kind, **fields)
                oid = session.persist(doc, name=name)
                return {"oid": getattr(oid, "value", None), "name": name,
                        "created": True}
            if not hasattr(obj, "set"):
                raise ReachClientError(
                    ERR_BAD_REQUEST,
                    f"{name!r} is a {type(obj).__name__}, not a Document")
            obj.set(**fields)
            return {"oid": None, "name": name, "created": False}

    def _op_fetch(self, conn: _Connection,
                  payload: dict[str, Any]) -> dict[str, Any]:
        target = self._target(payload)
        obj = conn.session.fetch(target)
        return {"object": serialize_object(obj)}

    def _op_call(self, conn: _Connection,
                 payload: dict[str, Any]) -> dict[str, Any]:
        target = self._target(payload)
        method = self._require_str(payload, "method")
        if method.startswith("_"):
            raise ReachClientError(ERR_BAD_REQUEST,
                                   "private methods are not callable")
        args = payload.get("args") or []
        kwargs = self._fields(payload, "kwargs")
        if not isinstance(args, list):
            raise ReachClientError(ERR_BAD_REQUEST, "'args' must be a list")
        session = conn.session
        with session.use():
            obj = session.fetch(target)
            bound = getattr(obj, method, None)
            if not callable(bound):
                raise ReachClientError(
                    ERR_BAD_REQUEST,
                    f"{type(obj).__name__} has no method {method!r}")
            result = bound(*args, **kwargs)
        return {"result": result}

    def _op_delete(self, conn: _Connection,
                   payload: dict[str, Any]) -> dict[str, Any]:
        target = self._target(payload)
        conn.session.delete(target)
        return {"deleted": True}

    def _op_query(self, conn: _Connection,
                  payload: dict[str, Any]) -> dict[str, Any]:
        text = self._require_str(payload, "text")
        params = self._fields(payload, "params")
        rows = conn.session.query(text, **params)
        return {"rows": [serialize_object(row) if hasattr(row, "__dict__")
                         else row for row in rows],
                "count": len(rows)}

    def _op_signal(self, conn: _Connection,
                   payload: dict[str, Any]) -> dict[str, Any]:
        name = self._require_str(payload, "name")
        parameters = self._fields(payload, "parameters")
        conn.session.signal(name, **parameters)
        return {"signalled": name}

    def _op_define_rule(self, conn: _Connection,
                        payload: dict[str, Any]) -> dict[str, Any]:
        ddl = self._require_str(payload, "ddl")
        rules = self.engine.define_rules(ddl)
        return {"rules": [rule.name for rule in rules]}

    def _op_drop_rule(self, conn: _Connection,
                      payload: dict[str, Any]) -> dict[str, Any]:
        name = self._require_str(payload, "name")
        self.engine.drop_rule(name)
        return {"dropped": name}

    def _op_firing_log(self, conn: _Connection,
                       payload: dict[str, Any]) -> dict[str, Any]:
        log = conn.session.firing_log()
        return {"count": len(log), "entries": [repr(entry) for entry in log]}

    def _op_stats(self, conn: _Connection,
                  payload: dict[str, Any]) -> dict[str, Any]:
        return self.engine.statistics()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _bump(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1

    def stats(self) -> dict[str, Any]:
        """The ``statistics()["server"]`` section."""
        with self._lock:
            counters = dict(self._counters)
            tenants = {tenant: dict(values) for tenant, values
                       in self._tenant_counters.items()}
            latencies = dict(self._tenant_latency)
            active = len(self._connections)
            draining = self._draining
        for tenant, histogram in latencies.items():
            entry = tenants.get(tenant)
            if entry is not None:
                entry["latency"] = histogram.snapshot()
        try:
            address: Optional[list[Any]] = list(self.address)
        except RuntimeError:
            address = None
        return {
            "enabled": True,
            "address": address,
            "draining": draining,
            "connections": {"accepted": counters["accepted"],
                            "active": active,
                            "rejected_auth": counters["rejected_auth"]},
            "requests": {"served": counters["served"],
                         "errors": counters["errors"],
                         "protocol_errors": counters["protocol_errors"],
                         "rate_limited": counters["rate_limited"],
                         "faults": counters["faults"],
                         "idempotent_replays": self._idempotency.replays},
            "idempotency_entries": len(self._idempotency),
            "tenants": tenants,
        }

    def __enter__(self) -> "ReachServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = ("closed" if self._closed else
                 "draining" if self._draining else
                 "serving" if self._started else "new")
        return f"<ReachServer {state} connections={len(self._connections)}>"
