"""The REACH wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  The codec is deliberately symmetric — the server
(:mod:`repro.server.server`), the client (:mod:`repro.server.client`)
and the ``reproctl`` CLI all share the helpers here, so there is exactly
one place framing bugs can live.

Requests are JSON objects::

    {"op": "put", "id": 7, "name": "Rhein", "fields": {"level": 30},
     "idem": "client-42/put/1"}

Responses echo the request ``id``::

    {"id": 7, "ok": true, "result": {"oid": "OID(1025)", ...}}
    {"id": 7, "ok": false, "error": {"code": "rate_limited",
                                     "message": "..."}}

``idem`` is an optional idempotency key: the server caches the response
under ``(tenant, idem)`` and a retry of the same key returns the cached
response without re-applying the request (``"replayed": true`` rides
along), which is what makes retrying a commit over a cut connection
safe.

``trace`` is the reserved trace-context field (distributed tracing)::

    {"op": "signal", "id": 9, "name": "reading", "parameters": {...},
     "trace": {"id": 8123456789, "span": 17, "sampled": true}}

A sampled client mints a :class:`~repro.obs.tracer.TraceContext` per
request; the server adopts it as the explicit context of its request
span, so the whole server-side cascade (detection, cross-shard
composition, detached firing, WAL commit wait) lands in the client's
trace.  The field is optional and decoded tolerantly via
:func:`decode_trace` — frames from older clients simply have no
context, and garbage in the field never fails the request.

Defensive decoding: :func:`read_frame`, the one decoder the server and
the client run, accepts arbitrary byte garbage without ever raising
anything but :class:`ProtocolError` / :class:`FrameTooLargeError`, and a
stream that ends, cleanly or mid-frame, raises
:class:`ConnectionClosedError`.
"""

from __future__ import annotations

import json
import struct
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Optional

from repro.errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
)
from repro.obs.tracer import TraceContext

#: Protocol revision, echoed in the hello response; bumped on any change
#: a deployed client could observe.  The ``trace`` field is additive and
#: ignored by older servers, so it does not bump the version.
PROTOCOL_VERSION = 1

#: Reserved request key carrying the wire trace context.
TRACE_KEY = "trace"

#: Bound on one frame's payload (1 MiB) for the server; a client may
#: pass its own ``max_bytes``.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

# -- structured error codes -------------------------------------------------

ERR_AUTH = "auth"
ERR_RATE_LIMITED = "rate_limited"
ERR_MALFORMED = "malformed"
ERR_FRAME_TOO_LARGE = "frame_too_large"
ERR_UNKNOWN_OP = "unknown_op"
ERR_BAD_REQUEST = "bad_request"
ERR_APP = "app_error"
ERR_DRAINING = "draining"


def encode_frame(payload: Any,
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize ``payload`` as one wire frame.

    Non-JSON-native values fall back to ``repr`` so introspection
    payloads (statistics snapshots carrying OIDs, enums, ...) always
    encode; a payload exceeding ``max_bytes`` raises
    :class:`FrameTooLargeError` before anything is written.
    """
    body = json.dumps(payload, separators=(",", ":"),
                      default=repr).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameTooLargeError(
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte "
            f"bound")
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> Any:
    """Decode one frame body; raises :class:`ProtocolError` on garbage."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


# -- blocking-socket helpers ------------------------------------------------


def _recv_exactly(sock: Any, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionClosedError(
                f"connection closed after {len(chunks)} of {count} "
                f"expected bytes")
        chunks.extend(chunk)
    return bytes(chunks)


def read_frame(sock: Any, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """Read one complete frame from a blocking socket.

    Raises :class:`ConnectionClosedError` on EOF (mid-frame EOF
    included), :class:`FrameTooLargeError` / :class:`ProtocolError` on
    framing garbage.
    """
    header = _recv_exactly(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(
            f"declared frame length {length} exceeds the "
            f"{max_bytes}-byte bound")
    return decode_payload(_recv_exactly(sock, length))


def write_frame(sock: Any, payload: Any,
                max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Encode and send one frame on a blocking socket."""
    sock.sendall(encode_frame(payload, max_bytes=max_bytes))


# -- request / response shapes ----------------------------------------------


def request(op: str, request_id: int, **params: Any) -> dict[str, Any]:
    payload = {"op": op, "id": request_id}
    payload.update(params)
    return payload


def ok_response(request_id: Optional[int], result: Any,
                **extra: Any) -> dict[str, Any]:
    payload = {"id": request_id, "ok": True, "result": result}
    payload.update(extra)
    return payload


def error_response(request_id: Optional[int], code: str,
                   message: str) -> dict[str, Any]:
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def encode_trace(context: TraceContext) -> dict[str, Any]:
    """The wire form of a trace context (the ``trace`` request field)."""
    return context.to_wire()


def decode_trace(value: Any) -> Optional[TraceContext]:
    """Decode a request's ``trace`` field; None when absent/malformed.

    Never raises: a request from an older client (no field) or a
    corrupted field must be served normally, just untraced.
    """
    return TraceContext.from_wire(value)


# -- admin-endpoint (HTTP) helpers ------------------------------------------
#
# The loopback admin endpoint speaks plain HTTP; reproctl used to carry
# its own ad-hoc fetch code.  Centralising it here keeps every piece of
# on-the-wire behaviour (framing, errors, auth headers) in one module.


class AdminUnreachable(ConnectionClosedError):
    """The admin endpoint could not be reached (refused, timeout, DNS)."""


def http_get(host: str, port: int, path: str,
             params: Optional[dict[str, Any]] = None,
             timeout: float = 5.0,
             token: Optional[str] = None) -> tuple[str, str]:
    """GET ``path`` from an admin endpoint; returns (content-type, body).

    ``params`` with false-y values are dropped; ``token`` (if given)
    travels as a bearer ``Authorization`` header.  Raises
    :class:`AdminUnreachable` when no server answers.
    """
    query = urllib.parse.urlencode(
        {key: value for key, value in (params or {}).items() if value})
    url = f"http://{host}:{port}{path}" + (f"?{query}" if query else "")
    req = urllib.request.Request(url)
    if token:
        req.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            content_type = response.headers.get("Content-Type", "")
            return content_type, response.read().decode("utf-8")
    except urllib.error.HTTPError:
        raise                     # a response *was* served; caller's call
    except (urllib.error.URLError, OSError) as exc:
        raise AdminUnreachable(
            f"cannot reach {host}:{port}: {exc}") from exc
