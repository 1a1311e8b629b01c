"""Protocol-conformance and fuzz suite for the REACH wire codec.

The network boundary is only trustworthy if framing survives hostile
input: arbitrary bytes, truncated frames, oversized declared lengths,
and well-framed garbage must never crash the server — malformed
requests get structured errors, framing garbage gets a structured error
and a hangup.  Hypothesis drives ``read_frame``, the one decoder the
server and the client use, over a socket pair (round-trip under
arbitrary chunking, garbage never raises anything undeclared) and a
live server absorbs raw fuzz over a real socket while staying
responsive to well-behaved clients.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ReachEngine
from repro.errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
)
from repro.server import ReachClient, ReachServer, protocol

# -- strategies -------------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=64),
)

json_payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.dictionaries(st.text(max_size=16), children, max_size=8)),
    max_leaves=24,
)


# -- codec round-trip -------------------------------------------------------
#
# The fuzz cases drive ``protocol.read_frame`` — the decoder the server
# and the client run — over a real socket pair.


class _Trickle:
    """The reading end of a socket pair, handing out at most ``chunk``
    bytes per ``recv`` so every partial-read path of ``read_frame`` runs."""

    def __init__(self, sock, chunk):
        self.sock = sock
        self.chunk = chunk

    def recv(self, count):
        return self.sock.recv(min(count, self.chunk))


def _read_stream(data, max_bytes=protocol.MAX_FRAME_BYTES, chunk=None):
    """Every payload ``read_frame`` reads from a socket carrying ``data``
    and then EOF; a cut or clean EOF ends the list."""
    reader, writer = socket.socketpair()
    with reader, writer:
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        source = reader if chunk is None else _Trickle(reader, chunk)
        payloads = []
        while True:
            try:
                payloads.append(protocol.read_frame(source, max_bytes))
            except ConnectionClosedError:
                return payloads


@settings(max_examples=150, deadline=None)
@given(payload=json_payloads)
def test_encode_decode_roundtrip(payload):
    assert _read_stream(protocol.encode_frame(payload)) == [payload]


@settings(max_examples=50, deadline=None)
@given(payloads=st.lists(json_payloads, min_size=1, max_size=6),
       chunk_size=st.integers(min_value=1, max_value=13))
def test_roundtrip_survives_arbitrary_chunking(payloads, chunk_size):
    stream = b"".join(protocol.encode_frame(p) for p in payloads)
    assert _read_stream(stream, chunk=chunk_size) == payloads


@settings(max_examples=200, deadline=None)
@given(garbage=st.binary(max_size=256),
       chunk_size=st.integers(min_value=1, max_value=64))
def test_decoder_never_raises_undeclared_exceptions(garbage, chunk_size):
    """Arbitrary bytes produce payloads, end in a closed connection, or
    raise exactly the declared framing errors — nothing else, ever."""
    try:
        _read_stream(garbage, max_bytes=128, chunk=chunk_size)
    except (ProtocolError, FrameTooLargeError):
        pass


@settings(max_examples=50, deadline=None)
@given(payload=json_payloads, cut=st.integers(min_value=1, max_value=4))
def test_truncated_frame_stays_buffered(payload, cut):
    """A frame cut short waits for its tail, and a peer that hangs up
    mid-frame is a closed connection, not garbage."""
    frame = protocol.encode_frame(payload)
    cut = min(cut, len(frame) - 1)
    reader, writer = socket.socketpair()
    with reader, writer:
        writer.sendall(frame[:-cut])
        tail = threading.Timer(0.002, writer.sendall, (frame[-cut:],))
        tail.start()
        assert protocol.read_frame(reader) == payload
        tail.join()
        writer.sendall(frame[:-cut])
        writer.shutdown(socket.SHUT_WR)
        with pytest.raises(ConnectionClosedError):
            protocol.read_frame(reader)


def test_oversized_declared_length_is_refused():
    """The declared length alone is refused, before any body is read."""
    with pytest.raises(FrameTooLargeError):
        _read_stream(struct.pack(">I", 65), max_bytes=64)
    body = b'"' + b"x" * 62 + b'"'
    assert _read_stream(struct.pack(">I", 64) + body,
                        max_bytes=64) == ["x" * 62]


def test_oversized_outbound_frame_is_refused_before_send():
    with pytest.raises(FrameTooLargeError):
        protocol.encode_frame({"blob": "x" * 256}, max_bytes=64)


def test_undecodable_payload_raises_protocol_error():
    body = b"\xff\xfe not json"
    with pytest.raises(ProtocolError):
        _read_stream(struct.pack(">I", len(body)) + body)


def test_non_json_native_values_encode_via_repr():
    (decoded,) = _read_stream(protocol.encode_frame({"oid": object()}))
    assert decoded["oid"].startswith("<object object")


# -- live-server fuzz -------------------------------------------------------


@pytest.fixture
def served_db(tmp_path):
    db = ReachEngine(directory=str(tmp_path / "db"))
    server = ReachServer(db).start()
    yield db, server
    server.close()
    db.close()


def _raw_connection(server):
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _hello(sock, token=None):
    protocol.write_frame(sock, protocol.request("hello", 0, token=token))
    return protocol.read_frame(sock)


def test_server_survives_raw_byte_garbage(served_db):
    """Fuzz bytes straight onto the socket: the server hangs up (or
    answers a structured error) but keeps serving other clients."""
    db, server = served_db
    blobs = [
        b"\x00" * 4,                                  # zero-length frame
        b"\xff\xff\xff\xff",                          # 4 GiB declared
        struct.pack(">I", 10) + b"not json!!",        # framed garbage
        struct.pack(">I", 100) + b"short",            # truncated, then EOF
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",         # wrong protocol
        bytes(range(256)),
    ]
    for blob in blobs:
        sock = _raw_connection(server)
        try:
            sock.sendall(blob)
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass          # server already hung up on the garbage
            # Drain whatever the server answers until it hangs up; the
            # only contract is "no crash, no hang".
            try:
                while sock.recv(4096):
                    pass
            except OSError:
                pass
        finally:
            sock.close()
    # The server is still alive and correct for a well-behaved client.
    client = ReachClient(*server.address)
    assert client.ping()["pong"] is True
    client.close()
    stats = server.stats()
    assert stats["requests"]["protocol_errors"] >= 1


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(garbage=st.binary(min_size=1, max_size=64))
def test_server_survives_fuzzed_hello(served_db, garbage):
    db, server = served_db
    sock = _raw_connection(server)
    try:
        sock.sendall(garbage)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        try:
            while sock.recv(4096):
                pass
        except OSError:
            pass
    finally:
        sock.close()
    client = ReachClient(*server.address)
    assert client.ping()["pong"] is True
    client.close()


def test_malformed_requests_get_structured_errors(served_db):
    db, server = served_db
    sock = _raw_connection(server)
    try:
        assert _hello(sock)["ok"] is True

        # Non-object request.
        protocol.write_frame(sock, [1, 2, 3])
        response = protocol.read_frame(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_MALFORMED

        # Object without an op.
        protocol.write_frame(sock, {"id": 9})
        response = protocol.read_frame(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_MALFORMED
        assert response["id"] == 9

        # Unknown op echoes the id with a structured code.
        protocol.write_frame(sock, protocol.request("warp", 10))
        response = protocol.read_frame(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_UNKNOWN_OP
        assert response["id"] == 10

        # Bad parameter shapes are bad_request, not crashes.
        protocol.write_frame(sock, protocol.request("put", 11, name=7))
        response = protocol.read_frame(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST

        # The connection is still healthy afterwards.
        protocol.write_frame(sock, protocol.request("ping", 12))
        assert protocol.read_frame(sock)["ok"] is True
    finally:
        sock.close()


def test_first_frame_must_be_hello(served_db):
    db, server = served_db
    sock = _raw_connection(server)
    try:
        protocol.write_frame(sock, protocol.request("ping", 1))
        response = protocol.read_frame(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_MALFORMED
        with pytest.raises(ConnectionClosedError):
            protocol.read_frame(sock)
    finally:
        sock.close()


def test_oversized_frame_from_client_gets_error_then_hangup(tmp_path):
    db = ReachEngine(directory=str(tmp_path / "db"))
    server = ReachServer(db)
    server.start()
    try:
        sock = _raw_connection(server)
        try:
            assert _hello(sock)["ok"] is True
            # The declared length alone is refused; no body follows.
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.ERR_FRAME_TOO_LARGE
            with pytest.raises(ConnectionClosedError):
                protocol.read_frame(sock)
        finally:
            sock.close()
    finally:
        server.close()
        db.close()


def test_response_id_matches_request_id(served_db):
    db, server = served_db
    sock = _raw_connection(server)
    try:
        assert _hello(sock)["ok"] is True
        for request_id in (1, 77, 12345):
            protocol.write_frame(sock,
                                 protocol.request("ping", request_id))
            assert protocol.read_frame(sock)["id"] == request_id
    finally:
        sock.close()
