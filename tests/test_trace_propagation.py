"""End-to-end causal tracing: one client-minted trace id across the wire.

The acceptance story for the distributed-tracing work: a ``ReachClient``
mints a :class:`~repro.obs.tracer.TraceContext`, carries it in the
reserved ``trace`` frame field, and the server adopts it — so the wire
request, sentry detection, cross-shard composition, detached execution
(including a retry after a transient action failure), the action's
transaction commit and its group-commit WAL wait all come back as ONE
span tree from ``engine.trace(<id>)`` and ``GET /trace/<id>``.

Also covered here: sixteen concurrent wire clients with zero trace-id
bleed, property-based round-tripping of the wire codec (old clients and
garbage fields must never fail a request), and the sampling contract on
both ends of the wire.

Seed-parametrizable like the other fault suites: CI re-runs it under
several ``REPRO_FAULT_SEED`` values; every assertion must hold for any
seed.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CouplingMode,
    EventScope,
    ExecutionConfig,
    ReachEngine,
    Sequence,
    ShardingConfig,
    SignalEventSpec,
    sentried,
)
from repro.core.sharding import ShardedEngine
from repro.obs.tracer import TraceContext
from repro.server import ReachClient, ReachServer, protocol
from tests.conftest import wait_until

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


@sentried
class Crate:
    def __init__(self):
        self.location = "dock"

    def move(self, where):
        self.location = where


def make_traced_db(tmp_path, engine_class=ReachEngine, **config_kwargs):
    config_kwargs.setdefault("fault_injection", True)
    config_kwargs.setdefault("fault_seed", FAULT_SEED)
    return engine_class(directory=str(tmp_path / "tdb"),
                        config=ExecutionConfig(observability=True,
                                               **config_kwargs))


def http_get(url):
    """(status, parsed JSON body) — HTTP errors return their status."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _pair_with_remote_completion(engine):
    """Signal names (a, b) for a ``Sequence(a, b)`` whose composite homes
    on a different shard than b — so the *completing* leaf must cross the
    event bus, putting cross-shard composition inside b's trace."""
    a_name = "leg-a"
    candidate = 0
    while True:
        b_name = f"leg-b{candidate}"
        candidate += 1
        spec = Sequence(SignalEventSpec(a_name), SignalEventSpec(b_name))
        b_home = engine.shard_for_key(SignalEventSpec(b_name).key())
        if engine.shard_for_key(spec.key()) != b_home:
            return a_name, b_name


# ---------------------------------------------------------------------------
# The acceptance test: one trace id, client to WAL
# ---------------------------------------------------------------------------


class TestEndToEndTrace:
    def test_one_trace_covers_wire_shards_retry_and_wal(self, tmp_path):
        db = make_traced_db(tmp_path, ShardedEngine,
                            sharding=ShardingConfig(shards=2),
                            detached_max_retries=2, retry_base_delay=0.001,
                            admin_port=0)
        db.register_class(Crate)
        crate = Crate()
        session = db.create_session("local")
        lander = db.create_session("lander")
        with session.transaction():
            session.persist(crate, "crate")

        a_name, b_name = _pair_with_remote_completion(db)
        # Each wire signal is its own transaction, so pairing them needs
        # the multi-transaction scope (which requires a validity window).
        spec = (Sequence(SignalEventSpec(a_name), SignalEventSpec(b_name))
                .scoped(EventScope.MULTI_TX).within(600.0))
        attempts = []

        def land(ctx):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient landing failure")
            with lander.transaction():
                crate.move("landed")

        db.rule("pair", spec, action=land,
                coupling=CouplingMode.DETACHED)
        server = ReachServer(db).start()
        try:
            with ReachClient(*server.address) as client:
                client.signal(a_name, leg=1)
                first_tid = client.last_trace.trace_id
                client.signal(b_name, leg=2)
                completing_tid = client.last_trace.trace_id
            assert first_tid != completing_tid

            wait_until(lambda: len(attempts) >= 2)
            with session.transaction():
                assert crate.location == "landed"
            wait_until(lambda: (trace := db.trace(completing_tid))
                       is not None and trace.find(name="wal:commit_wait"))

            trace = db.trace(completing_tid)
            # Every span in the tree carries the client-minted id.
            assert {s.trace_id for s in trace.spans} == {completing_tid}
            # The adopted wire request roots the trace.
            requests = trace.find(kind="server")
            assert [s.name for s in requests] == ["request:signal"]
            assert requests[0].parent_id is None
            # Sentry detection and (cross-shard) composition are inside.
            assert trace.find(name="detect:")
            assert trace.find(kind="composer")
            # The detached firing failed once, retried, then executed —
            # all pinned to the same trace.
            fires = trace.find(name="fire:pair")
            outcomes = [s.attributes.get("outcome") for s in fires]
            assert "error" in outcomes and "executed" in outcomes
            assert trace.find(name="retry:pair")
            # The action's transaction and its WAL commit barrier wait.
            assert trace.find(name="tx:commit")
            assert trace.find(name="wal:commit_wait")
            # Every span is finished, with a measurable duration.
            for span in trace.spans:
                assert span.end >= span.start > 0.0
                assert span.duration >= 0.0

            # The completing leaf really crossed shards, and the one tree
            # holds both shards' work: b's detection on b's home shard
            # and the composition on the composite's home shard.
            assert db.bus.forwarded >= 1
            assert db.shard_for_key(spec.key()) != \
                db.shard_for_key(SignalEventSpec(b_name).key())
            assert [s for s in trace.find(kind="sentry") if b_name in s.name]
            assert trace.find(kind="composer")

            # The first request's trace exists too: its own root request
            # span plus the detection of leg a — no bleed into leg b.
            first = db.trace(first_tid)
            assert first is not None
            assert {s.trace_id for s in first.spans} == {first_tid}
            assert len(first.find(kind="server")) == 1
            assert first.find(name="detect:")

            # The operator view: the same tree over the admin endpoint.
            host, port = db.admin_address
            status, doc = http_get(
                f"http://{host}:{port}/trace/{completing_tid}")
            assert status == 200
            assert doc["trace_id"] == completing_tid
            assert len(doc["spans"]) == len(trace.spans)
            names = {s["name"] for s in doc["spans"]}
            assert {"request:signal", "tx:commit",
                    "wal:commit_wait"} <= names
            assert all(s["duration"] >= 0.0 for s in doc["spans"])

            status, doc = http_get(f"http://{host}:{port}/trace/987654321")
            assert status == 404 and "no such trace" in doc["error"]
            status, doc = http_get(f"http://{host}:{port}/trace/bogus")
            assert status == 400
        finally:
            server.close()
            db.close()

    def test_slo_histogram_carries_wire_trace_exemplars(self, tmp_path):
        db = make_traced_db(tmp_path)
        hits = []
        db.on(SignalEventSpec("ping")).do(lambda ctx: hits.append(1)) \
            .named("ping-rule")
        server = ReachServer(db).start()
        try:
            with ReachClient(*server.address) as client:
                for __ in range(20):
                    client.signal("ping")
            wait_until(lambda: len(hits) == 20)
            slo = db.metrics().snapshot()["histograms"][
                "slo.detection_latency"]
            assert slo["count"] >= 20
            assert slo["exemplars"], \
                "wire-driven detections must pin trace-id exemplars"
            for exemplar in slo["exemplars"]:
                assert db.trace(exemplar["trace_id"]) is not None
        finally:
            server.close()
            db.close()


# ---------------------------------------------------------------------------
# Sixteen concurrent wire clients: zero bleed
# ---------------------------------------------------------------------------


class TestConcurrentClientIsolation:
    def test_sixteen_clients_traces_never_bleed(self, tmp_path):
        db = make_traced_db(tmp_path)
        hits = []
        db.on(SignalEventSpec("tick")).do(lambda ctx: hits.append(1)) \
            .named("tick-rule")
        server = ReachServer(db).start()
        ids = [[] for __ in range(16)]
        errors = []

        def worker(index):
            try:
                with ReachClient(*server.address) as client:
                    for n in range(5):
                        client.signal("tick", n=n, worker=index)
                        ids[index].append(client.last_trace.trace_id)
            except Exception as exc:           # pragma: no cover
                errors.append(exc)

        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            all_ids = [tid for per_client in ids for tid in per_client]
            # 16 clients x 5 requests, every minted id distinct.
            assert len(all_ids) == 80
            assert len(set(all_ids)) == 80
            wait_until(lambda: len(hits) == 80)
            for tid in all_ids:
                trace = db.trace(tid)
                assert trace is not None
                # Every span belongs to this id, and exactly one wire
                # request roots it: nothing leaked across sessions.
                assert {s.trace_id for s in trace.spans} == {tid}
                assert len(trace.find(kind="server")) == 1
        finally:
            server.close()
            db.close()


# ---------------------------------------------------------------------------
# Wire codec: round-trip and garbage tolerance
# ---------------------------------------------------------------------------

_wire_ids = st.integers(min_value=1, max_value=2**63 - 1)
_garbage = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), st.text()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=10)


class TestWireCodec:
    @settings(max_examples=200, deadline=None)
    @given(trace_id=_wire_ids,
           span_id=st.one_of(st.none(), _wire_ids),
           sampled=st.booleans())
    def test_context_round_trips_through_json_frames(self, trace_id,
                                                     span_id, sampled):
        context = TraceContext(trace_id, span_id, sampled)
        wire = json.loads(json.dumps(protocol.encode_trace(context)))
        assert protocol.decode_trace(wire) == context

    @settings(max_examples=300, deadline=None)
    @given(value=_garbage)
    def test_decode_never_raises_on_garbage(self, value):
        decoded = protocol.decode_trace(value)
        assert decoded is None or isinstance(decoded, TraceContext)

    def test_malformed_fields_are_sanitized_not_fatal(self):
        assert protocol.decode_trace(None) is None
        assert protocol.decode_trace({"id": 0}) is None
        assert protocol.decode_trace({"id": -4}) is None
        assert protocol.decode_trace({"id": True}) is None
        assert protocol.decode_trace({"id": "12"}) is None
        # A valid id survives garbage sibling fields.
        decoded = protocol.decode_trace(
            {"id": 7, "span": "not-a-span", "sampled": "yes"})
        assert decoded == TraceContext(7, None, True)
        assert protocol.decode_trace({"id": 7, "span": 0}).span_id is None


class TestOldClientTolerance:
    def test_untraced_client_is_served_normally(self, tmp_path):
        db = make_traced_db(tmp_path)
        server = ReachServer(db).start()
        try:
            with ReachClient(*server.address,
                             trace_sampling=0.0) as client:
                assert client.ping()["pong"] is True
                with client.transaction():
                    client.put("c1", {"location": "dock"})
                assert client.last_trace is None
            assert server.stats()["requests"]["served"] >= 3
        finally:
            server.close()
            db.close()

    def test_garbage_trace_field_is_served_untraced(self, tmp_path):
        db = make_traced_db(tmp_path)
        server = ReachServer(db).start()
        try:
            with ReachClient(*server.address) as client:
                class _Garbage:
                    def to_wire(self):
                        return ["not", {"a": "context"}]

                client._mint_trace = lambda: _Garbage()
                assert client.ping()["pong"] is True
                assert client.ping()["pong"] is True
            assert server.stats()["requests"]["served"] >= 2
        finally:
            server.close()
            db.close()


# ---------------------------------------------------------------------------
# Sampling on both ends of the wire
# ---------------------------------------------------------------------------


class TestSampling:
    def test_client_fractional_sampling_is_deterministic(self, tmp_path):
        db = make_traced_db(tmp_path)
        server = ReachServer(db).start()
        try:
            with ReachClient(*server.address,
                             trace_sampling=0.25) as client:
                minted = set()
                for __ in range(8):
                    client.ping()
                    if client.last_trace is not None:
                        minted.add(client.last_trace.trace_id)
                # An error-function accumulator: exactly rate * requests.
                assert len(minted) == 2
        finally:
            server.close()
            db.close()

    def test_unsampled_engine_still_adopts_wire_contexts(self, tmp_path):
        # Server-side root sampling off: locally-rooted traces never
        # record, but an explicit client context bypasses root sampling
        # — the client made the sampling decision for both of them.
        db = make_traced_db(tmp_path, trace_sampling=0.0)
        hits = []
        db.on(SignalEventSpec("ping")).do(lambda ctx: hits.append(1)) \
            .named("ping-rule")
        server = ReachServer(db).start()
        try:
            with ReachClient(*server.address) as client:
                client.signal("ping")
                tid = client.last_trace.trace_id
            wait_until(lambda: len(hits) == 1)
            trace = db.trace(tid)
            assert trace is not None
            assert trace.find(kind="server")
            assert trace.find(name="detect:")
        finally:
            server.close()
            db.close()

    def test_both_sides_unsampled_traces_nothing_but_slo_counts(
            self, tmp_path):
        db = make_traced_db(tmp_path, trace_sampling=0.0)
        hits = []
        db.on(SignalEventSpec("ping")).do(lambda ctx: hits.append(1)) \
            .named("ping-rule")
        server = ReachServer(db).start()
        try:
            with ReachClient(*server.address,
                             trace_sampling=0.0) as client:
                for __ in range(10):
                    client.signal("ping")
            wait_until(lambda: len(hits) == 10)
            assert db.tracer.born == 0
            assert db.trace() is None
            # The SLO layer measures every event even with zero traces.
            slo = db.metrics().snapshot()["histograms"][
                "slo.detection_latency"]
            assert slo["count"] == 10
            assert slo["exemplars"] == []
        finally:
            server.close()
            db.close()
