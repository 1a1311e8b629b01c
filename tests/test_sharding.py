"""ShardedEngine integration: routing, placement, events, topology.

The ISSUE 7 acceptance criteria pinned here:

* object access routes by the pure OID function; placement round-robins
  new objects, honours an explicit ``shard=``, and keeps a resident
  object on its shard;
* a composite event whose leaves home on *different* shards fires its
  rule exactly once per match, and its consumption-policy behaviour is
  bit-identical to PR 4's naive reference evaluator
  (``tests/test_algebra_properties.py``) fed the same detected stream;
* finished sharded transactions leave no semi-composed garbage behind
  (the tx-group sweep replaces the per-transaction EOT discard);
* ``statistics()`` keeps the frozen key set, adds the ``shards``
  topology section, and the admin endpoint serves it at ``/shards``;
* the shards share the coordinator's one observability stack: metrics,
  traces, the flight ring, telemetry and faults read the topology, not
  shard 0.
"""

import json
import os
import random
import sys
import threading
import time
import urllib.request

import pytest

from repro import (
    AbsoluteEventSpec,
    CouplingMode,
    MethodEventSpec,
    SignalEventSpec,
    sentried,
)
from repro.config import ExecutionConfig, ShardingConfig
from repro.core.algebra import Sequence
from repro.core.consumption import ConsumptionPolicy
from repro.core.engine import ReachEngine
from repro.core.sharding import ShardedEngine
from repro.errors import (
    DeadlockError,
    LockError,
    ObjectNotFoundError,
    TransactionStateError,
)
from repro.obs.export import TelemetryPipeline
from repro.obs.flight import FlightRecorder, latest_dump, load_dump
from repro.oodb.address_space import ShardMap
from repro.oodb.locks import DEFAULT_LOCK_STRIPES, LockMode
from repro.oodb.oid import DEFAULT_OID_RANGE_SIZE

from tests.test_algebra_properties import RefEvaluator, RefSeq, _seqs


@sentried(track_state=False)
class Crate:
    def __init__(self, label):
        self.label = label

    def stamp(self):
        return self.label


def _signal_names_homed_on(shard_map, wanted_shards):
    """Signal names whose spec keys home on the given shards, in order."""
    names = []
    candidate = 0
    for want in wanted_shards:
        while True:
            name = f"sig-{candidate}"
            candidate += 1
            if shard_map.shard_of_key(SignalEventSpec(name).key()) == want:
                names.append(name)
                break
    return names


@pytest.fixture
def sdb(tmp_path):
    engine = ShardedEngine(
        directory=str(tmp_path / "sdb"),
        config=ExecutionConfig(sharding=ShardingConfig(shards=4)))
    engine.register_class(Crate, monitor_state=False)
    yield engine
    engine.close()


class TestFacadeAndPlacement:
    def test_facade_builds_the_sharded_engine(self, sdb):
        assert sdb.shard_count == 4
        assert len(sdb.shards) == 4
        assert all(isinstance(shard, ReachEngine)
                   for shard in sdb.shards)

    def test_round_robin_placement_covers_every_shard(self, sdb):
        session = sdb.create_session()
        with session.transaction():
            oids = [session.persist(Crate(f"c{i}"), f"c{i}")
                    for i in range(8)]
        homes = [sdb.shard_of(oid) for oid in oids]
        assert sorted(set(homes)) == [0, 1, 2, 3]
        # Each OID routes to the shard whose dictionary actually holds it.
        for i, oid in enumerate(oids):
            shard = sdb.shard_for(oid)
            assert shard.dictionary.has_name(f"c{i}")

    def test_explicit_shard_wins_and_residents_stay(self, sdb):
        crate = Crate("pinned")
        session = sdb.create_session("placer")
        with session.transaction():
            oid = session.persist(crate, "pinned", shard=2)
        assert sdb.shard_of(oid) == 2
        assert sdb.owning_shard(crate) == 2
        # Re-persisting a resident object ignores round-robin placement.
        with session.transaction():
            again = session.persist(crate)
        assert again == oid
        session.close()

    def test_fetch_and_delete_route_across_shards(self, sdb):
        session = sdb.create_session()
        with session.transaction():
            oid = session.persist(Crate("x"), "x")
        assert sdb.fetch("x").label == "x"
        assert sdb.fetch(oid).label == "x"
        with session.transaction():
            session.delete("x")
        with pytest.raises(ObjectNotFoundError):
            sdb.fetch("x")

    def test_query_concatenates_shard_results(self, sdb):
        session = sdb.create_session()
        with session.transaction():
            for i in range(8):
                session.persist(Crate(f"q{i}"), f"q{i}")
        rows = sdb.query("select c from Crate c")
        assert len(rows) == 8

    def test_session_restricted_to_one_shard(self, sdb):
        session = sdb.create_session("local", shards=[1])
        with session.transaction(shards=[1]):
            oid = session.persist(Crate("near"), shard=1)
        assert sdb.shard_of(oid) == 1
        with pytest.raises(ValueError):
            session.transaction(shards=[3]).__enter__()
        session.close()


@sentried
class Gauge:
    def __init__(self, level):
        self.level = level


class TestStateChangeOwnership:
    """An attribute write reaches one shard's Change PM: one lock, one
    undo record and one bus event, however many shards there are."""

    def _engine(self, tmp_path):
        engine = ShardedEngine(
            str(tmp_path / "s4"),
            config=ExecutionConfig(sharding=ShardingConfig(shards=4)))
        engine.register_class(Gauge)
        return engine

    @staticmethod
    def _observed(engine):
        return [shard.change.changes_observed for shard in engine.shards]

    def test_resident_write_is_handled_by_its_shard_only(self, tmp_path):
        engine = self._engine(tmp_path)
        try:
            session = engine.create_session()
            gauge = Gauge(1)
            with session.transaction():
                session.persist(gauge, "g", shard=2)
            before = self._observed(engine)
            with pytest.raises(RuntimeError):
                with session.transaction():
                    gauge.level = 7
                    assert [a - b for a, b in zip(self._observed(engine),
                                                  before)] == [0, 0, 1, 0]
                    raise RuntimeError("abort")
            assert gauge.level == 1
            with session.transaction():
                gauge.level = 9
            assert engine.fetch("g").level == 9
        finally:
            engine.close()

    def test_transient_write_gets_one_undo_record(self, tmp_path):
        engine = self._engine(tmp_path)
        try:
            session = engine.create_session()
            gauge = Gauge(1)
            with pytest.raises(RuntimeError):
                with session.transaction() as stx:
                    before = self._observed(engine)
                    gauge.level = 5
                    assert [a - b for a, b in zip(self._observed(engine),
                                                  before)] == [1, 0, 0, 0]
                    assert [len(tx.undo_log) for __, tx in
                            sorted(stx.members.items())] == [1, 0, 0, 0]
                    raise RuntimeError("abort")
            assert gauge.level == 1
        finally:
            engine.close()


class TestStatisticsAndAdmin:
    def test_frozen_keys_plus_shards_section(self, sdb):
        stats = sdb.statistics()
        assert set(stats) == set(ShardedEngine.STATISTICS_KEYS)
        topology = stats["shards"]
        assert topology["count"] == 4
        assert len(topology["per_shard"]) == 4
        assert [row["shard_id"] for row in topology["per_shard"]] == \
            [0, 1, 2, 3]
        assert topology["oid_range_size"] == DEFAULT_OID_RANGE_SIZE
        assert sdb.shard_map.range_size == DEFAULT_OID_RANGE_SIZE
        assert "event_bus" in topology

    def test_rules_and_sessions_not_double_counted(self, sdb):
        sdb.rule("only", SignalEventSpec("sig-lonely"),
                 action=lambda ctx: None,
                 coupling=CouplingMode.DEFERRED)
        sdb.create_session()
        stats = sdb.statistics()
        assert stats["rules"] == 1
        assert stats["sessions"] == {"created": 1, "active": 1}

    def test_sentry_deliveries_are_counted_once(self, tmp_path):
        """The shards share one sentry registry; its deliveries show in
        the metrics once, not once per shard."""
        engine = ShardedEngine(
            directory=str(tmp_path / "count"),
            config=ExecutionConfig(observability=True,
                                   sharding=ShardingConfig(shards=2)))
        try:
            engine.register_class(Crate, monitor_state=False)
            engine.rule("stamped", MethodEventSpec("Crate", "stamp"),
                        action=lambda ctx: None,
                        coupling=CouplingMode.IMMEDIATE)
            session = engine.create_session()
            with session.transaction():
                crate = Crate("c")
                session.persist(crate, "c")
                crate.stamp()
                crate.stamp()
            session.close()
            delivered = engine.sentry_registry.notifications_delivered
            assert delivered == 2
            assert engine.metrics().counter(
                "sentry.notifications").value == delivered
            counters = engine.statistics()["observability"]["counters"]
            assert counters["sentry.notifications"] == delivered
        finally:
            engine.close()

    def test_admin_serves_the_topology(self, tmp_path):
        database = ShardedEngine(
            directory=str(tmp_path / "adb"),
            config=ExecutionConfig(observability=True, admin_port=0,
                                   sharding=ShardingConfig(shards=2)))
        try:
            host, port = database.admin_address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/shards", timeout=5.0) as response:
                assert response.status == 200
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["count"] == 2
            assert len(payload["per_shard"]) == 2
            # Shards themselves must not have opened their own servers.
            assert all(shard.admin is None
                       for shard in database.shards)
        finally:
            database.close()


def _tenant_histograms(engine):
    shards = getattr(engine, "shards", [engine])
    return {name for shard in shards
            for name in shard.metrics_registry.snapshot()["histograms"]
            if name.startswith("slo.tenant.")}


class TestCoordinatorServices:
    """What a session or an exception means must not depend on the shard
    count: the coordinator owns the sessions and the abort dump."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_per_tenant_slo_records_on_every_topology(self, tmp_path, shards):
        config = ExecutionConfig(observability=True,
                                 sharding=ShardingConfig(shards=shards))
        engine_class = ShardedEngine if shards > 1 else ReachEngine
        engine = engine_class(directory=str(tmp_path / "slo"), config=config)
        try:
            engine.rule("watch", SignalEventSpec("ping"),
                        action=lambda ctx: None,
                        coupling=CouplingMode.IMMEDIATE)
            session = engine.create_session("acme/c1")
            with session.transaction():
                session.signal("ping")
            assert _tenant_histograms(engine) == {
                "slo.tenant.acme.detection_latency"}
        finally:
            engine.close()

    def test_unhandled_exception_dumps_the_flight_ring(self, tmp_path):
        directory = str(tmp_path / "abort")
        with pytest.raises(RuntimeError):
            with ShardedEngine(directory=directory, config=ExecutionConfig(
                    sharding=ShardingConfig(shards=2))) as engine:
                session = engine.create_session()
                with session.transaction():
                    session.persist(Crate("x"), "x")
                raise RuntimeError("operator error")
        assert engine.closed
        path = latest_dump(directory)
        assert path is not None
        header, records = load_dump(path)
        assert header["reason"] == "unhandled-abort"
        aborts = [r for r in records if r["category"] == "engine.abort"]
        assert aborts and "operator error" in aborts[0]["error"]


class TestCrossShardComposites:
    def _database(self, tmp_path, tag):
        return ShardedEngine(
            directory=str(tmp_path / tag),
            config=ExecutionConfig(sharding=ShardingConfig(shards=2)))

    def test_leaves_home_on_distinct_shards(self, tmp_path):
        db = self._database(tmp_path, "homes")
        try:
            a_name, b_name = _signal_names_homed_on(db.shard_map, [0, 1])
            spec = Sequence(SignalEventSpec(a_name), SignalEventSpec(b_name))
            db.rule("pair", spec, action=lambda ctx: None,
                    coupling=CouplingMode.DEFERRED)
            assert db.bus.stats()["cross_shard_connections"] >= 1
        finally:
            db.close()

    def test_cross_shard_composite_fires_exactly_once(self, tmp_path):
        db = self._database(tmp_path, "once")
        try:
            session = db.create_session()
            a_name, b_name = _signal_names_homed_on(db.shard_map, [0, 1])
            fired = []
            db.rule("pair",
                    Sequence(SignalEventSpec(a_name),
                             SignalEventSpec(b_name)),
                    action=lambda ctx: fired.append(
                        sorted(c.seq for c in
                               ctx.event.all_primitive_components())),
                    coupling=CouplingMode.DEFERRED)
            with session.transaction():
                session.signal(a_name)
                session.signal(b_name)
            assert len(fired) == 1
            assert len(fired[0]) == 2
            assert db.bus.forwarded >= 1
            # The composite is still armed for the next transaction...
            with session.transaction():
                session.signal(a_name)
                session.signal(b_name)
            assert len(fired) == 2
            # ...but never pairs across transactions (single-tx scope).
            with session.transaction():
                session.signal(a_name)
            with session.transaction():
                session.signal(b_name)
            assert len(fired) == 2
        finally:
            db.close()

    def test_tx_group_sweep_leaves_no_semi_composed_garbage(self, tmp_path):
        db = self._database(tmp_path, "sweep")
        try:
            session = db.create_session()
            a_name, b_name = _signal_names_homed_on(db.shard_map, [0, 1])
            db.rule("pair",
                    Sequence(SignalEventSpec(a_name),
                             SignalEventSpec(b_name)),
                    action=lambda ctx: None,
                    coupling=CouplingMode.DEFERRED)
            for _ in range(3):
                with session.transaction():
                    session.signal(a_name)  # initiator left dangling
            for shard in db.shards:
                for manager in shard.events.composite_managers():
                    assert manager.composer.pending_count() == 0
                    assert manager.composer._graphs == {}
        finally:
            db.close()

    @pytest.mark.parametrize("policy", list(ConsumptionPolicy))
    def test_policy_behaviour_matches_reference_evaluator(self, tmp_path,
                                                          policy):
        """PR 4's naive reference evaluator, fed the exact primitive
        stream the sharded kernel detected, must predict the composites
        the cross-shard rule fired — per policy, component-for-component.
        """
        db = self._database(tmp_path, f"ref-{policy.name.lower()}")
        try:
            session = db.create_session()
            a_name, b_name = _signal_names_homed_on(db.shard_map, [0, 1])
            a_spec = SignalEventSpec(a_name)
            b_spec = SignalEventSpec(b_name)
            fired = []
            db.rule("pair",
                    Sequence(a_spec, b_spec).consumed(policy),
                    action=lambda ctx: fired.append(sorted(
                        c.seq for c in
                        ctx.event.all_primitive_components())),
                    coupling=CouplingMode.DEFERRED)

            # Record the detected stream exactly as the composer saw it:
            # a listener on each leaf's primitive manager, on that leaf's
            # home shard, appending in detection order (single thread).
            detected = []
            for name, home in ((a_name, 0), (b_name, 1)):
                manager = db.shards[home].events.primitive_manager(
                    SignalEventSpec(name))
                manager.add_listener(detected.append)

            class _RefLeaf:
                def __init__(self, spec):
                    self.key = spec.key()

                def feed(self, occurrence):
                    return [[occurrence]] \
                        if occurrence.spec_key == self.key else []

            reference = RefEvaluator(
                lambda p: RefSeq(_RefLeaf(a_spec), _RefLeaf(b_spec), p),
                policy, multi_tx=False)

            streams = [
                [a_name, b_name, a_name],
                [a_name, a_name, b_name, b_name],
                [b_name, a_name, b_name],
            ]
            for stream in streams:
                with session.transaction():
                    for name in stream:
                        session.signal(name)

            expected = []
            for occurrence in detected:
                for emission in reference.feed(occurrence):
                    expected.append(sorted(_seqs(emission)))
            assert sorted(fired) == sorted(expected), (
                f"policy {policy.name}: sharded kernel fired {sorted(fired)}"
                f", reference expects {sorted(expected)}")
            assert expected, "stream produced no composites — vacuous test"
        finally:
            db.close()


class TestRuleDefinitionsAndConfig:
    DDL = 'rule Ping { event signal "ping"; action imm n; };'

    def test_define_rules_persist_and_reload(self, tmp_path):
        directory = str(tmp_path / "ddl")
        config = ExecutionConfig(sharding=ShardingConfig(shards=2))
        engine = ShardedEngine(directory=directory, config=config)
        try:
            assert [rule.name for rule in
                    engine.define_rules(self.DDL, persist=True)] == ["Ping"]
        finally:
            engine.close()
        reopened = ShardedEngine(directory=directory, config=config)
        try:
            assert reopened.rules() == []
            loaded = reopened.load_persistent_rules()
            assert [rule.name for rule in loaded] == ["Ping"]
            session = reopened.create_session()
            with session.transaction():
                session.signal("ping", n=1)
            assert reopened.get_rule("Ping").fired_count == 1
        finally:
            reopened.close()

    def test_dropped_persisted_rule_stays_dropped(self, tmp_path):
        """The catalog is shard 0's whichever shard homes the rule."""
        directory = str(tmp_path / "ddl-drop")
        config = ExecutionConfig(sharding=ShardingConfig(shards=2))
        ddl = self.DDL + ' rule Pong { event signal "pong"; action imm n; };'
        engine = ShardedEngine(directory=directory, config=config)
        try:
            engine.define_rules(ddl, persist=True)
            assert engine.rule_home("Pong") == 1
            engine.drop_rule("Pong")
            engine.flush()
        finally:
            engine.close()
        reopened = ShardedEngine(directory=directory, config=config)
        try:
            assert [rule.name for rule in
                    reopened.load_persistent_rules()] == ["Ping"]
        finally:
            reopened.close()

    def test_reach_engine_rejects_a_sharded_config(self, tmp_path):
        with pytest.raises(ValueError,
                           match=r"ExecutionConfig\.sharding\.shards.*"
                                 r"ShardedEngine"):
            ReachEngine(
                directory=str(tmp_path / "one"),
                config=ExecutionConfig(sharding=ShardingConfig(shards=2)))


def _two_shards(tmp_path, name, **config):
    return ShardedEngine(
        directory=str(tmp_path / name),
        config=ExecutionConfig(sharding=ShardingConfig(shards=2), **config))


class TestOneObservabilityStack:
    """The kernels of a sharded engine count, trace and record into the
    coordinator's one stack, so every reader sees the whole topology."""

    def _fire_on_both_shards(self, engine):
        """One IMMEDIATE rule homed on each shard (``on-0``, ``on-1``),
        each fired by its own shard-local transaction."""
        names = _signal_names_homed_on(engine.shard_map, [0, 1])
        for sid, name in enumerate(names):
            engine.rule(f"on-{sid}", SignalEventSpec(name),
                        action=lambda ctx: None,
                        coupling=CouplingMode.IMMEDIATE)
            session = engine.create_session(shards=[sid])
            with session.transaction():
                session.persist(Crate(f"c{sid}"), f"c{sid}", shard=sid)
                session.signal(name)
            session.close()

    def test_telemetry_jsonl_writes_span_records(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        engine = _two_shards(tmp_path, "tel", observability=True,
                             telemetry_jsonl=path)
        try:
            self._fire_on_both_shards(engine)
        finally:
            engine.close()
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        fired = {record["rule"] for record in records
                 if record["type"] == "span"}
        assert {"on-0", "on-1"} <= fired

    def test_pulled_tx_counters_equal_the_statistics(self, tmp_path):
        engine = _two_shards(tmp_path, "tx", observability=True)
        try:
            self._fire_on_both_shards(engine)
            session = engine.create_session()
            for __ in range(3):
                with session.transaction():
                    pass
            transactions = engine.statistics()["transactions"]
            assert transactions["committed"] == 2 + 3 * 2
            for fact, value in transactions.items():
                assert engine.metrics().counter(f"tx.{fact}").value == value
        finally:
            engine.close()

    def test_stack_sections_report_the_configured_values(self, tmp_path):
        engine = _two_shards(tmp_path, "cfg", observability=True,
                             fault_injection=True, fault_seed=7)
        try:
            for shard in engine.shards:
                shard.metrics_registry.histogram("probe.latency").observe(1.0)
            stats = engine.statistics()
            assert stats["flight"]["capacity"] == FlightRecorder().capacity
            assert stats["telemetry"]["capacity"] == \
                TelemetryPipeline().capacity
            assert stats["faults"]["seed"] == 7
            registry = engine.metrics().histogram("probe.latency")
            assert registry.count == 2
            assert stats["observability"]["histograms"]["probe.latency"][
                "p50"] == registry.snapshot()["p50"] == 1.0
        finally:
            engine.close()

    def test_unhandled_abort_dump_holds_shard_one_records(self, tmp_path):
        directory = str(tmp_path / "abort1")
        with pytest.raises(RuntimeError):
            with _two_shards(tmp_path, "abort1") as engine:
                self._fire_on_both_shards(engine)
                raise RuntimeError("operator error")
        header, records = load_dump(latest_dump(directory))
        assert header["reason"] == "unhandled-abort"
        fired = {r["rule"] for r in records if r["category"] == "rule.fire"}
        assert fired == {"on-0", "on-1"}
        assert [r["category"] for r in records].count("wal.flush") >= 2

    def test_admin_flight_and_traces_show_both_shards(self, tmp_path):
        engine = _two_shards(tmp_path, "admin", observability=True,
                             admin_port=0)
        try:
            self._fire_on_both_shards(engine)
            host, port = engine.admin_address
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/flight?tail=200",
                                        timeout=5.0) as response:
                flight = json.loads(response.read().decode("utf-8"))
            assert {entry["rule"] for entry in flight["entries"]
                    if entry["category"] == "rule.fire"} == {"on-0", "on-1"}
            with urllib.request.urlopen(f"{base}/traces",
                                        timeout=5.0) as response:
                traces = json.loads(response.read().decode("utf-8"))
            spans = {span["name"] for trace in traces["traces"]
                     for span in trace["spans"]}
            assert {"fire:on-0", "fire:on-1"} <= spans
        finally:
            engine.close()

    def test_concurrent_commits_on_two_shards_count_exactly(self, tmp_path):
        """Two threads commit on two shards into one registry and one
        flight ring: the pulled ``tx.committed`` is exact and no two ring
        records share a seq."""
        engine = _two_shards(tmp_path, "race", observability=True)
        per_thread = 150
        try:
            before = engine.statistics()["transactions"]["committed"]
            sessions = [engine.create_session(shards=[sid])
                        for sid in (0, 1)]
            crates = [Crate(f"r{sid}") for sid in (0, 1)]
            for sid, (session, crate) in enumerate(zip(sessions, crates)):
                with session.transaction():
                    session.persist(crate, crate.label, shard=sid)
            start = threading.Barrier(2, timeout=30.0)

            def commit(session, crate):
                start.wait()
                for __ in range(per_thread):
                    with session.transaction():
                        crate.stamp()
                        session.persist(crate)

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=commit, args=pair)
                           for pair in zip(sessions, crates)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(previous)
            committed = engine.statistics()["transactions"]["committed"]
            assert committed == before + 2 + 2 * per_thread
            assert engine.metrics().counter("tx.committed").value == \
                committed
            entries = engine.flight.entries()
            seqs = [entry["seq"] for entry in entries]
            assert len(set(seqs)) == len(seqs)
            assert engine.flight.recorded == len(entries) \
                + engine.flight.dropped
        finally:
            engine.close()


def test_single_engine_metrics_are_unchanged(tmp_path):
    """A lone engine's pulled instruments read as they did before the
    stack was shared: the snapshot of a fixed script matches a recorded
    copy key for key."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "data", "single_engine_metrics.json")
    with open(golden, encoding="utf-8") as handle:
        expected = json.load(handle)
    engine = ReachEngine(directory=str(tmp_path / "one"),
                         config=ExecutionConfig(observability=True))
    try:
        engine.register_class(Crate, monitor_state=False)
        engine.rule("imm", MethodEventSpec("Crate", "stamp"),
                    action=lambda ctx: None, coupling=CouplingMode.IMMEDIATE)
        engine.rule("def", MethodEventSpec("Crate", "stamp"),
                    action=lambda ctx: None, coupling=CouplingMode.DEFERRED)
        engine.rule("det", SignalEventSpec("tick"), action=lambda ctx: None,
                    coupling=CouplingMode.DETACHED)
        engine.rule("pair", SignalEventSpec("left") >> SignalEventSpec("right"),
                    action=lambda ctx: None, coupling=CouplingMode.DEFERRED)
        session = engine.create_session("acme/c1")
        crates = [Crate(f"c{index}") for index in range(3)]
        with session.transaction():
            for crate in crates:
                session.persist(crate, crate.label)
        for index in range(6):
            with session.transaction():
                crates[index % 3].stamp()
                session.signal("tick")
                if index % 2:
                    session.signal("left")
                    session.signal("right")
        snapshot = engine.metrics().snapshot()
        assert {"counters": snapshot["counters"],
                "gauges": snapshot["gauges"]} == expected
    finally:
        engine.close()


class TestKernelsShareOneEntry:
    """A sharded engine is one engine to whoever walks the live ones or
    reads its statistics."""

    def test_live_engines_lists_a_two_shard_engine_once(self, tmp_path):
        from repro.core.engine import live_engines
        engine = _two_shards(tmp_path, "live")
        try:
            mine = [live for live in live_engines()
                    if live is engine or live in engine.shards]
            assert mine == [engine]
        finally:
            engine.close()
        assert engine not in live_engines()

    def test_an_open_sharded_transaction_is_one_group(self, tmp_path):
        engine = _two_shards(tmp_path, "groups")
        try:
            session = engine.create_session()
            with session.transaction() as stx:
                assert engine.statistics()["shards"]["tx_groups"] == 1
                assert all(tx.event_tx_ids == stx.ids
                           for tx in stx.members.values())
            assert engine.statistics()["shards"]["tx_groups"] == 0
        finally:
            engine.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_statistics_reads_each_wal_once(self, tmp_path, monkeypatch,
                                            shards):
        from repro.storage.storage_manager import StorageManager
        engine = ShardedEngine(
            directory=str(tmp_path / "wal"),
            config=ExecutionConfig(sharding=ShardingConfig(shards=shards))) \
            if shards > 1 else ReachEngine(directory=str(tmp_path / "wal"))
        reads = []
        original = StorageManager.wal_stats

        def counting(self):
            reads.append(self)
            return original(self)
        monkeypatch.setattr(StorageManager, "wal_stats", counting)
        try:
            stats = engine.statistics()
            assert len(reads) == shards
            assert len(stats["shards"]["per_shard"]) == shards
            row = stats["shards"]["per_shard"][-1]["wal"]
            assert "composer_restores" not in row
            assert "composer_restores" in stats["wal"]
        finally:
            engine.close()


class TestOneSurfaceOverTheKernels:
    """The engine surface fans out over ``kernels``: the shards' dead
    letters form one list, and the admin ``/wal`` view lists every
    shard's log."""

    def test_requeue_runs_one_entry_of_the_concatenated_list(
            self, tmp_path):
        engine = _two_shards(tmp_path, "requeue")
        try:
            broken = [True]
            ran = []

            def action(rule_name):
                def run(ctx):
                    if broken[0]:
                        raise ValueError(f"{rule_name} is broken")
                    ran.append(rule_name)
                return run

            names = _signal_names_homed_on(engine.shard_map, [0, 1])
            for sid, name in enumerate(names):
                engine.rule(f"det-{sid}", SignalEventSpec(name),
                            action=action(f"det-{sid}"),
                            coupling=CouplingMode.DETACHED)
            # Shard-local sessions: each shard's work is its own entry.
            for sid in (1, 0):
                session = engine.create_session(shards=[sid])
                with session.transaction():
                    session.signal(names[sid])
                session.close()
            engine.drain_detached()
            assert [letter.rule_name for letter in engine.dead_letters()] \
                == ["det-0", "det-1"]
            broken[0] = False
            assert engine.requeue(1) == 1
            assert ran == ["det-1"]
            assert [letter.rule_name for letter in engine.dead_letters()] \
                == ["det-0"]
            with pytest.raises(IndexError):
                engine.requeue(1)
            assert engine.requeue(-1) == 1
            assert ran == ["det-1", "det-0"]
            assert engine.dead_letters() == []
        finally:
            engine.close()

    def test_admin_wal_lists_every_shard(self, tmp_path):
        engine = _two_shards(tmp_path, "walview", admin_port=0)
        try:
            engine.register_class(Crate, monitor_state=False)
            session = engine.create_session()
            for sid in (0, 1):
                with session.transaction():
                    session.persist(Crate(f"w{sid}"), f"w{sid}", shard=sid)
            host, port = engine.admin_address
            with urllib.request.urlopen(f"http://{host}:{port}/wal",
                                        timeout=5.0) as response:
                wal = json.loads(response.read().decode("utf-8"))
            rows = engine.statistics()["shards"]["per_shard"]
            assert len(wal["per_shard"]) == 2
            for served, row in zip(wal["per_shard"], rows):
                assert served["flushed_lsn"] == row["wal"]["flushed_lsn"]
                assert served["size_bytes"] == row["wal"]["size_bytes"]
                assert served["flushed_lsn"] >= 1
            assert wal["size_bytes"] == sum(
                row["wal"]["size_bytes"] for row in rows)
        finally:
            engine.close()


class TestAdminViewsOverTheKernels:
    """The admin ``/locks`` view reads the engine's one lock table, and
    ``/why/<seq>`` reads every kernel."""

    def _get(self, engine, path):
        host, port = engine.admin_address
        with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                    timeout=5.0) as response:
            return json.loads(response.read().decode("utf-8"))

    def test_locks_lists_every_shards_table(self, tmp_path):
        @sentried
        class Bin:
            def __init__(self, label):
                self.label = label

        engine = _two_shards(tmp_path, "lockview", admin_port=0)
        try:
            engine.register_class(Bin)
            session = engine.create_session()
            bins = [Bin("l0"), Bin("l1")]
            with session.transaction():
                oids = [session.persist(bin_, bin_.label, shard=sid)
                        for sid, bin_ in enumerate(bins)]
            assert [engine.shard_of(oid) for oid in oids] == [0, 1]
            with session.transaction() as stx:
                for bin_ in bins:   # a write: an X lock on each shard
                    bin_.label += "!"
                locks = self._get(engine, "/locks")
            assert set(locks["resources"]) == {repr(oid) for oid in oids}
            # The group is one family, holding both shards' objects in
            # the engine's one table.
            assert [row["holders"] for row in locks["resources"].values()] \
                == [{str(stx.family_id): "X"}] * 2
            assert locks["stripes"] == DEFAULT_LOCK_STRIPES == 16
            assert len(locks["stripe_occupancy"]) == 16
            assert {"deadlocks_detected", "timeouts", "concurrency"} <= \
                set(locks)
        finally:
            engine.close()

    def test_why_finds_a_composite_and_its_leaves_across_shards(
            self, tmp_path):
        engine = _two_shards(tmp_path, "whyview", admin_port=0)
        try:
            names = _signal_names_homed_on(engine.shard_map, [0, 1])
            fired = []
            engine.rule("pair", Sequence(*map(SignalEventSpec, names)),
                        action=lambda ctx: fired.append(ctx.event),
                        coupling=CouplingMode.DEFERRED)
            home = engine.rule_home("pair")
            session = engine.create_session()
            with session.transaction():
                for name in names:
                    session.signal(name)
            (composite,) = fired
            answer = self._get(engine, f"/why/{composite.seq}")
            assert answer["shard"] == home
            assert [(f["rule"], f["outcome"], f["shard"])
                    for f in answer["firings"]] == \
                [("pair", "executed", home)]
            leaves = [part["seq"] for part in answer["components"]]
            assert [part["event"] for part in answer["components"]] == \
                [f"signal {name!r}" for name in names]
            # Each leaf was detected on its own home shard, one of them
            # not the kernel that fired the rule.
            assert [self._get(engine, f"/why/{seq}")["shard"]
                    for seq in leaves] == [0, 1]
            # The same fields as on one kernel (tests/test_admin_endpoint).
            assert set(answer) == {
                "seq", "event", "category", "timestamp", "transactions",
                "shard", "parameters", "components", "firings"}
        finally:
            engine.close()


@sentried
class Bin:
    def __init__(self, label):
        self.label = label
        self.count = 0


class TestOneLockTable:
    """ROADMAP 18a: a sharded engine has one lock table, and a spanning
    transaction is one lock family in it, so two shards lock as one
    kernel does."""

    #: lock timeout for these tests: a wait the old per-kernel tables
    #: could not see through ends here instead of after ten seconds.
    TIMEOUT = 2.0

    def _engine(self, tmp_path, **config):
        """A two-shard engine holding bin ``a`` on shard 0 and ``b`` on
        shard 1; returns the engine, the bins and their OIDs."""
        engine = _two_shards(tmp_path, "locks", **config)
        for kernel in engine.kernels:
            kernel.locks.timeout = self.TIMEOUT
        engine.register_class(Bin)
        bins = [Bin("a"), Bin("b")]
        session = engine.create_session()
        with session.transaction():
            oids = [session.persist(bin_, bin_.label, shard=sid)
                    for sid, bin_ in enumerate(bins)]
        session.close()
        assert [engine.shard_of(oid) for oid in oids] == [0, 1]
        return engine, bins, oids

    @staticmethod
    def _waiting_on(engine, oid):
        return any(kernel.locks.snapshot()["resources"]
                   .get(repr(oid), {}).get("waiters")
                   for kernel in engine.kernels)

    def _cross(self, engine, bins, oids):
        """Session ``one`` writes ``a`` then ``b``; once it waits for
        ``b``, session ``two`` (which wrote ``b``) writes ``a``.  Returns
        each session's outcome and how long its second write took."""
        first_writes = threading.Barrier(2, timeout=10.0)
        results = {}

        def run(name, order):
            session = engine.create_session(name)
            try:
                with session.transaction():
                    bins[order[0]].label += name
                    first_writes.wait()
                    if name == "two":
                        deadline = time.monotonic() + 10.0
                        while not self._waiting_on(engine, oids[1]):
                            assert time.monotonic() < deadline
                            time.sleep(0.001)
                    started = time.monotonic()
                    try:
                        bins[order[1]].label += name
                    finally:
                        results[name] = [time.monotonic() - started]
                results[name].append("committed")
            except LockError as exc:
                results[name].append(type(exc).__name__)
            finally:
                session.close()

        threads = [threading.Thread(target=run, args=("one", (0, 1))),
                   threading.Thread(target=run, args=("two", (1, 0)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        return results

    def test_crossed_locks_across_shards_deadlock_at_once(self, tmp_path):
        engine, bins, oids = self._engine(tmp_path)
        try:
            results = self._cross(engine, bins, oids)
            waited, outcome = results["two"]
            assert outcome == "DeadlockError"
            assert waited < 0.1
            assert results["one"][1] == "committed"
            assert engine.locks.snapshot()["resources"] == {}
        finally:
            engine.close()

    def test_a_cross_shard_deadlock_is_counted_once(self, tmp_path):
        engine, bins, oids = self._engine(tmp_path, observability=True)
        try:
            self._cross(engine, bins, oids)
            assert engine.metrics().counter("locks.deadlocks").value == 1
            locks = engine.statistics()["concurrency"]["locks"]
            assert locks["deadlocks_detected"] == 1
            assert locks["timeouts"] == 0
        finally:
            engine.close()

    def test_shard_one_commits_while_the_group_holds_shard_zero(
            self, tmp_path):
        engine, bins, oids = self._engine(tmp_path)
        try:
            seen = []
            engine.shards[1].tx_manager.set_hooks(object(), commit=(
                lambda tx: seen.append(
                    engine.kernels[0].locks.holders_of(oids[0])),))
            session = engine.create_session()
            with session.transaction() as stx:
                for bin_ in bins:
                    bin_.label += "!"
            assert seen == [{stx.family_id: LockMode.EXCLUSIVE}]
            assert engine.locks.snapshot()["resources"] == {}
        finally:
            engine.close()

    @pytest.mark.parametrize("ending", [
        "commit", "member_commit_failure", "body_exception",
        "session_close"])
    def test_no_lock_outlives_the_group(self, tmp_path, ending):
        engine, bins, oids = self._engine(tmp_path)
        try:
            def veto(tx):
                raise RuntimeError("shard 1 vetoes its member")

            if ending == "member_commit_failure":
                engine.shards[1].tx_manager.set_hooks(object(), eot=(veto,))
            session = engine.create_session()
            expected = {"commit": None, "member_commit_failure": RuntimeError,
                        "body_exception": ValueError,
                        "session_close": TransactionStateError}[ending]
            try:
                with session.transaction():
                    for bin_ in bins:
                        bin_.label += "!"
                    if ending == "body_exception":
                        raise ValueError("the body fails")
                    if ending == "session_close":
                        session.close()
                        assert engine.locks.snapshot()["resources"] == {}
            except Exception as exc:
                assert type(exc) is expected
            else:
                assert expected is None
            assert engine.locks.snapshot()["resources"] == {}
            assert engine.statistics()["shards"]["tx_groups"] == 0
            # Shard 0 committed before shard 1 failed (item 3).
            assert [bin_.label for bin_ in bins] == {
                "commit": ["a!", "b!"], "member_commit_failure": ["a!", "b"],
                "body_exception": ["a", "b"],
                "session_close": ["a", "b"]}[ending]
        finally:
            engine.close()

    def test_detached_work_released_between_member_commits(self, tmp_path):
        """Detached work ready while the group runs is drained by shard
        0's member commit; it writes ``a``, which the group holds until
        shard 1 has committed too, so it must wait for the group's end
        rather than for its own thread."""
        engine, bins, oids = self._engine(tmp_path)
        try:
            at = next(at for at in range(1, 1000)
                      if engine.shard_for_key(
                          AbsoluteEventSpec(float(at)).key()) == 0)
            engine.rule("touch", AbsoluteEventSpec(float(at)),
                        action=lambda ctx: setattr(bins[0], "label",
                                                   "detached"),
                        coupling=CouplingMode.DETACHED)
            session = engine.create_session()
            started = time.monotonic()
            with session.transaction():
                for bin_ in bins:
                    bin_.label += "!"
                engine.clock.advance(at)   # the temporal event: no trigger
            assert time.monotonic() - started < self.TIMEOUT / 4
            assert bins[0].label == "detached"
            stats = engine.statistics()
            assert stats["scheduler"]["detached_run"] == 1
            assert stats["scheduler"]["dead_lettered"] == 0
            assert stats["concurrency"]["locks"]["timeouts"] == 0
            assert engine.locks.snapshot()["resources"] == {}
        finally:
            engine.close()

    def test_a_contingency_takes_the_spanning_triggers_locks(self, tmp_path):
        engine, bins, oids = self._engine(tmp_path)
        try:
            (name,) = _signal_names_homed_on(engine.shard_map, [0])
            observed = {}

            def contingency(ctx):
                observed["family"] = ctx.transaction.family_id
                observed["holders"] = [engine.locks.holders_of(oid)
                                       for oid in oids]

            engine.rule("contingency", SignalEventSpec(name),
                        action=contingency,
                        coupling=CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT,
                        transfer_locks=True)
            session = engine.create_session()
            with pytest.raises(ValueError):
                with session.transaction():
                    for bin_ in bins:
                        bin_.label += "!"
                    session.signal(name)
                    raise ValueError("the trigger aborts")
            engine.drain_detached()
            family = observed["family"]
            assert observed["holders"] == [{family: LockMode.EXCLUSIVE}] * 2
            assert engine.locks.snapshot()["resources"] == {}
            assert engine.statistics()["scheduler"]["detached_run"] == 1
        finally:
            engine.close()


    def test_spanning_writers_under_contention_leave_the_table_clean(
            self, tmp_path):
        """Four threads on two cores each commit spanning transactions
        that increment two of four bins (two per shard) in random order,
        retrying a deadlock victim.  Each increment reads under the X
        lock its first write took, so no committed increment is lost; no
        wait times out, and no lock outlives its group."""
        engine, bins, oids = self._engine(tmp_path)
        try:
            session = engine.create_session()
            with session.transaction():
                for sid, label in enumerate("cd"):
                    bins.append(Bin(label))
                    session.persist(bins[-1], label, shard=sid)
            session.close()
            per_thread, committed, errors = 25, [], []
            start = threading.Barrier(4, timeout=10.0)

            def write(seed):
                rng = random.Random(seed)
                session = engine.create_session(f"w{seed}")
                start.wait()
                try:
                    for __ in range(per_thread):
                        pair = rng.sample(bins, 2)
                        while True:
                            try:
                                with session.transaction():
                                    for bin_ in pair:
                                        bin_.owner = seed   # the X lock
                                        bin_.count += 1
                            except DeadlockError:
                                # A victim retried at once meets the same
                                # cycle again: back off first.
                                time.sleep(rng.random() / 1000)
                                continue
                            committed.append(pair)
                            break
                except BaseException as exc:
                    errors.append(exc)
                finally:
                    session.close()

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=write, args=(seed,))
                           for seed in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(previous)
            assert errors == []
            assert len(committed) == 4 * per_thread
            assert sum(bin_.count for bin_ in bins) == 2 * len(committed)
            assert engine.statistics()["concurrency"]["locks"][
                "timeouts"] == 0
            assert engine.locks.snapshot()["resources"] == {}
        finally:
            engine.close()

class TestDetectionOnAnotherShard:
    """ROADMAP 2c: a session bound to ``shards=[k]`` calls a method whose
    event is homed on another shard.  The home shard's event service
    finds no transaction of the caller's there, so the occurrence
    carries no ``tx_ids`` and every coupling mode loses its trigger.
    Strict xfails: each passes once the trigger reaches the home shard."""

    def _engine(self, tmp_path, mode, action):
        engine = _two_shards(tmp_path, "remote")
        engine.register_class(Crate, monitor_state=False)
        engine.rule("r", MethodEventSpec("Crate", "stamp"), action=action,
                    coupling=mode)
        other = 1 - engine.rule_home("r")
        return engine, engine.create_session(shards=[other])

    @pytest.mark.xfail(strict=True, reason="ROADMAP 2c: the occurrence "
                       "carries no tx_ids; the rule runs in a new "
                       "top-level transaction")
    def test_immediate_rule_runs_in_the_triggering_transaction(
            self, tmp_path):
        seen = []
        engine, session = self._engine(
            tmp_path, CouplingMode.IMMEDIATE,
            lambda ctx: seen.append((ctx.event.tx_ids,
                                     ctx.transaction.is_top_level)))
        try:
            with session.transaction() as stx:
                Crate("c").stamp()
            assert seen == [(stx.ids, False)]
        finally:
            engine.close()

    @pytest.mark.xfail(strict=True, reason="ROADMAP 2c: with no trigger "
                       "to defer to, the deferred rule runs at once")
    def test_deferred_rule_waits_for_the_end_of_the_transaction(
            self, tmp_path):
        order = []
        engine, session = self._engine(
            tmp_path, CouplingMode.DEFERRED,
            lambda ctx: order.append("deferred"))
        try:
            with session.transaction():
                Crate("c").stamp()
                order.append("body done")
            assert order == ["body done", "deferred"]
        finally:
            engine.close()

    @pytest.mark.xfail(strict=True, reason="ROADMAP 2c: with no trigger "
                       "to depend on, the rule fires though it aborted")
    def test_sequential_causally_dependent_rule_skips_an_aborted_trigger(
            self, tmp_path):
        fired = []
        engine, session = self._engine(
            tmp_path, CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT,
            lambda ctx: fired.append(ctx.event.seq))
        try:
            with pytest.raises(RuntimeError):
                with session.transaction():
                    Crate("c").stamp()
                    raise RuntimeError("abort the trigger")
            engine.drain_detached()
            assert fired == []
        finally:
            engine.close()
