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
  topology section, and the admin endpoint serves it at ``/shards``.
"""

import json
import os
import urllib.request

import pytest

from repro import CouplingMode, SignalEventSpec, sentried
from repro.config import ExecutionConfig, ShardingConfig
from repro.core.algebra import Sequence
from repro.core.consumption import ConsumptionPolicy
from repro.core.engine import ReachEngine
from repro.core.sharding import ShardedEngine
from repro.errors import ObjectNotFoundError
from repro.obs.flight import latest_dump, load_dump
from repro.oodb.address_space import ShardMap

from tests.test_algebra_properties import RefEvaluator, RefSeq, _seqs


@sentried(track_state=False)
class Crate:
    def __init__(self, label):
        self.label = label


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


class TestStatisticsAndAdmin:
    def test_frozen_keys_plus_shards_section(self, sdb):
        stats = sdb.statistics()
        assert set(stats) == set(ShardedEngine.STATISTICS_KEYS)
        topology = stats["shards"]
        assert topology["count"] == 4
        assert len(topology["per_shard"]) == 4
        assert [row["shard_id"] for row in topology["per_shard"]] == \
            [0, 1, 2, 3]
        assert topology["wal_ship"] is False
        assert "event_bus" in topology

    def test_rules_and_sessions_not_double_counted(self, sdb):
        sdb.rule("only", SignalEventSpec("sig-lonely"),
                 action=lambda ctx: None,
                 coupling=CouplingMode.DEFERRED)
        sdb.create_session()
        stats = sdb.statistics()
        assert stats["rules"] == 1
        assert stats["sessions"] == {"created": 1, "active": 1}

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
        path = latest_dump(os.path.join(directory, "shard-0"))
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
