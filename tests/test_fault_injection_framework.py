"""The repro.faults framework: deterministic schedules, engine wiring,
self-healing rule execution (retry, dead letters, quarantine).

The suite is seed-parametrizable: CI runs it under several values of
``REPRO_FAULT_SEED`` to shake out schedule-dependent assumptions.  Every
assertion below must hold for *any* seed — seed-specific expectations
pin their own seed explicitly.
"""

import os

import pytest

from repro import (
    CouplingMode,
    ExecutionConfig,
    MethodEventSpec,
    ReachEngine,
    sentried,
)
from repro.errors import InjectedFault, TransactionAborted
from repro.faults import (
    KNOWN_POINTS,
    LOCK_ACQUIRE,
    NULL_POINT,
    WAL_APPEND,
    WAL_TORN_TAIL,
    FaultRegistry,
)
from repro.oodb.oid import OID
from repro.storage.storage_manager import StorageManager


@sentried
class Gauge:
    def __init__(self):
        self.value = 0

    def bump(self, amount=1):
        self.value += amount


BUMP = MethodEventSpec("Gauge", "bump")


FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def make_db(tmp_path, **config):
    db = ReachEngine(directory=str(tmp_path / "fidb"),
                     config=ExecutionConfig(fault_injection=True,
                                              fault_seed=FAULT_SEED,
                                              **config))
    db.register_class(Gauge)
    return db


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_disabled_registry_hands_out_the_null_point(self):
        registry = FaultRegistry(enabled=False)
        assert registry.point("wal.append") is NULL_POINT
        assert registry.hit("anything") is None

    def test_disabled_registry_refuses_to_arm(self):
        registry = FaultRegistry(enabled=False)
        with pytest.raises(RuntimeError):
            registry.arm("wal.append")

    def test_default_effect_is_injected_fault(self):
        registry = FaultRegistry()
        registry.arm("p")
        with pytest.raises(InjectedFault):
            registry.hit("p")

    def test_one_shot_by_default(self):
        registry = FaultRegistry()
        registry.arm("p")
        with pytest.raises(InjectedFault):
            registry.hit("p")
        registry.hit("p")  # exhausted: no effect
        assert registry.injections == 1
        assert registry.armed_points() == []

    def test_nth_call_schedule(self):
        registry = FaultRegistry()
        registry.arm("p", nth=3)
        registry.hit("p")
        registry.hit("p")
        with pytest.raises(InjectedFault):
            registry.hit("p")
        registry.hit("p")
        assert registry.injections == 1

    def test_times_bounds_total_injections(self):
        registry = FaultRegistry()
        registry.arm("p", times=2)
        for __ in range(2):
            with pytest.raises(InjectedFault):
                registry.hit("p")
        registry.hit("p")
        assert registry.injections == 2

    def test_probability_schedule_is_seed_deterministic(self):
        def pattern(seed):
            registry = FaultRegistry(seed=seed)
            registry.arm("p", probability=0.5, times=None)
            hits = []
            for __ in range(40):
                try:
                    registry.hit("p")
                    hits.append(False)
                except InjectedFault:
                    hits.append(True)
            return hits

        first = pattern(1234)
        assert pattern(1234) == first
        assert any(first) and not all(first)
        assert pattern(99) != first

    def test_custom_exception_and_instance(self):
        registry = FaultRegistry()
        registry.arm("p", exc=TimeoutError)
        with pytest.raises(TimeoutError):
            registry.hit("p")
        registry.arm("p", exc=ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            registry.hit("p")

    def test_callback_receives_context(self):
        seen = []
        registry = FaultRegistry()
        registry.arm("p", callback=seen.append)
        registry.hit("p", tx_id=7)
        assert seen == [{"tx_id": 7, "point": "p"}]

    def test_payload_marker_is_returned_not_raised(self):
        registry = FaultRegistry()
        registry.arm("p", payload={"drop": 3})
        spec = registry.hit("p")
        assert spec.payload == {"drop": 3}

    def test_disarm_and_stats(self):
        registry = FaultRegistry(seed=7)
        registry.arm("a", times=None)
        registry.arm("b", times=None)
        assert registry.armed_points() == ["a", "b"]
        registry.disarm("a")
        assert registry.armed_points() == ["b"]
        with pytest.raises(InjectedFault):
            registry.hit("b")
        registry.disarm()
        assert registry.armed_points() == []
        stats = registry.stats()
        assert stats["enabled"] is True
        assert stats["seed"] == 7
        assert stats["injections"] == 1
        assert stats["points"]["b"]["injected"] == 1

    def test_known_points_documented(self):
        assert WAL_APPEND in KNOWN_POINTS
        assert LOCK_ACQUIRE in KNOWN_POINTS


# ---------------------------------------------------------------------------
# Engine wiring: storage, locks, statistics
# ---------------------------------------------------------------------------

class TestEngineWiring:
    def test_default_config_disables_injection(self, tmp_path):
        db = ReachEngine(directory=str(tmp_path / "plain"))
        try:
            assert db.faults.enabled is False
            stats = db.statistics()
            assert stats["faults"]["enabled"] is False
            with pytest.raises(RuntimeError):
                db.faults.arm(WAL_APPEND)
        finally:
            db.close()

    def test_wal_append_fault_aborts_the_transaction(self, tmp_path):
        db = make_db(tmp_path)
        try:
            gauge = Gauge()
            db.faults.arm(WAL_APPEND)
            with pytest.raises((InjectedFault, TransactionAborted)):
                with db.transaction():
                    db.persist(gauge, "g")
            # The failed transaction leaked nothing; retrying succeeds.
            gauge2 = Gauge()
            with db.transaction():
                db.persist(gauge2, "g2")
            assert db.fetch("g2") is gauge2
        finally:
            db.close()

    def test_lock_acquire_fault_surfaces_in_statistics(self, tmp_path):
        db = make_db(tmp_path)
        try:
            db.faults.arm(LOCK_ACQUIRE, exc=InjectedFault)
            with pytest.raises((InjectedFault, TransactionAborted)):
                with db.transaction():
                    db.tx_manager.lock("some-resource")
            stats = db.statistics()["faults"]
            assert stats["injections"] >= 1
            assert stats["points"][LOCK_ACQUIRE]["injected"] == 1
        finally:
            db.close()

    def test_injections_visible_in_obs_metrics(self, tmp_path):
        db = make_db(tmp_path, observability=True)
        try:
            db.faults.arm("app.point", times=2)
            for __ in range(2):
                with pytest.raises(InjectedFault):
                    db.faults.hit("app.point")
            snapshot = db.metrics().snapshot()
            counters = snapshot["counters"]
            assert counters["faults.injected"] == 2
            assert counters["faults.injected.app.point"] == 2
        finally:
            db.close()


class TestTornTailInjection:
    def test_torn_tail_fault_truncates_and_recovery_discards(self, tmp_path):
        directory = str(tmp_path / "torn")
        faults = FaultRegistry()
        sm = StorageManager(directory, faults=faults)
        sm.begin(1)
        sm.write(1, OID(2), b"durable")
        sm.commit(1)
        sm.flush()
        faults.arm(WAL_TORN_TAIL, payload={"drop": 5})
        sm.begin(2)
        sm.write(2, OID(3), b"torn-away")
        with pytest.raises(InjectedFault):
            sm.commit(2)   # COMMIT record flush crashes mid-write
        sm.crash()
        sm.close()

        recovered = StorageManager(directory)
        try:
            assert recovered.read(None, OID(2)) == b"durable"
            assert not recovered.exists(None, OID(3))
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# Self-healing: retry, dead letters, quarantine
# ---------------------------------------------------------------------------

class TestDetachedRetry:
    def test_fails_twice_then_succeeds_on_retry(self, tmp_path):
        db = make_db(tmp_path, observability=True,
                     detached_max_retries=3, retry_base_delay=0.001)
        try:
            runs = []
            db.faults.arm("app.flaky", times=2)

            def flaky(ctx):
                runs.append(1)
                ctx.db.faults.hit("app.flaky")

            db.rule("flaky", BUMP, action=flaky,
                    coupling=CouplingMode.DETACHED)
            with db.transaction():
                Gauge().bump()
            assert len(runs) == 3            # two failures + one success
            stats = db.statistics()["scheduler"]
            assert stats["detached_retries"] == 2
            assert stats["detached_run"] == 3
            assert stats["dead_letters"] == 0
            assert db.dead_letters() == []
            counters = db.metrics().snapshot()["counters"]
            assert counters["scheduler.retries"] == 2
            assert counters["faults.injected.app.flaky"] == 2
            rule = db.get_rule("flaky")
            assert rule.consecutive_failures == 0
            assert rule.quarantined is False
        finally:
            db.close()

    def test_exhausted_retries_dead_letter_the_work(self, tmp_path):
        db = make_db(tmp_path, observability=True,
                     detached_max_retries=2, retry_base_delay=0.0)
        try:
            def always_fails(ctx):
                raise ValueError("permanently broken")

            db.rule("broken", BUMP, action=always_fails,
                    coupling=CouplingMode.DETACHED)
            with db.transaction():
                Gauge().bump()
            letters = db.dead_letters()
            assert len(letters) == 1
            assert letters[0].rule_name == "broken"
            assert letters[0].attempts == 3   # 1 try + 2 retries
            assert "permanently broken" in letters[0].error
            stats = db.statistics()["scheduler"]
            assert stats["dead_letters"] == 1
            assert stats["detached_retries"] == 2
            counters = db.metrics().snapshot()["counters"]
            assert counters["scheduler.dead_letters"] == 1
            gauges = db.metrics().snapshot()["gauges"]
            assert gauges["scheduler.dead_letters.depth"] == 1
        finally:
            db.close()

    def test_requeue_reexecutes_after_the_cause_clears(self, tmp_path):
        db = make_db(tmp_path, detached_max_retries=0)
        try:
            healthy = []
            db.faults.arm("app.outage", times=1)

            def outage_sensitive(ctx):
                ctx.db.faults.hit("app.outage")
                healthy.append(1)

            db.rule("outage", BUMP, action=outage_sensitive,
                    coupling=CouplingMode.DETACHED)
            with db.transaction():
                Gauge().bump()
            assert len(db.dead_letters()) == 1
            assert healthy == []
            # The outage point is exhausted now; requeue succeeds.
            assert db.requeue() == 1
            assert healthy == [1]
            assert db.dead_letters() == []
        finally:
            db.close()

    def test_no_retry_without_config(self, tmp_path):
        db = make_db(tmp_path)
        try:
            runs = []

            def fails(ctx):
                runs.append(1)
                raise ValueError("no retries configured")

            db.rule("once", BUMP, action=fails,
                    coupling=CouplingMode.DETACHED)
            with db.transaction():
                Gauge().bump()
            assert len(runs) == 1
            assert len(db.dead_letters()) == 1
        finally:
            db.close()


class TestQuarantine:
    def test_rule_quarantined_after_n_consecutive_failures(self, tmp_path):
        db = make_db(tmp_path, observability=True, quarantine_threshold=3)
        try:
            runs = []

            def fails(ctx):
                runs.append(1)
                raise ValueError("bad rule")

            db.rule("sick", BUMP, action=fails,
                    coupling=CouplingMode.DETACHED)
            for __ in range(5):
                with db.transaction():
                    Gauge().bump()
            # The third failure trips the breaker; firings 4-5 skip it.
            assert len(runs) == 3
            rule = db.get_rule("sick")
            assert rule.quarantined is True
            assert rule.enabled is False
            assert rule.consecutive_failures == 3
            stats = db.statistics()["scheduler"]
            assert stats["quarantined"] == 1
            assert stats["quarantined_rules"] == ["sick"]
            counters = db.metrics().snapshot()["counters"]
            assert counters["scheduler.quarantined"] == 1
        finally:
            db.close()

    def test_success_resets_the_failure_streak(self, tmp_path):
        db = make_db(tmp_path, quarantine_threshold=3)
        try:
            db.faults.arm("app.flaky2", nth=1)
            db.faults.arm("app.flaky2", nth=3)

            def sometimes(ctx):
                ctx.db.faults.hit("app.flaky2")

            db.rule("sometimes", BUMP, action=sometimes,
                    coupling=CouplingMode.DETACHED)
            for __ in range(4):   # fail, ok, fail, ok — never 3 in a row
                with db.transaction():
                    Gauge().bump()
            rule = db.get_rule("sometimes")
            assert rule.quarantined is False
            assert rule.enabled is True
            assert rule.consecutive_failures == 0
        finally:
            db.close()

    def test_immediate_failures_count_toward_quarantine(self, tmp_path):
        db = make_db(tmp_path, quarantine_threshold=2)
        try:
            def fails(ctx):
                raise ValueError("immediate bug")

            db.rule("imm-sick", BUMP, action=fails)
            for __ in range(4):
                with db.transaction():
                    Gauge().bump()
            rule = db.get_rule("imm-sick")
            assert rule.quarantined is True
            assert rule.enabled is False
            # Immediate mode never retries: one error per firing, two
            # firings before the breaker tripped.
            assert len(db.scheduler.errors) == 2
        finally:
            db.close()


class TestBoundedErrorLog:
    def test_error_log_is_bounded_and_drops_are_counted(self, tmp_path):
        db = make_db(tmp_path, error_log_capacity=5)
        try:
            def fails(ctx):
                raise ValueError("noise")

            db.rule("noisy", BUMP, action=fails)
            for __ in range(12):
                with db.transaction():
                    Gauge().bump()
            assert len(db.scheduler.errors) == 5
            stats = db.statistics()["scheduler"]
            assert stats["errors_depth"] == 5
            assert stats["errors_dropped"] == 7
        finally:
            db.close()

    def test_errors_list_still_behaves_like_a_list(self, tmp_path):
        db = make_db(tmp_path)
        try:
            def fails(ctx):
                raise ValueError("one")

            db.rule("one", BUMP, action=fails)
            with db.transaction():
                Gauge().bump()
            (rule, exc), = db.scheduler.errors
            assert rule.name == "one"
            db.scheduler.errors.clear()
            assert db.scheduler.errors == []
        finally:
            db.close()
