"""Observability subsystem (``repro.obs``): traces, metrics, engine handles.

Covers the PR-1 acceptance criteria:

* one *connected* trace per sentried call — detection span at the root,
  ECA dispatch, composition, rule firing and a detached rule's commit all
  reachable through parent ids — across IMMEDIATE, DEFERRED and both
  flavours of detached execution;
* zero-cost disabled path: a disabled registry/tracer hands out shared
  null instruments and records nothing;
* the frozen ``statistics()`` key set, consistent before any transaction;
* the fluent rule builder and the curated package surface.
"""

import pytest

from repro import (
    CouplingMode,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    MetricsRegistry,
    ReachEngine,
    RuleBuilder,
    Sequence,
    Tracer,
    sentried,
)
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
)
from repro.obs.tracer import NULL_TRACER
from tests.conftest import wait_until


@sentried
class Boiler:
    def __init__(self):
        self.pressure = 0
        self.vented = 0

    def pressurize(self, amount):
        self.pressure += amount

    def heat(self, amount):
        self.pressure += amount

    def vent(self):
        self.vented += 1


PRESSURIZE = MethodEventSpec("Boiler", "pressurize", param_names=("amount",))
HEAT = MethodEventSpec("Boiler", "heat", param_names=("amount",))


def make_db(tmp_path, observability=True, **config_kwargs):
    database = ReachEngine(
        directory=str(tmp_path / "obs-db"),
        config=ExecutionConfig(observability=observability,
                               **config_kwargs))
    database.register_class(Boiler)
    return database


def span_chain_to_root(trace, span):
    """Kinds along the parent chain from ``span`` up to the root."""
    return [s.kind for s in trace.path_to_root(span)]


# ---------------------------------------------------------------------------
# Trace linkage per coupling mode
# ---------------------------------------------------------------------------


class TestTraceLinkage:
    def test_immediate_rule_chain(self, tmp_path):
        db = make_db(tmp_path)
        fired = []
        db.on(PRESSURIZE).do(lambda ctx: fired.append(ctx["amount"])) \
            .coupling(CouplingMode.IMMEDIATE).named("R")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(5)
        assert fired == [5]
        trace = db.trace()
        assert trace is not None
        assert trace.root.kind == "sentry"
        fire = trace.find(kind="scheduler")[0]
        assert fire.attributes["mode"] == "immediate"
        assert fire.attributes["outcome"] == "executed"
        assert span_chain_to_root(trace, fire) == \
            ["scheduler", "eca", "sentry"]
        # The rule ran at a savepoint of the trigger: no transaction of
        # its own, so no commit hangs off the firing span.
        assert not any(c.parent_id == fire.span_id
                       for c in trace.find(name="tx:commit"))
        db.close()

    def test_deferred_composite_single_connected_trace(self, tmp_path):
        """The acceptance scenario: one sentried call completes a
        composite firing a deferred rule; db.trace() shows one connected
        tree sentry -> primitive ECA -> composer -> scheduler -> commit."""
        db = make_db(tmp_path)
        fired = []
        db.on(Sequence(PRESSURIZE, HEAT)) \
            .do(lambda ctx: fired.append("composite")) \
            .coupling(CouplingMode.DEFERRED).named("Composite")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
            boiler.heat(2)          # completes the sequence
        assert fired == ["composite"]
        trace = db.trace()
        # The completing call's trace carries the whole chain.
        assert trace.root.kind == "sentry"
        assert "heat" in trace.root.name
        fire = trace.find(kind="scheduler")[0]
        assert fire.attributes["mode"] == "deferred"
        kinds = span_chain_to_root(trace, fire)
        assert kinds == ["scheduler", "eca", "composer", "eca", "sentry"]
        compose = trace.find(kind="composer")[0]
        assert compose.attributes["completed"] == 1
        assert len(compose.attributes["component_seqs"]) == 2
        assert fire.attributes["outcome"] == "executed"
        # The rule ran at a savepoint of the committing transaction: no
        # commit of its own hangs off the firing span.
        assert not any(c.parent_id == fire.span_id
                       for c in trace.find(name="tx:commit"))
        # The first call contributed from its own trace, recorded on the
        # composition span for cross-trace navigation.
        assert len(compose.attributes["contributing_traces"]) == 2
        db.close()

    def test_detached_rule_joins_trigger_trace(self, tmp_path):
        db = make_db(tmp_path)
        fired = []
        db.on(PRESSURIZE).do(lambda ctx: fired.append("detached")) \
            .coupling(CouplingMode.DETACHED).named("D")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
        db.drain_detached()
        assert fired == ["detached"]
        trace = db.trace()
        fire = trace.find(kind="scheduler")[0]
        assert fire.attributes["mode"] == "detached"
        assert span_chain_to_root(trace, fire) == \
            ["scheduler", "eca", "sentry"]
        # Detached rules run in their own top-level transaction whose
        # commit is a child of the firing span.
        commits = trace.find(name="tx:commit")
        assert any(c.parent_id == fire.span_id and
                   c.attributes["top_level"] for c in commits)
        db.close()

    def test_sequential_causally_dependent_joins_trace(self, tmp_path):
        db = make_db(tmp_path)
        fired = []
        db.on(PRESSURIZE).do(lambda ctx: fired.append("seq-cd")) \
            .coupling(CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT) \
            .named("SCD")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
        db.drain_detached()
        assert fired == ["seq-cd"]
        trace = db.trace()
        fire = trace.find(kind="scheduler")[0]
        assert fire.attributes["mode"] == \
            CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT.value
        assert span_chain_to_root(trace, fire) == \
            ["scheduler", "eca", "sentry"]
        db.close()

    def test_detached_worker_thread_joins_trace(self, tmp_path):
        """Threaded mode: the fire span opens on a worker thread but
        still attaches to the trigger's trace via the occurrence."""
        db = make_db(tmp_path, mode=ExecutionMode.THREADED)
        fired = []
        db.on(PRESSURIZE).do(lambda ctx: fired.append("worker")) \
            .coupling(CouplingMode.DETACHED).named("W")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
        db.wait_for_composition()
        wait_until(lambda: fired)
        assert fired == ["worker"]
        traces = [t for t in db.traces() if t.find(kind="scheduler")]
        assert traces, "no trace captured the detached firing"
        trace = traces[-1]
        fire = trace.find(kind="scheduler")[0]
        assert span_chain_to_root(trace, fire) == \
            ["scheduler", "eca", "sentry"]
        db.close()

    def test_trace_capacity_evicts_oldest(self, tmp_path):
        db = make_db(tmp_path)
        db.tracer.capacity = 3
        db.on(PRESSURIZE).do(lambda ctx: None).named("R")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            for __ in range(10):
                boiler.pressurize(1)
        assert len(db.traces()) == 3
        db.close()


# ---------------------------------------------------------------------------
# Zero-cost disabled path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_disabled_registry_returns_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("x") is NULL_COUNTER
        assert registry.gauge("x") is NULL_GAUGE
        assert registry.histogram("x") is NULL_HISTOGRAM
        NULL_COUNTER.inc(5)
        assert NULL_COUNTER.value == 0
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_HISTOGRAM.count == 0
        with NULL_HISTOGRAM.time():
            pass
        snap = registry.snapshot()
        assert snap == {"enabled": False, "counters": {},
                        "gauges": {}, "histograms": {}}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a", "k") as span:
            assert span is None
            assert tracer.current() is None
        assert tracer.trace() is None
        assert len(tracer) == 0

    def test_database_default_is_disabled(self, tmp_path):
        db = make_db(tmp_path, observability=False)
        assert db.metrics().counter("anything") is NULL_COUNTER
        boiler = Boiler()
        fired = []
        db.on(PRESSURIZE).do(lambda ctx: fired.append(1)).named("R")
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
        assert fired == [1]
        assert db.trace() is None
        assert db.traces() == []
        assert db.statistics()["observability"]["enabled"] is False
        db.close()

    def test_null_singletons_are_process_wide(self):
        assert MetricsRegistry(enabled=False).counter("a") \
            is NULL_METRICS.counter("b")
        assert NULL_TRACER.enabled is False


# ---------------------------------------------------------------------------
# statistics(): frozen keys, consistent before first transaction
# ---------------------------------------------------------------------------


class TestStatistics:
    def test_key_set_is_frozen(self, tmp_path):
        db = make_db(tmp_path)
        assert set(db.statistics()) == ReachEngine.STATISTICS_KEYS
        boiler = Boiler()
        db.on(Sequence(PRESSURIZE, HEAT)).do(lambda ctx: None) \
            .coupling(CouplingMode.DEFERRED).named("C")
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
            boiler.heat(1)
        assert set(db.statistics()) == ReachEngine.STATISTICS_KEYS
        db.close()

    def test_consistent_before_any_transaction(self, tmp_path):
        db = make_db(tmp_path, observability=False)
        stats = db.statistics()
        assert stats["events"]["detected"] == 0
        assert stats["events"]["composed"] == 0
        assert stats["events"]["semi_composed_pending"] == 0
        assert stats["composers"] == {"count": 0, "emitted": 0,
                                      "graph_instances": 0}
        assert stats["eca_managers"]["handled"] == 0
        assert stats["scheduler"]["immediate"] == 0
        assert stats["transactions"]["begun"] == 0
        db.close()

    def test_counts_with_observability_off(self, tmp_path):
        """The statistics sections are maintained by plain attributes and
        must agree whether or not the metrics pipeline is enabled."""
        results = {}
        for flag in (False, True):
            db = make_db(tmp_path / str(flag), observability=flag)
            boiler = Boiler()
            db.on(Sequence(PRESSURIZE, HEAT)).do(lambda ctx: None) \
                .coupling(CouplingMode.DEFERRED).named("C")
            with db.transaction():
                db.persist(boiler, "b")
                boiler.pressurize(1)
                boiler.heat(1)
            stats = db.statistics()
            results[flag] = (stats["events"], stats["composers"],
                             stats["eca_managers"], stats["rules"])
            db.close()
        assert results[False] == results[True]

    def test_observability_section_mirrors_metrics(self, tmp_path):
        db = make_db(tmp_path)
        boiler = Boiler()
        db.on(PRESSURIZE).do(lambda ctx: None).named("R")
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
        section = db.statistics()["observability"]
        assert section["enabled"] is True
        assert section["counters"]["events.detected"] == \
            db.statistics()["events"]["detected"]
        assert section["counters"]["rules.fired.immediate"] == 1
        assert "scheduler.deferred.depth" in section["gauges"]
        assert "scheduler.detached.depth" in section["gauges"]
        db.close()


# ---------------------------------------------------------------------------
# Metrics content
# ---------------------------------------------------------------------------


class TestMetricsContent:
    def test_latency_histograms_record(self, tmp_path):
        db = make_db(tmp_path)
        boiler = Boiler()
        db.on(PRESSURIZE).when(lambda ctx: True) \
            .do(lambda ctx: None).named("R")
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
            boiler.pressurize(1)
        snap = db.metrics().snapshot()
        assert snap["histograms"]["rule.condition.latency"]["count"] == 2
        assert snap["histograms"]["rule.action.latency"]["count"] == 2
        assert snap["histograms"]["rule.condition.latency"]["p95"] >= 0
        db.close()

    def test_phase_histograms_sample_with_traces(self, tmp_path):
        """Unsampled firings skip the per-phase histograms; the
        detection SLO still records every one of them."""
        db = make_db(tmp_path, trace_sampling=0.0)
        boiler = Boiler()
        db.on(PRESSURIZE).when(lambda ctx: True) \
            .do(lambda ctx: None).named("R")
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
            boiler.pressurize(1)
        histograms = db.metrics().snapshot()["histograms"]
        assert histograms["rule.condition.latency"]["count"] == 0
        assert histograms["rule.action.latency"]["count"] == 0
        assert histograms["slo.detection_latency"]["count"] == 2
        assert histograms["slo.detection_latency.R.immediate"]["count"] == 2
        db.close()

    def test_exemplars_keep_the_slowest(self):
        histogram = MetricsRegistry().histogram("h")
        values = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 1.0, 0.05]
        for trace_id, value in enumerate(values):
            histogram.observe(value, exemplar=trace_id)
        histogram.observe(2.0)              # no exemplar: not retained
        kept = histogram.snapshot()["exemplars"]
        assert [e["value"] for e in kept] == sorted(values,
                                                    reverse=True)[:8]
        assert kept[0]["trace_id"] == values.index(1.0)

    def test_condition_false_counter(self, tmp_path):
        db = make_db(tmp_path)
        boiler = Boiler()
        db.on(PRESSURIZE).when(lambda ctx: False) \
            .do(lambda ctx: None).named("R")
        with db.transaction():
            db.persist(boiler, "b")
            boiler.pressurize(1)
        counters = db.metrics().snapshot()["counters"]
        assert counters["rules.condition_false"] == 1
        assert "rules.fired.immediate" not in counters or \
            counters["rules.fired.immediate"] == 0
        db.close()

    def test_storage_and_tx_counters(self, tmp_path):
        db = make_db(tmp_path)
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
        counters = db.metrics().snapshot()["counters"]
        assert counters["tx.begun"] >= 1
        assert counters["tx.committed"] >= 1
        assert counters["wal.flushes"] >= 1
        assert counters["wal.appends"] >= 1
        db.close()

    def test_dump_formats(self, tmp_path):
        db = make_db(tmp_path)
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
        text = db.dump_observability()
        assert "metrics (enabled=True)" in text
        import json
        parsed = json.loads(db.dump_observability(json_format=True))
        assert parsed["metrics"]["enabled"] is True
        assert isinstance(parsed["traces"], list)
        # PR-5 satellite: the dump carries the robustness sections too.
        assert parsed["faults"]["enabled"] is False
        assert parsed["dead_letters"] == []
        assert parsed["quarantined_rules"] == []
        assert parsed["flight"]["enabled"] is True
        for section in ("faults", "dead letters", "quarantined rules",
                        "flight"):
            assert section in text
        db.close()

    def test_dump_reports_dead_letters_and_quarantine(self, tmp_path):
        db = make_db(tmp_path, quarantine_threshold=2,
                     detached_max_retries=0, retry_base_delay=0.0)

        def explode(ctx):
            raise RuntimeError("boom")

        db.on(HEAT).do(explode) \
            .coupling(CouplingMode.DETACHED).named("Exploder")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
        for __ in range(2):
            with db.transaction():
                boiler.heat(1)
        db.drain_detached()
        import json
        parsed = json.loads(db.dump_observability(json_format=True))
        assert parsed["quarantined_rules"] == ["Exploder"]
        letters = parsed["dead_letters"]
        assert letters and letters[0]["rule"] == "Exploder"
        assert "boom" in letters[0]["error"]
        assert letters[0]["mode"] == "detached"
        text = db.dump_observability()
        assert "Exploder" in text
        db.close()


class TestPulledCounters:
    """A count a subsystem keeps is read by the registry, not mirrored."""

    def test_pulled_counters_equal_their_sources(self, tmp_path):
        db = make_db(tmp_path, fault_injection=True,
                     detached_max_retries=2, retry_base_delay=0.001)
        try:
            db.on(Sequence(PRESSURIZE, HEAT)).do(lambda ctx: None) \
                .coupling(CouplingMode.DEFERRED).named("Composite")

            def flaky(ctx):
                ctx.db.faults.hit("app.flaky")

            db.on(MethodEventSpec("Boiler", "vent")).do(flaky) \
                .coupling(CouplingMode.DETACHED).named("Flaky")
            boiler = Boiler()
            with db.transaction():
                db.persist(boiler, "b")
                boiler.pressurize(1)
                boiler.heat(1)
            with pytest.raises(RuntimeError):
                with db.transaction():
                    boiler.pressurize(2)
                    raise RuntimeError("abort")
            with db.transaction():
                with db.transaction(nested=True):
                    boiler.heat(3)
            db.faults.arm("app.flaky", times=1)
            with db.transaction():
                boiler.vent()
            db.drain_detached()

            stats = db.statistics()
            events = db.events
            composers = events.composers()
            history = stats["concurrency"]["history"]
            sources = {
                "tx.begun": stats["transactions"]["begun"],
                "tx.committed": stats["transactions"]["committed"],
                "tx.aborted": stats["transactions"]["aborted"],
                "locks.waits": db.locks.waits,
                "locks.deadlocks": db.locks.deadlocks_detected,
                "locks.timeouts": db.locks.timeouts,
                "sentry.notifications":
                    db.sentry_registry.notifications_delivered,
                "buffer.hits": stats["storage"]["buffer_hits"],
                "buffer.misses": stats["storage"]["buffer_misses"],
                "buffer.evictions": stats["storage"]["buffer_evictions"],
                "events.detected": stats["events"]["detected"],
                "eca.primitive.handled": sum(
                    m.handled for m in events.primitive_managers()),
                "eca.composite.handled": sum(
                    m.handled for m in events.composite_managers()),
                "events.composed": stats["events"]["composed"],
                "events.consumed": stats["events"]["consumed"],
                "composer.gc_removed": sum(c.gc_removed for c in composers),
                "history.merges": history["merge_operations"],
                "history.merged_entries": history["merged_entries"],
                "history.merges_deferred": history["deferred_requests"],
                "scheduler.retries": stats["scheduler"]["detached_retries"],
                "scheduler.quarantined": stats["scheduler"]["quarantined"],
                "scheduler.dead_letters": stats["scheduler"]["dead_lettered"],
                "faults.injected": stats["faults"]["injections"],
                "faults.injected.app.flaky":
                    stats["faults"]["points"]["app.flaky"]["injected"],
            }
            snapshot = db.metrics().snapshot()["counters"]
            in_statistics = stats["observability"]["counters"]
            for name, source in sources.items():
                assert snapshot[name] == in_statistics[name] == source, name
                assert db.metrics().counter(name).value == source, name
            # The drive reached every kind of fact it set out to.
            assert sources["tx.aborted"] >= 1
            assert sources["tx.begun"] > sources["tx.committed"]
            assert sources["events.composed"] >= 1
            assert sources["eca.composite.handled"] >= 1
            assert sources["faults.injected"] == 1
            assert sources["scheduler.retries"] == 1
            assert sources["sentry.notifications"] >= 1
        finally:
            db.close()

    def test_pulls_under_one_name_read_the_topology(self):
        """Kernels sharing a registry each register their own reads: a
        counter and a depth sum them, an age takes the oldest."""
        registry = MetricsRegistry(enabled=True)
        for count, depth, age in ((2, 1, 0.5), (3, 4, 1.5)):
            registry.counter_fn("c", lambda count=count: count)
            registry.gauge_fn("depth", lambda depth=depth: depth)
            registry.gauge_fn("age", lambda age=age: age, combine=max)
        snapshot = registry.snapshot()
        assert registry.counter("c").value == snapshot["counters"]["c"] == 5
        assert snapshot["gauges"] == {"depth": 5, "age": 1.5}

    def test_unobserved_engine_registers_no_counter(self, tmp_path):
        db = make_db(tmp_path, observability=False, fault_injection=True)
        try:
            db.faults.arm("app.point", times=1)
            with pytest.raises(Exception):
                db.faults.hit("app.point")
            with db.transaction():
                db.persist(Boiler(), "b")
            assert db.metrics().snapshot()["counters"] == {}
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Fluent builder and API surface
# ---------------------------------------------------------------------------


class TestFluentBuilder:
    def test_builder_registers_equivalent_rule(self, tmp_path):
        db = make_db(tmp_path, observability=False)
        rule = db.on(PRESSURIZE) \
            .when(lambda ctx: ctx["amount"] > 0) \
            .do(lambda ctx: None) \
            .coupling(CouplingMode.DEFERRED) \
            .priority(7).critical() \
            .describe("pressure guard") \
            .named("Guard")
        assert db.get_rule("Guard") is rule
        assert rule.priority == 7
        assert rule.critical is True
        assert rule.cond_coupling is CouplingMode.DEFERRED
        assert rule.action_coupling is CouplingMode.DEFERRED
        assert rule.description == "pressure guard"
        db.close()

    def test_builder_is_lazy_and_chainable(self, tmp_path):
        db = make_db(tmp_path, observability=False)
        builder = db.on(PRESSURIZE).when(lambda ctx: True)
        assert isinstance(builder, RuleBuilder)
        assert builder.do(lambda ctx: None) is builder
        assert db.rules() == []          # nothing registered yet
        builder.named("Lazy")
        assert [r.name for r in db.rules()] == ["Lazy"]
        db.close()

    def test_builder_split_couplings_and_disabled(self, tmp_path):
        db = make_db(tmp_path, observability=False)
        rule = db.on(PRESSURIZE) \
            .when(lambda ctx: True).do(lambda ctx: None) \
            .cond_coupling(CouplingMode.IMMEDIATE) \
            .action_coupling(CouplingMode.DEFERRED) \
            .disabled() \
            .named("Split")
        assert rule.cond_coupling is CouplingMode.IMMEDIATE
        assert rule.action_coupling is CouplingMode.DEFERRED
        assert rule.enabled is False
        db.close()

    def test_builder_validates_table1_at_named(self, tmp_path):
        from repro.errors import UnsupportedCouplingError
        db = make_db(tmp_path, observability=False)
        builder = db.on(Sequence(PRESSURIZE, HEAT)) \
            .do(lambda ctx: None) \
            .coupling(CouplingMode.IMMEDIATE)
        with pytest.raises(UnsupportedCouplingError):
            builder.named("Bad")      # (N) cell of Table 1
        db.close()


class TestDeprecatedReachIns:
    """Engine internals are not attributes of the package; the curated
    ``__all__`` is the surface."""

    def test_unknown_attribute_still_raises(self):
        import repro
        with pytest.raises(AttributeError):
            repro.NoSuchThing

    def test_public_all_covers_obs_handles(self):
        import repro
        for name in ("ReachEngine", "sentried", "MethodEventSpec",
                     "CouplingMode", "ConsumptionPolicy", "Tracer",
                     "Trace", "Span", "MetricsRegistry", "RuleBuilder"):
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None


# ---------------------------------------------------------------------------
# Tracer eviction under concurrent sessions (PR-5 satellite)
# ---------------------------------------------------------------------------


class TestTracerEvictionUnderConcurrency:
    def test_sixteen_sessions_past_capacity_evict_whole_traces(
            self, tmp_path):
        """16 sessions push well past the tracer's 256 traces: retention
        stays bounded, eviction drops whole traces oldest-first with the
        drop accounted (``evicted + retained == born``), and no retained
        trace interleaves spans from two sessions."""
        import threading

        db = make_db(tmp_path)
        db.on(HEAT).do(lambda ctx: None).named("HeatWatch")
        session_ids = []
        ids_lock = threading.Lock()

        def worker(index):
            session = db.create_session(f"evict-{index}")
            with ids_lock:
                session_ids.append(session.id)
            boiler = Boiler()
            with session.transaction():
                session.persist(boiler, f"b{index}")
                for __ in range(40):
                    boiler.heat(1)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        traces = db.traces()          # trims down to capacity exactly
        assert len(traces) <= 256
        # Drop accounting: every trace ever born is either retained or
        # counted as evicted.  (Trace ids are process-global now, so the
        # tracer counts its own births explicitly.)
        born = db.tracer.born
        assert born >= 16 * 40
        assert db.tracer.evicted + len(traces) == born
        assert db.tracer.evicted >= born - 256

        known = set(session_ids)
        assert len(known) == 16
        for trace in traces:
            span_ids = {span.span_id for span in trace.spans}
            roots = [span for span in trace.spans
                     if span.parent_id is None]
            # Whole-trace eviction: never a headless tail of children.
            assert len(roots) == 1
            for span in trace.spans:
                assert span.parent_id is None or span.parent_id in span_ids
            sessions = {span.attributes["session_id"]
                        for span in trace.spans
                        if "session_id" in span.attributes}
            assert len(sessions) == 1
            assert sessions <= known
        db.close()
