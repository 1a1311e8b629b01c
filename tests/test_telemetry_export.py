"""Structured telemetry export (``repro.obs.export``): exporters, the
bounded background pipeline, and the Prometheus renderer.

The PR-5 guarantees under test:

* pluggable exporters (JSONL file, in-memory, callback) all receive the
  same record stream, on the drain thread;
* the pipeline stays inert (no thread, no tracer sink) until the first
  exporter attaches, and ``_offer`` NEVER blocks the hot path — a full
  queue drops and counts instead of waiting on a wedged exporter;
* exported span records carry ``session_id``, ``tx``, ``rule`` and
  ``mode`` top-level keys so concurrent-session telemetry stays
  attributable;
* :func:`render_prometheus` emits valid Prometheus text exposition
  format from an atomic :meth:`MetricsRegistry.snapshot`.
"""

import json
import re
import threading
import time

from repro import ExecutionConfig, MethodEventSpec, ReachEngine, sentried
from repro.obs.export import (
    CallbackExporter,
    InMemoryExporter,
    JsonlFileExporter,
    TelemetryExporter,
    TelemetryPipeline,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry


@sentried
class Boiler:
    def __init__(self):
        self.temp = 20

    def heat(self, amount):
        self.temp += amount


HEAT = MethodEventSpec("Boiler", "heat", param_names=("amount",))


def make_db(tmp_path, **config_kwargs):
    config_kwargs.setdefault("observability", True)
    database = ReachEngine(directory=str(tmp_path / "telemetry-db"),
                           config=ExecutionConfig(**config_kwargs))
    database.register_class(Boiler)
    return database


# ---------------------------------------------------------------------------
# Exporters and pipeline mechanics (no engine)
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_inert_until_the_first_exporter(self):
        pipeline = TelemetryPipeline(capacity=16)
        assert pipeline._thread is None
        assert pipeline.stats()["exporters"] == 0
        pipeline.add_exporter(InMemoryExporter())
        assert pipeline._thread is not None
        pipeline.close()

    def test_in_memory_and_callback_see_the_same_stream(self):
        pipeline = TelemetryPipeline(capacity=64)
        memory = pipeline.add_exporter(InMemoryExporter())
        seen = []
        pipeline.add_exporter(CallbackExporter(seen.append))
        for index in range(5):
            assert pipeline.emit({"kind": "tick", "n": index}) is True
        assert pipeline.flush()
        assert [r["n"] for r in memory.take()] == [0, 1, 2, 3, 4]
        assert [r["n"] for r in seen] == [0, 1, 2, 3, 4]
        # Enrichment defaults applied on the drain thread.
        assert all(r["type"] == "record" and "ts" in r for r in seen)
        pipeline.close()

    def test_jsonl_exporter_round_trips(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        pipeline = TelemetryPipeline(capacity=64)
        pipeline.add_exporter(JsonlFileExporter(path))
        pipeline.emit({"kind": "a", "n": 1})
        pipeline.emit({"kind": "b", "obj": object()})  # repr fallback
        pipeline.close()  # final inline drain + file close
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert [r["kind"] for r in records] == ["a", "b"]
        assert records[1]["obj"].startswith("<object object")

    def test_full_queue_drops_and_never_blocks(self):
        gate = threading.Event()

        class Wedged(TelemetryExporter):
            def export(self, record):
                gate.wait(timeout=10.0)

        pipeline = TelemetryPipeline(capacity=8)
        pipeline.add_exporter(Wedged())
        started = time.monotonic()
        results = [pipeline.emit({"n": index}) for index in range(200)]
        elapsed = time.monotonic() - started
        # 200 offers against a wedged exporter return immediately …
        assert elapsed < 1.0
        # … and the overflow is dropped and accounted, never waited on.
        assert results.count(False) == pipeline.dropped > 0
        stats = pipeline.stats()
        assert stats["enqueued"] + stats["dropped"] == 200
        gate.set()
        pipeline.close()

    def test_exporter_errors_are_counted_not_raised(self):
        class Broken(TelemetryExporter):
            def export(self, record):
                raise RuntimeError("sink offline")

        pipeline = TelemetryPipeline(capacity=16)
        pipeline.add_exporter(Broken())
        survivor = pipeline.add_exporter(InMemoryExporter())
        pipeline.emit({"n": 1})
        assert pipeline.flush()
        assert pipeline.export_errors >= 1
        assert [r["n"] for r in survivor.take()] == [1]
        pipeline.close()

    def test_export_metrics_queues_an_atomic_snapshot(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("demo.count").inc(3)
        pipeline = TelemetryPipeline(metrics=registry, capacity=16)
        memory = pipeline.add_exporter(InMemoryExporter())
        assert pipeline.export_metrics() is True
        assert pipeline.flush()
        (record,) = memory.take()
        assert record["type"] == "metrics"
        assert record["metrics"]["counters"]["demo.count"] == 3

    def test_emit_after_close_is_refused(self):
        pipeline = TelemetryPipeline(capacity=16)
        pipeline.add_exporter(InMemoryExporter())
        pipeline.close()
        try:
            pipeline.add_exporter(InMemoryExporter())
        except RuntimeError:
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError("closed pipeline accepted an exporter")


# ---------------------------------------------------------------------------
# Engine integration: span records and their attribution keys
# ---------------------------------------------------------------------------


class TestSpanRecords:
    def test_span_records_carry_attribution_keys(self, tmp_path):
        db = make_db(tmp_path)
        memory = db.telemetry().add_exporter(InMemoryExporter())
        db.on(HEAT).do(lambda ctx: None).named("HeatWatch")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.heat(10)
        assert db.telemetry().flush()
        spans = [r for r in memory.take() if r["type"] == "span"]
        assert spans, "finished spans must reach the exporter"
        # Every span record exposes the four attribution keys.
        for record in spans:
            for key in ("session_id", "tx", "rule", "mode"):
                assert key in record
        fires = [r for r in spans if r["name"] == "fire:HeatWatch"]
        assert fires
        assert fires[0]["rule"] == "HeatWatch"
        assert fires[0]["mode"] == "immediate"
        assert fires[0]["tx"] is not None
        db.close()

    def test_session_id_resolves_from_the_trace_root(self, tmp_path):
        db = make_db(tmp_path)
        memory = db.telemetry().add_exporter(InMemoryExporter())
        db.on(HEAT).do(lambda ctx: None).named("HeatWatch")
        session = db.create_session("exporter-session")
        boiler = Boiler()
        with session.transaction():
            session.persist(boiler, "b")
            boiler.heat(5)
        assert db.telemetry().flush()
        spans = [r for r in memory.take() if r["type"] == "span"]
        attributed = [r for r in spans if r["session_id"] == session.id]
        assert attributed, "trace-root session_id must flow into records"
        db.close()

    def test_config_jsonl_path_attaches_a_file_exporter(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        db = make_db(tmp_path, telemetry_jsonl=path)
        db.on(HEAT).do(lambda ctx: None).named("HeatWatch")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.heat(1)
        assert db.telemetry().flush()
        db.close()
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert any(r.get("name") == "fire:HeatWatch" for r in records)

    def test_statistics_report_the_pipeline(self, tmp_path):
        db = make_db(tmp_path)
        db.telemetry().add_exporter(InMemoryExporter())
        stats = db.statistics()["telemetry"]
        assert stats["exporters"] == 1
        assert stats["capacity"] == TelemetryPipeline().capacity
        db.close()


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

# One exposition line: comment, or `name{labels} value`.
_PROM_LINE = re.compile(
    r"^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"(-?\d+(\.\d+)?([eE]-?\d+)?|[+-]Inf|NaN))$")


class TestPrometheus:
    def test_every_line_is_valid_exposition_format(self, tmp_path):
        db = make_db(tmp_path)
        db.on(HEAT).do(lambda ctx: None).named("HeatWatch")
        boiler = Boiler()
        with db.transaction():
            db.persist(boiler, "b")
            boiler.heat(2)
        text = render_prometheus(db.metrics().snapshot())
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert _PROM_LINE.match(line), f"invalid exposition line: {line!r}"
        assert "reach_up 1" in text
        assert "reach_observability_enabled 1" in text
        # Rule firings became a counter series with sanitized name.
        assert re.search(r"^reach_rules_fired_immediate \d+$", text, re.M)
        db.close()

    def test_histograms_render_as_summaries(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("demo.latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        text = render_prometheus(registry.snapshot())
        assert '# TYPE reach_demo_latency summary' in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'reach_demo_latency{{quantile="{quantile}"}}' in text
        assert re.search(r"^reach_demo_latency_sum 10(\.0)?$", text, re.M)
        assert "reach_demo_latency_count 4" in text

    def test_failed_pull_gauges_are_skipped(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge_fn("bad.gauge", lambda: 1 / 0)
        registry.gauge("good.gauge").set(7)
        text = render_prometheus(registry.snapshot())
        assert "bad_gauge" not in text
        assert "reach_good_gauge 7" in text


# ---------------------------------------------------------------------------
# Atomic metrics snapshot (satellite: seqlock-style histogram capture)
# ---------------------------------------------------------------------------


class TestSnapshotAtomicity:
    def test_snapshot_exposes_a_true_sum(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("h")
        histogram.observe(1.5)
        histogram.observe(2.5)
        summary = registry.snapshot()["histograms"]["h"]
        assert summary["sum"] == 4.0
        assert summary["count"] == 2
        assert summary["mean"] == 2.0

    def test_snapshot_is_coherent_under_concurrent_writers(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("h")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                histogram.observe(1.0)

        threads = [threading.Thread(target=writer) for __ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for __ in range(200):
                summary = registry.snapshot()["histograms"]["h"]
                count, total = summary["count"], summary["sum"]
                # Every observation is exactly 1.0: a torn read would
                # pair a count with a sum from a different instant.
                assert total == count
        finally:
            stop.set()
            for thread in threads:
                thread.join()
