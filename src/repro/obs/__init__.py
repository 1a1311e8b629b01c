"""Observability for the active pipeline: tracing and metrics.

This package is the measurement substrate the ROADMAP's performance work
builds on.  It follows the event pipeline end to end — sentry detection,
ECA-manager handling, event composition, rule scheduling in all six
coupling modes, and transaction commit/abort — and exposes the result
through two handles on the engine:

* ``engine.trace()`` — span trees (:class:`Trace`/:class:`Span`) answering
  "which primitive events contributed to this composite, which rules
  fired, in which transaction, and how long each phase took";
* ``engine.metrics()`` — the :class:`MetricsRegistry` with counters, gauges
  and latency histograms for every pipeline stage.

Both are disabled by default (``ExecutionConfig(observability=True)``
turns them on) and cost one no-op call per instrumentation point when
off.  See ``docs/observability.md`` for the span model and metric names.
"""

from repro.obs.admin import AdminServer, slow_rules
from repro.obs.export import (
    CallbackExporter,
    InMemoryExporter,
    JsonlFileExporter,
    TelemetryExporter,
    TelemetryPipeline,
    render_prometheus,
)
from repro.obs.flight import (
    NULL_FLIGHT,
    FlightRecorder,
    latest_dump,
    load_dump,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    Trace,
    TraceContext,
    Tracer,
    mint_trace_id,
)

__all__ = [
    "AdminServer",
    "CallbackExporter",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "JsonlFileExporter",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_FLIGHT",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "Span",
    "TelemetryExporter",
    "TelemetryPipeline",
    "Trace",
    "TraceContext",
    "Tracer",
    "latest_dump",
    "load_dump",
    "mint_trace_id",
    "render_prometheus",
    "slow_rules",
]
