"""Observability layer: metrics, spans, telemetry events, profiling.

The cross-cutting instrumentation substrate (see DESIGN.md §8):

* :mod:`repro.obs.registry` — counters / gauges / streaming histograms;
* :mod:`repro.obs.tracing` — the one span model: :class:`Span` trees
  recorded by a :class:`Tracer` on an injectable clock, both as
  thread-scoped ``with tracer.span(...)`` blocks (training epochs,
  blocking stages) and through the cross-thread
  ``begin_request``/``finish`` lifecycle of served requests
  (DESIGN.md §13);
* :mod:`repro.obs.events` — JSONL event sinks with a stable schema,
  bundled per run by :class:`TelemetryRun`;
* :mod:`repro.obs.callbacks` — the training-loop ``Callback`` protocol;
* :mod:`repro.obs.profiler` — op-level FLOP/byte profiler for
  ``repro.nn``;
* :mod:`repro.obs.report` — the ``repro telemetry`` report renderer;
* :mod:`repro.obs.expo` — Prometheus text rendering, the
  ``/metrics`` + ``/healthz`` scrape endpoint, and the JSONL span
  exporter;
* :mod:`repro.obs.slo` — declarative SLOs with multi-window burn-rate
  alerting;
* :mod:`repro.obs.top` — the ``repro obs top`` terminal dashboard.

Disabled-by-default guarantee: with no callbacks registered and no sink
attached, instrumented code paths cost one falsy check per step.
"""

from .tracing import (BatchStages, Span, Tracer, TraceSampler,
                      aggregate_spans, default_tracer, trace)
from .registry import (LATENCY_BUCKETS, CardinalityError, Counter, Gauge,
                       Histogram, MetricsRegistry, default_registry)
from .events import (EVENT_KINDS, SCHEMA_VERSION, EventSink, JsonlSink,
                     MemorySink, NullSink, TelemetryRun, read_events,
                     read_events_tolerant, validate_event)
from .callbacks import (Callback, CallbackList, LoggingCallback,
                        TelemetryCallback)
from .profiler import OpProfile, OpStats, profile
from .report import load_report, render_report
from .expo import (MetricsHTTPServer, SpanExporter, parse_prometheus,
                   render_prometheus)
from .slo import (FAST_BURN, SLOW_BURN, SLO, Alert, BurnWindow, SLOMonitor,
                  default_resilient_slos, default_serve_slos)

__all__ = [
    "Span", "Tracer", "TraceSampler", "BatchStages", "trace",
    "default_tracer", "aggregate_spans",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "default_registry",
    "CardinalityError", "LATENCY_BUCKETS",
    "SCHEMA_VERSION", "EVENT_KINDS", "EventSink", "NullSink", "MemorySink",
    "JsonlSink", "TelemetryRun", "read_events", "read_events_tolerant",
    "validate_event",
    "Callback", "CallbackList", "LoggingCallback", "TelemetryCallback",
    "OpProfile", "OpStats", "profile",
    "render_report", "load_report",
    "render_prometheus", "parse_prometheus", "MetricsHTTPServer",
    "SpanExporter",
    "BurnWindow", "FAST_BURN", "SLOW_BURN", "SLO", "Alert", "SLOMonitor",
    "default_serve_slos", "default_resilient_slos",
]
