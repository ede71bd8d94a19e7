"""``repro.telemetry``: spans, metrics, and self-overhead accounting.

A cross-cutting observability layer for the whole reproduction
pipeline (run → sample → analyze → advise → split → re-run), in the
spirit of DINAMITE's structured event streams and PROMPT's observable,
composable profiling stages:

- :mod:`~repro.telemetry.spans` — nested, timed spans per pipeline
  stage with structured attributes;
- :mod:`~repro.telemetry.metrics` — counters, gauges, fixed-bucket
  histograms under a stable ``repro_<subsystem>_*`` naming convention;
- :mod:`~repro.telemetry.export` — JSONL, Chrome ``trace_event``
  (Perfetto-loadable), and Prometheus text exporters;
- :mod:`~repro.telemetry.overhead` — the decomposed self-overhead
  account behind Table 3's single overhead number;
- :mod:`~repro.telemetry.session` — the process-global on/off switch
  with a near-zero-cost no-op path when disabled;
- :mod:`~repro.telemetry.gate` — ``repro attribute``, the perf-smoke
  gate over perfbench results (imported on use).

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from .export import (
    chrome_trace,
    jsonl,
    prometheus_text,
    telemetry_events,
    to_jsonable,
    write_telemetry,
)
from .metrics import (
    LATENCY_BUCKETS_CYCLES,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .merge import SessionPayload, absorb_payload, capture_session
from .overhead import COMPONENTS, SelfOverheadAccount
from .session import (
    TelemetrySession,
    active,
    enabled,
    metrics_registry,
    record_overhead,
    session,
    start,
    stop,
    tracer,
)
from .spans import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "COMPONENTS",
    "LATENCY_BUCKETS_CYCLES",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "SelfOverheadAccount",
    "SessionPayload",
    "Span",
    "TelemetrySession",
    "Tracer",
    "absorb_payload",
    "active",
    "capture_session",
    "chrome_trace",
    "enabled",
    "jsonl",
    "metrics_registry",
    "prometheus_text",
    "record_overhead",
    "session",
    "start",
    "stop",
    "telemetry_events",
    "to_jsonable",
    "tracer",
    "write_telemetry",
]
