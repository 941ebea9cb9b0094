"""Telemetry: ambient tracing, counters and histograms.

The collector (:mod:`repro.telemetry.collector`) and the trace context
(:mod:`repro.telemetry.trace`) are imported eagerly — they are the
hot-path dependencies of every execution layer and pull in nothing beyond
the standard library.  Structured logging (:mod:`repro.telemetry.logs`) and
Prometheus exposition (:mod:`repro.telemetry.prometheus`) are equally
stdlib-only.  Performance is measured from outside the program, by the
end-to-end benchmark in ``perfbench/``.
"""

from repro.telemetry.collector import (
    HISTOGRAM_BUCKETS,
    NULL_TELEMETRY,
    TRACE_SCHEMA_VERSION,
    NullTelemetry,
    TelemetryCollector,
    active_telemetry,
    histogram_quantile,
    telemetry_clock,
    use_telemetry,
)
from repro.telemetry.trace import (
    SpanContext,
    current_span_context,
    current_span_id,
    current_trace_id,
    new_trace_id,
    to_chrome_trace,
    use_span_context,
    use_trace_id,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "HISTOGRAM_BUCKETS",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "TelemetryCollector",
    "active_telemetry",
    "use_telemetry",
    "telemetry_clock",
    "histogram_quantile",
    "SpanContext",
    "current_span_context",
    "current_span_id",
    "current_trace_id",
    "new_trace_id",
    "to_chrome_trace",
    "use_span_context",
    "use_trace_id",
]
