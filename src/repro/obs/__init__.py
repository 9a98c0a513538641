"""Observability: tracing, Prometheus exposition, structured events.

The operator-facing telemetry substrate shared by the online serving
tier and the offline bulk engine (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — trace/span ids carried in the wire frame
  header (:data:`repro.store.wire.TRACE_FLAG`), per-stage timing
  capture (``accept → dispatch → extract → matmul → respond``), and
  the fork-shared :class:`~repro.obs.trace.SpanLog` ring buffer behind
  ``serve status --traces`` and ``GET /v1/traces``;
* :mod:`repro.obs.shared` — :class:`~repro.obs.shared.SharedBlock`,
  the typed arrays in one fork-shared mapping behind every daemon-wide
  counter (requests, robustness, drift, the span ring);
* :mod:`repro.obs.prom` — the zero-dependency Prometheus text encoder
  behind ``GET /metrics`` and ``serve status --prom``;
* :mod:`repro.obs.events` — JSON-lines event logging
  (``REPRO_LOG=json`` / ``serve start --log-json``) for daemon
  lifecycle and bulk progress records.

Deliberately stdlib-only, like :mod:`repro.store.wire`: a thin client
can vendor tracing without pulling in numpy or the daemon machinery.
"""

from repro.obs.events import EventLogger, json_log_enabled
from repro.obs.prom import CONTENT_TYPE, render_prometheus
from repro.obs.shared import SharedBlock
from repro.obs.trace import (
    SpanLog,
    TraceContext,
    capture_stages,
    current_stages,
    new_span_id,
    new_trace_id,
    record_stage,
    stage,
    start_trace,
)

__all__ = [
    "CONTENT_TYPE",
    "EventLogger",
    "SharedBlock",
    "SpanLog",
    "TraceContext",
    "capture_stages",
    "current_stages",
    "json_log_enabled",
    "new_span_id",
    "new_trace_id",
    "record_stage",
    "render_prometheus",
    "stage",
    "start_trace",
]
