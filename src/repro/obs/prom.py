"""Zero-dependency Prometheus text-format exposition.

Renders the daemon's status block — the same dict ``serve status``
prints as JSON — into the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
``# HELP`` / ``# TYPE`` annotated families, one sample per line,
labels escaped per spec.  One renderer serves both surfaces: the
daemon's ``GET /metrics`` endpoint renders its own status block, and
``repro serve status --prom`` renders the block it fetched over the
wire, so the two can never disagree about metric names.

Everything is stdlib string building; there is deliberately no
client-library dependency and no registry state — the status dict *is*
the registry.
"""

from __future__ import annotations

import math

__all__ = ["render_prometheus", "CONTENT_TYPE"]

#: The Content-Type Prometheus scrapers expect for this format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels(pairs: dict) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in pairs.items()
    )
    return "{" + inner + "}"


def _number(value: object) -> str:
    number = float(value)  # bools intentionally render as 0/1
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Exposition:
    """Accumulates families in order; one HELP/TYPE header per family."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._families: set[str] = set()

    def family(self, name: str, kind: str, help_text: str) -> None:
        assert name not in self._families, f"duplicate family {name}"
        self._families.add(name)
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: dict, value: object) -> None:
        if value is None:
            return
        self._lines.append(f"{name}{_labels(labels)} {_number(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _histogram(out: _Exposition, name: str, help_text: str,
               bounds: list, counts: list, sum_value: float | None,
               labels: dict | None = None) -> None:
    """Emit one Prometheus histogram from non-cumulative bucket counts.

    ``bounds`` are the upper bucket bounds; ``counts`` has one extra
    trailing overflow bucket.  Prometheus buckets are *cumulative* and
    end with ``+Inf`` — converted here.
    """
    labels = dict(labels or {})
    out.family(name, "histogram", help_text)
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        out.sample(
            f"{name}_bucket", {**labels, "le": _number(bound)}, cumulative
        )
    total = cumulative + (counts[len(bounds)] if len(counts) > len(bounds)
                          else 0)
    out.sample(f"{name}_bucket", {**labels, "le": "+Inf"}, total)
    if sum_value is not None:
        out.sample(f"{name}_sum", labels, sum_value)
    out.sample(f"{name}_count", labels, total)


def _render_requests(out: _Exposition, requests: dict) -> None:
    out.family("repro_requests_total", "counter",
               "Requests answered by the daemon, by operation.")
    for op, count in (requests.get("by_op") or {}).items():
        out.sample("repro_requests_total", {"op": op}, count)
    out.family("repro_requests_transport_total", "counter",
               "Requests answered by the daemon, by listener transport.")
    for transport, count in (requests.get("by_transport") or {}).items():
        out.sample("repro_requests_transport_total",
                   {"transport": transport}, count)
    out.family("repro_request_errors_total", "counter",
               "Requests the daemon answered with ok=false.")
    out.sample("repro_request_errors_total", {}, requests.get("errors", 0))
    latency = requests.get("latency_ms") or {}
    if latency.get("counts"):
        bounds = [b / 1000.0 for b in latency.get("bounds_ms") or []]
        count = latency.get("count") or 0
        mean_ms = latency.get("mean_ms")
        _histogram(
            out, "repro_request_latency_seconds",
            "Per-request dispatch latency across the daemon.",
            bounds, latency["counts"],
            (mean_ms * count / 1000.0) if mean_ms is not None else None,
        )


def _render_robustness(out: _Exposition, robustness: dict) -> None:
    names = {
        "overload_rejections":
            "Requests refused with a typed `overloaded` error.",
        "deadline_expiries":
            "Requests answered `deadline-exceeded`.",
        "retries_observed":
            "Requests that arrived marked as client retries (attempt > 1).",
        "worker_respawns":
            "Workers re-forked after an unexpected death.",
    }
    for field, help_text in names.items():
        name = f"repro_{field}_total"
        out.family(name, "counter", help_text)
        out.sample(name, {}, robustness.get(field, 0))
    out.family("repro_last_crash_timestamp_seconds", "gauge",
               "Epoch time of the most recent worker death (absent if none).")
    out.sample("repro_last_crash_timestamp_seconds", {},
               robustness.get("last_crash_at"))
    out.family("repro_last_crash_age_seconds", "gauge",
               "Seconds since the most recent worker death (absent if none).")
    out.sample("repro_last_crash_age_seconds", {},
               robustness.get("last_crash_age_seconds"))


def _render_drift(out: _Exposition, drift: dict) -> None:
    banks = ("baseline", "window", "current")
    out.family("repro_drift_window_rows", "gauge",
               "Rows per drift window (the baseline freezes after one).")
    out.sample("repro_drift_window_rows", {}, drift.get("window_rows"))
    out.family("repro_drift_windows_completed_total", "counter",
               "Drift windows completed since load/reload.")
    out.sample("repro_drift_windows_completed_total", {},
               drift.get("windows_completed", 0))
    out.family("repro_drift_rows_total", "counter",
               "Scored URLs accumulated into each drift bank.")
    for bank in banks:
        out.sample("repro_drift_rows_total", {"bank": bank},
                   (drift.get(bank) or {}).get("rows", 0))
    out.family("repro_drift_decisions_total", "counter",
               "Positive decisions per language in each drift bank.")
    for bank in banks:
        decisions = (drift.get(bank) or {}).get("decisions") or {}
        for language, count in decisions.items():
            out.sample("repro_drift_decisions_total",
                       {"language": language, "bank": bank}, count)
    out.family("repro_drift_decision_rate", "gauge",
               "Fraction of a bank's rows decided positive, per language.")
    for bank in banks:
        rates = (drift.get(bank) or {}).get("decision_rate") or {}
        for language, rate in rates.items():
            out.sample("repro_drift_decision_rate",
                       {"language": language, "bank": bank}, rate)
    out.family("repro_drift_score_mean", "gauge",
               "Mean per-URL score of a bank's rows, per language.")
    for bank in banks:
        means = (drift.get(bank) or {}).get("score_mean") or {}
        for language, mean in means.items():
            out.sample("repro_drift_score_mean",
                       {"language": language, "bank": bank}, mean)
    comparison = drift.get("comparison") or {}
    out.family("repro_drift_rate_delta", "gauge",
               "Recent decision rate minus baseline rate, per language.")
    for language, entry in comparison.items():
        out.sample("repro_drift_rate_delta", {"language": language},
                   entry.get("rate_delta"))
    out.family("repro_drift_score_shift", "gauge",
               "L1 distance between baseline and recent score "
               "distributions, per language (0 identical, 2 disjoint).")
    for language, entry in comparison.items():
        out.sample("repro_drift_score_shift", {"language": language},
                   entry.get("score_shift"))
    out.family("repro_drift_max_abs_rate_delta", "gauge",
               "Largest per-language |decision-rate delta| vs baseline.")
    out.sample("repro_drift_max_abs_rate_delta", {},
               drift.get("max_abs_rate_delta"))


def render_prometheus(status: dict) -> str:
    """Render one daemon status block as Prometheus exposition text."""
    out = _Exposition()
    model = status.get("model") or {}
    out.family("repro_daemon_info", "gauge",
               "Static daemon/model identity (value is always 1).")
    out.sample("repro_daemon_info", {
        "model": model.get("name", ""),
        "algorithm": model.get("algorithm", ""),
        "feature_set": model.get("feature_set", ""),
        "checksum": model.get("checksum", ""),
        "role": status.get("role", ""),
    }, 1)
    out.family("repro_daemon_degraded", "gauge",
               "1 while crash-loop containment is backing off respawns.")
    out.sample("repro_daemon_degraded", {},
               1 if status.get("state") == "degraded" else 0)
    out.family("repro_daemon_generation", "gauge",
               "Model generation currently serving (bumps on hot reload).")
    out.sample("repro_daemon_generation", {}, status.get("generation"))
    out.family("repro_daemon_uptime_seconds", "gauge",
               "Seconds since the answering daemon process started.")
    out.sample("repro_daemon_uptime_seconds", {},
               status.get("uptime_seconds"))
    out.family("repro_daemon_workers", "gauge",
               "Configured worker process count.")
    out.sample("repro_daemon_workers", {}, status.get("workers"))
    out.family("repro_daemon_inflight_connections", "gauge",
               "Connections currently held by live workers (parent view).")
    out.sample("repro_daemon_inflight_connections", {},
               status.get("inflight"))
    _render_requests(out, status.get("requests") or {})
    _render_robustness(out, status.get("robustness") or {})
    drift = status.get("drift")
    if drift:
        _render_drift(out, drift)
    traces = status.get("traces")
    if traces is not None:
        out.family("repro_trace_spans_retained", "gauge",
                   "Spans currently retained in the trace ring buffer.")
        out.sample("repro_trace_spans_retained", {},
                   traces.get("retained"))
        out.family("repro_trace_spans_total", "counter",
                   "Spans recorded since load/reload (ring may have "
                   "evicted older ones).")
        out.sample("repro_trace_spans_total", {}, traces.get("recorded"))
    caches = status.get("caches") or {}
    tokenizer = caches.get("tokenizer") or {}
    out.family("repro_tokenizer_cache_hits_total", "counter",
               "Tokenizer memo hits in the answering process.")
    out.sample("repro_tokenizer_cache_hits_total", {}, tokenizer.get("hits"))
    out.family("repro_tokenizer_cache_misses_total", "counter",
               "Tokenizer memo misses in the answering process.")
    out.sample("repro_tokenizer_cache_misses_total", {},
               tokenizer.get("misses"))
    return out.render()
