"""Request tracing: ids, per-stage timing capture, and span storage.

One *trace* names a request end to end: the client mints a 16-byte
trace id, stamps it (plus its own span id) into the wire frame header
(:data:`repro.store.wire.TRACE_FLAG`), and the daemon echoes the trace
id back while recording a *span* — one record per hop with per-stage
timings (``accept → dispatch → extract → matmul → respond``) — into a
fork-shared ring buffer (:class:`SpanLog`) that `serve status --traces`
and ``GET /v1/traces`` read back out.

Everything here is stdlib-only and cheap when inactive: stage recording
is a single context-variable lookup that returns immediately unless a
span is being captured, so untraced traffic pays nothing measurable.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import json
import os
import time
from typing import Iterator

from repro.obs.shared import SharedBlock

__all__ = [
    "TraceContext",
    "SpanLog",
    "new_trace_id",
    "new_span_id",
    "start_trace",
    "current_stages",
    "capture_stages",
    "stage",
    "record_stage",
]


def new_trace_id() -> str:
    """A fresh 16-byte trace id as 32 lowercase hex characters."""
    return os.urandom(16).hex()


def new_span_id() -> int:
    """A fresh non-zero span id (uint32)."""
    return int.from_bytes(os.urandom(4), "big") or 1


@dataclasses.dataclass(frozen=True, slots=True)
class TraceContext:
    """The identity one traced request carries across hops."""

    trace_id: str
    span_id: int
    parent_id: int | None = None

    def child(self) -> "TraceContext":
        """A new span under the same trace, parented on this one."""
        return TraceContext(self.trace_id, new_span_id(), self.span_id)


def start_trace() -> TraceContext:
    """Mint a root trace context (new trace id, new span id)."""
    return TraceContext(new_trace_id(), new_span_id())


#: The stage-timing sink for the span currently being captured in this
#: task/thread, or None when nothing is tracing (the common case).
_stages: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "repro-obs-stages", default=None
)


def current_stages() -> dict | None:
    """The active stage-timing dict, or None when not capturing."""
    return _stages.get()


@contextlib.contextmanager
def capture_stages() -> Iterator[dict]:
    """Capture stage timings for the enclosed request.

    Yields the dict that :func:`stage` / :func:`record_stage` calls made
    anywhere below this frame (same thread/task) accumulate into, keyed
    by stage name with seconds as values.
    """
    sink: dict = {}
    token = _stages.set(sink)
    try:
        yield sink
    finally:
        _stages.reset(token)


def record_stage(name: str, seconds: float) -> None:
    """Add ``seconds`` to stage ``name`` of the active span, if any."""
    sink = _stages.get()
    if sink is not None:
        sink[name] = sink.get(name, 0.0) + seconds


@contextlib.contextmanager
def stage(name: str) -> Iterator[None]:
    """Time the enclosed block into stage ``name`` of the active span.

    A no-op (one context-variable read) when nothing is capturing, so
    hot paths can be instrumented unconditionally.
    """
    sink = _stages.get()
    if sink is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        sink[name] = sink.get(name, 0.0) + (time.perf_counter() - started)


class SpanLog:
    """A fork-shared ring buffer of finished span records.

    The daemon parent creates one *before* forking each worker
    generation; every process then appends JSON-serialised span records
    into one :class:`~repro.obs.shared.SharedBlock`, so the parent
    (answering ``status --traces`` and ``GET /v1/traces``) sees spans
    recorded by any worker.  A reload forks the new generation over a
    fresh ring, so old-generation spans never mix with new ones.
    Fixed-size slots keep the shared segment bounded: a record that
    does not fit its slot is retried without its ``stages`` detail,
    then dropped.

    Appends take the block's lock once per span — far off the per-URL
    hot path (one span per traced *request*).
    """

    def __init__(self, capacity: int = 256, slot_bytes: int = 512) -> None:
        if capacity < 1 or slot_bytes < 8:
            raise ValueError("capacity >= 1 and slot_bytes >= 8 required")
        self.capacity = int(capacity)
        self.slot_bytes = int(slot_bytes)
        self._shared = SharedBlock(
            seq=("q", 1), slots=("B", self.capacity * self.slot_bytes)
        )

    @staticmethod
    def _encode(record: dict) -> bytes:
        return json.dumps(
            record, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")

    def append(self, record: dict) -> bool:
        """Store one span record; returns False if it could not fit."""
        data = self._encode(record)
        if len(data) + 2 > self.slot_bytes:
            slim = {k: v for k, v in record.items() if k != "stages"}
            data = self._encode(slim)
            if len(data) + 2 > self.slot_bytes:
                return False
        framed = len(data).to_bytes(2, "big") + data
        shared = self._shared
        with shared.lock:
            seq = shared.seq[0]
            start = (seq % self.capacity) * self.slot_bytes
            shared.slots[start:start + len(framed)] = framed
            shared.seq[0] = seq + 1
        return True

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    @property
    def recorded(self) -> int:
        """Spans ever appended (the ring may have evicted older ones)."""
        with self._shared.lock:
            return self._shared.seq[0]

    def snapshot(self, limit: int | None = None) -> list[dict]:
        """The retained spans, oldest first (at most ``limit`` newest)."""
        with self._shared.lock:
            seq = self._shared.seq[0]
            raw = bytes(self._shared.slots)
        first = max(0, seq - self.capacity)
        if limit is not None:
            first = max(first, seq - max(0, int(limit)))
        spans: list[dict] = []
        for position in range(first, seq):
            start = (position % self.capacity) * self.slot_bytes
            length = int.from_bytes(raw[start:start + 2], "big")
            if not 0 < length <= self.slot_bytes - 2:
                continue
            try:
                record = json.loads(raw[start + 2:start + 2 + length])
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue  # a torn slot from a crashed writer; skip it
            if isinstance(record, dict):
                spans.append(record)
        return spans
