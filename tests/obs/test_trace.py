"""Trace ids, stage capture, and the fork-shared span ring buffer."""

from __future__ import annotations

import multiprocessing
import time

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


class TestIds:
    def test_trace_id_is_32_hex_chars(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 32
        int(trace_id, 16)  # raises if not hex

    def test_trace_ids_are_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64

    def test_span_id_is_nonzero_uint32(self):
        for _ in range(64):
            span = new_span_id()
            assert 0 < span < 2**32

    def test_start_trace_mints_root_context(self):
        context = start_trace()
        assert context.parent_id is None
        assert len(context.trace_id) == 32

    def test_child_keeps_trace_and_parents_on_span(self):
        root = TraceContext("ab" * 16, 7)
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == 7
        assert child.span_id != 7 or child.span_id > 0


class TestStageCapture:
    def test_no_capture_means_no_sink(self):
        assert current_stages() is None
        with stage("extract"):
            pass  # must be a no-op, not an error
        record_stage("extract", 1.0)  # silently dropped
        assert current_stages() is None

    def test_capture_accumulates_named_stages(self):
        with capture_stages() as stages:
            with stage("extract"):
                time.sleep(0.001)
            record_stage("matmul", 0.5)
            record_stage("matmul", 0.25)
        assert stages["extract"] > 0.0
        assert stages["matmul"] == 0.75
        assert current_stages() is None  # reset on exit

    def test_nested_captures_do_not_leak(self):
        with capture_stages() as outer:
            with capture_stages() as inner:
                record_stage("a", 1.0)
            record_stage("b", 2.0)
        assert inner == {"a": 1.0}
        assert outer == {"b": 2.0}


def _append_spans(log: SpanLog, worker: int, count: int) -> None:
    SharedBlock.row = worker  # what the daemon does in a forked worker
    for sequence in range(count):
        log.append({"worker": worker, "n": sequence})


class TestSpanLog:
    def test_append_and_snapshot_in_order(self):
        log = SpanLog(capacity=8)
        for n in range(3):
            assert log.append({"n": n})
        assert [span["n"] for span in log.snapshot()] == [0, 1, 2]
        assert len(log) == 3
        assert log.recorded == 3

    def test_ring_evicts_oldest(self):
        log = SpanLog(capacity=4)
        for n in range(10):
            log.append({"n": n})
        assert [span["n"] for span in log.snapshot()] == [6, 7, 8, 9]
        assert len(log) == 4
        assert log.recorded == 10

    def test_limit_returns_newest(self):
        log = SpanLog(capacity=8)
        for n in range(5):
            log.append({"n": n})
        assert [span["n"] for span in log.snapshot(limit=2)] == [3, 4]

    def test_oversized_record_drops_stages_then_gives_up(self):
        log = SpanLog(capacity=2, slot_bytes=64)
        fat = {"op": "classify", "stages": {"x" * 40: 1.0}}
        assert log.append(fat)  # fits once stages are stripped
        (span,) = log.snapshot()
        assert "stages" not in span
        assert not log.append({"blob": "y" * 200})

    def test_forked_workers_share_one_log(self):
        log = SpanLog(capacity=64, rows=4)
        workers = [
            multiprocessing.Process(
                target=_append_spans, args=(log, worker, 8)
            )
            for worker in range(4)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join()
            assert process.exitcode == 0
        spans = log.snapshot()
        assert len(spans) == 32
        by_worker: dict[int, list[int]] = {}
        for span in spans:
            by_worker.setdefault(span["worker"], []).append(span["n"])
        # Every worker's spans arrive complete and in its own order.
        assert set(by_worker) == {0, 1, 2, 3}
        for sequence in by_worker.values():
            assert sequence == sorted(sequence)

    def test_rings_merge_by_timestamp_and_keep_the_newest(self):
        log = SpanLog(capacity=4, rows=3)
        try:
            for n in range(9):  # interleave three writers' rows
                SharedBlock.row = n % 3
                log.append({"ts": float(n), "n": n})
        finally:
            SharedBlock.row = 0
        assert log.recorded == 9 and len(log) == 4
        assert [span["n"] for span in log.snapshot()] == [5, 6, 7, 8]
        assert [span["n"] for span in log.snapshot(limit=2)] == [7, 8]
        assert log.snapshot(limit=0) == []
