"""Request metrics: the histogram/counter blocks behind ``serve
status`` and the bulk engine's progress reporting."""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.obs.shared import SharedBlock
from repro.obs.trace import SpanLog
from repro.store.metrics import (
    BUCKET_BOUNDS_MS,
    DRIFT_SCORE_BOUNDS,
    DriftCounters,
    HistogramBoundsError,
    LatencyHistogram,
    RequestMetrics,
    RobustnessCounters,
)


class TestLatencyHistogram:
    def test_observe_lands_in_log_buckets(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0004)  # 0.4ms -> first bucket (<= 0.5)
        histogram.observe(0.003)  # 3ms -> <= 5 bucket
        histogram.observe(99.0)  # 99s -> overflow
        assert histogram.count == 3
        assert histogram.counts[0] == 1
        assert histogram.counts[BUCKET_BOUNDS_MS.index(5.0)] == 1
        assert histogram.counts[-1] == 1

    def test_merge_sums_counts_and_totals(self):
        left, right = LatencyHistogram(), LatencyHistogram()
        left.observe(0.001)
        right.observe(0.001)
        right.observe(1.0)
        left.merge(right)
        assert left.count == 3
        assert left.total_ms == pytest.approx(1002.0)

    def test_snapshot_roundtrip(self):
        histogram = LatencyHistogram()
        for seconds in (0.0001, 0.002, 0.02, 0.5):
            histogram.observe(seconds)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["mean_ms"] == pytest.approx(
            histogram.total_ms / 4
        )
        rebuilt = LatencyHistogram.from_snapshot(snapshot)
        assert rebuilt.counts == histogram.counts
        assert rebuilt.snapshot()["count"] == 4

    def test_snapshot_overflow_quantiles_stay_json_valid(self):
        import json

        histogram = LatencyHistogram()
        histogram.observe(99.0)  # overflow bucket: quantile() says inf
        snapshot = histogram.snapshot()
        assert snapshot["p50_ms"] is None and snapshot["p99_ms"] is None
        json.loads(json.dumps(snapshot, allow_nan=False))  # strict JSON

    def test_snapshot_surfaces_bucket_bounds(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["bounds_ms"] == list(BUCKET_BOUNDS_MS)

    def test_merge_refuses_mismatched_bounds(self):
        ours = LatencyHistogram()
        foreign = LatencyHistogram.from_snapshot({
            "bounds_ms": [1.0, 10.0],
            "counts": [1, 2, 3],
            "count": 6,
            "mean_ms": 4.0,
        })
        assert foreign.bounds == (1.0, 10.0)  # snapshot's own bounds kept
        with pytest.raises(HistogramBoundsError):
            ours.merge(foreign)
        ours.merge(LatencyHistogram())  # same bounds still merge fine

    def test_quantiles_are_bucket_bounds(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe(0.0008)  # 0.8ms -> <= 1ms bucket
        histogram.observe(0.040)  # 40ms -> <= 50ms bucket
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 50.0
        assert LatencyHistogram().quantile(0.5) is None
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class TestRequestMetrics:
    def test_counts_by_op_and_errors(self):
        metrics = RequestMetrics()
        metrics.observe("classify", 0.002)
        metrics.observe("classify", 0.004)
        metrics.observe("score", 0.001, ok=False)
        snapshot = metrics.snapshot()
        assert snapshot["total"] == 3
        assert snapshot["by_op"] == {"classify": 2, "score": 1}
        assert snapshot["errors"] == 1
        assert snapshot["latency_ms"]["count"] == 3

    def test_unknown_ops_share_the_invalid_label(self):
        # Op strings come from clients: every distinct unknown one must
        # not become its own key (and its own Prometheus series).
        metrics = RequestMetrics()
        metrics.observe("classify", 0.001, transport="unix")
        for n in range(200):
            metrics.observe(f"no-such-op-{n:03d}-" + "x" * 200, 0.001,
                            ok=False, transport="tcp")
        snapshot = metrics.snapshot()
        assert snapshot["by_op"] == {"classify": 1, "invalid": 200}
        assert snapshot["by_transport"] == {"tcp": 200, "unix": 1}
        assert snapshot["total"] == 201 and snapshot["errors"] == 200

    def test_latency_buckets_follow_the_histogram_rule(self):
        # One rule for both histograms (the first bucket with
        # ms <= bound), probed at and around every bound.
        metrics, histogram = RequestMetrics(), LatencyHistogram()
        samples = [bound / 1000.0 for bound in BUCKET_BOUNDS_MS]
        samples += [0.0, 0.00049, 0.0011, 99.0]
        for seconds in samples:
            metrics.observe("ping", seconds)
            histogram.observe(seconds)
        latency = metrics.snapshot()["latency_ms"]
        assert latency["counts"] == histogram.counts
        assert latency["mean_ms"] == pytest.approx(
            histogram.total_ms / len(samples)
        )

    def test_forked_workers_accumulate_into_one_block(self):
        # More workers than cores, each observing without pause into
        # its own row: a lost update anywhere would break the totals.
        metrics = RequestMetrics(rows=7)
        workers = [
            multiprocessing.Process(
                target=_observe_requests, args=(metrics, row, 500)
            )
            for row in range(1, 7)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert not process.is_alive() and process.exitcode == 0
        snapshot = metrics.snapshot()
        assert snapshot["by_op"] == {"classify": 6 * 500, "ping": 6 * 500}
        assert snapshot["by_transport"] == {"tcp": 6 * 500, "unix": 6 * 500}
        assert snapshot["errors"] == 6 * 500
        assert snapshot["latency_ms"]["count"] == 6 * 1000


def _observe_requests(metrics: RequestMetrics, row: int, count: int) -> None:
    SharedBlock.row = row  # what the daemon does in a forked worker
    for _ in range(count):
        metrics.observe("classify", 0.002, transport="unix")
        metrics.observe("ping", 0.0001, ok=False, transport="tcp")


def _bump_robustness(counters: RobustnessCounters, row: int,
                     count: int) -> None:
    SharedBlock.row = row
    for _ in range(count):
        counters.bump("overload_rejections")
        counters.bump("retries_observed", by=2)


class TestRobustnessCrashAge:
    def test_no_crash_reports_none_for_both_fields(self):
        snapshot = RobustnessCounters().snapshot()
        assert snapshot["last_crash_at"] is None
        assert snapshot["last_crash_age_seconds"] is None

    def test_crash_reports_epoch_and_age(self):
        import time

        counters = RobustnessCounters()
        counters.mark_crash(time.time() - 5.0)
        snapshot = counters.snapshot()
        assert snapshot["last_crash_at"] == pytest.approx(
            time.time() - 5.0, abs=1.0
        )
        assert 4.0 <= snapshot["last_crash_age_seconds"] <= 7.0

    def test_future_stamped_crash_clamps_age_to_zero(self):
        import time

        counters = RobustnessCounters()
        counters.mark_crash(time.time() + 60.0)  # clock skew
        assert counters.snapshot()["last_crash_age_seconds"] == 0.0


class TestRobustnessSharing:
    def test_forked_workers_accumulate_into_one_block(self):
        counters = RobustnessCounters(rows=7)
        workers = [
            multiprocessing.Process(
                target=_bump_robustness, args=(counters, row, 500)
            )
            for row in range(1, 7)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert not process.is_alive() and process.exitcode == 0
        snapshot = counters.snapshot()
        assert snapshot["overload_rejections"] == 6 * 500
        assert snapshot["retries_observed"] == 6 * 500 * 2
        assert snapshot["worker_respawns"] == 0

    def test_degraded_flag_crosses_the_fork(self):
        counters = RobustnessCounters()
        assert counters.degraded is False
        process = multiprocessing.Process(
            target=setattr, args=(counters, "degraded", True)
        )
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        assert counters.degraded is True
        counters.degraded = False
        assert counters.degraded is False
        assert "degraded" not in counters.snapshot()  # status shape kept


def _drift_observe_batches(drift: DriftCounters, row: int,
                           batches: int) -> None:
    SharedBlock.row = row
    for _ in range(batches):
        drift.observe({"en": [1.0, -2.0], "de": [-1.0, 3.0]})


class TestDriftCounters:
    def test_accumulates_decisions_and_scores(self):
        drift = DriftCounters(["en", "de"], window_rows=1000)
        drift.observe({"en": [1.5, -0.2, 3.0], "de": [-1.0, -2.0, 0.5]})
        current = drift.snapshot()["current"]
        assert current["rows"] == 3
        assert current["decisions"] == {"en": 2, "de": 1}
        assert current["decision_rate"]["en"] == pytest.approx(2 / 3)
        assert current["score_mean"]["en"] == pytest.approx(4.3 / 3)

    def test_language_enum_keys_normalise_to_codes(self):
        from repro.languages import Language

        drift = DriftCounters(list(Language), window_rows=1000)
        drift.observe({Language.ENGLISH: [2.0], Language.GERMAN: [-2.0]})
        current = drift.snapshot()["current"]
        assert current["decisions"]["en"] == 1
        assert current["decisions"]["de"] == 0

    def test_unknown_languages_are_ignored(self):
        drift = DriftCounters(["en"], window_rows=1000)
        drift.observe({"xx": [9.0], "en": [1.0]})
        assert drift.snapshot()["current"]["decisions"] == {"en": 1}

    def test_first_window_freezes_the_baseline(self):
        drift = DriftCounters(["en"], window_rows=4)
        drift.observe({"en": [1.0, 1.0, -1.0, -1.0]})  # fills window 1
        drift.roll()
        snapshot = drift.snapshot()
        assert snapshot["windows_completed"] == 1
        assert snapshot["baseline"]["rows"] == 4
        assert snapshot["baseline"]["decision_rate"]["en"] == 0.5
        assert snapshot["current"]["rows"] == 0
        # Only one completed window: the live current bank is compared.
        assert snapshot["recent_bank"] == "current"

    def test_later_windows_compare_against_frozen_baseline(self):
        drift = DriftCounters(["en"], window_rows=4)
        drift.observe({"en": [1.0, 1.0, -1.0, -1.0]})  # baseline: 50%
        drift.roll()
        drift.observe({"en": [1.0, 1.0, 1.0, 1.0]})  # window 2: 100%
        drift.roll()
        snapshot = drift.snapshot()
        assert snapshot["windows_completed"] == 2
        assert snapshot["recent_bank"] == "window"
        assert snapshot["baseline"]["decision_rate"]["en"] == 0.5
        assert snapshot["window"]["decision_rate"]["en"] == 1.0
        entry = snapshot["comparison"]["en"]
        assert entry["rate_delta"] == pytest.approx(0.5)
        assert entry["score_shift"] is not None
        assert snapshot["max_abs_rate_delta"] == pytest.approx(0.5)

    def test_score_buckets_follow_drift_bounds(self):
        drift = DriftCounters(["en"], window_rows=1000)
        drift.observe({"en": [-30.0, 0.25, 30.0]})
        counts = drift.snapshot()["current"]["score_counts"]["en"]
        assert len(counts) == len(DRIFT_SCORE_BOUNDS) + 1
        assert counts[0] == 1  # -30 under the lowest bound
        assert counts[-1] == 1  # +30 in the overflow bucket
        assert sum(counts) == 3

    def test_forked_workers_accumulate_into_shared_banks(self):
        drift = DriftCounters(["en", "de"], window_rows=10_000, rows=5)
        workers = [
            multiprocessing.Process(
                target=_drift_observe_batches, args=(drift, row, 25)
            )
            for row in range(1, 5)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join()
            assert process.exitcode == 0
        current = drift.snapshot()["current"]
        assert current["rows"] == 4 * 25 * 2
        assert current["decisions"] == {"en": 100, "de": 100}

    def test_window_roll_is_exact_under_fork_concurrency(self):
        # Rolls by one process while the writers run must never lose
        # rows: banks always account for every observation.
        drift = DriftCounters(["en"], window_rows=20, rows=4)
        workers = [
            multiprocessing.Process(
                target=_drift_observe_batches, args=(drift, row, 30)
            )
            for row in range(1, 4)
        ]
        for process in workers:
            process.start()
        deadline = time.monotonic() + 60
        while any(process.is_alive() for process in workers):
            assert time.monotonic() < deadline, "a writer never finished"
            drift.roll()
        for process in workers:
            process.join(timeout=10)
            assert process.exitcode == 0
        drift.roll()
        snapshot = drift.snapshot()
        # 3 workers x 30 batches x 2 rows = 180 rows total; windows of
        # >= 20 rows (a batch can overshoot the boundary) plus the
        # partial current bank must add up exactly.
        rolled = snapshot["windows_completed"]
        assert rolled >= 1
        assert snapshot["baseline"]["rows"] >= 20
        assert snapshot["current"]["rows"] < 20  # the last roll closed it
        if rolled == 1:
            rows = snapshot["baseline"]["rows"] + snapshot["current"]["rows"]
            assert rows == 180

    def test_window_closes_only_when_rolled_and_keeps_its_overshoot(self):
        drift = DriftCounters(["en"], window_rows=4)
        drift.observe({"en": [1.0] * 3})
        drift.roll()  # 3 < 4 rows: the window stays open
        assert drift.snapshot()["windows_completed"] == 0
        drift.observe({"en": [-1.0] * 3})
        snapshot = drift.snapshot()
        assert snapshot["windows_completed"] == 0  # observe never rolls
        assert snapshot["current"]["rows"] == 6
        drift.roll()
        snapshot = drift.snapshot()
        assert snapshot["windows_completed"] == 1
        assert snapshot["baseline"]["rows"] == 6  # at least window_rows
        assert snapshot["baseline"]["decision_rate"]["en"] == 0.5
        assert snapshot["current"]["rows"] == 0
        drift.roll()  # an empty window is not closed
        assert drift.snapshot()["windows_completed"] == 1

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            DriftCounters([])
        with pytest.raises(ValueError):
            DriftCounters(["en"], window_rows=0)


def _write_until_killed(metrics, counters, spans) -> None:
    while True:
        metrics.observe("classify", 0.001, transport="unix")
        counters.bump("retries_observed")
        spans.append({"ts": time.time(), "pid": os.getpid()})


class TestKilledWriters:
    def test_a_writer_killed_mid_write_never_stalls_a_survivor(self):
        """A process SIGKILLed at any instant of a write (the chaos
        tests kill daemon workers mid-request) must leave nothing that
        blocks the next write or scrape in any other process.  The
        survivor runs in a thread so a stall fails the test instead of
        hanging it.  Writer and survivor take turns on row 0, as a
        respawned worker takes its dead predecessor's row."""
        metrics, counters = RequestMetrics(), RobustnessCounters()
        spans = SpanLog(capacity=8)
        rng = random.Random(3)
        for kill in range(100):
            writer = multiprocessing.Process(
                target=_write_until_killed, args=(metrics, counters, spans)
            )
            before = spans.recorded
            writer.start()
            deadline = time.monotonic() + 10
            while spans.recorded == before:  # wait for it to be writing
                assert time.monotonic() < deadline, "writer never wrote"
                time.sleep(0.001)
            time.sleep(rng.uniform(0, 0.003))
            os.kill(writer.pid, signal.SIGKILL)
            writer.join(timeout=10)
            assert writer.exitcode == -signal.SIGKILL
            seen: dict = {}
            survived = threading.Event()

            def survive() -> None:
                before = metrics.snapshot()["total"]
                metrics.observe("ping", 0.001, transport="tcp")
                counters.bump("overload_rejections")
                spans.append({"ts": time.time(), "pid": os.getpid()})
                seen["added"] = metrics.snapshot()["total"] - before
                seen["rejections"] = counters.snapshot()["overload_rejections"]
                seen["spans"] = len(spans.snapshot())
                survived.set()

            threading.Thread(target=survive, daemon=True).start()
            assert survived.wait(2.0), f"survivor stalled after kill {kill}"
            assert seen["added"] == 1
            assert seen["rejections"] == kill + 1
            assert seen["spans"] == 8
