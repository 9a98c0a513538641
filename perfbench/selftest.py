"""Self-tests of the benchmark's statistics and accounting.

    python3 -m pytest perfbench/selftest.py -q

They need neither a trained model nor a daemon.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    MIN_BEYOND,
    OpenLoop,
    Outcomes,
    Tracer,
    percentile,
    samples_beyond,
    supported,
    tail,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- open loop --------------------------------------------------------------------


def test_open_loop_latency_runs_from_the_due_time():
    schedule = OpenLoop(rate=100.0, start=10.0)  # due every 10 ms
    schedule.sent(0, now=10.0)
    schedule.answered(0, now=10.002)
    # The generator stalled: request 1 was due at 10.010 but sent late.
    schedule.sent(1, now=10.030)
    schedule.answered(1, now=10.031)
    assert schedule.latencies == pytest.approx([0.002, 0.021])
    assert schedule.lateness == pytest.approx([0.0, 0.020])


def test_open_loop_reports_no_negative_lateness():
    schedule = OpenLoop(rate=10.0, start=5.0)
    schedule.sent(3, now=5.2)  # early, e.g. clock granularity
    assert schedule.lateness == [0.0]


# -- the percentile rule ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile([7.0], 99.0) == 7.0


def test_a_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99.0) == 10
    assert supported(1000, 99.0)
    assert not supported(999, 99.0)
    assert supported(100, 90.0) and not supported(99, 90.0)


@pytest.mark.parametrize("count, expected", [
    (10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
    (40, 75.0), (20, 50.0),
])
def test_tail_picks_the_highest_supported_percentile(count, expected):
    pct, value = tail(list(range(count)), ceiling=99.9)
    assert pct == expected
    assert samples_beyond(count, pct) >= MIN_BEYOND
    assert value == percentile(list(range(count)), pct)


def test_tail_respects_its_ceiling_and_refuses_too_few_samples():
    assert tail(list(range(10000)), ceiling=90.0)[0] == 90.0
    with pytest.raises(ValueError):
        tail(list(range(19)))


# -- failures ---------------------------------------------------------------------


def test_failed_and_incorrect_operations_count_in_the_error_rate():
    outcomes = Outcomes()
    for _ in range(6):
        outcomes.record(True)
    outcomes.record(False, "refused: overloaded")
    outcomes.record(False, "answer differs from in-process predict")
    assert outcomes.attempted == 8
    assert outcomes.failed == 2
    assert outcomes.failed / outcomes.attempted == pytest.approx(0.25)
    assert outcomes.problems == [
        "refused: overloaded", "answer differs from in-process predict",
    ]


# -- trace accounting -------------------------------------------------------------


def test_layer_self_times_plus_unaccounted_equal_the_wall_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("run"):
        clock.now = 1.0
        with tracer.span("wire.classify"):
            clock.now = 4.0
        wire = len(tracer.spans) - 1
        # reported by the program
        server = tracer.derive("daemon.server", 2.5, parent=wire)
        tracer.derive("daemon.dispatch", 2.0, parent=server)
        clock.now = 4.5
        with tracer.span("extract.fresh"):
            clock.now = 6.0
            with tracer.span("kernel"):
                clock.now = 6.5
        clock.now = 7.0
    selves = tracer.self_times()
    assert selves["wire.classify"] == pytest.approx(0.5)
    assert selves["daemon.server"] == pytest.approx(0.5)
    assert selves["daemon.dispatch"] == pytest.approx(2.0)
    assert selves["extract.fresh"] == pytest.approx(1.5)
    assert selves["kernel"] == pytest.approx(0.5)
    account = tracer.accounting("run")
    assert account["wall"] == pytest.approx(7.0)
    assert account["unaccounted"] == pytest.approx(2.0)
    assert account["layers"] + account["unaccounted"] == pytest.approx(
        account["wall"])


def test_a_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("run"):
        pass
    assert tracer.spans == []


# -- the metric tables agree with BENCHMARK.json ----------------------------------


def test_benchmark_json_lists_every_reported_metric_with_its_unit():
    import layers
    import workloads

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYERS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.PLANS)
