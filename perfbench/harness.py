"""Statistics, tracing and process accounting shared by every workload.

Nothing here imports the program under test, so the self-tests in
``selftest.py`` exercise these rules without a trained model.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer would make the tail one or two unlucky requests.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = _rank(len(ordered), pct)
    return ordered[rank - 1]


def _rank(count: int, pct: float) -> int:
    # Rounded first, so 99.9 % of 10 000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - _rank(count, pct)


def supported(count: int, pct: float) -> bool:
    """True when ``count`` samples carry ``pct`` with enough beyond it."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def tail(values, ceiling: float = 99.0) -> tuple[float, float]:
    """``(pct, value)``: the highest percentile up to ``ceiling`` that
    has at least :data:`MIN_BEYOND` samples beyond it."""
    values = list(values)
    for pct in TAIL_LADDER:
        if pct <= ceiling and supported(len(values), pct):
            return pct, percentile(values, pct)
    raise ValueError(
        f"{len(values)} samples support no percentile with "
        f"{MIN_BEYOND} samples beyond it"
    )


# -- operations: attempted, failed, latency ---------------------------------------


@dataclass
class Outcomes:
    """Attempted and failed operations of one run.

    A refused, timed-out or wrong answer is a failure; its latency is
    not recorded, so a failing request can never improve a percentile.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


class OpenLoop:
    """Latency bookkeeping of an open-loop schedule.

    Request ``i`` is due at ``start + i / rate``.  Its latency runs from
    that due time, not from when the generator got round to sending it,
    so a stall also charges the requests queued behind it; how late the
    generator itself ran is kept apart as ``lateness``.
    """

    def __init__(self, rate: float, start: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.start = start
        self.latencies: list[float] = []
        self.lateness: list[float] = []

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def sent(self, index: int, now: float) -> None:
        self.lateness.append(max(0.0, now - self.due(index)))

    def answered(self, index: int, now: float) -> None:
        self.latencies.append(now - self.due(index))


# -- tracing: spans and self time -------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans recorded in memory around calls into the program.

    ``span`` times a call made from the benchmark; ``derive`` attaches
    a child whose duration the program reported itself (a daemon
    trace), placed at the start of its parent.  A span's self
    time is its duration minus that of its direct children, which do
    not overlap because the traced sections run one call at a time.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(Span(
            name, self.clock(), 0.0,
            self._stack[-1] if self._stack else None,
        ))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def derive(self, name: str, seconds: float, parent: int) -> int:
        """Record a program-reported child of span ``parent``; returns
        the new span's index."""
        start = self.spans[parent].start
        self.spans.append(Span(name, start, start + seconds, parent))
        return len(self.spans) - 1

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every span of that name."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.seconds
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span.seconds - child_total[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def accounting(self, root: str) -> dict[str, float]:
        """``wall`` of the single ``root`` span, the summed self time of
        every layer below it, and ``unaccounted`` = the root's own self
        time, so ``layers + unaccounted == wall`` by construction."""
        roots = [i for i, span in enumerate(self.spans) if span.name == root]
        if len(roots) != 1:
            raise ValueError(f"expected one {root!r} span, found {len(roots)}")
        wall = self.spans[roots[0]].seconds
        selves = self.self_times()
        unaccounted = selves.pop(root)
        return {
            "wall": wall,
            "layers": sum(selves.values()),
            "unaccounted": unaccounted,
        }


# -- process memory ---------------------------------------------------------------


def _status_kb(pid: int, key: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    tree, frontier = [pid], [pid]
    while frontier:
        found = _children(frontier.pop())
        tree.extend(found)
        frontier.extend(found)
    return tree


def peak_rss_kb(pids) -> dict[int, int]:
    """Peak resident set (VmHWM) of each live pid, in kB."""
    peaks = {}
    for pid in pids:
        value = _status_kb(pid, "VmHWM")
        if value is not None:
            peaks[pid] = value
    return peaks


class TreeMemory:
    """Sample the peak RSS of a process tree until stopped.

    Peaks are kept per pid, so short-lived workers still count with
    the last high-water mark read before they exited.  Start it only
    around subprocesses: a thread alive during ``os.fork`` is unsafe.
    """

    #: Seconds between samples.
    INTERVAL = 0.02

    def __init__(self, root_pid: int) -> None:
        self.root_pid = root_pid
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.INTERVAL)

    def sample(self) -> None:
        for pid, kb in peak_rss_kb(process_tree(self.root_pid)).items():
            self.peaks[pid] = max(kb, self.peaks.get(pid, 0))

    def __enter__(self) -> "TreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0
