"""Request metrics shared by the serving daemon and the bulk engine.

Two small, dependency-free accumulators:

* :class:`LatencyHistogram` — fixed log-spaced buckets over
  milliseconds.  Cheap to update on every request (one bisection over
  ~14 bounds), cheap to ship (a list of counts), and **mergeable** —
  per-shard histograms sum into a run view.
* :class:`RequestMetrics` — request counts by op and transport, error
  count, and one latency histogram, with a JSON-ready :meth:`snapshot`.

The serving daemon keeps one :class:`RequestMetrics` for its whole
process tree, and the bulk engine reuses :class:`LatencyHistogram` to
aggregate per-chunk scoring latency across its worker pool into the run
summary — one histogram format everywhere, so dashboards read both the
online and the offline path with the same code.

:class:`RobustnessCounters` is the third accumulator: fleet-wide
fault-tolerance events (overload rejections, deadline expiries, client
retries observed, worker respawns) and the crash-loop flag.
:class:`DriftCounters` is the fourth: per-language decision-rate and
score-distribution accumulators that compare current traffic against a
frozen baseline window so a stale model under shifting traffic is
visible in ``serve status`` (and on ``GET /metrics``) before a bad
rollout — the drift half of the ROADMAP's N-language item, closing the
loop with the hot-reload gate.

The three daemon accumulators each keep their state in one
:class:`~repro.obs.shared.SharedBlock` created before the daemon forks
its workers, one row per process, and snapshots sum the rows: ``serve
status`` and ``GET /metrics`` report the whole daemon whichever process
answers, and no count resets when a worker dies.
"""

from __future__ import annotations

import time
from bisect import bisect_left

import numpy as np

from repro.obs.shared import SharedBlock

__all__ = [
    "BUCKET_BOUNDS_MS",
    "DRIFT_SCORE_BOUNDS",
    "DEFAULT_DRIFT_WINDOW_ROWS",
    "DriftCounters",
    "HistogramBoundsError",
    "LatencyHistogram",
    "RequestMetrics",
    "RobustnessCounters",
]

#: Upper bucket bounds in milliseconds; one implicit overflow bucket
#: follows the last bound.  Log-spaced 1-2-5 so the same histogram
#: resolves a 200µs matmul and a 30s cold shard.
BUCKET_BOUNDS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


def _over_rows(view, reduce=sum) -> list:
    """A shared ``(rows, length)`` field's columns, each summed (or
    ``reduce``-d) over the rows."""
    return [reduce(column) for column in zip(*view.tolist())]


def _bucket(bounds: tuple[float, ...], ms: float) -> int:
    """Index of the bucket ``ms`` falls in: the first whose upper bound
    satisfies ``ms <= bound``, else the overflow bucket at the end."""
    return bisect_left(bounds, ms)


class HistogramBoundsError(ValueError):
    """Two histograms with different bucket bounds were combined.

    Counts bucketed against one set of bounds are meaningless under
    another — a silent element-wise sum would misfile every
    observation — so :meth:`LatencyHistogram.merge` refuses with this
    typed error instead (e.g. a fleet mixing builds across a bounds
    change must upgrade before aggregating).
    """


class LatencyHistogram:
    """Counts of observed latencies in fixed log-spaced buckets.

    ``counts`` has ``len(bounds) + 1`` entries; the last is the
    overflow bucket (> the final bound).  Totals are tracked so the
    mean survives bucketing exactly.  ``bounds`` defaults to this
    build's :data:`BUCKET_BOUNDS_MS`; a histogram rebuilt from another
    build's snapshot keeps the bounds it was observed under, and
    :meth:`merge` refuses to mix the two.
    """

    def __init__(self, counts: list[int] | None = None,
                 total_ms: float = 0.0,
                 bounds: tuple[float, ...] = BUCKET_BOUNDS_MS) -> None:
        self.bounds = tuple(float(bound) for bound in bounds)
        size = len(self.bounds) + 1
        if counts is None:
            counts = [0] * size
        if len(counts) != size:
            raise ValueError(
                f"expected {size} bucket counts, got {len(counts)}"
            )
        self.counts = list(counts)
        self.total_ms = float(total_ms)

    def observe(self, seconds: float) -> None:
        """Record one latency observation (wall seconds)."""
        ms = seconds * 1000.0
        self.total_ms += ms
        self.counts[_bucket(self.bounds, ms)] += 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's observations into this one.

        Raises :class:`HistogramBoundsError` when the two histograms
        were bucketed against different bounds (different builds) —
        summing those counts element-wise would silently misalign them.
        """
        if self.bounds != other.bounds:
            raise HistogramBoundsError(
                f"cannot merge histograms with different bucket bounds "
                f"({len(self.bounds)} bounds ending {self.bounds[-1]} vs "
                f"{len(other.bounds)} bounds ending {other.bounds[-1]})"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total_ms += other.total_ms

    @property
    def count(self) -> int:
        return sum(self.counts)

    def quantile(self, q: float) -> float | None:
        """Upper bound (ms) of the bucket holding the ``q``-quantile
        observation, or ``None`` when nothing was observed.  Bucketed —
        an estimate suited for operator dashboards, not billing."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return None
        rank = q * total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return float("inf")
        return float("inf")

    def snapshot(self) -> dict:
        """JSON-ready view: bounds, counts, totals, bucketed p50/p99.

        Quantiles landing in the overflow bucket become ``None`` —
        ``json.dumps`` would otherwise emit the spec-invalid token
        ``Infinity`` and break strict JSON consumers of the status
        endpoint (the exact mean and the raw counts still show the
        overflow traffic).
        """
        count = self.count

        def finite(value: float | None) -> float | None:
            return None if value == float("inf") else value

        return {
            "bounds_ms": list(self.bounds),
            "counts": list(self.counts),
            "count": count,
            "mean_ms": (self.total_ms / count) if count else None,
            "p50_ms": finite(self.quantile(0.5)),
            "p99_ms": finite(self.quantile(0.99)),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`snapshot` output.

        The rebuilt histogram carries the snapshot's *own* bounds (so a
        foreign snapshot loads and renders fine); combining it with a
        histogram bucketed under different bounds is what
        :meth:`merge` refuses with :class:`HistogramBoundsError`.
        """
        bounds = tuple(snapshot.get("bounds_ms", BUCKET_BOUNDS_MS))
        total = snapshot.get("mean_ms") or 0.0
        count = snapshot.get("count") or 0
        return cls(counts=list(snapshot["counts"]),
                   total_ms=float(total) * count,
                   bounds=bounds)


class RobustnessCounters:
    """Fault-tolerance event counters shared across a process tree.

    Create **before** forking workers, with a row per writing process;
    each bumps its own row and :meth:`snapshot` — the ``robustness``
    block of ``serve status`` — sums the rows, so it reports fleet
    totals no matter which worker answers.  :attr:`degraded` is the
    crash-loop flag the parent raises while it backs off respawns,
    which any answering process must report; the parent alone writes
    it and the last crash stamp, read as the maximum over rows.
    """

    #: Monotonic event counts, in snapshot order.
    COUNT_FIELDS = (
        "overload_rejections",  # typed `overloaded` refusals
        "deadline_expiries",    # requests answered `deadline-exceeded`
        "retries_observed",     # requests arriving with attempt > 1
        "worker_respawns",      # workers re-forked after a death
    )

    def __init__(self, rows: int = 1) -> None:
        self._slot = {field: i for i, field in enumerate(self.COUNT_FIELDS)}
        self._shared = SharedBlock(
            rows, counts=("q", len(self.COUNT_FIELDS)),
            last_crash=("d", 1),
            degraded=("q", 1),
        )

    def bump(self, field: str, by: int = 1) -> None:
        """Add ``by`` to one of :data:`COUNT_FIELDS` in this process's row."""
        self._shared.counts[SharedBlock.row, self._slot[field]] += by

    def mark_crash(self, when: float | None = None) -> None:
        """Record the wall time of the most recent worker death."""
        stamp = time.time() if when is None else when
        self._shared.last_crash[SharedBlock.row, 0] = stamp

    @property
    def degraded(self) -> bool:
        """True while crash-loop containment is backing off respawns."""
        return bool(_over_rows(self._shared.degraded, max)[0])

    @degraded.setter
    def degraded(self, value: bool) -> None:
        self._shared.degraded[SharedBlock.row, 0] = int(value)

    def snapshot(self) -> dict:
        """JSON-ready fleet view (``last_crash_at`` None until a death).

        The most recent worker death is reported both as an epoch stamp
        (``last_crash_at``) and as ``last_crash_age_seconds``, so
        dashboards can alert on "a crash in the last N minutes" without
        doing clock arithmetic against the scrape time.
        """
        counts = _over_rows(self._shared.counts)
        (crash,) = _over_rows(self._shared.last_crash, max)
        view: dict = dict(zip(self.COUNT_FIELDS, counts))
        view["last_crash_at"] = crash if crash else None
        view["last_crash_age_seconds"] = (
            round(max(0.0, time.time() - crash), 3) if crash else None
        )
        return view


#: Upper bucket bounds for drift score histograms (one implicit
#: overflow bucket follows).  Symmetric around the decision threshold
#: (0): the models' per-URL scores are log-likelihood margins, so the
#: distribution's mass moving across these bounds is exactly "the model
#: is less sure than it used to be".
DRIFT_SCORE_BOUNDS: tuple[float, ...] = (
    -20.0, -10.0, -5.0, -2.0, -1.0, -0.5,
    0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
)

#: Rows per drift window.  The first completed window freezes as the
#: baseline; every later completed window becomes the comparison side.
DEFAULT_DRIFT_WINDOW_ROWS = 5000

#: Bank rows, after the writers'; the mark is their totals at the last roll.
_DRIFT_BASELINE, _DRIFT_WINDOW, _DRIFT_MARK = -3, -2, -1


class DriftCounters:
    """Per-language decision-rate and score-distribution drift, shared
    across a daemon's process tree.

    Create **before** forking workers (like
    :class:`RobustnessCounters`); every worker then adds to its own
    cumulative row of one shared block, so the parent's status block
    reports fleet traffic no matter which process scored it.

    The model: traffic fills a *current* window; :meth:`roll`, called
    by one process only (the daemon's supervisor, on each pass), closes
    it once it holds at least ``window_rows`` scored URLs.  The first
    window to close freezes as the **baseline**; each later one becomes
    the **window** bank (the most recent full window).  :meth:`snapshot`
    compares the two per language — decision-rate delta and an L1
    distance between normalised score histograms — so "the fraction of
    traffic classified as German doubled since this model was rolled
    out" is a number on a dashboard, not a post-mortem.  The daemon
    replaces its instance on hot reload: a new model starts a new
    baseline.
    """

    @staticmethod
    def _code(language) -> str:
        """Normalise a language key: enum members contribute their
        ``value`` (the ISO code), anything else its string form."""
        return str(getattr(language, "value", language))

    def __init__(self, languages, window_rows: int = DEFAULT_DRIFT_WINDOW_ROWS,
                 rows: int = 1) -> None:
        self.languages = tuple(self._code(language) for language in languages)
        if not self.languages:
            raise ValueError("at least one language is required")
        if window_rows < 1:
            raise ValueError("window_rows must be >= 1")
        self.window_rows = int(window_rows)
        self._index = {code: i for i, code in enumerate(self.languages)}
        n = len(self.languages)
        b = len(DRIFT_SCORE_BOUNDS) + 1
        self._n, self._b = n, b
        # One int64 row per writer, then one per bank: its row count,
        # then positive decisions per language, then score-bucket counts
        # per language, so a batch lands as one row addition.
        shared = SharedBlock(rows + 3, counts=("q", 1 + n + n * b),
                             sums=("d", n), windows=("q", 1))
        self._writers = rows
        self._counts = np.asarray(shared.counts)
        self._sums = np.asarray(shared.sums)
        self._windows = np.asarray(shared.windows)

    def observe(self, scores) -> None:
        """Add one scored batch to this process's row.

        ``scores`` maps a language code or
        :class:`~repro.languages.Language` to its per-URL scores: the
        lists ``scores_many`` returns, or the columns of a
        :class:`~repro.api.BatchResult` matrix, as the daemon passes
        them.  Unknown languages are ignored, so a caller can feed a
        superset without pre-filtering.
        """
        indexes: list[int] = []
        lists: list = []
        for code, values in scores.items():
            index = self._index.get(self._code(code))
            if index is not None:
                indexes.append(index)
                lists.append(values)
        if not indexes:
            return
        matrix = np.asarray(lists, dtype=np.float64)  # (languages, urls)
        rows = matrix.shape[1]
        if rows == 0:
            return
        n, b = self._n, self._b
        at = np.asarray(indexes)
        counts = self._counts[SharedBlock.row]
        counts[0] += rows
        counts[1 + at] += (matrix > 0.0).sum(axis=1)
        buckets = np.searchsorted(DRIFT_SCORE_BOUNDS, matrix, side="left")
        counts[1 + n:] += np.bincount(
            (buckets + (at * b)[:, None]).ravel(), minlength=n * b
        )
        self._sums[SharedBlock.row, at] += matrix.sum(axis=1)

    def roll(self) -> None:
        """Close the current window once it holds ``window_rows`` rows
        (or more, if late).  The banks' one writer: call from one
        process only."""
        counts = self._counts[:self._writers].sum(axis=0)
        if counts[0] - self._counts[_DRIFT_MARK, 0] < self.window_rows:
            return
        sums = self._sums[:self._writers].sum(axis=0)
        banks = [_DRIFT_WINDOW]
        if self._counts[_DRIFT_BASELINE, 0] == 0:
            banks.append(_DRIFT_BASELINE)
        self._counts[banks] = counts - self._counts[_DRIFT_MARK]
        self._sums[banks] = sums - self._sums[_DRIFT_MARK]
        self._counts[_DRIFT_MARK] = counts
        self._sums[_DRIFT_MARK] = sums
        self._windows[_DRIFT_MARK] += 1

    def _bank_view(self, counts: np.ndarray, sums: np.ndarray) -> dict:
        """One bank's JSON-ready view from its copied counts and sums."""
        n = self._n
        rows = int(counts[0])
        decisions = counts[1:1 + n].tolist()
        return {
            "rows": rows,
            "decisions": dict(zip(self.languages, decisions)),
            "decision_rate": {
                code: count / rows if rows else None
                for code, count in zip(self.languages, decisions)
            },
            "score_mean": {
                code: total / rows if rows else None
                for code, total in zip(self.languages, sums.tolist())
            },
            "score_counts": dict(zip(
                self.languages, counts[1 + n:].reshape(n, self._b).tolist()
            )),
        }

    def snapshot(self) -> dict:
        """JSON-ready drift view: banks, per-language deltas, headline.

        The comparison side is the most recent *completed* window when
        one exists beyond the baseline, else the partially-filled
        current window (so young daemons still show live rates).
        ``max_abs_rate_delta`` is the headline number — the biggest
        per-language decision-rate move vs baseline — and
        ``score_shift`` is the L1 distance between the normalised
        baseline and recent score histograms (0 = identical shapes,
        2 = disjoint).
        """
        # The mark before the writers' rows: the current window (totals
        # that only grow, minus a mark summed from them) is never negative.
        windows_completed = int(self._windows[_DRIFT_MARK, 0])
        counts = self._counts[self._writers:].copy()
        sums = self._sums[self._writers:].copy()
        baseline, window = (
            self._bank_view(counts[bank], sums[bank])
            for bank in (_DRIFT_BASELINE, _DRIFT_WINDOW)
        )
        current = self._bank_view(
            self._counts[:self._writers].sum(axis=0) - counts[_DRIFT_MARK],
            self._sums[:self._writers].sum(axis=0) - sums[_DRIFT_MARK],
        )
        recent, recent_name = (
            (window, "window") if windows_completed > 1 else
            (current, "current")
        )
        comparison: dict = {}
        deltas: list[float] = []
        for code in self.languages:
            base_rate = baseline["decision_rate"][code]
            recent_rate = recent["decision_rate"][code]
            entry: dict = {
                "baseline_rate": base_rate,
                "recent_rate": recent_rate,
                "rate_delta": None,
                "score_shift": None,
            }
            if base_rate is not None and recent_rate is not None:
                entry["rate_delta"] = recent_rate - base_rate
                deltas.append(abs(entry["rate_delta"]))
                entry["score_shift"] = self._l1(
                    baseline["score_counts"][code],
                    recent["score_counts"][code],
                )
            comparison[code] = entry
        return {
            "languages": list(self.languages),
            "window_rows": self.window_rows,
            "windows_completed": windows_completed,
            "score_bounds": list(DRIFT_SCORE_BOUNDS),
            "baseline": baseline,
            "window": window,
            "current": current,
            "recent_bank": recent_name,
            "comparison": comparison,
            "max_abs_rate_delta": max(deltas) if deltas else None,
        }

    @staticmethod
    def _l1(left: list[int], right: list[int]) -> float | None:
        """L1 distance between two normalised bucket distributions."""
        left_total, right_total = sum(left), sum(right)
        if not left_total or not right_total:
            return None
        return sum(
            abs(a / left_total - b / right_total)
            for a, b in zip(left, right)
        )


class RequestMetrics:
    """Request accounting for a whole daemon: counts by op and
    transport, errors, latency.

    Create once, **before** forking workers, with a row for every
    process that answers: each adds to its own row of one shared block
    and :meth:`snapshot` — the ``requests`` block of ``serve status`` —
    sums the rows, so it covers every request the daemon answered since
    it started, whichever process answers, and no count resets when a
    worker dies or a generation reloads.
    :meth:`observe` wraps one dispatched request.  Op labels are
    bounded: :data:`OPS` are counted by name and any other op under
    ``invalid``, so clients cannot mint new series.
    """

    #: The ops the daemon serves, then the bucket for everything else.
    OPS = (
        "ping", "status", "traces", "reload", "stop",
        "classify", "score", "decisions", "invalid",
    )
    #: The listeners a request can arrive on.
    TRANSPORTS = ("unix", "tcp", "http")

    def __init__(self, rows: int = 1) -> None:
        self.started_at = time.time()
        self._op_slot = {op: i for i, op in enumerate(self.OPS)}
        self._transport_slot = {
            transport: i for i, transport in enumerate(self.TRANSPORTS)
        }
        self._shared = SharedBlock(
            rows, ops=("q", len(self.OPS)),
            transports=("q", len(self.TRANSPORTS)),
            errors=("q", 1),
            latency=("q", len(BUCKET_BOUNDS_MS) + 1),
            latency_ms=("d", 1),
        )

    def observe(self, op: str, seconds: float, ok: bool = True,
                transport: str | None = None) -> None:
        """Record one answered request of ``op`` taking ``seconds``.

        ``transport`` tags which listener carried the request ("unix",
        "tcp", "http"), so operators can see per-front-door traffic in
        ``serve status`` when a daemon exposes several at once.
        """
        op_slot = self._op_slot.get(op, self._op_slot["invalid"])
        transport_slot = (
            None if transport is None else self._transport_slot[transport]
        )
        ms = seconds * 1000.0
        bucket = _bucket(BUCKET_BOUNDS_MS, ms)
        shared, row = self._shared, SharedBlock.row
        shared.ops[row, op_slot] += 1
        if transport_slot is not None:
            shared.transports[row, transport_slot] += 1
        if not ok:
            shared.errors[row, 0] += 1
        shared.latency[row, bucket] += 1
        shared.latency_ms[row, 0] += ms

    @staticmethod
    def _nonzero(names: tuple[str, ...], counts: list[int]) -> dict:
        return {name: n for name, n in sorted(zip(names, counts)) if n}

    def snapshot(self) -> dict:
        """JSON-ready view for status blocks and progress reporting."""
        shared = self._shared
        ops = _over_rows(shared.ops)
        transports = _over_rows(shared.transports)
        (errors,) = _over_rows(shared.errors)
        (total_ms,) = _over_rows(shared.latency_ms)
        counts = _over_rows(shared.latency)
        return {
            "total": sum(ops),
            "errors": errors,
            "by_op": self._nonzero(self.OPS, ops),
            "by_transport": self._nonzero(self.TRANSPORTS, transports),
            "since": self.started_at,
            "latency_ms": LatencyHistogram(counts, total_ms).snapshot(),
        }
