"""The three workloads: their seeded inputs and end-to-end measurement.

* ``serve-frontier`` — crawler triage against a live daemon; a
  Zipf-skewed pool smaller than the row memo, so warm extraction is
  mostly memo hits and transport, dispatch, shaping and JSON dominate.
* ``bulk-cold`` — ``bulk.run`` with the TSV sink over a few large
  gzipped shards of distinct URLs, more than the memo holds, so every
  URL is extracted fresh; no wire.
* ``index-and-query`` — ``bulk.run --sink sqlite`` over hundreds of
  small shards, then a seeded query mix on the built index; per-shard
  costs (checkpoint, ingest, dispatch) dominate the build.

Each plan's ``measure`` reports the same four end-to-end metrics (see
``E2E``); what each one means on each workload is in ``README.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

import inputs
import traffic
from drive import WORKERS, Daemon, answers, rows_match, run_bulk, served
from harness import Outcomes, percentile, tail

if TYPE_CHECKING:
    from run import Context

#: End-to-end metric units, as in ``BENCHMARK.json``.
E2E = {
    "setup_s": "s",
    "rss_mb": "MB",
    "urls_per_s": "1/s",
    "p50_ms": "ms",
}

#: Phase (a): small batches at a fixed rate well below capacity.
SMALL_BATCH = 32
WIRE_RATE = 300.0
HTTP_RATE = 10.0
#: Phase (b): large batches, closed loop over two connections.
LARGE_BATCH = 1024
#: Daemon starts per run; ``setup_s`` is their median.
SETUPS = 15
#: Alternating (a)/(b) slices per run.
CYCLES = 4


@dataclass
class Plan:
    """A workload's inputs, and the shapes the per-layer sweep replays."""

    ctx: Context
    #: Every URL the workload sends, distinct, for the oracle.
    urls: list[str]
    #: Small batches for open-loop traffic and traced daemon requests.
    small: list[list[str]]
    #: The workload's own batch stream, replayed to measure memo reuse.
    stream: list[list[str]]
    #: Batches of the workload's scoring shape for in-process replays.
    chunks: list[list[str]]
    shard_dir: Path
    shard_urls: list[list[str]]
    sink: str
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        self.digest = inputs.digest(self.urls, self.small, self.stream,
                                    self.chunks, self.shard_urls)

    @property
    def warm(self) -> list[list[str]]:
        """Batches the workload sends before it measures."""
        return []

    def measure(self) -> tuple[Outcomes, dict]:
        raise NotImplementedError


def _metrics(setup, rss, rate, latencies) -> tuple[dict, str]:
    """The end-to-end metrics, and the latency tail as a printed note:
    on a shared host the tail swings too far between runs to gate."""
    pct, high = tail(latencies)
    return {
        "setup_s": (setup, E2E["setup_s"]),
        "rss_mb": (rss, E2E["rss_mb"]),
        "urls_per_s": (rate, E2E["urls_per_s"]),
        "p50_ms": (percentile(latencies, 50.0) * 1000.0, E2E["p50_ms"]),
    }, f"p{pct:g} {high * 1000.0:.3f} ms of {len(latencies)} samples"


# -- serve-frontier ---------------------------------------------------------------


class ServeFrontier(Plan):
    """Phase (a) open loop and phase (b) closed loop, on one daemon."""

    POOL = 16384  # distinct URLs, below ROW_CACHE_SIZE (65 536)

    @classmethod
    def build(cls, ctx: Context) -> "ServeFrontier":
        rng = random.Random(ctx.seed)
        pool = inputs.unique_urls(ctx.seed, 4000)[:cls.POOL]
        small = inputs.zipf_batches(pool, 4000, SMALL_BATCH, rng)
        large = inputs.zipf_batches(pool, 400, LARGE_BATCH, rng)
        shard_urls = inputs.split(pool, 4)
        plan = cls(
            ctx, pool, small, large,
            [pool[i:i + LARGE_BATCH] for i in range(0, 8 * LARGE_BATCH,
                                                    LARGE_BATCH)],
            ctx.workdir / "shards", shard_urls, "tsv",
        )
        inputs.write_shards(shard_urls, plan.shard_dir, compressed=False)
        return plan

    @property
    def warm(self) -> list[list[str]]:
        return [self.urls[i:i + LARGE_BATCH]
                for i in range(0, len(self.urls), LARGE_BATCH)]

    def measure(self) -> tuple[Outcomes, dict]:
        from repro.api import open_model

        ctx = self.ctx
        outcomes = Outcomes()
        oracle = answers(open_model(ctx.artifact), self.urls)
        setups = []
        daemon = None
        try:
            for attempt in range(SETUPS):
                daemon = Daemon(ctx.artifact, ctx.workdir, f"d{attempt}")
                _, setup, rows = daemon.start(self.small[attempt])
                outcomes.record(
                    rows_match(oracle, self.small[attempt], served(rows)),
                    "first classify differs from in-process predict",
                )
                setups.append(setup)
                if attempt < SETUPS - 1:
                    daemon.stop()
            phase_a, rates = asyncio.run(self._phases(daemon, oracle, outcomes))
            rss = daemon.peak_rss_mb()
            daemon.stop()
        except BaseException:
            if daemon is not None:
                daemon.kill()
            raise
        metrics, tail_note = _metrics(
            percentile(setups, 50.0), rss, percentile(rates, 50.0),
            phase_a["wire"],
        )
        ctx.note(
            f"phase (a): wire tail {tail_note}; {len(phase_a['http'])} HTTP "
            f"requests, HTTP p50 "
            f"{percentile(phase_a['http'], 50.0) * 1000:.2f} ms; phase (b) "
            f"urls/s per {traffic.WINDOW_S:g}s window: "
            f"{' '.join(f'{rate:.0f}' for rate in rates)}; setup_s per "
            f"start: {' '.join(f'{setup:.3f}' for setup in setups)}"
        )
        return outcomes, metrics

    async def _phases(self, daemon: Daemon, oracle: dict,
                      outcomes: Outcomes):
        """Phases (a) and (b) in alternating slices, so each phase's
        figures span the whole run rather than one stretch of it."""
        slice_s = self.ctx.seconds / CYCLES
        await traffic.warm(daemon.tcp, self.warm, WORKERS)
        phase_a: dict[str, list[float]] = {"wire": [], "http": []}
        rates: list[float] = []
        for cycle in range(CYCLES):
            sample = await traffic.open_loop(
                daemon.tcp, daemon.http, oracle,
                self.small[cycle::CYCLES], WIRE_RATE,
                self.small[::-1][cycle::CYCLES], HTTP_RATE,
                0.6 * slice_s, outcomes,
            )
            phase_a["wire"] += sample["wire"]
            phase_a["http"] += sample["http"]
            rates += await traffic.closed_loop(
                daemon.tcp, oracle, self.stream[cycle::CYCLES], 0.4 * slice_s,
                WORKERS, outcomes,
            )
        return phase_a, rates


# -- bulk workloads ---------------------------------------------------------------


def expected_shard_digests(artifact: Path, shard_urls) -> list[str]:
    """sha256 of each TSV output shard: ``Prediction.tsv()`` rows of
    in-process ``open_model(artifact).predict``."""
    from repro.api import open_model

    identifier = open_model(artifact)
    digests = []
    for urls in shard_urls:
        hasher = hashlib.sha256()
        for start in range(0, len(urls), 4096):
            for prediction in identifier.predict(urls[start:start + 4096]):
                hasher.update((prediction.tsv() + "\n").encode("utf-8"))
        digests.append(hasher.hexdigest())
    return digests


class BulkPlan(Plan):
    """Repeated ``bulk.run`` calls over the same shards into a fresh
    output directory each time."""

    MIN_RUNS = 3

    def bulk_runs(self, after) -> list[dict]:
        """Runs until ``--seconds`` are spent (at least ``MIN_RUNS``);
        ``after(report, output)`` checks each and may use its output."""
        ctx = self.ctx
        reports = []
        deadline = perf_counter() + ctx.seconds
        while len(reports) < self.MIN_RUNS or perf_counter() < deadline:
            output = ctx.workdir / "out"
            report = run_bulk(ctx.artifact, self.shard_dir, output, self.sink)
            after(report, output)
            shutil.rmtree(output)
            reports.append(report)
        return reports


    @staticmethod
    def shard_seconds(reports) -> list[float]:
        return [
            entry["seconds"]
            for report in reports
            for entry in report["manifest"]["shards"].values()
        ]

    @staticmethod
    def describe(reports) -> str:
        return "urls/s per run: " + " ".join(
            f"{r['rows'] / r['seconds']:.0f}" for r in reports)

    @staticmethod
    def medians(reports) -> tuple[float, float, float]:
        return (
            percentile([r["setup_s"] for r in reports], 50.0),
            percentile([r["rss_mb"] for r in reports], 50.0),
            percentile([r["rows"] / r["seconds"] for r in reports], 50.0),
        )


class BulkCold(BulkPlan):
    SHARDS = 16

    @classmethod
    def build(cls, ctx: Context) -> "BulkCold":
        urls = inputs.unique_urls(ctx.seed, 40000)
        shard_urls = inputs.split(urls, cls.SHARDS)
        chunk = 512  # repro.api.DEFAULT_CHUNK_SIZE, bulk's predict pass
        plan = cls(
            ctx, urls, [urls[i:i + SMALL_BATCH] for i in range(0, 9600, 32)],
            [urls[i:i + chunk] for i in range(0, 200 * chunk, chunk)],
            [urls[i:i + chunk] for i in range(0, 16 * chunk, chunk)],
            ctx.workdir / "shards", shard_urls, "tsv",
        )
        inputs.write_shards(shard_urls, plan.shard_dir, compressed=True)
        return plan

    def measure(self) -> tuple[Outcomes, dict]:
        outcomes = Outcomes()
        expected = expected_shard_digests(self.ctx.artifact, self.shard_urls)

        reports = self.bulk_runs(
            lambda report, output: check_tsv(report, output, expected,
                                             outcomes))
        setup, rss, rate = self.medians(reports)
        metrics, tail_note = _metrics(setup, rss, rate,
                                      self.shard_seconds(reports))
        self.ctx.note(f"{len(reports)} bulk runs; per-shard tail {tail_note}; "
                      + self.describe(reports))
        return outcomes, metrics


class IndexAndQuery(BulkPlan):
    SHARDS = 200
    SHARD_ROWS = 80

    @classmethod
    def build(cls, ctx: Context) -> "IndexAndQuery":
        urls = inputs.unique_urls(ctx.seed, 4500)[:cls.SHARDS * cls.SHARD_ROWS]
        shard_urls = inputs.split(urls, cls.SHARDS)
        plan = cls(
            ctx, urls, [urls[i:i + SMALL_BATCH] for i in range(0, 9600, 32)],
            shard_urls, [urls[i:i + 512] for i in range(0, 16 * 512, 512)],
            ctx.workdir / "shards", shard_urls, "sqlite",
        )
        inputs.write_shards(shard_urls, plan.shard_dir, compressed=False)
        return plan

    def measure(self) -> tuple[Outcomes, dict]:
        from repro.query import open_index

        outcomes = Outcomes()
        rng = random.Random(self.ctx.seed)
        sessions: list[list[float]] = []

        def after(report: dict, output: Path) -> None:
            """Check the build, then query it for QUERY_SHARE of the
            time: builds and query sessions alternate over the run."""
            check_index(report, output, outcomes)
            with open_index(output) as index:
                sessions.append(run_queries(
                    index, self.urls, report["summary"]["best"], rng,
                    report["seconds"] * QUERY_SHARE / (1.0 - QUERY_SHARE),
                    outcomes,
                ))

        reports = self.bulk_runs(after)
        setup, rss, rate = self.medians(reports)
        latencies = [latency for build in sessions for latency in build]
        metrics, tail_note = _metrics(setup, rss, rate, latencies)
        self.ctx.note(
            f"{len(reports)} index builds; query-session tail {tail_note}; "
            + self.describe(reports) + "; query p50 ms per build: "
            + " ".join(f"{percentile(build, 50.0) * 1000:.2f}"
                       for build in sessions)
        )
        return outcomes, metrics


def check_tsv(report: dict, output: Path, expected: list[str],
              outcomes: Outcomes) -> None:
    """Every output shard's bytes must be the ``Prediction.tsv()`` rows."""
    from repro.bulk.checkpoint import sha256_file

    manifest = report["manifest"]
    for ordinal, shard_id in enumerate(manifest["order"]):
        outcomes.record(
            sha256_file(output / manifest["shards"][shard_id]["output"])
            == expected[ordinal],
            f"bulk output {shard_id} differs from Prediction.tsv()",
        )


def check_index(report: dict, output: Path, outcomes: Outcomes) -> None:
    """The built index's ``counts()`` must equal the run's summary."""
    from repro.query import open_index

    with open_index(output) as index:
        outcomes.record(
            index.counts() == report["summary"]["best"],
            "index counts() differ from the bulk run's summary",
        )


#: Share of the index-and-query run spent querying.
QUERY_SHARE = 0.4

#: One analyst question: every query kind once, with seeded arguments.
#: Timing whole sessions keeps the latency distribution unimodal; a
#: random mix of kinds puts its median in the gap between them.
QUERY_OPS = ("lookup", "page", "counts", "histogram", "search")
LANGUAGE_CODES = ("de", "en", "es", "fr", "it")


def search_term(url: str) -> str:
    """A quoted FTS5 term taken from ``url`` (its longest word)."""
    words = "".join(c if c.isalnum() else " " for c in url).split()
    return '"' + max(words, key=len) + '"'


def query_op(index, op: str, url: str, language: str, summary: dict):
    """Run one query; returns ``(ok, problem)``."""
    if op == "lookup":
        rows = index.lookup(url)
        return (bool(rows) and all(row["url"] == url for row in rows),
                f"lookup({url!r}) did not return its URL")
    if op == "page":
        page = index.page(language, limit=50)
        return (all(row["best"] == language for row in page.rows),
                f"page({language!r}) returned another language")
    if op == "counts":
        return (index.counts() == summary,
                "counts() differ from the bulk run's summary")
    if op == "histogram":
        hist = index.histogram(language, bins=20)
        return (hist["rows"] == summary.get(language, 0),
                f"histogram({language!r}) lost rows")
    if op == "search":
        page = index.search(search_term(url), limit=20)
        return bool(page.rows), f"search for a word of {url!r} found nothing"
    raise ValueError(op)


def run_queries(index, urls, summary: dict, rng: random.Random,
                seconds: float, outcomes: Outcomes,
                timings: dict | None = None) -> list[float]:
    """Query sessions, one at a time, for ``seconds``.  Returns the
    latencies of sessions answered correctly throughout; ``timings``
    collects each query kind's own latencies."""
    latencies = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        url = rng.choice(urls)
        language = rng.choice(LANGUAGE_CODES)
        session_ok, spent = True, 0.0
        for op in QUERY_OPS:
            started = perf_counter()
            try:
                ok, problem = query_op(index, op, url, language, summary)
            except Exception as error:  # a failed operation
                ok, problem = False, f"{op}: {error!r}"
            elapsed = perf_counter() - started
            outcomes.record(ok, problem)
            session_ok = session_ok and ok
            spent += elapsed
            if ok and timings is not None:
                timings.setdefault(op, []).append(elapsed)
        if session_ok:
            latencies.append(spent)
    return latencies


PLANS = {
    "serve-frontier": ServeFrontier.build,
    "bulk-cold": BulkCold.build,
    "index-and-query": IndexAndQuery.build,
}
