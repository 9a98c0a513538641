"""The traced run: the workload's inputs replayed through every layer.

Spans are recorded here, around calls into each layer's public
functions; nothing in the program is instrumented.  Where the program
reports a duration itself (the daemon's ``traces`` op, a bulk run's
manifest and ``events.jsonl``) it is read, not re-timed.  Every
workload replays all layers on its own inputs, so each per-layer
metric exists on every workload; ``README.md`` maps each one to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from collections import Counter
from pathlib import Path
from time import perf_counter

import traffic
import workloads
from drive import (WORKERS, Daemon, HttpConnection, answers, rows_match,
                   run_bulk, served, wire_rows)
from harness import Outcomes, Tracer, percentile, tail

#: Per-layer metric units, as in ``BENCHMARK.json``.
LAYERS = {
    "api.open_model_s": "s",
    "daemon.ready_s": "s",
    "daemon.server_ms": "ms",
    "daemon.dispatch_ms": "ms",
    "wire.encode_us_per_req": "us",
    "wire.decode_us_per_resp": "us",
    "wire.req_bytes_per_url": "B/url",
    "wire.resp_bytes_per_url": "B/url",
    "client.transport_ms": "ms",
    "client.retries": "count",
    "http.overhead_ms": "ms",
    "http.p50_ms": "ms",
    "http.tail_ms": "ms",
    "extract.memo_hit_ratio": "ratio",
    "extract.fresh_us_per_url": "us",
    "extract.memo_us_per_url": "us",
    "kernel.us_per_url": "us",
    "kernel.nnz_per_url": "count",
    "kernel.flops_per_url": "flop",
    "kernel.bytes_per_url": "B/url",
    "shape.scores_many_us_per_url": "us",
    "shape.classify_many_us_per_url": "us",
    "shape.score_batch_us_per_url": "us",
    "shape.predict_us_per_url": "us",
    "drift.observe_us_per_url": "us",
    "source.read_us_per_url": "us",
    "sink.format_tsv_us_per_url": "us",
    "sink.format_sqlite_us_per_url": "us",
    "sink.summary_us_per_url": "us",
    "engine.shard_s_p50": "s",
    "engine.shard_s_max": "s",
    "engine.chunk_latency_ms": "ms",
    "engine.worker_busy_ratio": "ratio",
    "engine.rows_quarantined": "count",
    "checkpoint.save_ms": "ms",
    "checkpoint.total_s": "s",
    "checkpoint.manifest_bytes": "B",
    "ingest.ms_per_shard": "ms",
    "ingest.us_per_row": "us",
    "query.lookup_ms": "ms",
    "query.page_ms": "ms",
    "query.counts_ms": "ms",
    "query.histogram_ms": "ms",
    "query.search_ms": "ms",
    "bench.gen_late_ms": "ms",
    "bench.trace_overhead": "ratio",
    "unaccounted_s": "s",
}

#: Traced daemon request pairs (wire, then HTTP, on the same batch).
PAIRS = 60
#: Share of ``--seconds`` spent in the short open loop and the query mix;
#: the open loop lasts at least OPEN_MIN_S, so the HTTP tail has samples.
OPEN_SHARE = 0.4
OPEN_MIN_S = 3.0
QUERY_SHARE = 0.2
#: Untraced/traced replay pairs behind ``bench.trace_overhead``.
OVERHEAD_PAIRS = 2
#: URLs of the workload's stream that warm the memo, and then that are
#: counted, for ``extract.memo_hit_ratio``.
STREAM_URLS = 8000
#: Repetitions of the microsecond-scale wire replays.
WIRE_REPS = 10
#: Rows the ingest replay builds from bench-written JSONL shards.
INGEST_ROWS = 16000


def sweep(ctx, plan) -> tuple[Outcomes, dict]:
    """Replay ``plan``'s inputs through every layer; per-layer metrics."""
    from repro.api import open_model
    # Imported before the untraced replay, so neither replay pays them.
    import repro.bulk.sink  # noqa: F401
    import repro.store.metrics  # noqa: F401
    import repro.store.serve  # noqa: F401

    outcomes = Outcomes()
    values: dict[str, float] = {}
    oracle_urls = list(dict.fromkeys(url for batch in plan.small for url in batch))
    oracle = answers(open_model(ctx.artifact), oracle_urls)
    expected = (
        workloads.expected_shard_digests(ctx.artifact, plan.shard_urls)
        if plan.sink == "tsv" else None
    )
    # Tracing overhead: the in-process replay untraced and traced, in
    # alternation after one warm-up pass (page faults on the mapped
    # weights, allocator pools), compared by their means.
    inprocess(Tracer(enabled=False), ctx, plan, {})
    runs: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(OVERHEAD_PAIRS):
        for enabled in (False, True):
            started = perf_counter()
            inprocess(Tracer(enabled=enabled), ctx, plan, {})
            runs[enabled].append(perf_counter() - started)
    values["bench.trace_overhead"] = sum(runs[True]) / sum(runs[False]) - 1.0

    tracer = Tracer()
    with tracer.span("run"):
        predictions = inprocess(tracer, ctx, plan, values)
        daemon_layers(tracer, ctx, plan, oracle, outcomes, values)
        bulk_layers(tracer, ctx, plan, expected, predictions, outcomes, values)
    account = tracer.accounting("run")
    values["unaccounted_s"] = account["unaccounted"]
    ctx.note(
        f"trace accounting: wall {account['wall']:.3f}s = layers "
        f"{account['layers']:.3f}s + unaccounted {account['unaccounted']:.3f}s"
    )
    missing = set(LAYERS) - set(values)
    if missing:
        raise RuntimeError(f"sweep left metrics unmeasured: {sorted(missing)}")
    return outcomes, {name: (values[name], unit) for name, unit in LAYERS.items()}


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale


# -- in-process layers ------------------------------------------------------------


def inprocess(tracer: Tracer, ctx, plan, values: dict) -> list:
    """Extraction, kernel, result shaping, drift, sinks: one pass over
    ``plan.chunks`` on a fresh identifier, then the memo replay.
    Returns the predictions of the chunks."""
    from repro.api import open_model
    from repro.bulk.sink import SummaryAccumulator, make_sink
    from repro.store.metrics import DriftCounters
    from repro.store.serve import score_batch

    with tracer.span("api.open_model"):
        identifier = open_model(ctx.artifact)
    compiled = identifier.compiled
    drift = DriftCounters(list(compiled.scorers))
    tsv, sqlite = make_sink("tsv"), make_sink("sqlite", provenance="bench")
    summary = SummaryAccumulator()
    urls_total = nnz = 0
    predictions: list = []
    for urls in plan.chunks:
        with tracer.span("extract.fresh"):
            compiled.batch(urls)
        with tracer.span("extract.memo"):
            csr = compiled.batch(urls)
        with tracer.span("compiled.scores_matrix"):
            compiled.scores_matrix(urls)
        with tracer.span("shape.scores_many"):
            scores = identifier.scores_many(urls)
        with tracer.span("shape.classify_many"):
            identifier.classify_many(urls, scores=scores)
        with tracer.span("shape.score_batch"):
            score_batch(identifier, urls, scores=scores)
        with tracer.span("shape.predict"):
            rows = list(identifier.predict(urls))
        with tracer.span("drift.observe"):
            drift.observe(scores)
        with tracer.span("sink.format_tsv"):
            for prediction in rows:
                tsv.format(prediction)
        with tracer.span("sink.format_sqlite"):
            for prediction in rows:
                sqlite.format(prediction)
        with tracer.span("sink.summary"):
            for prediction in rows:
                summary.observe(prediction)
        urls_total += len(urls)
        nnz += int(csr.indices.size)
        predictions.extend(rows)

    # Memo reuse on the workload's own stream, on a fresh identifier:
    # its first STREAM_URLS warm the memo, the next STREAM_URLS are
    # counted, so URLs first seen late in the stream count as misses.
    # The memo's occupancy counts every miss exactly while it stays
    # below its capacity, which 2 * STREAM_URLS guarantees.
    compiled = open_model(ctx.artifact).compiled
    attempted = misses = fed = 0
    for urls in plan.stream:
        if fed + len(urls) > 2 * STREAM_URLS:
            break
        if fed < STREAM_URLS:
            compiled.batch(urls)
        else:
            before = compiled.cache_info["rows"]
            with tracer.span("extract.stream"):
                compiled.batch(urls)
            attempted += len(urls)
            misses += compiled.cache_info["rows"] - before
        fed += len(urls)
    if not tracer.enabled:
        return predictions

    total = {name: sum(tracer.durations(name)) for name in (
        "extract.fresh", "extract.memo", "compiled.scores_matrix",
        "shape.scores_many", "shape.classify_many", "shape.score_batch",
        "shape.predict", "drift.observe", "sink.format_tsv",
        "sink.format_sqlite", "sink.summary",
    )}
    n, us = urls_total, 1e6
    columns = compiled.stacked_columns
    width, weight_bytes = columns.shape[1], columns.dtype.itemsize
    values.update({
        "api.open_model_s": tracer.durations("api.open_model")[-1],
        "extract.memo_hit_ratio": (attempted - misses) / attempted,
        "extract.fresh_us_per_url": _per(total["extract.fresh"], n, us),
        "extract.memo_us_per_url": _per(total["extract.memo"], n, us),
        "kernel.us_per_url": _per(
            total["compiled.scores_matrix"] - total["extract.memo"], n, us),
        "kernel.nnz_per_url": nnz / n,
        # Computed from array sizes, not measured: one multiply and one
        # add per stored entry and weight column.
        "kernel.flops_per_url": 2.0 * nnz * width / n,
        # indices + data read, weight rows gathered, the nnz x k
        # contributions written and re-read, the n x k output written.
        "kernel.bytes_per_url": (
            nnz * (csr.indices.itemsize + csr.data.itemsize)
            + nnz * width * weight_bytes + 2 * nnz * width * 8
            + n * width * 8
        ) / n,
        "shape.scores_many_us_per_url": _per(
            total["shape.scores_many"] - total["compiled.scores_matrix"],
            n, us),
        "shape.classify_many_us_per_url": _per(
            total["shape.classify_many"], n, us),
        "shape.score_batch_us_per_url": _per(total["shape.score_batch"], n, us),
        "shape.predict_us_per_url": _per(
            total["shape.predict"] - total["shape.scores_many"], n, us),
        "drift.observe_us_per_url": _per(total["drift.observe"], n, us),
        "sink.format_tsv_us_per_url": _per(total["sink.format_tsv"], n, us),
        "sink.format_sqlite_us_per_url": _per(
            total["sink.format_sqlite"], n, us),
        "sink.summary_us_per_url": _per(total["sink.summary"], n, us),
    })
    return predictions


# -- the daemon: wire, client, HTTP -----------------------------------------------


def daemon_layers(tracer: Tracer, ctx, plan, oracle: dict,
                  outcomes: Outcomes, values: dict) -> None:
    daemon = Daemon(ctx.artifact, ctx.workdir, "sweep")
    try:
        with tracer.span("daemon.start"):
            ready, _, rows = daemon.start(plan.small[0])
        outcomes.record(rows_match(oracle, plan.small[0], served(rows)),
                        "first classify differs from in-process predict")
        values["daemon.ready_s"] = ready
        asyncio.run(_daemon_session(tracer, ctx, plan, daemon, oracle,
                                    outcomes, values))
        with tracer.span("daemon.status"):
            status = daemon.status()
        values["client.retries"] = status["robustness"]["retries_observed"]
        with tracer.span("daemon.stop"):
            daemon.stop()
    except BaseException:
        daemon.kill()
        raise


async def _daemon_session(tracer, ctx, plan, daemon, oracle, outcomes, values):
    from repro.store.client import AsyncDaemonClient

    with tracer.span("daemon.warmup"):
        await traffic.warm(daemon.tcp, plan.warm, WORKERS)
    client = AsyncDaemonClient(daemon.tcp, tracing=True)
    connection = HttpConnection(*daemon.http)
    pairs = []  # (wire span, trace id, wire s, http s, batch, response)
    try:
        for batch in plan.small[1:PAIRS + 1]:
            with tracer.span("wire.classify"):
                response = await client.request("classify", urls=batch)
            wire = len(tracer.spans) - 1
            with tracer.span("http.classify"):
                status, body = await connection.post(
                    "/v1/classify", {"urls": batch})
            outcomes.record(
                rows_match(oracle, batch, wire_rows(response)),
                "traced wire classify differs from in-process predict")
            outcomes.record(
                status == 200 and rows_match(oracle, batch, wire_rows(body)),
                "traced HTTP classify differs from in-process predict")
            pairs.append((wire, client.last_trace["trace_id"],
                          tracer.spans[wire].seconds, tracer.spans[-1].seconds,
                          batch, response))
        with tracer.span("daemon.traces"):
            recorded = {
                span["trace"]: span for span in await client.atraces()
            }
    finally:
        await client.aclose()
        await connection.close()

    server, dispatch, transport, overhead = [], [], [], []
    for span_index, trace_id, wire_s, http_s, _, _ in pairs:
        record = recorded[trace_id]
        server_s = record["ms"] / 1000.0
        node = tracer.derive("daemon.server", server_s, parent=span_index)
        stages = {k: v / 1000.0 for k, v in record["stages_ms"].items()}
        for name in ("accept", "respond"):
            tracer.derive(f"daemon.{name}", stages.get(name, 0.0), parent=node)
        inner = tracer.derive("daemon.dispatch", stages["dispatch"], parent=node)
        for name in ("extract", "matmul"):
            tracer.derive(f"daemon.{name}", stages.get(name, 0.0), parent=inner)
        server.append(server_s)
        dispatch.append(stages["dispatch"])
        transport.append(wire_s - server_s)
        overhead.append(http_s - wire_s)
    values["daemon.server_ms"] = percentile(server, 50.0) * 1000.0
    values["daemon.dispatch_ms"] = percentile(dispatch, 50.0) * 1000.0
    values["client.transport_ms"] = percentile(transport, 50.0) * 1000.0
    values["http.overhead_ms"] = percentile(overhead, 50.0) * 1000.0

    with tracer.span("bench.open_loop"):
        phase = await traffic.open_loop(
            daemon.tcp, daemon.http, oracle,
            plan.small, workloads.WIRE_RATE, plan.small[::-1],
            workloads.HTTP_RATE, max(OPEN_SHARE * ctx.seconds, OPEN_MIN_S),
            outcomes,
        )
    values["http.p50_ms"] = percentile(phase["http"], 50.0) * 1000.0
    values["http.tail_ms"] = tail(phase["http"], ceiling=90.0)[1] * 1000.0
    values["bench.gen_late_ms"] = tail(phase["lateness"])[1] * 1000.0
    await _wire_replay(tracer, [(batch, response)
                                for *_, batch, response in pairs], values)


async def _wire_replay(tracer, frames, values) -> None:
    """Encode the traced requests and decode their real responses again."""
    from repro.store.wire import PROTOCOL_VERSION, encode_frame, read_frame_async

    requests = [{"v": PROTOCOL_VERSION, "op": "classify", "urls": batch}
                for batch, _ in frames]
    with tracer.span("wire.encode"):
        for _ in range(WIRE_REPS):
            request_frames = [encode_frame(message, None, cid)
                              for cid, message in enumerate(requests, 1)]
    blob = b"".join(encode_frame(response, None, cid)
                    for cid, (_, response) in enumerate(frames, 1))
    with tracer.span("wire.decode"):
        for _ in range(WIRE_REPS):
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            for _ in frames:
                await read_frame_async(reader)
    urls = sum(len(batch) for batch, _ in frames)
    count = WIRE_REPS * len(frames)
    values["wire.encode_us_per_req"] = _per(
        tracer.durations("wire.encode")[0], count, 1e6)
    values["wire.decode_us_per_resp"] = _per(
        tracer.durations("wire.decode")[0], count, 1e6)
    values["wire.req_bytes_per_url"] = sum(map(len, request_frames)) / urls
    values["wire.resp_bytes_per_url"] = len(blob) / urls


# -- bulk: engine, source, checkpoint, ingest, query ------------------------------


def bulk_layers(tracer: Tracer, ctx, plan, expected, predictions,
                outcomes: Outcomes, values: dict) -> None:
    from repro.bulk.checkpoint import RunManifest
    from repro.bulk.source import discover_shards, read_rows

    output = ctx.workdir / "sweep-bulk"
    with tracer.span("bulk.run"):
        report = run_bulk(ctx.artifact, plan.shard_dir, output, plan.sink)
    manifest = report["manifest"]
    if expected is not None:
        workloads.check_tsv(report, output, expected, outcomes)
    else:
        workloads.check_index(report, output, outcomes)
    seconds = [entry["seconds"] for entry in manifest["shards"].values()]
    values["engine.shard_s_p50"] = percentile(seconds, 50.0)
    values["engine.shard_s_max"] = max(seconds)
    values["engine.chunk_latency_ms"] = report["latency"]["mean_ms"]
    values["engine.worker_busy_ratio"] = sum(seconds) / (
        report["wall"] * min(WORKERS, len(seconds)))
    values["engine.rows_quarantined"] = report["quarantined"]

    with tracer.span("source.read_rows"):
        rows = sum(1 for shard in discover_shards(plan.shard_dir)
                   for _ in read_rows(shard))
    values["source.read_us_per_url"] = _per(
        tracer.durations("source.read_rows")[0], rows, 1e6)

    final = RunManifest.load(output / "manifest.json")
    replay = output / "replay-manifest.json"
    for _ in range(5):
        with tracer.span("checkpoint.save"):
            final.save(replay)
    values["checkpoint.save_ms"] = percentile(
        tracer.durations("checkpoint.save"), 50.0) * 1000.0
    values["checkpoint.manifest_bytes"] = (output / "manifest.json").stat().st_size
    # The run's whole checkpoint history replayed: the plan, one save
    # per shard commit as the manifest grows, the closing summary.
    growing = RunManifest.load(output / "manifest.json")
    growing.summary = None
    for shard_id in growing.order:
        done = growing.shards[shard_id]
        growing.shards[shard_id] = {
            key: done[key] for key in ("source", "format", "size_bytes")
        }
        growing.shards[shard_id]["status"] = "pending"
    with tracer.span("checkpoint.history"):
        growing.save(replay)
        for shard_id in growing.order:
            growing.shards[shard_id] = final.shards[shard_id]
            growing.save(replay)
        growing.summary = final.summary
        growing.save(replay)
    values["checkpoint.total_s"] = tracer.durations("checkpoint.history")[0]

    if plan.sink == "sqlite":
        shards = [(shard_id, output / manifest["shards"][shard_id]["output"])
                  for shard_id in manifest["order"]]
        summary = report["summary"]["best"]
        urls = plan.urls
    else:
        shards, summary, urls = _jsonl_shards(plan, predictions, output)
    _ingest_and_query(tracer, ctx, shards, summary, urls, output, outcomes,
                      values)


def _jsonl_shards(plan, predictions, output: Path):
    """JSONL shards (the sqlite sink's rows) of the chunk predictions,
    cut at the workload's shard size, for sinks that write none."""
    from repro.bulk.sink import make_sink

    sink = make_sink("sqlite", provenance="bench")
    size = max(1, min(len(plan.shard_urls[0]), INGEST_ROWS))
    predictions = predictions[:INGEST_ROWS]
    shards = []
    for ordinal, start in enumerate(range(0, len(predictions), size)):
        path = output / f"replay-{ordinal:05d}.jsonl"
        path.write_text("".join(sink.format(p) + "\n"
                                for p in predictions[start:start + size]),
                        encoding="utf-8")
        shards.append((path.name, path))
    summary = Counter(p.best.value if p.best else "und" for p in predictions)
    return shards, dict(summary), [p.url for p in predictions]


def _ingest_and_query(tracer, ctx, shards, summary, urls, output: Path,
                      outcomes: Outcomes, values: dict) -> None:
    from repro.query import open_index
    from repro.query.ingest import ingest_shard
    from repro.query.schema import create_result_db

    db_path = output / "replay.sqlite"
    connection = create_result_db(db_path)
    rows = 0
    try:
        for ordinal, (shard_id, path) in enumerate(shards):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            with tracer.span("ingest.shard"):
                rows += ingest_shard(connection, ordinal=ordinal,
                                     shard_id=shard_id, output_path=path,
                                     sha256=sha)
    finally:
        connection.close()
    spent = sum(tracer.durations("ingest.shard"))
    values["ingest.ms_per_shard"] = _per(spent, len(shards), 1e3)
    values["ingest.us_per_row"] = _per(spent, rows, 1e6)

    timings: dict[str, list[float]] = {}
    with open_index(db_path) as index, tracer.span("query.mix"):
        workloads.run_queries(index, urls, summary, random.Random(ctx.seed),
                              QUERY_SHARE * ctx.seconds, outcomes, timings)
    for op in workloads.QUERY_OPS:
        values[f"query.{op}_ms"] = percentile(timings[op], 50.0) * 1000.0
