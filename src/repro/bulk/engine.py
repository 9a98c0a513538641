"""Planner + runner: map one model over an arbitrarily large URL corpus.

This is the offline, analytical sibling of the serving path.  The
daemon (:mod:`repro.store.daemon`) answers small latency-sensitive
batches forever; :func:`run` answers one enormous batch exactly once —
disk-resident input, disk-resident output, bounded memory, and a
checkpoint manifest that makes the run **killable at any instant**.

The execution model:

1. **Plan.**  :func:`~repro.bulk.source.discover_shards` turns the
   input spec into a deterministically ordered shard list; the model
   handle is canonicalised with :func:`repro.api.portable_handle` and
   fingerprinted (name + artifact checksum + rollout metadata); a
   :class:`~repro.bulk.checkpoint.RunManifest` is written (or, on
   resume, validated against all of the above).
2. **Fan out.**  N worker processes each re-open the *same* handle via
   :func:`repro.api.open_model` — artifact-backed models memory-map
   one shared physical copy of the weight matrix, exactly like the
   serving daemon's workers.  Shards are handed to workers
   largest-first (greedy balancing); within a shard, URLs stream through
   ``chunk_size``-sized :meth:`~repro.api.Predictor.predict` passes —
   one matmul each on the compiled backend.
3. **Commit.**  A worker writes its shard's rows to ``<output>.part``,
   fsyncs, renames — then the parent commits finished shards in
   groups: it blocks for one result, takes every other result already
   waiting (up to :data:`~repro.bulk.checkpoint.GROUP_COMMIT_SHARDS`),
   appends their entries, output sha256s included, to the manifest's
   completion journal with one write and one fsync, ingests them into
   the result index (sqlite sink) in one transaction, and only then
   reports them.  One record per shard, however many shards the run
   plans.  Outputs are never appended to: a kill leaves either a
   committed shard or an ignorable ``.part`` file, never a
   half-trusted output, and a journal record torn by the kill is
   discarded on replay.
4. **Compact.**  The end of the run writes the full manifest (summary
   included) atomically and deletes the journal.

Resume (``resume=True``) replays the journal, refuses a different
model checksum or a changed shard list, re-verifies every committed
output's sha256 (missing or shortened files are re-scored), compacts,
and then processes only what is still pending.  Resuming a finished
run is a no-op — the engine is idempotent.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

# The stack a pool worker opens and scores with.  Imported here, before
# the pool forks, so every worker inherits it instead of importing it
# once each inside the run.
import repro.api.resolver  # noqa: F401
import repro.obs.trace  # noqa: F401
import repro.store.artifact  # noqa: F401
from repro.api.protocol import DEFAULT_CHUNK_SIZE, Predictor
from repro.api.types import BatchResult
from repro.bulk.checkpoint import (
    GROUP_COMMIT_SHARDS,
    MANIFEST_NAME,
    RunManifest,
    sha256_file,
)
from repro.bulk.errors import (
    BulkError,
    ManifestMismatchError,
    ShardCommitError,
    VerifyError,
)
from repro.bulk.sink import RowSink, SummaryAccumulator, make_sink
from repro.bulk.source import BadRow, Shard, discover_shards, read_rows
from repro.obs.events import EventLogger
from repro.store.metrics import LatencyHistogram
from repro.testing import faults

if TYPE_CHECKING:
    from multiprocessing.pool import IMapIterator

__all__ = [
    "EVENTS_NAME",
    "RunReport",
    "VerifyReport",
    "model_fingerprint",
    "run",
    "verify_run",
]

#: Default worker-process count for bulk runs.
DEFAULT_WORKERS = 2

#: File of JSON-lines progress events written beside the manifest
#: (append-only across resumes; see ``docs/observability.md``).
EVENTS_NAME = "events.jsonl"


def model_fingerprint(handle: str) -> dict:
    """Identity of the model a handle names, without loading weights.

    ``checksum`` is the resume gate: the payload sha256 for artifacts
    (via path or ``store://``), the serving daemon's reported artifact
    checksum for ``repro://`` handles, and the file sha256 for legacy
    pickles.  ``name`` and ``rollout`` ride along for provenance.
    """
    from repro.api import (
        UnreadableModelError,
        is_daemon_handle,
        open_model,
        resolve_artifact_path,
        sniff_model_format,
    )

    if is_daemon_handle(handle):
        # Resolve through the facade so the handle's own options (a
        # pinned ?timeout=) are honoured here exactly as they will be
        # in every worker.
        remote = open_model(handle)
        try:
            model = remote.client.status().get("model", {})
        finally:
            remote.close()
        return {
            "handle": handle,
            "name": model.get("name", "remote"),
            "checksum": model.get("checksum"),
            "rollout": model.get("rollout") or {},
        }
    try:
        path = resolve_artifact_path(handle)
    except UnreadableModelError:
        # A legacy pickle: open_model serves it (with its deprecation
        # warning), so bulk does too; the file hash is its identity.
        from repro.bulk.checkpoint import sha256_file

        return {
            "handle": handle,
            "name": f"pickle:{Path(handle).name}",
            "checksum": sha256_file(handle),
            "rollout": {},
        }
    from repro.store.format import ArtifactFile

    assert sniff_model_format(path) == "artifact"
    with ArtifactFile(path) as artifact:
        model = artifact.model
        checksum = artifact.checksum
    return {
        "handle": handle,
        "name": model.get("name", "identifier"),
        "checksum": checksum,
        "rollout": dict(model.get("rollout") or {}),
    }


@dataclass
class RunReport:
    """What one :func:`run` call did (this invocation, not the whole
    manifest history — ``rows_total`` covers both)."""

    output_dir: str
    manifest_path: str | None
    outputs: list[str]
    shards_total: int
    shards_scored: int
    shards_skipped: int
    shards_demoted: int
    rows_scored: int
    rows_total: int
    wall_seconds: float
    urls_per_second: float
    rows_quarantined: int = 0
    summary: dict = field(default_factory=dict)
    latency: dict | None = None

    def describe(self) -> str:
        """The CLI's closing summary line."""
        best = ", ".join(
            f"{label}={count}"
            for label, count in self.summary.get("best", {}).items()
        )
        quarantined = (
            f", {self.rows_quarantined} quarantined"
            if self.rows_quarantined
            else ""
        )
        return (
            f"scored {self.rows_scored} URLs in {self.shards_scored} "
            f"shard(s) ({self.shards_skipped} already done"
            f"{quarantined}) in "
            f"{self.wall_seconds:.2f}s — {self.urls_per_second:.0f} "
            f"URLs/s; totals: {best or 'none'}"
        )


# -- worker side ------------------------------------------------------------------

#: Per-process scoring state, set once by the pool initializer.
_worker_state: (
    tuple[Predictor, RowSink, int, str, str, bool] | None
) = None

#: File-name suffix of a shard's quarantine sidecar.
QUARANTINE_SUFFIX = ".quarantine.jsonl"


def _initialize_worker(
    handle: str, sink_name: str, provenance: str | None,
    chunk_size: int, url_field: str, output_dir: str,
    quarantine: bool = True,
) -> None:
    """Pool initializer: re-open the shared model in this process.

    The handle arrives pre-canonicalised (:func:`portable_handle`), so
    resolution needs no environment or working-directory agreement with
    the parent; artifact-backed models are memory-mapped, so N workers
    share one physical weight matrix.
    """
    from repro.api import open_model

    global _worker_state
    _worker_state = (
        open_model(handle),
        make_sink(sink_name, provenance=provenance),
        chunk_size,
        url_field,
        output_dir,
        quarantine,
    )


def _chunks(urls: Iterable[str], size: int) -> Iterator[list[str]]:
    chunk: list[str] = []
    for url in urls:
        chunk.append(url)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _predict_rows(
    predictor: Predictor,
    sink: RowSink,
    chunk: list[str],
    shard_id: str,
    quarantine: bool,
    quarantined: list[dict],
) -> list[BatchResult]:
    """One predict pass over a chunk, degrading to per-row retry.

    Returns the chunk's one result, or — when the whole chunk failed (a
    poison URL crashing the backend, a transient daemon error, a score
    ``sink`` refuses to write) — one single-row result per URL that
    scored on retry, so a single bad row costs one row, not a shard:
    rows that fail again land in ``quarantined`` with the error as the
    reason.  With quarantine off the original error propagates — the
    strict, fail-the-run reading.
    """

    def predict(urls: list[str]) -> BatchResult:
        faults.maybe_raise(
            "predict-error", shard=shard_id, text=" ".join(urls)
        )
        result = predictor.predict(urls)
        sink.check(result)
        return result

    try:
        return [predict(chunk)]
    except Exception as error:
        if not quarantine:
            raise
        chunk_error = error
    results: list[BatchResult] = []
    for url in chunk:
        try:
            results.append(predict([url]))
        except Exception as error:
            quarantined.append({
                "shard": shard_id,
                "url": url,
                "reason": (
                    f"predict failed after per-row retry ({error}); "
                    f"chunk failure was: {chunk_error}"
                ),
            })
    return results


def _score_shard(task: dict) -> dict:
    """Score one shard with the worker's model; commit atomically.

    Rows stream: read a chunk, one ``predict`` pass (a single matmul
    on compiled backends), then format and count the chunk's rows
    straight from its score matrix (``format_batch`` and
    ``observe_batch``; no per-row :class:`~repro.api.Prediction` is
    built), hash, write.  The output file is
    born as ``<name>.part`` and renamed only after an fsync, so a
    SIGKILL can never leave a truncated file under the final name.
    In quarantine mode (the default) malformed input rows and rows
    whose per-row predict retry still fails (or whose scores the sink
    refuses, such as a NaN score in an indexed run) are recorded in a
    ``*.quarantine.jsonl`` sidecar instead of failing the shard.
    A commit that the filesystem refuses (ENOSPC, a vanished output
    directory) raises :class:`~repro.bulk.errors.ShardCommitError`
    after removing the part file — a later ``--resume`` re-scores
    exactly the uncommitted shards.
    Returns the completion record the parent checkpoints.
    """
    assert _worker_state is not None, "worker used before initialisation"
    (predictor, sink, chunk_size, url_field, output_dir,
     quarantine) = _worker_state
    shard = Shard(**task["shard"])
    output_name = task["output"]
    final_path = Path(output_dir) / output_name
    # The pid suffix keeps the temp file private to this process: an
    # orphaned worker of a killed run finishing late can then never
    # interleave writes with a resume's worker on the same shard —
    # whoever renames last wins atomically, with self-consistent bytes.
    part_path = Path(output_dir) / f"{output_name}.part.{os.getpid()}"
    sidecar_path = Path(output_dir) / f"{output_name}{QUARANTINE_SUFFIX}"
    quarantined: list[dict] = []

    def rows_in() -> Iterator[str]:
        for item in read_rows(shard, url_field):
            if isinstance(item, BadRow):
                if not quarantine:
                    raise BulkError(item.reason)
                quarantined.append({
                    "shard": item.shard_id,
                    "row": item.row,
                    "raw": item.raw,
                    "reason": item.reason,
                })
                continue
            yield item

    digest = hashlib.sha256()
    summary = SummaryAccumulator()
    latency = LatencyHistogram()
    rows = 0
    started = time.perf_counter()
    quarantine_sha256: str | None = None
    try:
        with open(part_path, "wb") as stream:
            header = sink.header()
            if header is not None:
                data = (header + "\n").encode("utf-8")
                digest.update(data)
                stream.write(data)
            for chunk in _chunks(rows_in(), chunk_size):
                chunk_started = time.perf_counter()
                results = _predict_rows(
                    predictor, sink, chunk, shard.shard_id, quarantine,
                    quarantined,
                )
                latency.observe(time.perf_counter() - chunk_started)
                for result in results:
                    data = sink.format_batch(result).encode("utf-8")
                    digest.update(data)
                    stream.write(data)
                    summary.observe_batch(result)
                    rows += len(result)
            stream.flush()
            os.fsync(stream.fileno())
        if quarantined:
            quarantine_sha256 = _commit_sidecar(sidecar_path, quarantined)
        faults.maybe_raise("commit-error", shard=shard.shard_id)
        os.replace(part_path, final_path)
    except OSError as error:
        try:
            part_path.unlink()
        except OSError:
            pass
        raise ShardCommitError(
            f"shard {shard.shard_id}: committing {output_name} failed "
            f"({error}); already-committed shards are safe — fix the "
            "disk and re-run with --resume to re-score only what is "
            "missing"
        ) from error
    if not quarantined:
        # A previous, since-demoted attempt may have left a sidecar;
        # this clean pass supersedes it.
        try:
            sidecar_path.unlink()
        except OSError:
            pass
    return {
        "shard_id": shard.shard_id,
        "output": output_name,
        "rows": rows,
        "sha256": digest.hexdigest(),
        "seconds": time.perf_counter() - started,
        "summary": summary.snapshot(),
        "latency": latency.snapshot(),
        "quarantined": len(quarantined),
        "quarantine_file": sidecar_path.name if quarantined else None,
        "quarantine_sha256": quarantine_sha256,
    }


def _commit_sidecar(sidecar_path: Path, quarantined: list[dict]) -> str:
    """Atomically write a shard's quarantine sidecar; return its sha256."""
    part = sidecar_path.with_name(
        f"{sidecar_path.name}.part.{os.getpid()}"
    )
    digest = hashlib.sha256()
    with open(part, "wb") as stream:
        for entry in quarantined:
            data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
            digest.update(data)
            stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(part, sidecar_path)
    return digest.hexdigest()


# -- parent side ------------------------------------------------------------------


def _commit_in_groups(
    results: IMapIterator[dict], commit_group: Callable[[list[dict]], None]
) -> None:
    """Feed ``results`` (a pool's ``imap_unordered`` iterator) to
    ``commit_group`` a group at a time.

    Blocks for one result, then takes every result already available
    (``next(timeout=0)``), up to :data:`GROUP_COMMIT_SHARDS`, so the
    group is whatever finished while the previous one was committing.
    A worker's exception met while draining still commits the results
    drained before it, then propagates — a resume re-scores only what
    never committed.
    """
    for first in results:
        group = [first]
        try:
            while len(group) < GROUP_COMMIT_SHARDS:
                group.append(results.next(timeout=0))
        except (multiprocessing.TimeoutError, StopIteration):
            pass
        except BaseException:
            commit_group(group)
            raise
        commit_group(group)


def _output_names(manifest: RunManifest, sink: RowSink) -> dict[str, str]:
    """Deterministic output file per shard: ``part-<ordinal><suffix>``.

    The zero-padded ordinal follows manifest (= input) order, so a
    lexicographic glob over the output directory concatenates shards in
    exactly input order.  One dict for the whole plan — shard counts
    can reach the tens of thousands, where per-shard ``list.index``
    scans would turn planning quadratic.
    """
    return {
        shard_id: f"part-{ordinal:05d}{sink.suffix}"
        for ordinal, shard_id in enumerate(manifest.order)
    }


def _validate_resume(
    manifest: RunManifest,
    fingerprint: dict,
    shards: list[Shard],
    sink_name: str,
    url_field: str,
) -> None:
    manifest.check_model(fingerprint)
    manifest.check_shards(shards)
    if manifest.sink != sink_name:
        raise ManifestMismatchError(
            f"run was checkpointed with sink {manifest.sink!r} but this "
            f"resume asks for {sink_name!r}; output shards must share one "
            "format — drop the flag or start a fresh run"
        )
    if manifest.url_field != url_field:
        raise ManifestMismatchError(
            f"run was checkpointed with url_field {manifest.url_field!r} "
            f"but this resume asks for {url_field!r}; start a fresh run "
            "to change how rows are read"
        )


def run(
    model: str | os.PathLike,
    input_spec: str | os.PathLike,
    output_dir: str | os.PathLike,
    *,
    workers: int = DEFAULT_WORKERS,
    sink: str = "tsv",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    url_field: str = "url",
    resume: bool = False,
    quarantine: bool = True,
    store_root: str | os.PathLike | None = None,
    progress: Callable[[str], None] | None = None,
) -> RunReport:
    """Bulk-score ``input_spec`` with ``model`` into ``output_dir``.

    ``model`` is any :func:`repro.api.open_model` handle *string or
    path* (live predictor objects have no portable form for worker
    processes).  ``workers <= 1`` scores in-process — the baseline for
    scaling measurements and the only mode stdin input supports.
    ``quarantine`` (default on) diverts malformed input rows and rows
    whose per-row predict retry still fails into a per-shard
    ``*.quarantine.jsonl`` sidecar instead of failing the run;
    ``quarantine=False`` restores strict fail-on-first-bad-row
    semantics.  ``progress`` (if given) receives one human-readable
    line per completed shard.

    Returns a :class:`RunReport`; raises the
    :class:`~repro.bulk.errors.BulkError` hierarchy on planning and
    checkpoint failures and :class:`repro.api.ResolveError` on handle
    failures.  See the module docstring for the checkpoint contract.
    """
    from repro.api import portable_handle

    if chunk_size < 1:
        raise BulkError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers < 0:
        raise BulkError(f"workers must be >= 0, got {workers}")
    handle = portable_handle(model, store_root=store_root)
    fingerprint = model_fingerprint(handle)
    provenance = f"{fingerprint['name']}@{str(fingerprint['checksum'])[:12]}"
    shards = discover_shards(input_spec)
    row_sink = make_sink(sink, provenance=provenance)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    stdin_run = any(shard.is_stdin for shard in shards)
    if stdin_run and row_sink.indexes_results:
        raise BulkError(
            "the sqlite sink maintains a result index beside the "
            "checkpoint manifest, which stdin input cannot have; pipe "
            "to files and use a shard directory (or use --sink jsonl)"
        )
    if stdin_run and resume:
        raise BulkError(
            "stdin input cannot be checkpointed or resumed (the stream "
            "cannot be re-read); pipe to files and use a shard directory"
        )

    manifest_path = output_dir / MANIFEST_NAME
    if stdin_run and manifest_path.exists():
        # A stdin run writes part-00000 too: letting it proceed would
        # silently clobber a checkpointed run's committed shard.
        raise BulkError(
            f"{manifest_path} records a checkpointed run; a stdin run "
            "would overwrite its output shards — use a fresh output "
            "directory"
        )
    demoted: list[str] = []
    if not stdin_run and manifest_path.exists():
        if not resume:
            raise BulkError(
                f"{manifest_path} already records a run; pass resume=True "
                "(--resume) to continue it, or choose a fresh output "
                "directory"
            )
        manifest = RunManifest.load(manifest_path)
        _validate_resume(manifest, fingerprint, shards, sink, url_field)
        demoted = manifest.verify_outputs(output_dir)
        manifest.chunk_size = chunk_size
        if demoted and progress:
            progress(
                f"re-scoring {len(demoted)} shard(s) whose committed "
                f"output is missing or altered: {', '.join(demoted)}"
            )
    else:
        manifest = RunManifest.plan(
            fingerprint, shards,
            sink=sink, chunk_size=chunk_size, url_field=url_field,
        )
    if row_sink.indexes_results:
        from repro.query.ingest import record_model
        from repro.query.schema import RESULT_DB_NAME, create_result_db

        manifest.query_index = RESULT_DB_NAME
    if not stdin_run:
        manifest.save(manifest_path)  # the plan, or a resume's compaction
    for stale in output_dir.glob("*.part.*"):  # a killed run's leftovers
        try:
            stale.unlink()
        except OSError:
            pass

    pending = manifest.pending_ids()
    skipped = len(manifest.order) - len(pending)
    # Largest shards first: greedy balancing so one straggler shard
    # does not serialise the tail of the run.
    pending.sort(
        key=lambda shard_id: manifest.shards[shard_id].get("size_bytes", 0),
        reverse=True,
    )
    by_id = {shard.shard_id: shard for shard in shards}
    output_names = _output_names(manifest, row_sink)
    tasks = [
        {
            "shard": {
                "shard_id": shard_id,
                "path": by_id[shard_id].path,
                "format": by_id[shard_id].format,
                "compressed": by_id[shard_id].compressed,
                "size_bytes": by_id[shard_id].size_bytes,
            },
            "output": output_names[shard_id],
        }
        for shard_id in pending
    ]

    initargs = (
        handle, sink, provenance, chunk_size, url_field, str(output_dir),
        quarantine,
    )
    started = time.perf_counter()
    scored = 0
    rows_scored = 0
    rows_quarantined = 0
    latency = LatencyHistogram()

    # Progress events land beside the manifest as append-only JSON
    # lines, so an operator (or a dashboard tailing the file) can watch
    # a multi-hour run — and post-mortem a killed one — without a
    # terminal attached.  Stdin runs have no manifest directory
    # contract, so they emit nothing.
    events = (
        None if stdin_run
        else EventLogger(path=output_dir / EVENTS_NAME, component="bulk")
    )
    bytes_pending = sum(
        manifest.shards[shard_id].get("size_bytes", 0) or 0
        for shard_id in pending
    )
    bytes_done = 0
    if events is not None:
        events.emit(
            "run-start",
            model=fingerprint["name"],
            checksum=fingerprint["checksum"],
            workers=workers,
            resume=bool(resume),
            shards_total=len(manifest.order),
            shards_pending=len(pending),
            shards_skipped=skipped,
            bytes_pending=bytes_pending,
        )

    # Parent-side result indexing (sqlite sink): ingest each commit
    # group right after its journal fsync, so the index trails the
    # journal by at most one group.  Workers never see the database —
    # the scoring hot path pays nothing.  Any gap a kill leaves between
    # journal append and ingest is healed by the index_run() reconcile
    # below.
    ordinals = {
        shard_id: ordinal
        for ordinal, shard_id in enumerate(manifest.order)
    }
    index_connection = None

    def announce(result: dict) -> None:
        """Account for one committed shard; emit its event and line."""
        nonlocal scored, rows_scored, rows_quarantined, bytes_done
        latency.merge(LatencyHistogram.from_snapshot(result["latency"]))
        scored += 1
        rows_scored += result["rows"]
        rows_quarantined += result.get("quarantined", 0)
        bytes_done += (
            manifest.shards[result["shard_id"]].get("size_bytes", 0) or 0
        )
        if events is not None:
            elapsed = time.perf_counter() - started
            bytes_per_second = bytes_done / elapsed if elapsed > 0 else 0.0
            remaining = max(0, bytes_pending - bytes_done)
            events.emit(
                "shard-commit",
                shard=result["shard_id"],
                output=result["output"],
                rows=result["rows"],
                seconds=round(result["seconds"], 6),
                rows_per_s=round(
                    result["rows"] / result["seconds"], 3
                ) if result["seconds"] else None,
                eta_seconds=round(
                    remaining / bytes_per_second, 3
                ) if bytes_per_second > 0 and remaining else None,
                quarantined=result.get("quarantined", 0),
                completed=skipped + scored,
                total=len(manifest.order),
            )
        if progress:
            rate = result["rows"] / result["seconds"] if result["seconds"] else 0
            note = (
                f" ({result['quarantined']} quarantined)"
                if result.get("quarantined")
                else ""
            )
            progress(
                f"[{skipped + scored}/{len(manifest.order)}] "
                f"{result['shard_id']} -> {result['output']}: "
                f"{result['rows']} rows in {result['seconds']:.2f}s "
                f"({rate:.0f}/s){note}"
            )

    def commit_group(results: list[dict]) -> None:
        for result in results:
            manifest.mark_done(
                result["shard_id"],
                output=result["output"],
                rows=result["rows"],
                sha256=result["sha256"],
                seconds=result["seconds"],
                quarantined=result.get("quarantined", 0),
                quarantine_file=result.get("quarantine_file"),
                quarantine_sha256=result.get("quarantine_sha256"),
            )
            manifest.shards[result["shard_id"]]["summary"] = result["summary"]
        if not stdin_run:
            manifest.journal(
                manifest_path, *(result["shard_id"] for result in results)
            )
        if index_connection is not None:
            from repro.query.ingest import ingest_shards

            ingest_shards(index_connection, [
                (
                    ordinals[result["shard_id"]],
                    result["shard_id"],
                    output_dir / result["output"],
                    result["sha256"],
                )
                for result in results
            ])
        for result in results:
            announce(result)

    try:
        if row_sink.indexes_results:
            # Inside the try: an index this build cannot use (an older
            # schema) aborts the run with its remedy, logged as such.
            index_connection = create_result_db(output_dir / RESULT_DB_NAME)
            record_model(index_connection, manifest.model)
        if tasks:
            if workers <= 1 or stdin_run or len(tasks) == 1:
                _initialize_worker(*initargs)
                try:
                    for task in tasks:
                        commit_group([_score_shard(task)])
                finally:
                    state = _worker_state
                    if state is not None:
                        state[0].close()
            else:
                with multiprocessing.Pool(
                    processes=min(workers, len(tasks)),
                    initializer=_initialize_worker,
                    initargs=initargs,
                ) as pool:
                    _commit_in_groups(
                        pool.imap_unordered(_score_shard, tasks),
                        commit_group,
                    )
    except BaseException as error:
        if events is not None:
            events.emit(
                "run-aborted",
                error=f"{type(error).__name__}: {error}",
                shards_scored=scored,
                rows_scored=rows_scored,
            )
            events.close()
        raise
    finally:
        if index_connection is not None:
            index_connection.close()

    wall = time.perf_counter() - started
    totals = SummaryAccumulator()
    for shard_id in manifest.done_ids():
        entry = manifest.shards[shard_id]
        if entry.get("summary"):
            totals.merge(SummaryAccumulator.from_snapshot(entry["summary"]))
    summary = totals.snapshot()
    summary["shard_seconds_total"] = round(
        sum(
            manifest.shards[shard_id].get("seconds", 0.0)
            for shard_id in manifest.done_ids()
        ),
        6,
    )
    summary["quarantined"] = sum(
        manifest.shards[shard_id].get("quarantined", 0)
        for shard_id in manifest.done_ids()
    )
    manifest.summary = summary
    if not stdin_run:
        manifest.save(manifest_path)  # compaction: the journal goes
    if events is not None:
        events.emit(
            "run-done",
            shards_scored=scored,
            shards_skipped=skipped,
            rows_scored=rows_scored,
            rows_total=summary["rows"],
            quarantined=rows_quarantined,
            wall_seconds=round(wall, 6),
            urls_per_second=round(rows_scored / wall, 3) if wall > 0 else 0.0,
        )
        events.close()

    if row_sink.indexes_results:
        # Reconcile: converge the index onto the manifest.  Heals the
        # one-group gap a kill can leave between journal append and
        # ingest, drops rows of shards a resume demoted and re-scored,
        # and is a cheap no-op when the per-commit ingestion above
        # already covered everything.
        from repro.query.ingest import index_run

        index_run(output_dir)

    return RunReport(
        output_dir=str(output_dir),
        manifest_path=None if stdin_run else str(manifest_path),
        outputs=[
            manifest.shards[shard_id]["output"]
            for shard_id in manifest.done_ids()
        ],
        shards_total=len(manifest.order),
        shards_scored=scored,
        shards_skipped=skipped,
        shards_demoted=len(demoted),
        rows_scored=rows_scored,
        rows_total=summary["rows"],
        wall_seconds=wall,
        urls_per_second=(rows_scored / wall) if wall > 0 else 0.0,
        rows_quarantined=rows_quarantined,
        summary=summary,
        latency=latency.snapshot() if latency.count else None,
    )


# -- verification -----------------------------------------------------------------


@dataclass
class VerifyReport:
    """What ``repro bulk verify`` checked, when everything held."""

    output_dir: str
    manifest_path: str
    shards_verified: int
    rows: int
    quarantined: int
    bytes_hashed: int

    def describe(self) -> str:
        return (
            f"verified {self.shards_verified} shard(s), {self.rows} "
            f"rows, {self.quarantined} quarantined — every committed "
            f"output matches its checkpointed sha256 "
            f"({self.bytes_hashed} bytes re-hashed)"
        )


def verify_run(output_dir: str | os.PathLike) -> VerifyReport:
    """Re-hash every committed output of a finished run.

    Loads the manifest, requires every shard ``done``, and re-computes
    the sha256 of each output shard *and* each quarantine sidecar
    against the checkpointed values — the offline proof that the bytes
    on disk are still exactly the bytes the run committed.  Raises
    :class:`~repro.bulk.errors.VerifyError` listing every problem
    (pending shards, missing files, checksum mismatches); returns a
    :class:`VerifyReport` when the run verifies clean.
    """
    output_dir = Path(output_dir)
    manifest_path = output_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise VerifyError(
            f"{manifest_path} does not exist — nothing to verify "
            "(is this the run's output directory?)"
        )
    manifest = RunManifest.load(manifest_path)
    problems: list[str] = []
    pending = manifest.pending_ids()
    if pending:
        problems.append(
            f"{len(pending)} shard(s) not finished: {', '.join(pending)}"
        )
    rows = 0
    quarantined = 0
    bytes_hashed = 0
    for shard_id in manifest.done_ids():
        entry = manifest.shards[shard_id]
        for file_key, sha_key in (
            ("output", "sha256"),
            ("quarantine_file", "quarantine_sha256"),
        ):
            name = entry.get(file_key)
            if name is None:
                continue
            path = output_dir / name
            try:
                actual = sha256_file(path)
            except OSError as error:
                problems.append(
                    f"shard {shard_id}: {name} unreadable ({error})"
                )
                continue
            if actual != entry.get(sha_key):
                problems.append(
                    f"shard {shard_id}: {name} sha256 {actual[:16]}… "
                    f"does not match checkpointed "
                    f"{str(entry.get(sha_key))[:16]}…"
                )
                continue
            bytes_hashed += path.stat().st_size
        rows += entry.get("rows", 0)
        quarantined += entry.get("quarantined", 0)
    if problems:
        raise VerifyError(
            f"run in {output_dir} failed verification "
            f"({len(problems)} problem(s)):\n  - "
            + "\n  - ".join(problems)
        )
    return VerifyReport(
        output_dir=str(output_dir),
        manifest_path=str(manifest_path),
        shards_verified=len(manifest.done_ids()),
        rows=rows,
        quarantined=quarantined,
        bytes_hashed=bytes_hashed,
    )
