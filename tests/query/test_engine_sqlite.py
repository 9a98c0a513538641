"""The sqlite sink through the bulk engine: byte parity with jsonl,
kill-window healing, and resume → identical database."""

from __future__ import annotations

import csv
import io
import json
import shutil
import sqlite3
import struct

import pytest

import repro.api
import repro.bulk as bulk
from repro.api import BatchResult
from repro.bulk import BulkError
from repro.bulk.checkpoint import RunManifest, journal_path
from repro.cli import main
from repro.query import (
    IndexVersionError,
    QueryError,
    index_fingerprint,
    open_index,
)
from repro.query.ingest import index_run, ingest_shards
from repro.query.schema import ROW_ID_STRIDE, SCORE_CODES, SCORE_COLUMNS
from repro.testing.faults import FAULTS_ENV, FAULTS_STATE_ENV
from tests.bulk.conftest import (
    committed_by_last_run,
    run_killed_before_compaction,
)


def dump_results(db_path):
    connection = sqlite3.connect(db_path)
    try:
        return connection.execute(
            "SELECT id, url, best, score, positives, "
            f"{', '.join(SCORE_COLUMNS)}, shard_id FROM results ORDER BY id"
        ).fetchall()
    finally:
        connection.close()


class TestSqliteSinkRun:
    def test_shards_are_byte_identical_to_jsonl(
        self, query_model, query_corpus, sqlite_run, tmp_path
    ):
        """The file contract is exactly the jsonl sink's: same bytes,
        same sha256s — the database rides beside the shards, never
        instead of them."""
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        run_dir, _ = sqlite_run
        jsonl_dir = tmp_path / "jsonl-run"
        bulk.run(model_path, shard_dir, jsonl_dir, sink="jsonl", workers=1)
        outputs = sorted(run_dir.glob("part-*.jsonl"))
        assert outputs, "sqlite sink writes .jsonl shard outputs"
        for output in outputs:
            assert output.read_bytes() == (jsonl_dir / output.name).read_bytes()

    def test_index_counts_match_run_summary(self, sqlite_run):
        run_dir, report = sqlite_run
        with open_index(run_dir) as index:
            assert index.counts() == report.summary["best"]
            assert index.status()["rows"] == report.rows_total

    def test_manifest_records_the_index(self, sqlite_run):
        run_dir, _ = sqlite_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["query_index"] == "results.sqlite"
        assert (run_dir / "results.sqlite").exists()

    def test_stdin_with_sqlite_sink_refused(self, query_model, tmp_path):
        model_path, _ = query_model
        with pytest.raises(BulkError, match="stdin"):
            bulk.run(model_path, "-", tmp_path / "out", sink="sqlite",
                     workers=0)


class TestKillAndResumeParity:
    def test_commit_fault_then_resume_yields_identical_database(
        self, query_model, query_corpus, sqlite_run, tmp_path, monkeypatch
    ):
        """A run that dies at shard commit and resumes converges on a
        database **identical** (ids, rows, bytes) to the uninterrupted
        run's — deterministic row ids plus manifest reconciliation."""
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        reference_dir, _ = sqlite_run
        run_dir = tmp_path / "faulted"
        monkeypatch.setenv(FAULTS_ENV, "commit-error:times=1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path / "fault-state"))
        with pytest.raises(BulkError):
            bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                     workers=1)
        report = bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                          workers=1, resume=True)
        assert report.shards_skipped + report.shards_scored == 3
        assert dump_results(run_dir / "results.sqlite") == dump_results(
            reference_dir / "results.sqlite"
        )

    @pytest.mark.parametrize("gap", [1, 2])
    def test_ingest_gap_heals_on_resume(
        self, query_model, query_corpus, sqlite_run, tmp_path, gap
    ):
        """Simulate a SIGKILL in the window between a group's journal
        append and its ingest: the manifest says done, the database says
        nothing — of the last shard, or of a whole group of the last
        two.  A resume (a no-op for scoring) reconciles the gap."""
        import shutil

        model_path, _ = query_model
        shard_dir, _ = query_corpus
        reference_dir, _ = sqlite_run
        run_dir = tmp_path / "gapped"
        shutil.copytree(reference_dir, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        connection = sqlite3.connect(run_dir / "results.sqlite")
        ingest_shards(connection, drop=manifest["order"][-gap:])
        connection.close()
        report = bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                          workers=1, resume=True)
        assert report.shards_scored == 0  # nothing re-scored
        assert dump_results(run_dir / "results.sqlite") == dump_results(
            reference_dir / "results.sqlite"
        )
        with open_index(run_dir) as index:
            assert index.fingerprint == index_fingerprint(index.connection)

    def test_demoted_shard_reingests_to_identical_rows(
        self, query_model, query_corpus, sqlite_run, tmp_path
    ):
        """A committed output that vanishes is re-scored on resume and
        re-ingested; the converged database still equals the reference
        (same deterministic ids, same bytes)."""
        import shutil

        model_path, _ = query_model
        shard_dir, _ = query_corpus
        reference_dir, _ = sqlite_run
        run_dir = tmp_path / "demoted"
        shutil.copytree(reference_dir, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        victim = manifest["order"][0]
        (run_dir / manifest["shards"][victim]["output"]).unlink()
        report = bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                          workers=1, resume=True)
        assert report.shards_demoted == 1
        assert dump_results(run_dir / "results.sqlite") == dump_results(
            reference_dir / "results.sqlite"
        )

    def test_index_of_a_killed_run_holds_exactly_the_journaled_shards(
        self, query_model, query_corpus, tmp_path
    ):
        """``index_run`` reads the manifest through the journal replay:
        a run killed after two commits indexes those two shards."""
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        run_dir = tmp_path / "killed"
        journal = run_killed_before_compaction(
            model_path, shard_dir, run_dir, sink="sqlite", workers=1
        )
        journaled = committed_by_last_run(run_dir)[:2]
        journal_path(run_dir / "manifest.json").write_bytes(
            b"".join(journal.splitlines(keepends=True)[:2])
        )
        report = index_run(run_dir, rebuild=True)
        assert report.shards_ingested == 2
        connection = sqlite3.connect(run_dir / "results.sqlite")
        try:
            indexed = [
                row[0] for row in connection.execute(
                    "SELECT shard_id FROM shards ORDER BY shard_id"
                )
            ]
        finally:
            connection.close()
        assert indexed == sorted(journaled)


#: A version-1 index: every row's scores in one JSON text column.
V1_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID;
CREATE TABLE shards (
    shard_id TEXT PRIMARY KEY, ordinal INTEGER NOT NULL,
    output TEXT NOT NULL, sha256 TEXT NOT NULL, rows INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE results (
    id INTEGER PRIMARY KEY, url TEXT NOT NULL, best TEXT, score REAL,
    positives TEXT NOT NULL, scores TEXT NOT NULL, shard_id TEXT NOT NULL
);
INSERT INTO meta VALUES ('schema_version', '1'), ('salt', '0011223344556677');
"""


@pytest.fixture()
def v1_run(sqlite_run, tmp_path):
    """A copy of the finished sqlite run whose index is version 1."""
    run_dir = tmp_path / "v1-run"
    shutil.copytree(sqlite_run[0], run_dir)
    for name in ("results.sqlite", "results.sqlite-wal", "results.sqlite-shm"):
        (run_dir / name).unlink(missing_ok=True)
    connection = sqlite3.connect(run_dir / "results.sqlite")
    connection.execute("PRAGMA journal_mode=WAL")  # as every index is
    connection.executescript(V1_SCHEMA)
    connection.close()
    return run_dir


def shard_rows(run_dir):
    """``(id, url, best, positives, scores)`` of every committed output
    row, read back from the shard files themselves."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for ordinal, shard_id in enumerate(manifest["order"]):
        path = run_dir / manifest["shards"][shard_id]["output"]
        with open(path, newline="", encoding="utf-8") as stream:
            if path.suffix == ".csv":
                rows = [
                    (row["url"], row["best"] or None,
                     row["positives"].split(",") if row["positives"] else [],
                     {code: float(row[f"score_{code}"])
                      for code in SCORE_CODES})
                    for row in csv.DictReader(stream)
                ]
            else:
                rows = [
                    (row["url"], row["best"], row["positives"],
                     row["scores"])
                    for row in map(json.loads, stream)
                ]
        for offset, row in enumerate(rows):
            yield (ordinal * ROW_ID_STRIDE + offset, *row)


def bits(scores: dict) -> list:
    return [(code, struct.pack("<d", value)) for code, value in scores.items()]


def assert_lookups_return_the_shard_rows(run_dir):
    """Every row's ``lookup`` answer equals its shard row: best,
    positives, and the scores bit for bit, in the shard's key order."""
    checked = 0
    with open_index(run_dir) as index:
        for rowid, url, best, positives, scores in shard_rows(run_dir):
            (row,) = [row for row in index.lookup(url) if row["id"] == rowid]
            assert (row["best"], row["positives"]) == (best, positives)
            assert bits(row["scores"]) == bits(scores), url
            if best is not None:
                assert bits({best: row["score"]}) == bits({best: scores[best]})
            checked += 1
    assert checked == index_run(run_dir).rows > 0


class TestSchemaVersion2:
    def test_a_v1_index_is_refused_with_the_rebuild_remedy(
        self, query_model, query_corpus, v1_run
    ):
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        with pytest.raises(IndexVersionError, match="--rebuild"):
            open_index(v1_run)
        with pytest.raises(IndexVersionError, match="--rebuild"):
            bulk.run(model_path, shard_dir, v1_run, sink="sqlite",
                     workers=1, resume=True)
        last = json.loads(
            (v1_run / "events.jsonl").read_text().splitlines()[-1]
        )
        assert last["event"] == "run-aborted"
        assert "IndexVersionError" in last["error"]
        with pytest.raises(SystemExit, match="--rebuild"):
            main(["bulk", "--model", str(model_path), "--input",
                  str(shard_dir), "--output", str(v1_run), "--sink",
                  "sqlite", "--workers", "1", "--resume", "--quiet"],
                 out=io.StringIO())

    def test_query_index_rebuild_converts_a_v1_index(
        self, sqlite_run, v1_run
    ):
        reference_dir, _ = sqlite_run
        assert main(["query", "index", "--run", str(v1_run), "--rebuild"],
                    out=io.StringIO()) == 0
        assert dump_results(v1_run / "results.sqlite") == dump_results(
            reference_dir / "results.sqlite"
        )

    def test_a_sqlite_run_reads_back_its_shard_scores(self, sqlite_run):
        run_dir, _ = sqlite_run
        assert_lookups_return_the_shard_rows(run_dir)

    def test_a_csv_run_indexed_after_the_fact_reads_back_its_scores(
        self, query_model, query_corpus, tmp_path
    ):
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        run_dir = tmp_path / "csv-run"
        bulk.run(model_path, shard_dir, run_dir, sink="csv", workers=1)
        index_run(run_dir)
        assert_lookups_return_the_shard_rows(run_dir)

    def test_a_line_break_in_a_url_survives_a_csv_run_and_its_index(
        self, query_model, query_corpus, tmp_path
    ):
        """A URL holding a bare ``\\r`` or ``\\n`` (a JSONL source can
        carry one) stays one CSV record and indexes as written."""
        model_path, _ = query_model
        _, urls = query_corpus
        broken = ["http://x.de/a\rb", "http://x.de/a\nb",
                  "http://x.de/a\r\nb"]
        source = tmp_path / "broken.jsonl"
        source.write_text("".join(
            json.dumps({"url": url}) + "\n" for url in [*urls[:5], *broken]
        ))
        run_dir = tmp_path / "csv-run"
        report = bulk.run(model_path, source, run_dir, sink="csv", workers=1)
        assert report.rows_scored == 8
        index_run(run_dir)
        assert_lookups_return_the_shard_rows(run_dir)
        with open_index(run_dir) as index:
            for url in broken:
                assert [row["url"] for row in index.lookup(url)] == [url]


class NanScorer:
    """Scores as ``inner`` does, except that a URL holding ``NAN``
    scores NaN for the model's first language."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, urls):
        result = self.inner.predict(urls)
        matrix = result.matrix.copy()
        matrix[["NAN" in url for url in urls], 0] = float("nan")
        return BatchResult(result.urls, matrix, result.model)

    def close(self):
        self.inner.close()


@pytest.fixture()
def nan_input(query_corpus, tmp_path, monkeypatch):
    """``(input, scored, nan_urls)``: one input shard in which two URLs
    score NaN, read by a 1-worker run (workers open the model in this
    process)."""
    open_model = repro.api.open_model
    monkeypatch.setattr(repro.api, "open_model",
                        lambda handle: NanScorer(open_model(handle)))
    _, urls = query_corpus
    nan_urls = ["http://NAN.example/a", "http://NAN.example/b"]
    source = tmp_path / "nan.txt"
    source.write_text("\n".join(
        [*urls[:10], nan_urls[0], *urls[10:20], nan_urls[1]]
    ) + "\n")
    return source, urls[:20], nan_urls


class TestNanScores:
    """SQLite stores NaN as NULL, so an index cannot hold a NaN score:
    the sqlite sink quarantines such a row before its shard commits."""

    def test_a_nan_row_is_quarantined_and_the_run_finishes(
        self, query_model, nan_input, tmp_path
    ):
        model_path, _ = query_model
        source, scored, nan_urls = nan_input
        run_dir = tmp_path / "run"
        report = bulk.run(model_path, source, run_dir, sink="sqlite",
                          workers=1, chunk_size=8)
        assert (report.rows_scored, report.rows_quarantined) == (20, 2)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        (entry,) = manifest["shards"].values()
        sidecar = (run_dir / entry["quarantine_file"]).read_text()
        quarantined = [json.loads(line) for line in sidecar.splitlines()]
        assert [row["url"] for row in quarantined] == nan_urls
        assert all("NaN" in row["reason"] for row in quarantined)
        assert_lookups_return_the_shard_rows(run_dir)
        with open_index(run_dir) as index:
            assert index.status()["rows"] == len(scored)
        resumed = bulk.run(model_path, source, run_dir, sink="sqlite",
                           workers=1, resume=True)
        assert resumed.shards_scored == 0
        assert index_run(run_dir).shards_ingested == 0

    def test_strict_mode_fails_before_the_shard_commits(
        self, query_model, nan_input, tmp_path
    ):
        model_path, _ = query_model
        source, _, _ = nan_input
        run_dir = tmp_path / "run"
        with pytest.raises(BulkError, match="NaN"):
            bulk.run(model_path, source, run_dir, sink="sqlite", workers=1,
                     quarantine=False)
        manifest = RunManifest.load(run_dir / "manifest.json")
        (entry,) = manifest.shards.values()
        assert entry["status"] != "done"
        assert not (run_dir / "part-00000.jsonl").exists()
        with open_index(run_dir) as index:
            assert index.status()["rows"] == 0

    def test_a_jsonl_run_keeps_the_nan_that_indexing_refuses(
        self, query_model, nan_input, tmp_path
    ):
        """Unindexed sinks write NaN as ``json.dumps`` does; indexing
        that run afterwards names the row."""
        model_path, _ = query_model
        source, _, _ = nan_input
        run_dir = tmp_path / "run"
        report = bulk.run(model_path, source, run_dir, sink="jsonl",
                          workers=1)
        assert report.rows_quarantined == 0
        (output,) = report.outputs
        assert (run_dir / output).read_text().count("NaN") == 2
        with pytest.raises(QueryError, match=rf"{output}:11 .*NaN"):
            index_run(run_dir)
