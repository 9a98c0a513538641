"""The sqlite sink through the bulk engine: byte parity with jsonl,
kill-window healing, and resume → identical database."""

from __future__ import annotations

import json
import sqlite3

import pytest

import repro.bulk as bulk
from repro.bulk import BulkError
from repro.bulk.checkpoint import journal_path
from repro.query import open_index
from repro.query.ingest import _drop_shard, _refresh_fingerprint, index_run
from repro.testing.faults import FAULTS_ENV, FAULTS_STATE_ENV
from tests.bulk.conftest import (
    committed_by_last_run,
    run_killed_before_compaction,
)


def dump_results(db_path):
    connection = sqlite3.connect(db_path)
    try:
        return connection.execute(
            "SELECT id, url, best, score, positives, scores, shard_id "
            "FROM results ORDER BY id"
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

    def test_ingest_gap_heals_on_resume(
        self, query_model, query_corpus, sqlite_run, tmp_path
    ):
        """Simulate a SIGKILL in the window between a shard's manifest
        save and its ingest: the manifest says done, the database says
        nothing.  A resume (a no-op for scoring) reconciles the gap."""
        import shutil

        model_path, _ = query_model
        shard_dir, _ = query_corpus
        reference_dir, _ = sqlite_run
        run_dir = tmp_path / "gapped"
        shutil.copytree(reference_dir, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        victim = manifest["order"][-1]
        connection = sqlite3.connect(run_dir / "results.sqlite")
        with connection:
            _drop_shard(connection, victim)
            _refresh_fingerprint(connection)
        connection.close()
        report = bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                          workers=1, resume=True)
        assert report.shards_scored == 0  # nothing re-scored
        assert dump_results(run_dir / "results.sqlite") == dump_results(
            reference_dir / "results.sqlite"
        )

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
