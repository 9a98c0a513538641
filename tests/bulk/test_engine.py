"""The planner/runner: parity, checkpointing, resume edge cases."""

from __future__ import annotations

import io
import json
import multiprocessing

import pytest

import repro.bulk as bulk
from repro.bulk import BulkError, ManifestMismatchError, ShardCommitError
from repro.bulk.checkpoint import GROUP_COMMIT_SHARDS, journal_path
from repro.bulk.engine import _commit_in_groups
from repro.core.pipeline import LanguageIdentifier
from repro.store import save_identifier


def concatenated(report):
    """All output rows in shard (= input) order."""
    rows = []
    for name in report.outputs:
        with open(f"{report.output_dir}/{name}") as stream:
            rows.extend(stream.read().splitlines())
    return rows


class TestParity:
    def test_multiworker_output_byte_identical_to_classify(
        self, bulk_model, corpus, reference_rows, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, urls = corpus
        report = bulk.run(path, shard_dir, tmp_path / "run", workers=2,
                          chunk_size=16)
        assert report.shards_scored == 3 and report.rows_scored == len(urls)
        assert concatenated(report) == reference_rows
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["summary"]["rows"] == len(urls)
        assert all(
            entry["status"] == "done"
            for entry in manifest["shards"].values()
        )

    def test_single_worker_identical_to_multi(
        self, bulk_model, corpus, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        single = bulk.run(path, shard_dir, tmp_path / "one", workers=1)
        multi = bulk.run(path, shard_dir, tmp_path / "four", workers=4)
        assert concatenated(single) == concatenated(multi)

    def test_jsonl_sink_rows_parse_and_carry_provenance(
        self, bulk_model, corpus, tmp_path
    ):
        path, identifier = bulk_model
        shard_dir, urls = corpus
        report = bulk.run(path, shard_dir, tmp_path / "run", workers=1,
                          sink="jsonl")
        rows = [json.loads(line) for line in concatenated(report)]
        assert [row["url"] for row in rows] == list(urls)
        fingerprint = bulk.model_fingerprint(str(path))
        stamp = f"{fingerprint['name']}@{fingerprint['checksum'][:12]}"
        assert {row["model"] for row in rows} == {stamp}


class TestCheckpointing:
    def test_fresh_run_refuses_existing_manifest(
        self, bulk_model, corpus, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        with pytest.raises(BulkError, match="already records a run"):
            bulk.run(path, shard_dir, tmp_path / "run", workers=1)

    def test_commits_journal_without_rewriting_the_manifest(
        self, bulk_model, corpus, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        manifest_path = tmp_path / "run" / "manifest.json"
        seen = []

        def after_commit(line):
            journal = journal_path(manifest_path).read_bytes()
            shard_id = line.split()[1]  # "[n/total] <shard> -> <output>: …"
            assert b'"shard":"%s"' % shard_id.encode() in journal
            seen.append((
                manifest_path.stat().st_ino,
                manifest_path.read_bytes(),
                journal.count(b"\n"),
            ))

        bulk.run(path, shard_dir, tmp_path / "run", workers=2,
                 progress=after_commit)
        assert len({(inode, plan) for inode, plan, _ in seen}) == 1
        # A group's records are journaled before its progress lines, so
        # each line finds at least the records of the lines before it.
        records = [records for _, _, records in seen]
        assert len(records) == 3 and records[-1] == 3
        assert all(count >= line for line, count in enumerate(records, 1))
        # The end of the run compacts: a finished run leaves no journal.
        assert not journal_path(manifest_path).exists()
        assert bulk.RunManifest.load(manifest_path).pending_ids() == []

    def test_double_resume_is_idempotent(
        self, bulk_model, corpus, reference_rows, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        first = bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        outputs = {
            name: open(f"{first.output_dir}/{name}", "rb").read()
            for name in first.outputs
        }
        for _ in range(2):  # resume a finished run, twice
            again = bulk.run(path, shard_dir, tmp_path / "run", workers=2,
                             resume=True)
            assert again.shards_scored == 0
            assert again.shards_skipped == 3
            assert again.rows_total == first.rows_total
        assert concatenated(again) == reference_rows
        for name, content in outputs.items():
            assert open(f"{first.output_dir}/{name}", "rb").read() == content

    def test_resume_rescores_missing_and_shortened_outputs(
        self, bulk_model, corpus, reference_rows, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        report = bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        missing = tmp_path / "run" / report.outputs[0]
        shortened = tmp_path / "run" / report.outputs[1]
        missing.unlink()
        shortened.write_bytes(shortened.read_bytes()[:-10])
        resumed = bulk.run(path, shard_dir, tmp_path / "run", workers=1,
                           resume=True)
        assert resumed.shards_demoted == 2
        assert resumed.shards_scored == 2
        assert resumed.shards_skipped == 1
        assert concatenated(resumed) == reference_rows

    def test_resume_against_other_model_refused(
        self, bulk_model, corpus, small_train, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        other = LanguageIdentifier("words", "RE", seed=0).fit(
            small_train.subsample(0.3, seed=5)
        )
        other_path = tmp_path / "other.urlmodel"
        save_identifier(other, other_path)
        with pytest.raises(ManifestMismatchError, match="mix two models"):
            bulk.run(other_path, shard_dir, tmp_path / "run", workers=1,
                     resume=True)

    def test_resume_against_changed_corpus_refused(
        self, bulk_model, corpus, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        extra = shard_dir / "part-99.txt"
        extra.write_text("http://late-arrival.de\n")
        try:
            with pytest.raises(ManifestMismatchError, match="shard list"):
                bulk.run(path, shard_dir, tmp_path / "run", workers=1,
                         resume=True)
        finally:
            extra.unlink()

    def test_resume_with_other_sink_refused(
        self, bulk_model, corpus, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        with pytest.raises(ManifestMismatchError, match="sink"):
            bulk.run(path, shard_dir, tmp_path / "run", workers=1,
                     resume=True, sink="jsonl")


#: A fake pool iterator's "nothing finished yet" step.
WAIT = object()


class FakeResults:
    """Stands in for ``pool.imap_unordered``: plays ``script`` — results,
    :data:`WAIT` (a ``next(timeout=0)`` finds nothing ready; a blocking
    ``next`` waits it out) and exceptions a worker raised."""

    def __init__(self, *script):
        self.script = list(script)

    def __iter__(self):
        return self

    def __next__(self):
        return self.next()

    def next(self, timeout=None):
        while self.script and self.script[0] is WAIT:
            self.script.pop(0)
            if timeout == 0:
                raise multiprocessing.TimeoutError
        if not self.script:
            raise StopIteration
        item = self.script.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item


class TestGroupCommit:
    def drain(self, results):
        groups = []
        _commit_in_groups(results, groups.append)
        return groups

    def test_a_group_is_what_finished_while_the_last_one_committed(self):
        assert self.drain(FakeResults("a", "b", WAIT, "c", WAIT, WAIT)) == [
            ["a", "b"], ["c"],
        ]

    def test_groups_are_bounded(self):
        ready = [f"s{number}" for number in range(GROUP_COMMIT_SHARDS + 3)]
        assert self.drain(FakeResults(*ready)) == [
            ready[:GROUP_COMMIT_SHARDS], ready[GROUP_COMMIT_SHARDS:],
        ]

    def test_worker_error_while_draining_commits_the_drained_first(self):
        groups = []
        with pytest.raises(ShardCommitError, match="disk full"):
            _commit_in_groups(
                FakeResults("a", WAIT, "b", "c", ShardCommitError("disk full"),
                            "d"),
                groups.append,
            )
        assert groups == [["a"], ["b", "c"]]

    def test_worker_error_on_the_blocking_wait_commits_nothing_new(self):
        groups = []
        with pytest.raises(ShardCommitError):
            _commit_in_groups(
                FakeResults("a", WAIT, ShardCommitError("gone")),
                groups.append,
            )
        assert groups == [["a"]]

    def test_in_process_runs_commit_groups_of_one(
        self, bulk_model, corpus, tmp_path, monkeypatch
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        appends = []
        journal = bulk.RunManifest.journal

        def spy(manifest, manifest_path, *shard_ids):
            appends.append(shard_ids)
            journal(manifest, manifest_path, *shard_ids)

        monkeypatch.setattr(bulk.RunManifest, "journal", spy)
        bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        assert [len(shard_ids) for shard_ids in appends] == [1, 1, 1]


class TestInputsAndHandles:
    def test_stdin_streams_in_process(
        self, bulk_model, corpus, reference_rows, tmp_path, monkeypatch
    ):
        path, _ = bulk_model
        _, urls = corpus
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(urls) + "\n")
        )
        report = bulk.run(path, "-", tmp_path / "run", workers=4)
        assert report.manifest_path is None  # stdin is not checkpointable
        assert concatenated(report) == reference_rows

    def test_stdin_resume_refused(self, bulk_model, tmp_path):
        path, _ = bulk_model
        with pytest.raises(BulkError, match="stdin"):
            bulk.run(path, "-", tmp_path / "run", resume=True)

    def test_stdin_refuses_checkpointed_output_dir(
        self, bulk_model, corpus, tmp_path, monkeypatch
    ):
        # A stdin run also writes part-00000; it must not clobber a
        # checkpointed run's committed shards.
        path, _ = bulk_model
        shard_dir, urls = corpus
        bulk.run(path, shard_dir, tmp_path / "run", workers=1)
        monkeypatch.setattr("sys.stdin", io.StringIO(urls[0] + "\n"))
        with pytest.raises(BulkError, match="overwrite"):
            bulk.run(path, "-", tmp_path / "run")

    def test_store_handle_with_pinned_root(
        self, bulk_model, corpus, reference_rows, tmp_path
    ):
        from repro.store import ModelStore

        path, identifier = bulk_model
        shard_dir, _ = corpus
        store = ModelStore(tmp_path / "models")
        store.save(identifier, "bulkdemo")
        report = bulk.run(
            "store://bulkdemo", shard_dir, tmp_path / "run", workers=1,
            store_root=tmp_path / "models",
        )
        assert concatenated(report) == reference_rows
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        # the checkpointed handle is portable: root pinned in the string
        assert manifest["model"]["handle"].startswith("store://bulkdemo?root=")

    def test_live_object_has_no_portable_form(self, bulk_model, tmp_path):
        _, identifier = bulk_model
        with pytest.raises(TypeError, match="portable"):
            bulk.run(identifier, "-", tmp_path / "run")

    def test_progress_lines_cover_every_shard(
        self, bulk_model, corpus, tmp_path
    ):
        path, _ = bulk_model
        shard_dir, _ = corpus
        lines: list[str] = []
        bulk.run(path, shard_dir, tmp_path / "run", workers=1,
                 progress=lines.append)
        assert len(lines) == 3
        assert all("rows in" in line for line in lines)
