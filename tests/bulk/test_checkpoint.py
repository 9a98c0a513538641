"""The run manifest and its completion journal: durability, replay,
corruption refusals, resume gates."""

from __future__ import annotations

import json

import pytest

from repro.bulk import (
    ManifestCorruptError,
    ManifestMismatchError,
    RunManifest,
    sha256_file,
)
from repro.bulk import checkpoint
from repro.bulk.checkpoint import MANIFEST_VERSION, journal_path
from repro.bulk.source import Shard


def make_shards(*names):
    return [
        Shard(shard_id=name, path=f"/in/{name}", format="text",
              compressed=False, size_bytes=100 + index)
        for index, name in enumerate(names)
    ]


def plan(*names):
    return RunManifest.plan(
        {"handle": "/m.urlmodel", "name": "NB/words", "checksum": "c" * 64,
         "rollout": {}},
        make_shards(*names),
        sink="tsv", chunk_size=512, url_field="url",
    )


@pytest.fixture()
def manifest():
    return plan("a.txt", "b.txt")


class Killed(Exception):
    """Stands in for a SIGKILL at one step of a checkpoint write."""


def kill(*_):
    raise Killed


def commit(manifest, path, shard_id):
    """What the engine does per committed shard."""
    manifest.mark_done(shard_id, output=f"{shard_id}.tsv", rows=1,
                       sha256="d" * 64, seconds=0.5)
    manifest.journal(path, shard_id)


class TestRoundtrip:
    def test_save_load_preserves_everything(self, manifest, tmp_path):
        path = tmp_path / "manifest.json"
        manifest.mark_done("a.txt", output="part-00000.tsv", rows=7,
                           sha256="d" * 64, seconds=0.25)
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.order == ["a.txt", "b.txt"]
        assert loaded.pending_ids() == ["b.txt"]
        assert loaded.done_ids() == ["a.txt"]
        assert loaded.shards["a.txt"]["sha256"] == "d" * 64
        assert loaded.model["checksum"] == "c" * 64

    def test_save_is_atomic_replace(self, manifest, tmp_path):
        path = tmp_path / "manifest.json"
        manifest.save(path)
        before = path.read_text()
        manifest.mark_done("a.txt", output="o", rows=1, sha256="x",
                           seconds=0.0)
        manifest.save(path)
        assert path.read_text() != before
        assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up


class TestCorruption:
    def test_truncated_manifest_refused(self, manifest, tmp_path):
        path = tmp_path / "manifest.json"
        manifest.save(path)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # simulated torn write
        with pytest.raises(ManifestCorruptError, match="does not parse"):
            RunManifest.load(path)

    def test_non_object_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ManifestCorruptError, match="not a JSON object"):
            RunManifest.load(path)

    def test_missing_field_refused(self, manifest, tmp_path):
        path = tmp_path / "manifest.json"
        manifest.save(path)
        payload = json.loads(path.read_text())
        del payload["shards"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestCorruptError, match="required"):
            RunManifest.load(path)

    def test_order_shards_disagreement_refused(self, manifest, tmp_path):
        path = tmp_path / "manifest.json"
        manifest.save(path)
        payload = json.loads(path.read_text())
        payload["order"].append("ghost.txt")  # no matching shards entry
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestCorruptError, match="inconsistent"):
            RunManifest.load(path)

    # Version 1 manifests predate the journal: a version-1 build would
    # ignore this build's journal, and this build refuses theirs.
    @pytest.mark.parametrize("version", [1, MANIFEST_VERSION + 1])
    def test_version_gate(self, manifest, tmp_path, version):
        path = tmp_path / "manifest.json"
        manifest.save(path)
        payload = json.loads(path.read_text())
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestMismatchError,
                           match=f"format version {version}"):
            RunManifest.load(path)


class TestJournal:
    def test_load_replays_commits_and_save_compacts(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = plan("a.txt", "b.txt", "c.txt")
        manifest.save(path)
        commit(manifest, path, "c.txt")
        commit(manifest, path, "a.txt")
        loaded = RunManifest.load(path)
        assert loaded.done_ids() == ["a.txt", "c.txt"]
        assert loaded.shards == manifest.shards
        loaded.save(path)
        assert not journal_path(path).exists()
        assert RunManifest.load(path).shards == manifest.shards

    def test_kill_inside_compaction_only_replays_applied_records(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "manifest.json"
        manifest = plan("a.txt", "b.txt")
        manifest.save(path)
        commit(manifest, path, "a.txt")
        # Killed after the manifest is durable, before the journal goes.
        monkeypatch.setattr(checkpoint, "_fsync_directory", kill)
        with pytest.raises(Killed):
            manifest.save(path)
        assert journal_path(path).exists()
        assert json.loads(path.read_text())["shards"] == manifest.shards
        assert RunManifest.load(path).shards == manifest.shards

    def test_torn_tail_record_is_discarded(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = plan("a.txt", "b.txt")
        manifest.save(path)
        commit(manifest, path, "a.txt")
        commit(manifest, path, "b.txt")
        journal = journal_path(path)
        journal.write_bytes(journal.read_bytes()[:-1])  # no newline: torn
        assert RunManifest.load(path).done_ids() == ["a.txt"]

    def test_checksum_failure_discards_the_rest(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = plan("a.txt", "b.txt", "c.txt")
        manifest.save(path)
        for shard_id in manifest.order:
            commit(manifest, path, shard_id)
        journal = journal_path(path)
        first, second, third = journal.read_bytes().splitlines(keepends=True)
        damaged = second.replace(b'"rows":1', b'"rows":7')
        journal.write_bytes(first + damaged + third)
        # c.txt's record is intact, but nothing after damage is trusted.
        assert RunManifest.load(path).done_ids() == ["a.txt"]

    def test_record_outside_the_plan_refused(self, manifest, tmp_path):
        path = tmp_path / "manifest.json"
        manifest.save(path)
        other = plan("a.txt", "ghost.txt")
        commit(other, path, "ghost.txt")  # valid record, wrong run
        with pytest.raises(ManifestCorruptError, match="does not plan"):
            RunManifest.load(path)

    def test_fresh_plan_truncates_a_left_over_journal(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "manifest.json"
        old = plan("a.txt", "b.txt")
        old.save(path)
        commit(old, path, "a.txt")
        path.unlink()  # the old run's manifest is gone, its journal not
        # The journal goes before the plan is written, so not even a
        # kill during that write can pair the plan with it.
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "_atomic_write_json", kill)
            with pytest.raises(Killed):
                plan("a.txt", "b.txt").save(path)
        assert not journal_path(path).exists()
        plan("a.txt", "b.txt").save(path)
        assert RunManifest.load(path).done_ids() == []

    def test_commit_cost_is_one_record_whatever_the_plan(self, tmp_path):
        """Flatness as a count: a commit never rewrites the manifest
        (same inode, same bytes) and grows the journal by exactly its
        own record, whose length does not depend on the shards
        planned."""
        growth = {}
        for planned in (1_000, 10_000):
            names = [f"s{index:05d}.txt" for index in range(planned)]
            manifest = plan(*names)
            path = tmp_path / str(planned) / "manifest.json"
            path.parent.mkdir()
            manifest.save(path)
            inode, planned_bytes = path.stat().st_ino, path.read_bytes()
            journal = journal_path(path)
            growth[planned] = []
            size = 0
            for count, shard_id in enumerate(names[:3], start=1):
                commit(manifest, path, shard_id)
                assert path.stat().st_ino == inode
                assert path.read_bytes() == planned_bytes
                records = journal.read_bytes().splitlines(keepends=True)
                assert len(records) == count
                assert journal.stat().st_size - size == len(records[-1])
                size = journal.stat().st_size
                growth[planned].append(len(records[-1]))
        assert growth[1_000] == growth[10_000]


class TestResumeGates:
    def test_model_checksum_mismatch_refused(self, manifest):
        with pytest.raises(ManifestMismatchError, match="mix two models"):
            manifest.check_model({"checksum": "e" * 64})
        manifest.check_model({"checksum": "c" * 64})  # same model: fine

    def test_changed_shard_list_refused(self, manifest):
        with pytest.raises(ManifestMismatchError, match="shard list changed"):
            manifest.check_shards(make_shards("a.txt", "zz.txt"))
        manifest.check_shards(make_shards("a.txt", "b.txt"))

    def test_resized_shard_refused(self, manifest):
        # Same names, different bytes: a regenerated corpus must not
        # resume against outputs scored from the old one.
        shards = make_shards("a.txt", "b.txt")
        resized = [
            shards[0],
            Shard(shard_id="b.txt", path="/in/b.txt", format="text",
                  compressed=False, size_bytes=999),
        ]
        with pytest.raises(ManifestMismatchError, match="changed size"):
            manifest.check_shards(resized)


class TestVerifyOutputs:
    def _complete(self, manifest, tmp_path):
        for index, shard_id in enumerate(manifest.order):
            output = tmp_path / f"part-{index:05d}.tsv"
            output.write_text(f"rows of {shard_id}\n")
            manifest.mark_done(
                shard_id, output=output.name, rows=1,
                sha256=sha256_file(output), seconds=0.1,
            )

    def test_intact_outputs_stay_done(self, manifest, tmp_path):
        self._complete(manifest, tmp_path)
        assert manifest.verify_outputs(tmp_path) == []
        assert manifest.pending_ids() == []

    def test_missing_output_demoted(self, manifest, tmp_path):
        self._complete(manifest, tmp_path)
        (tmp_path / "part-00000.tsv").unlink()
        assert manifest.verify_outputs(tmp_path) == ["a.txt"]
        assert manifest.pending_ids() == ["a.txt"]
        assert "sha256" not in manifest.shards["a.txt"]

    def test_shortened_output_demoted(self, manifest, tmp_path):
        self._complete(manifest, tmp_path)
        target = tmp_path / "part-00001.tsv"
        target.write_bytes(target.read_bytes()[:-3])  # torn tail
        assert manifest.verify_outputs(tmp_path) == ["b.txt"]
        assert manifest.pending_ids() == ["b.txt"]
