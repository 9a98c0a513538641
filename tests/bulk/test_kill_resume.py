"""The acceptance scenario: SIGKILL a bulk run mid-flight, resume it,
and get output byte-identical to a never-killed run.

The run is a real ``repro bulk`` CLI subprocess in its own process
group (so the kill takes the worker pool down with the parent, exactly
like an OOM-killer or a node reclaim would).  The corpus is sized so
the kill lands while shards are still pending; ``events.jsonl`` is
polled for the first ``shard-commit`` event — emitted only after that
shard's journal record is fsynced — before pulling the trigger.
``manifest.json`` itself shows the plan until the run compacts it, so
what completed before the kill is read back through
``RunManifest.load``, which replays the journal.

The journal tests below stop a run just before its closing compaction
and cut the journal at every byte offset: each cut must resume to
byte parity, skipping exactly the shards whose records were intact.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro.bulk as bulk
from repro.bulk import RunManifest, VerifyError
from repro.bulk.checkpoint import journal_path
from tests.bulk.conftest import (
    committed_by_last_run,
    run_killed_before_compaction,
)

#: URLs per shard; six shards.  Big enough that scoring takes a couple
#: of seconds — a wide-open window for the kill to land mid-run.
SHARDS = 6
URLS_PER_SHARD = 4000


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    from repro.corpus.generator import UrlCorpusGenerator
    from repro.languages import LANGUAGES

    generator = UrlCorpusGenerator(seed=3)
    per_language = SHARDS * URLS_PER_SHARD // len(LANGUAGES)
    corpus = generator.generate_corpus(
        "odp", {language: per_language for language in LANGUAGES}
    )
    urls = [record.url for record in corpus]
    shard_dir = tmp_path_factory.mktemp("kill-corpus")
    for index in range(SHARDS):
        chunk = urls[index::SHARDS]
        with gzip.open(shard_dir / f"s{index}.txt.gz", "wt") as out:
            out.write("\n".join(chunk) + "\n")
    return shard_dir


def test_sigkill_then_resume_is_byte_identical(
    bulk_model, big_corpus, tmp_path
):
    model_path, _ = bulk_model
    out_dir = tmp_path / "run"
    events_path = out_dir / "events.jsonl"
    env = dict(os.environ)
    src = str(os.path.join(os.path.dirname(bulk.__file__), "..", ".."))
    env["PYTHONPATH"] = os.path.normpath(src)
    command = [
        sys.executable, "-m", "repro.cli", "bulk",
        "--model", str(model_path), "--input", str(big_corpus),
        "--output", str(out_dir), "--workers", "2", "--quiet",
    ]
    process = subprocess.Popen(
        command, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for the first committed shard, then SIGKILL the whole
        # process group — parent, pool workers, everything.
        deadline = time.time() + 120
        while time.time() < deadline:
            if process.poll() is not None:
                break  # finished before the kill: asserted below
            try:
                events = events_path.read_text()
            except OSError:
                events = ""
            if '"event":"shard-commit"' in events:
                os.killpg(process.pid, signal.SIGKILL)
                break
            time.sleep(0.01)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=30)
    assert process.returncode == -signal.SIGKILL

    manifest = RunManifest.load(out_dir / "manifest.json")  # survived
    completed_before = {
        shard_id: dict(manifest.shards[shard_id])
        for shard_id in manifest.done_ids()
    }
    assert 1 <= len(completed_before) < SHARDS

    resumed = bulk.run(
        model_path, big_corpus, out_dir, workers=2, resume=True
    )
    assert resumed.shards_total == SHARDS
    assert resumed.rows_total == SHARDS * URLS_PER_SHARD
    assert resumed.shards_scored == SHARDS - len(completed_before)
    # Completed shards were not re-scored: same committed checksums.
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for shard_id, before in completed_before.items():
        assert manifest["shards"][shard_id]["sha256"] == before["sha256"]

    # Byte parity with a run that was never killed.
    clean = bulk.run(
        model_path, big_corpus, tmp_path / "clean", workers=2
    )
    killed_bytes = b"".join(
        (out_dir / name).read_bytes() for name in resumed.outputs
    )
    clean_bytes = b"".join(
        (tmp_path / "clean" / name).read_bytes() for name in clean.outputs
    )
    assert killed_bytes == clean_bytes


# -- the completion journal, cut -----------------------------------------------------


@pytest.fixture(scope="module")
def four_shards(tmp_path_factory, small_bundle):
    """Four one-URL shards: small records, so every cut stays cheap."""
    shard_dir = tmp_path_factory.mktemp("journal-corpus")
    for index, url in enumerate(small_bundle.odp_test.urls[:4]):
        (shard_dir / f"s{index}.txt").write_text(url + "\n")
    return shard_dir


def output_bytes(run_dir, report) -> bytes:
    return b"".join((run_dir / name).read_bytes() for name in report.outputs)


def test_resume_from_every_journal_cut_is_byte_identical(
    bulk_model, four_shards, tmp_path
):
    model_path, _ = bulk_model
    clean = bulk.run(model_path, four_shards, tmp_path / "clean", workers=1)
    killed = tmp_path / "killed"
    journal = run_killed_before_compaction(
        model_path, four_shards, killed, workers=1
    )
    order = committed_by_last_run(killed)
    assert sorted(order) == ["s0.txt", "s1.txt", "s2.txt", "s3.txt"]
    # One record per line: record i is intact once the cut keeps its
    # newline.
    ends = [offset + 1 for offset, byte in enumerate(journal) if byte == 10]
    assert len(ends) == len(order)
    run_dir = tmp_path / "cut"
    for cut in range(len(journal) + 1):
        intact = order[:sum(1 for end in ends if end <= cut)]
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(killed, run_dir)
        journal_path(run_dir / "manifest.json").write_bytes(journal[:cut])
        report = bulk.run(
            model_path, four_shards, run_dir, workers=1, resume=True
        )
        assert report.shards_skipped == len(intact), cut
        assert sorted(committed_by_last_run(run_dir)) == sorted(
            set(order) - set(intact)
        ), cut
        assert output_bytes(run_dir, report) == output_bytes(
            tmp_path / "clean", clean
        ), cut
        assert not journal_path(run_dir / "manifest.json").exists()


def test_verify_lists_only_unjournaled_shards_as_pending(
    bulk_model, four_shards, tmp_path
):
    model_path, _ = bulk_model
    run_dir = tmp_path / "run"
    journal = run_killed_before_compaction(
        model_path, four_shards, run_dir, workers=1
    )
    order = committed_by_last_run(run_dir)
    journal_path(run_dir / "manifest.json").write_bytes(
        b"".join(journal.splitlines(keepends=True)[:2])
    )
    with pytest.raises(VerifyError) as raised:
        bulk.verify_run(run_dir)
    pending = re.search(r"shard\(s\) not finished: (.*)", str(raised.value))
    assert sorted(pending.group(1).split(", ")) == sorted(order[2:])
