"""Shared fixtures of the bulk-engine suite: one tiny trained artifact
and one sharded gzipped corpus, reused by every test module."""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

import repro.bulk as bulk
from repro.bulk.checkpoint import MANIFEST_NAME, RunManifest, journal_path
from repro.core.pipeline import LanguageIdentifier
from repro.store import save_identifier


def run_killed_before_compaction(model, input_spec, output_dir, **options):
    """``bulk.run`` to the end, then put ``output_dir`` back the way a
    SIGKILL just before the closing compaction leaves it: every output
    committed, ``manifest.json`` still the plan, and one journal record
    per shard in commit order.  Returns the journal's bytes."""
    manifest_path = Path(output_dir) / MANIFEST_NAME
    journal = journal_path(manifest_path)
    last = {}
    save = RunManifest.save

    def snapshot_then_save(manifest, path):
        if journal.exists():
            last["plan"] = manifest_path.read_bytes()
            last["journal"] = journal.read_bytes()
        save(manifest, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunManifest, "save", snapshot_then_save)
        bulk.run(model, input_spec, output_dir, **options)
    manifest_path.write_bytes(last["plan"])
    journal.write_bytes(last["journal"])
    return last["journal"]


def committed_by_last_run(output_dir) -> list[str]:
    """Shard ids the latest run in ``output_dir`` committed, in commit
    order, read from its ``shard-commit`` events."""
    lines = (Path(output_dir) / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    start = max(
        index for index, event in enumerate(events)
        if event["event"] == "run-start"
    )
    return [
        event["shard"] for event in events[start:]
        if event["event"] == "shard-commit"
    ]


@pytest.fixture(scope="package")
def bulk_model(small_train, tmp_path_factory):
    """``(artifact_path, identifier)`` of a small compiled NB/words model."""
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.4, seed=2)
    )
    path = tmp_path_factory.mktemp("bulk-model") / "nb.urlmodel"
    save_identifier(identifier, path)
    return path, identifier


@pytest.fixture(scope="package")
def corpus(small_bundle, tmp_path_factory):
    """``(shard_dir, urls)``: three gzipped text shards, uneven sizes."""
    urls = list(small_bundle.odp_test.urls[:90])
    shard_dir = tmp_path_factory.mktemp("bulk-corpus")
    slices = (urls[:40], urls[40:65], urls[65:])
    for index, chunk in enumerate(slices):
        with gzip.open(shard_dir / f"part-{index:02d}.txt.gz", "wt") as out:
            out.write("\n".join(chunk) + "\n")
    return shard_dir, urls


@pytest.fixture()
def reference_rows(bulk_model, corpus):
    """The single-process ``classify`` rows for the whole corpus, in
    shard order — the byte-parity oracle."""
    _, identifier = bulk_model
    _, urls = corpus
    return [
        prediction.tsv() for prediction in identifier.predict_iter(urls)
    ]
