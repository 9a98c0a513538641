"""Shared fixtures of the query-subsystem suite: one trained artifact,
one sharded corpus, one finished ``--sink sqlite`` bulk run, and one
fabricated six-figure-row index for the pagination/plan tests."""

from __future__ import annotations

import gzip

import pytest

from repro.bulk import run
from repro.core.pipeline import LanguageIdentifier
from repro.query import create_result_db, insert_rows
from repro.query.schema import SCORE_CODES
from repro.store import save_identifier


@pytest.fixture(scope="package")
def query_model(small_train, tmp_path_factory):
    """``(artifact_path, identifier)`` of a small compiled NB/words model."""
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.4, seed=2)
    )
    path = tmp_path_factory.mktemp("query-model") / "nb.urlmodel"
    save_identifier(identifier, path)
    return path, identifier


@pytest.fixture(scope="package")
def query_corpus(small_bundle, tmp_path_factory):
    """``(shard_dir, urls)``: three gzipped text shards, uneven sizes."""
    urls = list(small_bundle.odp_test.urls[:90])
    shard_dir = tmp_path_factory.mktemp("query-corpus")
    for index, chunk in enumerate((urls[:40], urls[40:65], urls[65:])):
        with gzip.open(shard_dir / f"part-{index:02d}.txt.gz", "wt") as out:
            out.write("\n".join(chunk) + "\n")
    return shard_dir, urls


@pytest.fixture(scope="package")
def sqlite_run(query_model, query_corpus, tmp_path_factory):
    """``(run_dir, report)`` of one finished ``sink="sqlite"`` bulk run."""
    model_path, _ = query_model
    shard_dir, _ = query_corpus
    run_dir = tmp_path_factory.mktemp("sqlite-run")
    report = run(model_path, shard_dir, run_dir, sink="sqlite", workers=1)
    return run_dir, report


def fill_index(connection, *, shards=4, rows_per_shard=25_000):
    """Fabricate a large index through the real ingest insert path.

    Deterministic synthetic rows: five languages round-robin, scores
    descending within each language so keyset walks have plenty of
    distinct keys, plus duplicated scores across shards to exercise the
    rowid tiebreaker.
    """
    codes = ("de", "en", "es", "fr", "it")
    for ordinal in range(shards):
        shard_id = f"synthetic-{ordinal:02d}"

        def rows():
            for offset in range(rows_per_shard):
                code = codes[offset % len(codes)]
                score = round(1.0 + (offset % 9973) / 1000.0, 6)
                url = (
                    f"http://host{offset % 97}.example-{code}.test/"
                    f"s{ordinal}/page{offset}.html"
                )
                yield (
                    url, code, score, code,
                    *(score if other == code else None
                      for other in SCORE_CODES),
                )

        with connection:
            insert_rows(connection, ordinal, shard_id, rows())
            connection.execute(
                "INSERT INTO shards(shard_id, ordinal, output, sha256, "
                "rows) VALUES (?, ?, ?, ?, ?)",
                (shard_id, ordinal, f"{shard_id}.jsonl",
                 f"{ordinal:064d}", rows_per_shard),
            )
    return connection


@pytest.fixture(scope="package")
def big_db(tmp_path_factory):
    """A 100k-row result database (path), built once per package."""
    path = tmp_path_factory.mktemp("big-index") / "results.sqlite"
    connection = create_result_db(path)
    fill_index(connection)
    connection.close()
    return path
