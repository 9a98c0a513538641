"""``repro.bulk`` — sharded, resumable offline bulk scoring.

The paper's pitch is that URL-only language identification is cheap
enough to run over a crawl frontier *before fetching a single page*;
this package is where that happens at corpus scale.  Point
:func:`run` at any :func:`repro.api.open_model` handle and any input —
a file, a directory of plain/gzipped text, JSONL, or CSV shards, or
stdin — and it fans the stream out across N worker processes that each
re-open the same memory-mapped model, streaming in bounded memory and
checkpointing per-shard completion into a run manifest, so a
killed run resumes exactly where it stopped and refuses to resume
against a different model.

Layers:

* :mod:`repro.bulk.source` — shard discovery and streaming readers;
* :mod:`repro.bulk.sink` — row formats (``classify``-identical TSV,
  JSONL/CSV with scores and provenance, ``sqlite`` = JSONL plus a
  derived :mod:`repro.query` result index) and the summary rollup;
* :mod:`repro.bulk.checkpoint` — the run manifest (model fingerprint,
  per-shard output sha256, atomic replacement) and its append-only
  completion journal;
* :mod:`repro.bulk.engine` — the planner/runner (:func:`run`);
* :mod:`repro.bulk.errors` — the typed failure hierarchy.

CLI: ``repro bulk``.  Docs: ``docs/bulk.md``.
"""

from repro.bulk.checkpoint import MANIFEST_NAME, RunManifest, sha256_file
from repro.bulk.engine import (
    RunReport,
    VerifyReport,
    model_fingerprint,
    run,
    verify_run,
)
from repro.bulk.errors import (
    BulkError,
    CheckpointError,
    ManifestCorruptError,
    ManifestMismatchError,
    ShardCommitError,
    VerifyError,
)
from repro.bulk.sink import SINKS, SqliteSink, SummaryAccumulator, make_sink
from repro.bulk.source import BadRow, Shard, discover_shards, read_rows, read_urls

__all__ = [
    "MANIFEST_NAME",
    "SINKS",
    "BadRow",
    "BulkError",
    "CheckpointError",
    "ManifestCorruptError",
    "ManifestMismatchError",
    "RunManifest",
    "RunReport",
    "Shard",
    "ShardCommitError",
    "SqliteSink",
    "SummaryAccumulator",
    "VerifyError",
    "VerifyReport",
    "discover_shards",
    "make_sink",
    "model_fingerprint",
    "read_rows",
    "read_urls",
    "run",
    "sha256_file",
    "verify_run",
]
