"""Queryable result store and model-registry lineage index.

The bulk engine (PR 6/8) writes checksummed text shards and a resume
manifest — perfect for durability, useless for questions.  This package
adds the read side the paper's 3-billion-URL ambitions imply:

* :mod:`repro.query.schema` — the SQLite result database beside a
  run's shards: WAL mode, per-language/score indexes, an FTS5 table
  over URLs.  Always derived, always rebuildable from the shards.
* :mod:`repro.query.ingest` — atomic per-shard ingestion and the
  :func:`index_run` reconciler that converges the database onto the
  manifest (idempotent; kill-safe at every instant).
* :mod:`repro.query.results` — :class:`ResultIndex`: counts,
  histograms, URL point/prefix lookup, FTS search, and score-ordered
  listing under keyset cursors.  Every row path is index-backed.
* :mod:`repro.query.cursor` — ``{score}|{rowid}|{fingerprint}`` page
  cursors with typed refusal of cursors minted for another build.
* :mod:`repro.query.lineage` — which corpus trained which model,
  which model scored which run, from rollout stamps and manifests.

Entry points: ``repro query ...`` on the CLI, ``GET /v1/query/*`` on
the serving daemon, and this module's re-exports for Python callers.
"""

from repro._lazy import lazy_exports

# Each name loads its module on first use: the daemon's query routes
# and ``repro query`` pull in only the modules they call.
__getattr__, __dir__ = lazy_exports(globals(), {
    "DEFAULT_PAGE_LIMIT": "repro.query.cursor",
    "MAX_PAGE_LIMIT": "repro.query.cursor",
    "clamp_limit": "repro.query.cursor",
    "decode_cursor": "repro.query.cursor",
    "encode_cursor": "repro.query.cursor",
    "CursorError": "repro.query.errors",
    "IndexCorruptError": "repro.query.errors",
    "IndexMissingError": "repro.query.errors",
    "IndexVersionError": "repro.query.errors",
    "LineageError": "repro.query.errors",
    "QueryError": "repro.query.errors",
    "IngestReport": "repro.query.ingest",
    "index_fingerprint": "repro.query.ingest",
    "index_run": "repro.query.ingest",
    "ingest_shard": "repro.query.ingest",
    "insert_rows": "repro.query.ingest",
    "LINEAGE_DB_NAME": "repro.query.lineage",
    "LineageIndex": "repro.query.lineage",
    "build_lineage": "repro.query.lineage",
    "open_lineage": "repro.query.lineage",
    "Page": "repro.query.results",
    "ResultIndex": "repro.query.results",
    "open_index": "repro.query.results",
    "RESULT_DB_NAME": "repro.query.schema",
    "ROW_ID_STRIDE": "repro.query.schema",
    "SCHEMA_VERSION": "repro.query.schema",
    "create_result_db": "repro.query.schema",
    "open_result_db": "repro.query.schema",
    "resolve_db_path": "repro.query.schema",
})

__all__ = [
    "DEFAULT_PAGE_LIMIT",
    "MAX_PAGE_LIMIT",
    "LINEAGE_DB_NAME",
    "RESULT_DB_NAME",
    "ROW_ID_STRIDE",
    "SCHEMA_VERSION",
    "CursorError",
    "IndexCorruptError",
    "IndexMissingError",
    "IndexVersionError",
    "IngestReport",
    "LineageError",
    "LineageIndex",
    "Page",
    "QueryError",
    "ResultIndex",
    "build_lineage",
    "clamp_limit",
    "create_result_db",
    "decode_cursor",
    "encode_cursor",
    "index_fingerprint",
    "index_run",
    "ingest_shard",
    "insert_rows",
    "open_index",
    "open_lineage",
    "open_result_db",
    "resolve_db_path",
]
