"""The result index's on-disk shape: one SQLite database per run.

A **result index** (``results.sqlite`` next to a bulk run's
``manifest.json``) is the queryable sibling of the run's committed
shard outputs — never the source of truth.  The text shards plus the
manifest remain the durable, checksummed record; the index is derived
from them, shard by shard, and can always be rebuilt
(:func:`repro.query.ingest.index_run`).

Tables:

``meta``
    Key/value: schema version, a per-build random salt, the model
    fingerprint of the run, and the **index fingerprint** that page
    cursors embed — a cursor replayed against a rebuilt or
    differently-populated index is refused instead of silently paging
    over different rows.  ``fingerprint_sum`` holds the salted
    running sum it is read from (mod 2**256; see
    :func:`repro.query.ingest.index_fingerprint`), moved by each
    shard ingested or dropped in that shard's own transaction.
``shards``
    One row per ingested shard: id, output file, the output's sha256
    (the same value the run manifest checkpoints), and its row count.
    Ingest is idempotent per (shard, sha256) — re-indexing a run skips
    what is already in.
``results``
    One row per scored URL.  ``id`` is **deterministic**: shard
    ordinal × 2³² + row ordinal, so the same run produces the same
    ids whether it completed in one pass or across five resumes, and
    ``{score}|{id}`` keyset cursors are stable.  ``best`` is the
    decided language code (NULL when every binary classifier said
    no), ``score`` the winning decision score, and ``score_<code>``
    one REAL column per language code
    (:data:`~repro.languages.SCORE_CODES`) holding that language's
    decision score as the sink wrote it — NULL where the row carries
    none.  REAL columns hold IEEE doubles, so the floats a JSONL
    shard spells with ``repr`` read back bit for bit (SQLite keeps a
    negative zero as ``0.0``, and cannot store NaN, which ingest
    therefore refuses and the sqlite sink quarantines); queries read
    them without parsing anything.
``results_fts``
    FTS5 external-content table over ``url`` for keyword search,
    contentless of everything else (rows live once, in ``results``).

Indexes: ``(best, score DESC, id DESC)`` and ``(score DESC, id DESC)``
serve per-language and global keyset pagination plus count/histogram
aggregates without touching the table; ``(url)`` serves point and
prefix lookup.  The database runs in WAL mode so daemon readers never
block the ingesting writer.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

from repro.languages import SCORE_CODES, SCORE_COLUMNS
from repro.query.errors import (
    IndexCorruptError,
    IndexMissingError,
    IndexVersionError,
)

__all__ = [
    "RESULT_DB_NAME",
    "ROW_ID_STRIDE",
    "SCHEMA_VERSION",
    "SCORE_CODES",
    "SCORE_COLUMNS",
    "connect",
    "create_result_db",
    "open_result_db",
    "resolve_db_path",
]

#: File name of a run's result index, next to its ``manifest.json``.
RESULT_DB_NAME = "results.sqlite"

#: Result-index schema version (bumped on incompatible layout changes).
#: Version 2 replaced version 1's JSON ``scores`` text column with one
#: REAL column per language.
SCHEMA_VERSION = 2

#: Deterministic row ids: ``shard_ordinal * ROW_ID_STRIDE + row_ordinal``.
#: 2**32 rows per shard is far beyond any real shard while keeping ids
#: inside SQLite's signed 64-bit rowid space for ~2**31 shards.
ROW_ID_STRIDE = 1 << 32

_SCORE_COLUMNS_DDL = "".join(
    f"    {column:<9} REAL,\n" for column in SCORE_COLUMNS
)

_DDL = f"""
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS shards (
    shard_id TEXT PRIMARY KEY,
    ordinal  INTEGER NOT NULL,
    output   TEXT NOT NULL,
    sha256   TEXT NOT NULL,
    rows     INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS results (
    id        INTEGER PRIMARY KEY,
    url       TEXT NOT NULL,
    best      TEXT,
    score     REAL,
    positives TEXT NOT NULL,
{_SCORE_COLUMNS_DDL}    shard_id  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_lang_score
    ON results(best, score DESC, id DESC);
CREATE INDEX IF NOT EXISTS idx_results_score
    ON results(score DESC, id DESC);
CREATE INDEX IF NOT EXISTS idx_results_url
    ON results(url);
CREATE VIRTUAL TABLE IF NOT EXISTS results_fts
    USING fts5(url, content='results', content_rowid='id');
"""


def resolve_db_path(spec: str | os.PathLike) -> Path:
    """Map a ``--db`` spec to a database file.

    A directory (typically a bulk run's output directory) means the
    conventional ``results.sqlite`` inside it; anything else is taken
    as the database file itself.
    """
    path = Path(spec)
    if path.is_dir():
        return path / RESULT_DB_NAME
    return path


def connect(path: str | os.PathLike, *, readonly: bool = False) -> sqlite3.Connection:
    """A raw connection with the tier's pragmas applied.

    WAL journaling lets the daemon's read-only handlers run while the
    bulk engine is still ingesting shards.  The journal mode is a
    property of the file, so only a writer sets it; a read-only
    connection reads an index in whatever mode it is.  Filesystems that
    refuse WAL (some network mounts) silently keep the default journal
    — queries stay correct, only concurrent-reader behaviour degrades.
    """
    if readonly:
        uri = f"file:{Path(path).as_posix()}?mode=ro"
        connection = sqlite3.connect(uri, uri=True)
    else:
        connection = sqlite3.connect(path)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:
            pass
    connection.execute("PRAGMA synchronous=NORMAL")
    return connection


def create_result_db(path: str | os.PathLike) -> sqlite3.Connection:
    """Create (or open) the result index at ``path``, schema applied.

    A fresh database gets the DDL, the schema version, and a random
    per-build **salt** — the reason a rebuilt index refuses old page
    cursors even when it happens to contain identical rows: the salt
    feeds the index fingerprint cursors embed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = connect(path)
    try:
        with connection:
            connection.executescript(_DDL)
            row = connection.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta(key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                connection.execute(
                    "INSERT INTO meta(key, value) VALUES ('salt', ?)",
                    (os.urandom(8).hex(),),
                )
            elif int(row[0]) != SCHEMA_VERSION:
                raise IndexVersionError(
                    f"result index {path} has schema version {row[0]}; this "
                    f"build writes {SCHEMA_VERSION} — rebuild it with "
                    "'repro query index --rebuild'"
                )
    except sqlite3.DatabaseError as error:
        connection.close()
        raise IndexCorruptError(
            f"{path} is not a usable result index ({error}); rebuild it "
            "from the run's committed shards with 'repro query index "
            "--rebuild'"
        ) from None
    except Exception:
        connection.close()
        raise
    return connection


def open_result_db(
    spec: str | os.PathLike, *, readonly: bool = True
) -> sqlite3.Connection:
    """Open an **existing** result index for querying.

    Raises :class:`IndexMissingError` when nothing is there,
    :class:`IndexCorruptError` when the file is not a result index,
    and :class:`IndexVersionError` on a schema-version mismatch.
    """
    path = resolve_db_path(spec)
    if not path.exists():
        raise IndexMissingError(
            f"no result index at {path} — run the bulk job with "
            "--sink sqlite, or build one from a finished run with "
            "'repro query index --run <run-dir>'"
        )
    try:
        connection = connect(path, readonly=readonly)
    except sqlite3.DatabaseError as error:
        raise IndexCorruptError(
            f"{path} cannot be opened as SQLite ({error})"
        ) from None
    try:
        row = connection.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
    except sqlite3.DatabaseError as error:
        connection.close()
        raise IndexCorruptError(
            f"{path} is not a result index ({error}); was it written by "
            "something else?"
        ) from None
    if row is None:
        connection.close()
        raise IndexCorruptError(
            f"{path} carries no schema version; it is not a result index"
        )
    if int(row[0]) != SCHEMA_VERSION:
        version = row[0]
        connection.close()
        raise IndexVersionError(
            f"result index {path} has schema version {version}; this build "
            f"reads {SCHEMA_VERSION} — rebuild it with 'repro query index "
            "--rebuild'"
        )
    return connection
