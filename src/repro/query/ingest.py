"""Group ingestion: committed bulk outputs → the result index.

The bulk engine's durability contract is the input here, not something
to re-invent: a shard output only exists under its final name after
the engine fsynced, renamed and checkpointed it with a sha256.  Ingest
therefore works in whole committed shards, a group at a time — each
:func:`ingest_shards` call is **one SQLite transaction** that, per
shard, deletes any previous rows of that shard, inserts the new ones
(table + FTS) and records the shard's sha256, and adds the shard to
the running index fingerprint kept in ``meta``.  No statement reads
the whole ``shards`` table, so a shard costs the same however big the
index already is.  A SIGKILL at any instant leaves the database at a
group boundary: each shard is either fully in (and recorded), or fully
out — exactly the atomic-per-shard story the manifest tells for the
text outputs.

:func:`index_run` is the reconciler both the engine and ``repro query
index`` call: walk the manifest's ``done`` shards, ingest whatever the
database is missing (or holds under a stale checksum, e.g. after a
resume re-scored a demoted shard), and drop whatever the manifest no
longer vouches for.  It is idempotent — running it twice is a no-op —
which is what makes the killed-and-resumed database **identical** to
an uninterrupted run's: row ids are deterministic
(shard ordinal × 2³² + row ordinal), row payloads are the committed
bytes, and reconciliation converges on the manifest.

A row's per-language scores land in one REAL column each (schema 2):
ingest parses each JSONL line once and stores the floats it holds, with
no re-encoding, so the index's scores are the shard's, bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sqlite3
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.bulk.checkpoint import (
    GROUP_COMMIT_SHARDS,
    MANIFEST_NAME,
    RunManifest,
)
from repro.query.errors import IndexCorruptError, QueryError
from repro.query.schema import (
    RESULT_DB_NAME,
    ROW_ID_STRIDE,
    SCORE_CODES,
    SCORE_COLUMNS,
    create_result_db,
    resolve_db_path,
)

__all__ = [
    "IngestReport",
    "index_fingerprint",
    "index_run",
    "ingest_shard",
    "ingest_shards",
    "insert_rows",
    "record_model",
]

#: Score keys a row may carry: the codes of the score columns.
_CODE_SET = frozenset(SCORE_CODES)

#: The running index fingerprint is a sum of sha256 digests mod 2**256.
_MODULUS = 1 << 256


@dataclass
class IngestReport:
    """What one :func:`index_run` reconciliation pass did."""

    db_path: str
    shards_ingested: int
    shards_skipped: int
    shards_dropped: int
    rows: int
    fingerprint: str

    def describe(self) -> str:
        return (
            f"index {self.db_path}: {self.shards_ingested} shard(s) "
            f"ingested, {self.shards_skipped} already current, "
            f"{self.shards_dropped} dropped — {self.rows} rows, "
            f"fingerprint {self.fingerprint}"
        )


def _digest(text: str) -> int:
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest(), "big"
    )


def _shard_term(salt: str, shard_id: str, sha256: str) -> int:
    """One ingested shard's addend to the running fingerprint sum."""
    return _digest(f"{salt}\n{shard_id}:{sha256}")


def _running_sum(connection: sqlite3.Connection) -> tuple[str, int | None]:
    """``(salt, stored running sum)``; the sum is ``None`` in an index
    written before the sum was kept."""
    values = dict(connection.execute(
        "SELECT key, value FROM meta "
        "WHERE key IN ('salt', 'fingerprint_sum')"
    ))
    if "salt" not in values:
        raise IndexCorruptError("result index carries no salt")
    total = values.get("fingerprint_sum")
    return values["salt"], None if total is None else int(total, 16)


def _fingerprint_sum(connection: sqlite3.Connection, salt: str) -> int:
    """The running sum computed from scratch: O(shards)."""
    total = _digest(salt)
    for shard_id, sha256 in connection.execute(
        "SELECT shard_id, sha256 FROM shards"
    ):
        total += _shard_term(salt, shard_id, sha256)
    return total


def index_fingerprint(connection: sqlite3.Connection) -> str:
    """The 12-hex-digit identity of this index build's row set.

    The leading digits of a sum, mod 2**256, of sha256(salt) and of
    sha256(salt, shard_id, sha256) for every ingested shard.  The salt
    is random per database creation, and a sum does not care about
    order — so the fingerprint is identical for identical content
    however ingestion was interleaved, and different for a rebuilt
    database even when its rows happen to match.  Page cursors embed
    it; see :mod:`repro.query.cursor`.

    This is the from-scratch reference: it reads every ``shards`` row.
    Ingest keeps the same sum in ``meta`` instead, adding and
    subtracting one shard's term in the transaction that inserts or
    drops it.
    """
    salt, _ = _running_sum(connection)
    return f"{_fingerprint_sum(connection, salt) % _MODULUS:064x}"[:12]


def _store_fingerprint(connection: sqlite3.Connection, total: int) -> None:
    hex_sum = f"{total % _MODULUS:064x}"
    connection.executemany(
        "INSERT INTO meta(key, value) VALUES (?, ?) "
        "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
        (("fingerprint_sum", hex_sum), ("fingerprint", hex_sum[:12])),
    )


def _row_shape_error(row: object) -> str | None:
    """What is wrong with a parsed JSONL row, or ``None`` if nothing.

    Element types are compared exactly (``set(map(type, ...))``): the
    row decoder yields exact ``str`` and ``float`` (JSON integers parse
    as floats), and ``bool`` must not count as a score.  A score key
    must name a score column.
    """
    if not isinstance(row, dict):
        return f"expected a JSON object, got {type(row).__name__}"
    if not isinstance(row.get("url"), str):
        return "'url' must be a string"
    best = row.get("best")
    if best is not None and not isinstance(best, str):
        return "'best' must be a string or null"
    positives = row.get("positives", [])
    if not isinstance(positives, list) or not (
        set(map(type, positives)) <= {str}
    ):
        return "'positives' must be a list of language codes"
    scores = row.get("scores", {})
    if not isinstance(scores, dict) or not (
        set(map(type, scores.values())) <= {float}
    ):
        return "'scores' must map language codes to numbers"
    if not scores.keys() <= _CODE_SET:
        unknown = min(scores.keys() - _CODE_SET)
        return f"'scores' key {unknown!r} is not a language code"
    return None


def _json_constant(name: str) -> float:
    """``Infinity`` and ``-Infinity`` parse; ``NaN`` is refused."""
    if name == "NaN":
        raise ValueError("a NaN score cannot be stored: SQLite keeps NaN "
                         "as NULL")
    return float(name)


#: The one JSON parser of shard rows: integers come back as floats (a
#: score column holds floats only), and NaN is refused.
_ROW_DECODER = json.JSONDecoder(parse_int=float, parse_constant=_json_constant)


def _parse_jsonl(stream: io.TextIOBase, source: str):
    """Yield ``(url, best, score, positives, *scores)`` per row, the
    scores in :data:`~repro.languages.SCORE_CODES` order (``None``
    where the row has none).

    Each line is parsed once, and the floats it holds are stored as
    they are.  Shard files are outside input by the time ``repro query
    index`` reads them, so each row's shape is checked; a bad row
    raises :class:`QueryError` naming ``file:line``.
    """
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = _ROW_DECODER.decode(line)
        except ValueError as error:
            problem: str | None = str(error)
        else:
            problem = _row_shape_error(row)
        if problem is not None:
            raise QueryError(
                f"{source}:{number} is not an ingestable JSONL row "
                f"({problem}); was this run written with --sink sqlite or "
                "jsonl?"
            )
        best = row.get("best")
        scores = row.get("scores", {})
        yield (
            row["url"],
            best,
            scores.get(best) if best is not None else None,
            ",".join(row.get("positives", [])),
            *map(scores.get, SCORE_CODES),
        )


def _parse_csv(stream: io.TextIOBase, source: str):
    """:func:`_parse_jsonl`'s rows, from a CSV shard's cells."""
    reader = csv.DictReader(stream)
    unknown = sorted(
        name for name in reader.fieldnames or ()
        if name.startswith("score_") and name not in SCORE_COLUMNS
    )
    if unknown:
        raise QueryError(
            f"{source}:1 has a score column {unknown[0]!r} that is not a "
            "language code; was this run written with --sink csv?"
        )
    for number, row in enumerate(reader, start=2):
        url = row.get("url")
        if url is None:
            raise QueryError(
                f"{source}:{number} has no 'url' column; was this run "
                "written with --sink csv?"
            )
        best = row.get("best") or None
        scores = {}
        for code, column in zip(SCORE_CODES, SCORE_COLUMNS):
            cell = row.get(column)
            if cell in (None, ""):
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if value != value:  # non-numeric, or a NaN SQLite cannot store
                raise QueryError(
                    f"{source}:{number} has a non-numeric or NaN {column} "
                    f"cell {cell!r}; was this run written with --sink csv?"
                )
            scores[code] = value
        yield (
            url,
            best,
            scores.get(best) if best is not None else None,
            row.get("positives", ""),
            *map(scores.get, SCORE_CODES),
        )


def _shard_rows(output_path: Path):
    """Parse one committed shard output into result rows.

    The sink decides the format; the file name carries it.  TSV shards
    are refused — they deliberately carry no scores, and a scoreless
    index could not answer distribution or keyset queries ("re-run
    with --sink sqlite" is the actionable path).
    """
    suffix = output_path.suffix
    if suffix == ".jsonl":
        parse, newline = _parse_jsonl, None
    elif suffix == ".csv":
        # The csv module reads its own line breaks: a quoted "\r" in a
        # cell must reach it untranslated.
        parse, newline = _parse_csv, ""
    else:
        raise QueryError(
            f"cannot index {output_path.name}: only jsonl and csv shard "
            "outputs carry the per-language scores the index needs — "
            "run the bulk job with --sink sqlite (or jsonl/csv)"
        )
    with open(output_path, "r", encoding="utf-8", newline=newline) as stream:
        yield from parse(stream, output_path.name)


_INSERT_ROW = (
    f"INSERT INTO results(id, url, best, score, positives, "
    f"{', '.join(SCORE_COLUMNS)}, shard_id) "
    f"VALUES ({', '.join('?' * (len(SCORE_COLUMNS) + 6))})"
)


def insert_rows(
    connection: sqlite3.Connection,
    ordinal: int,
    shard_id: str,
    rows,
) -> int:
    """Insert one shard's rows (table + FTS) at deterministic ids.

    ``rows`` yields ``(url, best, score, positives, *scores)``, one
    score (or ``None``) per :data:`~repro.languages.SCORE_CODES`
    code; ids are ``ordinal * ROW_ID_STRIDE + row_ordinal``.  Rows
    stream into the table one at a time, and the FTS index is then fed
    from the table by the shard's primary-key range, so memory does not
    grow with the shard.  Caller owns the transaction.  Returns the row
    count.
    """
    first = ordinal * ROW_ID_STRIDE
    count = 0

    def numbered():
        nonlocal count
        for row in rows:
            yield (first + count, *row, shard_id)
            count += 1

    connection.executemany(_INSERT_ROW, numbered())
    # A primary-key range, never a scan: shard_id is deliberately
    # unindexed, so "WHERE shard_id = ?" would read the whole table.
    connection.execute(
        "INSERT INTO results_fts(rowid, url) "
        "SELECT id, url FROM results WHERE id >= ? AND id < ?",
        (first, first + count),
    )
    return count


def _drop_shard(connection: sqlite3.Connection, shard_id: str) -> str | None:
    """Remove one shard's rows from the table and the FTS index.

    Rows and their ``shards`` entry land in one transaction, so a shard
    with no recorded ordinal has no rows to drop; a recorded one owns
    exactly the id range ``[ordinal x stride, (ordinal+1) x stride)`` —
    a primary-key range delete, never a table scan.  Returns the
    dropped shard's recorded sha256 (``None`` when none was recorded);
    the caller owns the transaction and the fingerprint.
    """
    recorded = connection.execute(
        "SELECT ordinal, sha256 FROM shards WHERE shard_id = ?", (shard_id,)
    ).fetchone()
    if recorded is None:
        return None
    lo = recorded[0] * ROW_ID_STRIDE
    hi = lo + ROW_ID_STRIDE
    connection.execute(
        "INSERT INTO results_fts(results_fts, rowid, url) "
        "SELECT 'delete', id, url FROM results "
        "WHERE id >= ? AND id < ?",
        (lo, hi),
    )
    connection.execute(
        "DELETE FROM results WHERE id >= ? AND id < ?", (lo, hi)
    )
    connection.execute(
        "DELETE FROM shards WHERE shard_id = ?", (shard_id,)
    )
    return recorded[1]


def ingest_shards(
    connection: sqlite3.Connection,
    shards: Iterable[tuple[int, str, str | os.PathLike, str]] = (),
    *,
    drop: Iterable[str] = (),
) -> list[int]:
    """Ingest a group of committed shard outputs — one atomic transaction.

    ``shards`` yields ``(ordinal, shard_id, output_path, sha256)``;
    ``drop`` names shards whose rows go.  Idempotent: a shard already
    recorded under the same sha256 is a no-op; a stale recording (the
    shard was re-scored) is replaced wholesale.  The running
    fingerprint in ``meta`` moves by each inserted and dropped shard's
    term in the same transaction; an index written before the sum was
    kept gets it computed from its ``shards`` table here, once.  Any
    error — a malformed row in any shard of the group — rolls the
    whole group back.  Returns the rows ingested per shard, in order
    (0 when skipped).
    """
    ingested: list[int] = []
    with connection:
        connection.execute("BEGIN IMMEDIATE")
        salt, total = _running_sum(connection)
        if total is None:
            total = _fingerprint_sum(connection, salt)
        for shard_id in drop:
            dropped = _drop_shard(connection, shard_id)
            if dropped is not None:
                total -= _shard_term(salt, shard_id, dropped)
        for ordinal, shard_id, output_path, sha256 in shards:
            current = connection.execute(
                "SELECT sha256 FROM shards WHERE shard_id = ?", (shard_id,)
            ).fetchone()
            if current is not None:
                if current[0] == sha256:
                    ingested.append(0)
                    continue
                _drop_shard(connection, shard_id)
                total -= _shard_term(salt, shard_id, current[0])
            output_path = Path(output_path)
            rows = insert_rows(
                connection, ordinal, shard_id, _shard_rows(output_path)
            )
            connection.execute(
                "INSERT INTO shards(shard_id, ordinal, output, sha256, rows) "
                "VALUES (?, ?, ?, ?, ?)",
                (shard_id, ordinal, output_path.name, sha256, rows),
            )
            total += _shard_term(salt, shard_id, sha256)
            ingested.append(rows)
        _store_fingerprint(connection, total)
    return ingested


def ingest_shard(
    connection: sqlite3.Connection,
    *,
    ordinal: int,
    shard_id: str,
    output_path: str | os.PathLike,
    sha256: str,
) -> int:
    """Ingest one committed shard output: :func:`ingest_shards` for a
    group of one.  Returns the rows ingested (0 when skipped)."""
    return ingest_shards(
        connection, [(ordinal, shard_id, output_path, sha256)]
    )[0]


def record_model(connection: sqlite3.Connection, model: dict) -> None:
    """Store ``model`` (a run manifest's model fingerprint) as the
    index's ``model`` row, in its own transaction."""
    with connection:
        connection.execute(
            "INSERT INTO meta(key, value) VALUES ('model', ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (json.dumps(model, sort_keys=True),),
        )


def index_run(
    output_dir: str | os.PathLike,
    db_path: str | os.PathLike | None = None,
    *,
    rebuild: bool = False,
    progress=None,
) -> IngestReport:
    """Reconcile a run's result index with its manifest.

    Loads ``manifest.json`` in ``output_dir`` (journal replayed, so a
    killed run's journaled shards count as done), creates the database if
    needed (``rebuild=True`` starts it over, new salt and all), drops
    shards the manifest no longer vouches for, and ingests every
    ``done`` shard the index is missing or holds stale, in groups of up
    to :data:`~repro.bulk.checkpoint.GROUP_COMMIT_SHARDS` per
    transaction.  Converges in one pass; safe to call any number of
    times, including while earlier shards of a live run are already
    ingested.
    """
    output_dir = Path(output_dir)
    manifest_path = output_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise QueryError(
            f"{manifest_path} does not exist — nothing to index (is this "
            "the bulk run's output directory?)"
        )
    manifest = RunManifest.load(manifest_path)
    path = (
        resolve_db_path(db_path) if db_path else output_dir / RESULT_DB_NAME
    )
    if rebuild and path.exists():
        path.unlink()
        for sidecar in (f"{path}-wal", f"{path}-shm"):
            try:
                os.unlink(sidecar)
            except OSError:
                pass
    connection = create_result_db(path)
    try:
        record_model(connection, manifest.model)
        done = {
            shard_id: (ordinal, manifest.shards[shard_id])
            for ordinal, shard_id in enumerate(manifest.order)
            if manifest.shards[shard_id].get("status") == "done"
        }
        recorded = dict(connection.execute(
            "SELECT shard_id, sha256 FROM shards"
        ))
        stale = [shard_id for shard_id in recorded if shard_id not in done]
        if stale:
            ingest_shards(connection, drop=stale)
        todo = [
            (ordinal, shard_id, output_dir / entry["output"], entry["sha256"])
            for shard_id, (ordinal, entry) in done.items()
            if recorded.get(shard_id) != entry["sha256"]
        ]
        for start in range(0, len(todo), GROUP_COMMIT_SHARDS):
            group = todo[start:start + GROUP_COMMIT_SHARDS]
            counts = ingest_shards(connection, group)
            if progress:
                for (_, shard_id, output, _), rows in zip(group, counts):
                    progress(
                        f"indexed {shard_id}: {rows} rows from {output.name}"
                    )
        total = connection.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]
        row = connection.execute(
            "SELECT value FROM meta WHERE key='fingerprint'"
        ).fetchone()
        return IngestReport(
            db_path=str(path),
            shards_ingested=len(todo),
            shards_skipped=len(done) - len(todo),
            shards_dropped=len(stale),
            rows=total,
            fingerprint=row[0] if row else index_fingerprint(connection),
        )
    finally:
        connection.close()
