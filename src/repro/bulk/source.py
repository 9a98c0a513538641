"""Input sources of the bulk engine: URL streams in bounded memory.

A bulk run's input is a set of **shards** — files (or stdin) that each
yield a stream of URLs.  Everything here streams: a 40 GB gzipped shard
is read line by line, never materialised, so the engine's memory
ceiling is one scoring chunk per worker regardless of corpus size.

Supported shard formats, sniffed from the file name:

==============================  ==================================
suffix                          format
==============================  ==================================
``.txt`` / anything else        plain text, one URL per line
``.jsonl`` / ``.ndjson``        one JSON object per line; the URL
                                lives in a configurable field
``.csv``                        CSV with a header row; the URL
                                lives in a configurable column
``*.gz`` over any of the above  transparently gunzipped
==============================  ==================================

:func:`discover_shards` maps an input spec — one file, a shard
directory, or ``-`` for stdin — to a **deterministically ordered**
shard list (lexicographic by file name), which is what makes runs
reproducible and checkpoints meaningful: shard ``part-00017.txt.gz``
is the same slice of the corpus on every resume.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.bulk.errors import BulkError

__all__ = [
    "FORMATS",
    "STDIN_SPEC",
    "BadRow",
    "Shard",
    "detect_format",
    "discover_shards",
    "read_rows",
    "read_urls",
]

#: Longest raw-row excerpt a :class:`BadRow` carries into the
#: quarantine sidecar (enough to find the row, bounded so one
#: pathological line cannot bloat the sidecar).
BAD_ROW_EXCERPT_CHARS = 500

#: Input spec naming standard input.
STDIN_SPEC = "-"

#: Recognised shard formats.
FORMATS = ("text", "jsonl", "csv")

_JSONL_SUFFIXES = {".jsonl", ".ndjson"}
_CSV_SUFFIXES = {".csv"}


@dataclass(frozen=True)
class BadRow:
    """One input row that cannot be scored, and why.

    Yielded by :func:`read_rows` in place of a URL so callers choose
    the policy: the strict :func:`read_urls` wrapper raises on the
    first one (classify-parity mode), while the engine's quarantine
    path records it in the run's ``quarantine.jsonl`` sidecar and
    keeps scoring.  ``row`` is the 1-based row number inside the
    shard; ``raw`` is a bounded excerpt of the offending line.
    """

    shard_id: str
    row: int
    reason: str
    raw: str


@dataclass(frozen=True)
class Shard:
    """One unit of bulk input (and of checkpointing and parallelism).

    ``shard_id`` is the stable name recorded in the run manifest and
    used to derive the output file name; for file shards it is the file
    name itself, which is unique within one input directory.
    """

    shard_id: str
    path: str  # filesystem path, or "-" for stdin
    format: str  # one of FORMATS
    compressed: bool
    size_bytes: int

    @property
    def is_stdin(self) -> bool:
        return self.path == STDIN_SPEC


def detect_format(name: str) -> tuple[str, bool]:
    """``(format, compressed)`` a file name announces."""
    suffixes = Path(name).suffixes
    compressed = bool(suffixes) and suffixes[-1] == ".gz"
    if compressed:
        suffixes = suffixes[:-1]
    last = suffixes[-1] if suffixes else ""
    if last in _JSONL_SUFFIXES:
        return "jsonl", compressed
    if last in _CSV_SUFFIXES:
        return "csv", compressed
    return "text", compressed


def _file_shard(path: Path) -> Shard:
    fmt, compressed = detect_format(path.name)
    return Shard(
        shard_id=path.name,
        path=str(path),
        format=fmt,
        compressed=compressed,
        size_bytes=path.stat().st_size,
    )


def discover_shards(spec: str | os.PathLike) -> list[Shard]:
    """The deterministic shard list an input spec names.

    * ``-`` — one pseudo-shard reading stdin (streaming only: a stdin
      run cannot be checkpointed, because the input cannot be re-read);
    * a file — one shard;
    * a directory — every regular non-hidden file directly inside it,
      **sorted by file name**, so the shard order (and therefore the
      concatenated output order) is independent of filesystem
      enumeration order.

    Raises :class:`~repro.bulk.errors.BulkError` for missing inputs and
    empty directories — an empty bulk run is almost always a typo'd
    path, and saying so beats writing an empty manifest.
    """
    if isinstance(spec, str) and spec == STDIN_SPEC:
        return [
            Shard(shard_id="stdin", path=STDIN_SPEC, format="text",
                  compressed=False, size_bytes=0)
        ]
    path = Path(spec)
    if path.is_file():
        return [_file_shard(path)]
    if path.is_dir():
        files = sorted(
            entry for entry in path.iterdir()
            if entry.is_file() and not entry.name.startswith(".")
        )
        if not files:
            raise BulkError(
                f"input directory {path} contains no shard files"
            )
        return [_file_shard(entry) for entry in files]
    raise BulkError(
        f"input {os.fspath(spec)!r} is neither a file, a directory, "
        f"nor {STDIN_SPEC!r} (stdin)"
    )


def _open_text(shard: Shard) -> io.TextIOBase:
    if shard.is_stdin:
        return sys.stdin  # type: ignore[return-value]
    # The csv module needs newline="" to keep a quoted \r inside a cell;
    # text and JSONL lines keep universal newlines, which iterate faster.
    newline = "" if shard.format == "csv" else None
    if shard.compressed:
        return gzip.open(shard.path, "rt", encoding="utf-8", newline=newline)  # type: ignore[return-value]
    return open(shard.path, "r", encoding="utf-8", newline=newline)


def _excerpt(raw: str) -> str:
    return raw.rstrip("\n")[:BAD_ROW_EXCERPT_CHARS]


def read_rows(
    shard: Shard, url_field: str = "url"
) -> Iterator[str | BadRow]:
    """Stream one shard in file order: a URL per good row, a
    :class:`BadRow` per malformed one, blanks skipped.

    ``url_field`` names the JSONL object field / CSV header column
    holding the URL (ignored for plain text).  Per-row problems —
    invalid JSON, a missing/empty/non-string URL, a short CSV row —
    become :class:`BadRow` values so scoring can continue past them;
    shard-level problems (a CSV header without the URL column) still
    raise :class:`~repro.bulk.errors.BulkError`, because every
    subsequent row would fail identically.
    """
    stream = _open_text(shard)
    try:
        if shard.format == "text":
            for line in stream:
                line = line.strip()
                if line:
                    yield line
        elif shard.format == "jsonl":
            for number, line in enumerate(stream, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as error:
                    yield BadRow(
                        shard.shard_id, number,
                        f"shard {shard.shard_id} row {number}: "
                        f"invalid JSON ({error})",
                        _excerpt(line),
                    )
                    continue
                if not isinstance(row, dict) or url_field not in row:
                    yield BadRow(
                        shard.shard_id, number,
                        f"shard {shard.shard_id} row {number}: no "
                        f"{url_field!r} field (set url_field / --url-field)",
                        _excerpt(line),
                    )
                    continue
                url = row[url_field]
                if not isinstance(url, str):
                    yield BadRow(
                        shard.shard_id, number,
                        f"shard {shard.shard_id} row {number}: "
                        f"{url_field!r} is {type(url).__name__}, not a "
                        "string — scoring a coerced repr would silently "
                        "corrupt the output",
                        _excerpt(line),
                    )
                    continue
                if not url:
                    yield BadRow(
                        shard.shard_id, number,
                        f"shard {shard.shard_id} row {number}: "
                        f"{url_field!r} is empty — dropping or scoring "
                        "it would silently desync output row counts",
                        _excerpt(line),
                    )
                    continue
                yield url
        else:  # csv
            reader = csv.reader(stream)
            try:
                header = next(reader)
            except StopIteration:
                return
            try:
                column = header.index(url_field)
            except ValueError:
                raise BulkError(
                    f"shard {shard.shard_id}: CSV header {header!r} has "
                    f"no {url_field!r} column (set url_field / --url-field)"
                ) from None
            for number, row in enumerate(reader, start=2):
                if not row:
                    continue  # an entirely blank line, like text's
                if column >= len(row):
                    yield BadRow(
                        shard.shard_id, number,
                        f"shard {shard.shard_id} row {number}: "
                        f"{len(row)} columns, URL column is {column + 1}",
                        _excerpt(",".join(row)),
                    )
                    continue
                if not row[column]:
                    yield BadRow(
                        shard.shard_id, number,
                        f"shard {shard.shard_id} row {number}: "
                        f"{url_field!r} cell is empty — dropping or "
                        "scoring it would silently desync output row "
                        "counts",
                        _excerpt(",".join(row)),
                    )
                    continue
                yield row[column]
    finally:
        if not shard.is_stdin:
            stream.close()


def read_urls(shard: Shard, url_field: str = "url") -> Iterator[str]:
    """Stream the URLs of one shard, in file order, skipping blanks.

    The strict reading: the first malformed row raises
    :class:`~repro.bulk.errors.BulkError` naming the shard and row —
    silently dropping rows would make "output is byte-identical to
    single-process classify" unverifiable.  The engine's quarantine
    mode uses :func:`read_rows` directly instead.
    """
    for item in read_rows(shard, url_field=url_field):
        if isinstance(item, BadRow):
            raise BulkError(item.reason)
        yield item
