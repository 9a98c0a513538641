"""The read side: counts, distributions, lookups, search, pagination.

:class:`ResultIndex` wraps one open result database and answers the
questions a flat TSV corpus cannot without a full rescan:

* :meth:`counts` — per-language decision totals (the ``best`` label;
  ``und`` counts URLs every binary classifier rejected), read from the
  counts ingest keeps;
* :meth:`histogram` — the score distribution of one language (or all),
  equi-width bins over an indexed min/max probe, each counted by one
  index range;
* :meth:`lookup` — point or prefix URL lookup through the URL index;
* :meth:`search` — FTS5 keyword search over URLs;
* :meth:`page` — score-ordered listing under ``{score}|{rowid}``
  keyset cursors (:mod:`repro.query.cursor`).

Every row-returning method is **keyset-paginated and index-backed**:
the SQL is written so SQLite answers from ``idx_results_lang_score``,
``idx_results_score`` or ``idx_results_url`` range scans — a page
deep in a 100M-row index costs the same as the first page.  The test
suite holds that property with ``EXPLAIN QUERY PLAN`` assertions, not
good intentions.

Counts and row totals read ``label_counts``, which ingest moves shard
by shard, and never visit a row.  A histogram is two index probes
(min and max) and one covering-index range ``COUNT(*)`` per bin: the
bins visit each index entry of the language's slice once, with no
``GROUP BY`` sort, and never the table.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.query.cursor import (
    clamp_limit,
    decode_cursor,
    encode_cursor,
)
from repro.query.errors import QueryError
from repro.query.ingest import index_fingerprint, kept_counts
from repro.query.schema import SCORE_CODES, SCORE_COLUMNS, open_result_db

__all__ = ["Page", "ResultIndex", "open_index"]


@dataclass
class Page:
    """One page of result rows plus the cursor to the next.

    ``next_cursor`` is ``None`` on the final page.  ``rows`` are plain
    dicts (JSON-ready): url, best, score, positives, scores.
    """

    rows: list[dict] = field(default_factory=list)
    next_cursor: Optional[str] = None

    def snapshot(self) -> dict:
        return {"rows": self.rows, "next_cursor": self.next_cursor}


def _row_dict(row: sqlite3.Row | tuple) -> dict:
    """A ``results`` row as JSON-ready values; ``scores`` holds the
    non-NULL score columns, in code order."""
    rowid, url, best, score, positives, *scores = row
    return {
        "id": rowid,
        "url": url,
        "best": best,
        "score": score,
        "positives": positives.split(",") if positives else [],
        "scores": {
            code: value for code, value in zip(SCORE_CODES, scores)
            if value is not None
        },
    }


_ROW_COLUMNS = f"id, url, best, score, positives, {', '.join(SCORE_COLUMNS)}"


def _prefix_successor(prefix: str) -> str | None:
    """The smallest string greater than every string with ``prefix``.

    Increments the last codepoint, dropping trailing maximal ones —
    the exact upper bound of the half-open prefix range.  ``None``
    means unbounded (empty prefix or all-U+10FFFF, i.e. match to the
    end of the index).
    """
    chars = list(prefix)
    while chars:
        code = ord(chars[-1])
        if code < 0x10FFFF:
            chars[-1] = chr(code + 1)
            return "".join(chars)
        chars.pop()
    return None


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_SIGN = 1 << 63


def _ordinal(value: float) -> int:
    """``value``'s place among the doubles: consecutive doubles have
    consecutive ordinals, and ``0.0`` and ``-0.0`` share 0."""
    bits = _BITS.unpack(_DOUBLE.pack(value))[0]
    return bits if bits < _SIGN else _SIGN - bits


def _double(ordinal: int) -> float:
    """The double at ``ordinal`` (inverse of :func:`_ordinal`)."""
    return _DOUBLE.unpack(
        _BITS.pack(ordinal if ordinal >= 0 else _SIGN - ordinal)
    )[0]


def _bin_edge(index: int, lo: float, hi: float, width: float,
              bins: int) -> float:
    """The smallest double whose bin is ``index`` or above.

    A finite score's bin is ``CAST((score - lo) / width AS INTEGER)``
    clamped to ``bins - 1``, evaluated in doubles as SQLite would.  It
    never falls as the score rises, so bin ``index`` holds exactly the
    scores in ``[edge(index), edge(index + 1))``.  The edge is almost
    always ``lo + index * width`` itself; when rounding puts it a few
    doubles away, the search gallops outward from there, then bisects.
    Returns the double after ``hi`` when no score up to ``hi`` reaches
    the bin.
    """

    def reaches(score: float) -> bool:
        quotient = (score - lo) / width
        return quotient >= bins or int(quotient) >= index

    guess = lo + index * width
    if lo < guess <= hi and reaches(guess) and not reaches(
        math.nextafter(guess, -math.inf)
    ):
        return guess
    floor, ceiling = _ordinal(lo), _ordinal(hi)
    start = min(max(_ordinal(guess), floor), ceiling)
    step = 1
    if reaches(_double(start)):
        below, above = start - 1, start
        while below >= floor and reaches(_double(below)):
            above, below, step = below, below - step, step * 2
        below = max(below, floor - 1)
    else:
        below, above = start, start + 1
        while above <= ceiling and not reaches(_double(above)):
            below, above, step = above, above + step, step * 2
        above = min(above, ceiling + 1)
    while above - below > 1:
        middle = (below + above) // 2
        if reaches(_double(middle)):
            above = middle
        else:
            below = middle
    return _double(above)


#: Most bins one histogram answers: each bin is one index range to
#: count, and ``bins`` arrives from outside (``GET /v1/query/hist``).
MAX_BINS = 1000

#: Bins counted per statement: each bin is one scalar ``COUNT(*)``
#: subquery, and a statement holds at most this many (with their
#: parameters, well under SQLite's oldest limit of 999).
_BINS_PER_STATEMENT = 64


class ResultIndex:
    """Queries over one open result database (read-only by default)."""

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.connection = connection
        self._fingerprint: str | None = None

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "ResultIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- identity ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """This index build's identity (embedded in every cursor)."""
        if self._fingerprint is None:
            row = self.connection.execute(
                "SELECT value FROM meta WHERE key='fingerprint'"
            ).fetchone()
            self._fingerprint = (
                row[0] if row else index_fingerprint(self.connection)
            )
        return self._fingerprint

    @property
    def model(self) -> dict:
        """The model fingerprint of the run this index was built from."""
        row = self.connection.execute(
            "SELECT value FROM meta WHERE key='model'"
        ).fetchone()
        return json.loads(row[0]) if row else {}

    def status(self) -> dict:
        """One JSON-ready block: totals, shards, fingerprint, model."""
        shards = self.connection.execute(
            "SELECT COUNT(*) FROM shards"
        ).fetchone()[0]
        return {
            "rows": sum(kept_counts(self.connection).values()),
            "shards": shards,
            "fingerprint": self.fingerprint,
            "model": self.model,
        }

    # -- aggregates ----------------------------------------------------------------

    def counts(self, language: str | None = None) -> dict[str, int]:
        """Per-language totals of the decided (``best``) label.

        ``language`` narrows to one code; the undecided bucket is
        reported as ``und`` (matching the bulk summary's convention).
        Read from the counts ingest keeps: O(labels), whatever the
        index holds.  A label with no rows is absent from the whole
        answer, and ``0`` when asked for by name.
        """
        counts = kept_counts(self.connection)
        if language is not None:
            return {language: counts.get(language, 0)}
        return counts

    def histogram(
        self,
        language: str | None = None,
        *,
        bins: int = 20,
    ) -> dict:
        """Equi-width score histogram for one language (or all rows).

        Returns ``{"lo", "hi", "bins": [{"lo", "hi", "count"}, ...],
        "rows"}``.  Undecided rows carry no score and are excluded.
        ``lo`` and ``hi`` are the smallest and largest finite scores,
        one index probe each; the bins split that span evenly, and each
        is counted by one covering-index range.  A row lands in bin
        ``int((score - lo) / width)``, the last bin also taking the
        top score; an infinite score lands in the first bin
        (``-inf``) or the last (``+inf``), so ``rows`` is every scored
        row.  With no finite score, ``lo``, ``hi`` and the bin bounds
        are ``None``.
        """
        if not 1 <= bins <= MAX_BINS:
            raise QueryError(
                f"bins must be between 1 and {MAX_BINS}, got {bins}"
            )
        where, params = self._score_filter(language)
        # 1e999 is SQLite's literal for an infinite double.
        lo, hi = self.connection.execute(
            "SELECT " + ", ".join(
                f"(SELECT score FROM results WHERE {where} "
                "AND score > -1e999 AND score < 1e999 "
                f"ORDER BY score {direction}, id {direction} LIMIT 1)"
                for direction in ("ASC", "DESC")
            ),
            params * 2,
        ).fetchone()
        if lo is None:
            # No finite score: any finite split parts -inf from +inf.
            width: float | None = None
            edges = [0.0] * (bins - 1)
        else:
            width = (hi - lo) / bins or 1.0
            if math.isinf(width):  # the span overflows a double
                width = hi / bins - lo / bins
            edges = [
                _bin_edge(index, lo, hi, width, bins)
                for index in range(1, bins)
            ]
        # The first bin is open below and the last open above.
        ranges = [
            (("" if low is None else " AND score >= ?")
             + ("" if high is None else " AND score < ?"),
             [value for value in (low, high) if value is not None])
            for low, high in zip([None, *edges], [*edges, None])
        ]
        counts: list[int] = []
        for first in range(0, bins, _BINS_PER_STATEMENT):
            chunk = ranges[first:first + _BINS_PER_STATEMENT]
            counts += self.connection.execute(
                "SELECT " + ", ".join(
                    f"(SELECT COUNT(*) FROM results WHERE {where}{bounds})"
                    for bounds, _ in chunk
                ),
                [value for _, limits in chunk
                 for value in (*params, *limits)],
            ).fetchone()
        total = sum(counts)
        if not total:
            return {"lo": None, "hi": None, "bins": [], "rows": 0}
        return {
            "lo": lo,
            "hi": hi,
            "rows": total,
            "bins": [
                {"lo": None if width is None else lo + index * width,
                 "hi": None if width is None else lo + (index + 1) * width,
                 "count": count}
                for index, count in enumerate(counts)
            ],
        }

    # -- lookups -------------------------------------------------------------------

    def lookup(
        self,
        url: str,
        *,
        prefix: bool = False,
        limit: int | None = None,
    ) -> list[dict]:
        """Rows whose URL equals ``url`` (or starts with it).

        Point lookups answer every occurrence (a URL can appear in
        several shards); prefix lookups are an ordered
        ``idx_results_url`` range scan capped at ``limit``.
        """
        limit = clamp_limit(limit)
        if prefix:
            # The half-open range [prefix, successor(prefix)): an index
            # range scan, where LIKE would fall back to a full scan
            # under non-default case folding.
            upper = _prefix_successor(url)
            if upper is None:
                rows = self.connection.execute(
                    f"SELECT {_ROW_COLUMNS} FROM results "
                    "WHERE url >= ? ORDER BY url, id LIMIT ?",
                    (url, limit),
                )
            else:
                rows = self.connection.execute(
                    f"SELECT {_ROW_COLUMNS} FROM results "
                    "WHERE url >= ? AND url < ? ORDER BY url, id LIMIT ?",
                    (url, upper, limit),
                )
        else:
            rows = self.connection.execute(
                f"SELECT {_ROW_COLUMNS} FROM results "
                "WHERE url = ? ORDER BY id LIMIT ?",
                (url, limit),
            )
        return [_row_dict(row) for row in rows]

    # -- search --------------------------------------------------------------------

    def search(
        self,
        query: str,
        *,
        limit: int | None = None,
        cursor: str | None = None,
    ) -> Page:
        """FTS5 keyword search over URLs, keyset-paginated by rowid.

        ``query`` is FTS5 match syntax (``blumen OR garten``); rows
        come back in id order, so the cursor's score field is unused
        (zero) and its rowid carries the keyset.  One statement fetches
        the page's rows, however many match.  Malformed match syntax
        raises a typed :class:`QueryError`.
        """
        limit = clamp_limit(limit)
        last_id = -1
        if cursor is not None:
            _, last_id = decode_cursor(cursor, self.fingerprint)
        try:
            rows = self.connection.execute(
                f"SELECT {_ROW_COLUMNS} FROM results WHERE id IN ("
                "SELECT rowid FROM results_fts "
                "WHERE results_fts MATCH ? AND rowid > ? "
                "ORDER BY rowid LIMIT ?) ORDER BY id",
                (query, last_id, limit + 1),
            ).fetchall()
        except sqlite3.OperationalError as error:
            raise QueryError(
                f"unusable search query {query!r}: {error}"
            ) from None
        has_more = len(rows) > limit
        rows = rows[:limit]
        return Page(
            rows=[_row_dict(row) for row in rows],
            next_cursor=(
                encode_cursor(0.0, rows[-1][0], self.fingerprint)
                if has_more and rows else None
            ),
        )

    # -- score-ordered listing -----------------------------------------------------

    def page(
        self,
        language: str | None = None,
        *,
        limit: int | None = None,
        cursor: str | None = None,
    ) -> Page:
        """Rows by descending score under ``{score}|{rowid}`` cursors.

        One language means an ``idx_results_lang_score`` range scan;
        all languages, ``idx_results_score``.  Undecided rows carry no
        score and are not listed (look them up via :meth:`counts` /
        :meth:`lookup`).  The row-value predicate
        ``(score, id) < (last_score, last_id)`` restarts the scan
        exactly after the last returned row — never OFFSET.
        """
        limit = clamp_limit(limit)
        where, params = self._score_filter(language)
        if cursor is not None:
            last_score, last_id = decode_cursor(cursor, self.fingerprint)
            where += " AND (score, id) < (?, ?)"
            params = (*params, last_score, last_id)
        rows = self.connection.execute(
            f"SELECT {_ROW_COLUMNS} FROM results WHERE {where} "
            "ORDER BY score DESC, id DESC LIMIT ?",
            (*params, limit + 1),
        ).fetchall()
        has_more = len(rows) > limit
        rows = rows[:limit]
        return Page(
            rows=[_row_dict(row) for row in rows],
            next_cursor=(
                encode_cursor(rows[-1][3], rows[-1][0], self.fingerprint)
                if has_more and rows else None
            ),
        )

    # -- filters -------------------------------------------------------------------

    @staticmethod
    def _score_filter(language: str | None) -> tuple[str, tuple]:
        """The SQL filter and parameters of one language's scored rows
        (all languages' when ``language`` is ``None``)."""
        if language == "und":
            raise QueryError(
                "undecided rows carry no score; they cannot be listed "
                "or binned by score"
            )
        if language is None:
            return "score IS NOT NULL", ()
        return "best = ? AND score IS NOT NULL", (language,)


def open_index(spec: str | os.PathLike, *, readonly: bool = True) -> ResultIndex:
    """Open a result index for querying.

    ``spec`` is the database file or the bulk run's output directory
    (the conventional ``results.sqlite`` inside it).  Raises the
    :class:`~repro.query.errors.QueryError` hierarchy on anything
    missing, foreign, or version-skewed.
    """
    return ResultIndex(open_result_db(spec, readonly=readonly))
