"""The read side: counts, distributions, lookups, search, pagination.

:class:`ResultIndex` wraps one open result database and answers the
questions a flat TSV corpus cannot without a full rescan:

* :meth:`counts` — per-language decision totals (the ``best`` label;
  ``und`` counts URLs every binary classifier rejected);
* :meth:`histogram` — the score distribution of one language (or all),
  equi-width bins over an indexed min/max probe;
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

Aggregates (counts, histogram bins) do visit every qualifying index
entry — that is what an aggregate is — but through covering indexes,
never the table, and never rows of other languages.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass, field
from typing import Optional

from repro.query.cursor import (
    clamp_limit,
    decode_cursor,
    encode_cursor,
)
from repro.query.errors import QueryError
from repro.query.ingest import index_fingerprint
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
        rows = self.connection.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]
        shards = self.connection.execute(
            "SELECT COUNT(*) FROM shards"
        ).fetchone()[0]
        return {
            "rows": rows,
            "shards": shards,
            "fingerprint": self.fingerprint,
            "model": self.model,
        }

    # -- aggregates ----------------------------------------------------------------

    def counts(self, language: str | None = None) -> dict[str, int]:
        """Per-language totals of the decided (``best``) label.

        ``language`` narrows to one code; the undecided bucket is
        reported as ``und`` (matching the bulk summary's convention).
        Covered entirely by ``idx_results_lang_score``.
        """
        if language is not None:
            where, params = self._language_filter(language)
            count = self.connection.execute(
                f"SELECT COUNT(*) FROM results WHERE {where}", params
            ).fetchone()[0]
            return {language: count}
        return {
            (best if best is not None else "und"): count
            for best, count in self.connection.execute(
                "SELECT best, COUNT(*) FROM results GROUP BY best"
            )
        }

    def histogram(
        self,
        language: str | None = None,
        *,
        bins: int = 20,
    ) -> dict:
        """Equi-width score histogram for one language (or all rows).

        Returns ``{"lo", "hi", "bins": [{"lo", "hi", "count"}, ...],
        "rows"}``.  Undecided rows carry no score and are excluded.
        Min/max come from one index probe each; the bin pass is a
        covering range scan of the language's index slice.
        """
        if bins < 1:
            raise QueryError(f"bins must be >= 1, got {bins}")
        where, params = self._score_filter(language)
        lo, hi = self.connection.execute(
            f"SELECT MIN(score), MAX(score) FROM results WHERE {where}",
            params,
        ).fetchone()
        if lo is None:
            return {"lo": None, "hi": None, "bins": [], "rows": 0}
        width = (hi - lo) / bins or 1.0
        counts = [0] * bins
        total = 0
        for bucket, count in self.connection.execute(
            "SELECT CAST((score - ?) / ? AS INTEGER) AS bucket, COUNT(*) "
            f"FROM results WHERE {where} GROUP BY bucket",
            (lo, width, *params),
        ):
            counts[min(max(int(bucket), 0), bins - 1)] += count
            total += count
        return {
            "lo": lo,
            "hi": hi,
            "rows": total,
            "bins": [
                {"lo": lo + index * width, "hi": lo + (index + 1) * width,
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
        (zero) and its rowid carries the keyset.  Malformed match
        syntax raises a typed :class:`QueryError`.
        """
        limit = clamp_limit(limit)
        last_id = -1
        if cursor is not None:
            _, last_id = decode_cursor(cursor, self.fingerprint)
        try:
            matches = self.connection.execute(
                "SELECT rowid FROM results_fts "
                "WHERE results_fts MATCH ? AND rowid > ? "
                "ORDER BY rowid LIMIT ?",
                (query, last_id, limit + 1),
            ).fetchall()
        except sqlite3.OperationalError as error:
            raise QueryError(
                f"unusable search query {query!r}: {error}"
            ) from None
        has_more = len(matches) > limit
        ids = [row[0] for row in matches[:limit]]
        rows = [
            _row_dict(row)
            for rowid in ids
            for row in self.connection.execute(
                f"SELECT {_ROW_COLUMNS} FROM results WHERE id = ?",
                (rowid,),
            )
        ]
        return Page(
            rows=rows,
            next_cursor=(
                encode_cursor(0.0, ids[-1], self.fingerprint)
                if has_more and ids else None
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
    def _language_filter(language: str | None) -> tuple[str, tuple]:
        if language is None:
            return "1=1", ()
        if language == "und":
            return "best IS NULL", ()
        return "best = ?", (language,)

    @staticmethod
    def _score_filter(language: str | None) -> tuple[str, tuple]:
        """Like :meth:`_language_filter` but over scored rows only."""
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
