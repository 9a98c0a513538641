"""Keyset page cursors: ``{score}|{rowid}|{fingerprint}``.

The query surface pages big result sets the way the PR 7 HTTP
front-end pages big batches — by *key*, never by offset: a cursor
names the last row already returned (its sort key and its rowid as the
tiebreaker), so the next page is one indexed ``(score, id) < (?, ?)``
range scan no matter how deep into a 100M-row index the reader is.
``OFFSET`` pagination would re-scan everything it skips on every page.

Every cursor additionally embeds a 12-hex-digit **index fingerprint**
(:func:`repro.query.ingest.index_fingerprint`: the leading digits of a
running sum, mod 2**256, of the per-build random salt's sha256 and of
sha256(salt, shard_id, sha256) for every ingested shard, kept current
by each ingest transaction).  A cursor replayed against a rebuilt
index, an index that has since ingested more shards, or a
hand-tampered cursor is refused with a typed :class:`CursorError`
instead of silently paging over a different row set — the same refusal
semantics the daemon's batch cursors established.  An index built
before the sum was kept refuses its older cursors after its next
ingest, which would refuse them anyway.

Scores ride through :func:`repr` / :func:`float`, which round-trips
IEEE doubles exactly, so a resumed walk continues at precisely the row
it left off.
"""

from __future__ import annotations

from repro.query.errors import CursorError

__all__ = [
    "DEFAULT_PAGE_LIMIT",
    "MAX_PAGE_LIMIT",
    "clamp_limit",
    "decode_cursor",
    "encode_cursor",
]

#: Rows per page when the caller names no limit.
DEFAULT_PAGE_LIMIT = 50

#: Hard per-page ceiling; larger asks are clamped, not refused — a
#: reader that wants everything pages for it.
MAX_PAGE_LIMIT = 1000


def clamp_limit(limit: object) -> int:
    """Validate a page-size ask; clamp it into ``[1, MAX_PAGE_LIMIT]``.

    ``None`` means the default.  Non-integers and limits < 1 are
    refused (a typed :class:`CursorError`, because they arrive on the
    same pagination surface); oversized limits clamp to the ceiling
    rather than failing, so clients may always ask big.
    """
    if limit is None:
        return DEFAULT_PAGE_LIMIT
    if isinstance(limit, bool) or not isinstance(limit, int):
        try:
            limit = int(str(limit))
        except (TypeError, ValueError):
            raise CursorError(
                f"'limit' must be an integer >= 1, got {limit!r}"
            ) from None
    if limit < 1:
        raise CursorError(f"'limit' must be >= 1, got {limit}")
    return min(limit, MAX_PAGE_LIMIT)


def encode_cursor(score: float, rowid: int, fingerprint: str) -> str:
    """The opaque cursor naming the last returned row of a page."""
    return f"{score!r}|{rowid}|{fingerprint}"


def decode_cursor(cursor: object, fingerprint: str) -> tuple[float, int]:
    """Validate ``cursor`` against the index build it must belong to.

    Returns ``(score, rowid)`` of the last row the caller already has.
    Raises :class:`CursorError` on anything malformed, tampered with,
    or minted for a different index build (fingerprint mismatch).
    """
    parts = str(cursor).split("|")
    if len(parts) != 3:
        raise CursorError(
            f"malformed page cursor {cursor!r} (expected "
            "'score|rowid|fingerprint')"
        )
    score_text, rowid_text, cursor_fingerprint = parts
    try:
        score = float(score_text)
        rowid = int(rowid_text)
    except ValueError:
        raise CursorError(f"malformed page cursor {cursor!r}") from None
    if cursor_fingerprint != fingerprint:
        raise CursorError(
            "page cursor was minted against a different index build "
            "(the index was rebuilt or has ingested more shards since); "
            "restart pagination from the first page"
        )
    return score, rowid
