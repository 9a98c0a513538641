"""Output sinks of the bulk engine: predictions out, one row per URL.

A sink is a **row formatter**: the engine owns the files (one output
shard per input shard, written atomically and hashed for the
checkpoint manifest); the sink decides what a row looks like.  Three
formats ship:

* ``tsv`` — exactly the rows ``repro classify`` prints
  (``best <TAB> binary-yes <TAB> url``), so the concatenated shard
  outputs of a bulk run are **byte-identical** to a single-process
  ``classify`` over the concatenated input.  Carries no scores.
* ``jsonl`` — one JSON object per URL with the per-language decision
  scores and the model provenance stamp (``name@checksum`` — enough to
  trace every row back to the exact artifact that scored it).
* ``csv`` — header + one row per URL with per-language score columns
  and the same provenance stamp.
* ``sqlite`` — the ``jsonl`` rows byte-for-byte, **plus** a derived
  SQLite result index (``results.sqlite``) the engine maintains beside
  the shards (see :mod:`repro.query`).  The text shards stay the
  checkpointed source of truth; the database is always rebuildable
  from them.

The engine formats a whole chunk at once with :meth:`RowSink.format_batch`.
By default that is :meth:`RowSink.format` of each row's
:class:`~repro.api.Prediction`, as its own fields say.  The TSV and
JSONL (so also sqlite) sinks instead format straight from the chunk's
``(n, k)`` score matrix, through the same row layout: the text of every
best label and every positives mask is spelled once per language
tuple, JSONL scores are written column by column with
``float.__repr__`` (what ``json.dumps`` writes for a finite float), and
per row only the URL is encoded.

:class:`SummaryAccumulator` is the rollup sink every run feeds: per-
language decision counts, row totals, throughput — mergeable across
shards and workers, landing in the run manifest and the CLI's closing
summary line.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import ClassVar

import numpy as np

from repro.api.types import (
    BatchResult,
    Prediction,
    _best_columns,
    _positive_masks,
    _positives_table,
)
from repro.bulk.errors import BulkError
from repro.languages import SCORE_CODES, SCORE_COLUMNS, Language

__all__ = [
    "SINKS",
    "RowSink",
    "CsvSink",
    "JsonlSink",
    "SqliteSink",
    "SummaryAccumulator",
    "TsvSink",
    "make_sink",
]

#: Compact JSON, as every JSONL field is written (one encoder, built
#: once: ``json.dumps`` with any non-default argument builds one per call).
_json = json.JSONEncoder(separators=(",", ":")).encode

#: How ``json.dumps`` spells the floats that ``repr`` spells otherwise.
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _row_columns(result: BatchResult) -> tuple[list[int], list[int]]:
    """Each row's best column (-1: no language) and positives bitmask."""
    return (
        _best_columns(result.matrix).tolist(),
        _positive_masks(result.matrix).tolist(),
    )


def _json_scores(
    matrix: np.ndarray, columns: Sequence[int]
) -> Iterator[tuple[str, ...]]:
    """Each row's scores of ``columns``, in that order, as ``json.dumps``
    writes them."""
    picked = matrix[:, columns]
    texts = [list(map(float.__repr__, column)) for column in picked.T.tolist()]
    if not np.isfinite(picked).all():
        texts = [
            [_JSON_NONFINITE.get(text, text) for text in column]
            for column in texts
        ]
    return zip(*texts)


@dataclass(frozen=True)
class RowSink:
    """Base row formatter.

    ``provenance`` is the model stamp rows may carry
    (``<name>@<checksum-prefix>``); the engine builds it from the
    checkpoint fingerprint so sink rows and manifest agree about which
    model scored the run.
    """

    provenance: str | None = None

    #: File suffix of output shards in this format (per subclass).
    suffix: ClassVar[str] = ".txt"

    #: Whether the engine should maintain a SQLite result index
    #: (:mod:`repro.query`) beside the shards of a run in this format.
    indexes_results: ClassVar[bool] = False

    def header(self) -> str | None:
        """Optional first line of every output shard."""
        return None

    def format(self, prediction: Prediction) -> str:
        """One output row (no trailing newline)."""
        raise NotImplementedError

    def format_batch(self, result: BatchResult) -> str:
        """Every row of ``result``, each ending in a newline: the bytes
        :meth:`format` writes for each of its predictions."""
        return "".join(
            self.format(prediction) + "\n" for prediction in result
        )

    def check(self, result: BatchResult) -> None:
        """Raise :class:`~repro.bulk.errors.BulkError` if this sink cannot
        write ``result``: the engine then retries the chunk one URL at a
        time and quarantines the rows that fail again."""


@cache
def _tsv_prefixes(languages: tuple[Language, ...]) -> tuple[tuple[str, ...], ...]:
    """``prefixes[best][mask]``: :meth:`Prediction.tsv` of that best
    column and positives mask, up to the URL that ends it."""
    return tuple(
        tuple(Prediction("", best, positives).tsv()
              for positives in _positives_table(languages))
        for best in (*languages, None)
    )


class TsvSink(RowSink):
    """``classify``-compatible TSV: ``best <TAB> positives <TAB> url``.

    Deliberately provenance- and score-free: its contract is byte
    parity with the interactive path (provenance lives in the run
    manifest next to the output shards).
    """

    suffix = ".tsv"

    def format(self, prediction: Prediction) -> str:
        return prediction.tsv()

    def format_batch(self, result: BatchResult) -> str:
        prefixes = _tsv_prefixes(result.model.languages)
        best, masks = _row_columns(result)
        return "".join(
            f"{prefixes[column][mask]}{url}\n"
            for url, column, mask in zip(result.urls, best, masks)
        )


@cache
def _jsonl_fields(
    languages: tuple[Language, ...],
) -> tuple[tuple[str, ...], tuple[str, ...], str, tuple[int, ...]]:
    """The JSON of every best label (index -1: no language) and of every
    positives mask, the ``scores`` object template over the code-sorted
    columns, and those columns."""
    labels = tuple(_json(language.value) for language in languages)
    labels += (_json(None),)
    positives = tuple(
        _json([language.value for language in subset])
        for subset in _positives_table(languages)
    )
    order = tuple(sorted(range(len(languages)),
                         key=lambda j: languages[j].value))
    template = "{%s}" % ",".join(
        f'"{languages[j].value}":%s' for j in order
    )
    return labels, positives, template, order


class JsonlSink(RowSink):
    """One JSON object per URL: decisions, scores, provenance.

    Scores are emitted with JSON ``repr`` round-tripping, so a reader
    recovers bit-identical floats to what the scoring matmul produced.
    """

    suffix = ".jsonl"

    @cached_property
    def _model(self) -> str:
        """The row's provenance field (nothing without provenance)."""
        if not self.provenance:
            return ""
        return f',"model":{encode_basestring_ascii(self.provenance)}'

    def _line(self, url: str, best: str, positives: str, scores: str) -> str:
        """One row from its JSON-encoded fields: the layout both format
        paths write (``json.dumps`` of the row, compact)."""
        return (f'{{"url":{url},"best":{best},"positives":{positives},'
                f'"scores":{scores}{self._model}}}')

    def format(self, prediction: Prediction) -> str:
        return self._line(
            encode_basestring_ascii(prediction.url),
            _json(prediction.best.value if prediction.best else None),
            _json([language.value for language in prediction.positives]),
            _json({
                language.value: score
                for language, score in sorted(
                    prediction.scores.items(), key=lambda kv: kv[0].value
                )
            }),
        )

    def format_batch(self, result: BatchResult) -> str:
        labels, positives, template, order = _jsonl_fields(
            result.model.languages
        )
        best, masks = _row_columns(result)
        scores = _json_scores(result.matrix, order)
        return "".join(
            self._line(encode_basestring_ascii(url), labels[column],
                       positives[mask], template % texts) + "\n"
            for url, column, mask, texts in zip(
                result.urls, best, masks, scores
            )
        )


class CsvSink(RowSink):
    """Header + one CSV row per URL with per-language score columns.

    Rows are formatted one at a time (the default
    :meth:`~RowSink.format_batch`).
    """

    suffix = ".csv"

    def header(self) -> str | None:
        return self._record(["url", "best", "positives", *SCORE_COLUMNS,
                             "model"])

    def format(self, prediction: Prediction) -> str:
        scores = {
            language.value: score
            for language, score in prediction.scores.items()
        }
        return self._record([
            prediction.url,
            prediction.best.value if prediction.best else "",
            ",".join(language.value for language in prediction.positives),
            *(repr(scores[code]) for code in SCORE_CODES),
            self.provenance or "",
        ])

    @staticmethod
    def _record(cells: list[str]) -> str:
        """One CSV record, without its terminator.  It is written with a
        ``\\r\\n`` terminator, so the writer quotes a cell holding either
        character: a bare ``\\r`` or ``\\n`` in a URL would end the record
        where it is read back."""
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(cells)
        return buffer.getvalue()[:-2]


class SqliteSink(JsonlSink):
    """JSONL rows plus an engine-maintained SQLite result index.

    The **file contract is exactly** :class:`JsonlSink` — same suffix,
    same bytes, same shard sha256s — so the manifest resume/verify
    story is untouched and an interrupted sqlite run can even be
    resumed as ``jsonl`` (or vice versa, modulo the manifest's sink
    check).  What changes is engine-side: after every commit group's
    journal fsync the engine reads the group's committed outputs back
    into ``results.sqlite`` in the run directory, in one transaction
    (:func:`repro.query.ingest.ingest_shards`), storing each row's five
    scores as REAL columns, and reconciles the database against the
    manifest at the end of the run
    (:func:`repro.query.ingest.index_run`).
    Workers never touch the database; ingestion is parent-only, so the
    scoring hot path pays nothing, and the parent's memory stays
    bounded by one row at a time, not by a shard.  SQLite cannot store
    a NaN score, so a row scored NaN is refused (:meth:`check`) and
    quarantined by the worker, before its shard is committed.
    """

    # Engine-side flag: maintain the result index for this run.
    indexes_results: ClassVar[bool] = True

    def check(self, result: BatchResult) -> None:
        if np.isnan(result.matrix).any():
            raise BulkError(
                "a NaN score cannot be indexed: SQLite stores NaN as NULL"
            )


#: Registered sink formats, by CLI name.
SINKS: dict[str, type[RowSink]] = {
    "tsv": TsvSink,
    "jsonl": JsonlSink,
    "csv": CsvSink,
    "sqlite": SqliteSink,
}


def make_sink(name: str, provenance: str | None = None) -> RowSink:
    """The registered sink for ``name`` (raise a typed error otherwise)."""
    try:
        sink_type = SINKS[name]
    except KeyError:
        raise BulkError(
            f"unknown sink format {name!r}; supported: "
            f"{', '.join(sorted(SINKS))}"
        ) from None
    return sink_type(provenance=provenance)


@dataclass
class SummaryAccumulator:
    """Mergeable per-run rollup: row counts and per-language decisions.

    ``best`` counts the single best label per URL (``und`` when every
    binary classifier said no); ``positives`` counts every yes answer,
    so its total can exceed ``rows`` (a URL can look Spanish *and*
    Italian to the paper's five binary classifiers).
    """

    rows: int = 0
    best: dict[str, int] = field(default_factory=dict)
    positives: dict[str, int] = field(default_factory=dict)

    def observe(self, prediction: Prediction) -> None:
        self.rows += 1
        label = prediction.best.value if prediction.best else "und"
        self.best[label] = self.best.get(label, 0) + 1
        for language in prediction.positives:
            code = language.value
            self.positives[code] = self.positives.get(code, 0) + 1

    def observe_batch(self, result: BatchResult) -> None:
        """:meth:`observe` every row of ``result``: one ``bincount``
        over the best columns and one column sum of the decisions."""
        codes = [language.value for language in result.model.languages]
        best = np.bincount(
            _best_columns(result.matrix) + 1, minlength=len(codes) + 1
        )
        positives = (result.matrix > 0.0).sum(axis=0)
        self.merge(SummaryAccumulator(
            rows=len(result),
            best={label: count for label, count
                  in zip(["und", *codes], best.tolist()) if count},
            positives={code: count for code, count
                       in zip(codes, positives.tolist()) if count},
        ))

    def merge(self, other: "SummaryAccumulator") -> None:
        self.rows += other.rows
        for label, count in other.best.items():
            self.best[label] = self.best.get(label, 0) + count
        for code, count in other.positives.items():
            self.positives[code] = self.positives.get(code, 0) + count

    def snapshot(self) -> dict:
        return {
            "rows": self.rows,
            "best": dict(sorted(self.best.items())),
            "positives": dict(sorted(self.positives.items())),
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "SummaryAccumulator":
        return cls(
            rows=int(snapshot.get("rows", 0)),
            best=dict(snapshot.get("best", {})),
            positives=dict(snapshot.get("positives", {})),
        )
