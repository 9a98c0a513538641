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

:class:`SummaryAccumulator` is the rollup sink every run feeds: per-
language decision counts, row totals, throughput — mergeable across
shards and workers, landing in the run manifest and the CLI's closing
summary line.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import ClassVar

from repro.api.types import Prediction
from repro.bulk.errors import BulkError
from repro.languages import LANGUAGES

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

#: Language codes in stable (sorted) column order.
_CODES = tuple(sorted(language.value for language in LANGUAGES))


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


class TsvSink(RowSink):
    """``classify``-compatible TSV: ``best <TAB> positives <TAB> url``.

    Deliberately provenance- and score-free: its contract is byte
    parity with the interactive path (provenance lives in the run
    manifest next to the output shards).
    """

    suffix = ".tsv"

    def format(self, prediction: Prediction) -> str:
        return prediction.tsv()


class JsonlSink(RowSink):
    """One JSON object per URL: decisions, scores, provenance.

    Scores are emitted with JSON ``repr`` round-tripping, so a reader
    recovers bit-identical floats to what the scoring matmul produced.
    """

    suffix = ".jsonl"

    def format(self, prediction: Prediction) -> str:
        row = {
            "url": prediction.url,
            "best": prediction.best.value if prediction.best else None,
            "positives": [
                language.value for language in prediction.positives
            ],
            "scores": {
                language.value: score
                for language, score in sorted(
                    prediction.scores.items(), key=lambda kv: kv[0].value
                )
            },
        }
        if self.provenance:
            row["model"] = self.provenance
        return json.dumps(row, separators=(",", ":"), sort_keys=False)


class CsvSink(RowSink):
    """Header + one CSV row per URL with per-language score columns."""

    suffix = ".csv"

    def header(self) -> str | None:
        columns = ["url", "best", "positives"]
        columns += [f"score_{code}" for code in _CODES]
        columns.append("model")
        return self._row(columns)

    def format(self, prediction: Prediction) -> str:
        scores = {
            language.value: score
            for language, score in prediction.scores.items()
        }
        cells = [
            prediction.url,
            prediction.best.value if prediction.best else "",
            ",".join(language.value for language in prediction.positives),
        ]
        cells += [repr(scores[code]) for code in _CODES]
        cells.append(self.provenance or "")
        return self._row(cells)

    @staticmethod
    def _row(cells: list[str]) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="").writerow(cells)
        return buffer.getvalue()


class SqliteSink(JsonlSink):
    """JSONL rows plus an engine-maintained SQLite result index.

    The **file contract is exactly** :class:`JsonlSink` — same suffix,
    same bytes, same shard sha256s — so the manifest resume/verify
    story is untouched and an interrupted sqlite run can even be
    resumed as ``jsonl`` (or vice versa, modulo the manifest's sink
    check).  What changes is engine-side: after every commit group's
    journal fsync the engine ingests the group's committed outputs
    into ``results.sqlite`` in the run directory, in one transaction
    (:func:`repro.query.ingest.ingest_shards`), and reconciles the
    database against the manifest at the end of the run
    (:func:`repro.query.ingest.index_run`).
    Workers never touch the database; ingestion is parent-only, so the
    scoring hot path pays nothing.
    """

    # Engine-side flag: maintain the result index for this run.
    indexes_results: ClassVar[bool] = True


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
