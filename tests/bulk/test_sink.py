"""Row formats and the summary rollup."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.api.types import Prediction
from repro.bulk import BulkError, SummaryAccumulator, make_sink
from repro.languages import Language


@pytest.fixture()
def prediction():
    return Prediction(
        url="http://www.blumen.de/garten",
        best=Language.GERMAN,
        positives=(Language.GERMAN, Language.ENGLISH),
        scores={
            Language.GERMAN: 3.25,
            Language.ENGLISH: 0.5,
            Language.FRENCH: -1.0,
            Language.SPANISH: -2.0,
            Language.ITALIAN: -0.25,
        },
    )


class TestTsv:
    def test_rows_match_classify_exactly(self, prediction):
        sink = make_sink("tsv", provenance="NB/words@abc")
        assert sink.format(prediction) == prediction.tsv()
        assert sink.header() is None
        assert sink.suffix == ".tsv"


class TestJsonl:
    def test_row_carries_scores_and_provenance(self, prediction):
        sink = make_sink("jsonl", provenance="NB/words@abc123")
        row = json.loads(sink.format(prediction))
        assert row["url"] == prediction.url
        assert row["best"] == "de"
        assert row["positives"] == ["de", "en"]
        assert row["scores"]["de"] == 3.25  # bit-identical via JSON repr
        assert row["model"] == "NB/words@abc123"

    def test_no_best_serialises_null(self, prediction):
        sink = make_sink("jsonl")
        negative = Prediction(
            url=prediction.url, best=None, positives=(),
            scores=prediction.scores,
        )
        row = json.loads(sink.format(negative))
        assert row["best"] is None and row["positives"] == []
        assert "model" not in row


class TestCsv:
    def test_header_and_row_align(self, prediction):
        sink = make_sink("csv", provenance="NB/words@abc")
        header = next(csv.reader(io.StringIO(sink.header())))
        row = next(csv.reader(io.StringIO(sink.format(prediction))))
        assert header[:3] == ["url", "best", "positives"]
        assert header[-1] == "model"
        record = dict(zip(header, row))
        assert record["url"] == prediction.url
        assert record["best"] == "de"
        assert record["positives"] == "de,en"
        assert float(record["score_de"]) == 3.25
        assert record["model"] == "NB/words@abc"

    def test_a_line_break_in_a_cell_is_quoted(self, prediction):
        """A URL read from a JSONL or CSV source can hold a line break;
        its row must still read back as one CSV record."""
        for url in ("http://x.de/a\nb", "http://x.de/a\rb",
                    "http://x.de/a\r\nb"):
            broken = Prediction(url=url, best=prediction.best,
                                positives=prediction.positives,
                                scores=prediction.scores)
            row = make_sink("csv").format(broken)
            assert row.startswith(f'"{url}",')
            (record,) = csv.reader(io.StringIO(row, newline=""))
            assert record[0] == url


class TestRegistry:
    def test_unknown_sink_raises_typed(self):
        with pytest.raises(BulkError, match="unknown sink"):
            make_sink("parquet")


class TestSummary:
    def test_observe_and_merge(self, prediction):
        left = SummaryAccumulator()
        left.observe(prediction)
        negative = Prediction(
            url="http://x.com", best=None, positives=(), scores={}
        )
        right = SummaryAccumulator()
        right.observe(negative)
        right.observe(prediction)
        left.merge(right)
        snapshot = left.snapshot()
        assert snapshot["rows"] == 3
        assert snapshot["best"] == {"de": 2, "und": 1}
        assert snapshot["positives"] == {"de": 2, "en": 2}
        rebuilt = SummaryAccumulator.from_snapshot(snapshot)
        assert rebuilt.snapshot() == snapshot


class TestSqlite:
    def test_file_contract_is_exactly_jsonl(self, prediction):
        sqlite_sink = make_sink("sqlite", provenance="NB/words@abc")
        jsonl_sink = make_sink("jsonl", provenance="NB/words@abc")
        assert sqlite_sink.suffix == jsonl_sink.suffix == ".jsonl"
        assert sqlite_sink.header() == jsonl_sink.header()
        assert sqlite_sink.format(prediction) == jsonl_sink.format(prediction)

    def test_only_the_sqlite_sink_asks_for_indexing(self):
        assert make_sink("sqlite").indexes_results is True
        for name in ("tsv", "jsonl", "csv"):
            assert make_sink(name).indexes_results is False
