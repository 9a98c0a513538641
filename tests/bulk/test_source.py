"""Shard discovery and streaming readers."""

from __future__ import annotations

import csv
import gzip
import json

import pytest

import repro.bulk as bulk
from repro.bulk import BulkError, discover_shards, read_urls
from repro.bulk.source import STDIN_SPEC, detect_format


class TestDetectFormat:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("urls.txt", ("text", False)),
            ("urls", ("text", False)),
            ("urls.txt.gz", ("text", True)),
            ("rows.jsonl", ("jsonl", False)),
            ("rows.ndjson.gz", ("jsonl", True)),
            ("table.csv", ("csv", False)),
            ("table.csv.gz", ("csv", True)),
        ],
    )
    def test_suffix_sniffing(self, name, expected):
        assert detect_format(name) == expected


class TestDiscover:
    def test_directory_is_sorted_deterministically(self, tmp_path):
        for name in ("b.txt", "a.txt", "c.txt.gz"):
            (tmp_path / name).write_text("http://x.de\n")
        (tmp_path / ".hidden").write_text("ignored")
        shards = discover_shards(tmp_path)
        assert [shard.shard_id for shard in shards] == [
            "a.txt", "b.txt", "c.txt.gz"
        ]
        assert shards[2].compressed

    def test_single_file(self, tmp_path):
        path = tmp_path / "urls.jsonl"
        path.write_text('{"url": "http://x.de"}\n')
        (shard,) = discover_shards(path)
        assert shard.format == "jsonl" and shard.shard_id == "urls.jsonl"

    def test_stdin_spec(self):
        (shard,) = discover_shards(STDIN_SPEC)
        assert shard.is_stdin and shard.format == "text"

    def test_missing_input_raises(self, tmp_path):
        with pytest.raises(BulkError, match="neither a file"):
            discover_shards(tmp_path / "nope")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(BulkError, match="no shard files"):
            discover_shards(tmp_path)


class TestReadUrls:
    def test_text_skips_blank_lines(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("http://a.de\n\n  \nhttp://b.fr\n")
        (shard,) = discover_shards(path)
        assert list(read_urls(shard)) == ["http://a.de", "http://b.fr"]

    def test_gzip_text_roundtrip(self, tmp_path):
        path = tmp_path / "u.txt.gz"
        with gzip.open(path, "wt") as out:
            out.write("http://a.de\nhttp://b.fr\n")
        (shard,) = discover_shards(path)
        assert list(read_urls(shard)) == ["http://a.de", "http://b.fr"]

    def test_jsonl_field(self, tmp_path):
        path = tmp_path / "u.jsonl"
        rows = [{"page": "http://a.de", "rank": 1}, {"page": "http://b.fr"}]
        path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        (shard,) = discover_shards(path)
        assert list(read_urls(shard, url_field="page")) == [
            "http://a.de", "http://b.fr"
        ]

    def test_jsonl_missing_field_raises(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_text('{"other": 1}\n')
        (shard,) = discover_shards(path)
        with pytest.raises(BulkError, match="no 'url' field"):
            list(read_urls(shard))

    @pytest.mark.parametrize(
        "payload", ['{"url": null}', '{"url": ["a", "b"]}', '{"url": 7}']
    )
    def test_jsonl_non_string_url_raises(self, tmp_path, payload):
        # Coercing with str() would silently score 'None' / a list repr.
        path = tmp_path / "u.jsonl"
        path.write_text(payload + "\n")
        (shard,) = discover_shards(path)
        with pytest.raises(BulkError, match="not a string"):
            list(read_urls(shard))

    def test_jsonl_invalid_json_names_row(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_text('{"url": "http://a.de"}\n{broken\n')
        (shard,) = discover_shards(path)
        with pytest.raises(BulkError, match="row 2: invalid JSON"):
            list(read_urls(shard))

    def test_csv_column_by_header(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("rank,url\n1,http://a.de\n2,http://b.fr\n")
        (shard,) = discover_shards(path)
        assert list(read_urls(shard)) == ["http://a.de", "http://b.fr"]

    @pytest.mark.parametrize("name", ["u.csv", "u.csv.gz"])
    def test_csv_keeps_a_carriage_return_inside_a_cell(self, tmp_path, name):
        path = tmp_path / name
        opener = gzip.open if name.endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8", newline="") as out:
            csv.writer(out).writerows([
                ["url"], ["http://x.de/a\rb"], ["http://x.de/c\r\nd"],
                ["http://x.fr/e"],
            ])
        (shard,) = discover_shards(path)
        assert list(read_urls(shard)) == [
            "http://x.de/a\rb", "http://x.de/c\r\nd", "http://x.fr/e",
        ]

    def test_jsonl_empty_url_raises(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_text('{"url": ""}\n')
        (shard,) = discover_shards(path)
        with pytest.raises(BulkError, match="is empty"):
            list(read_urls(shard))

    def test_csv_empty_url_cell_raises(self, tmp_path):
        # Silent drops would desync bulk row counts from classify's.
        path = tmp_path / "u.csv"
        path.write_text("rank,url\n1,http://a.de\n2,\n")
        (shard,) = discover_shards(path)
        with pytest.raises(BulkError, match="row 3.*empty"):
            list(read_urls(shard))

    def test_csv_missing_column_raises(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("a,b\n1,2\n")
        (shard,) = discover_shards(path)
        with pytest.raises(BulkError, match="no 'url' column"):
            list(read_urls(shard))


def test_a_jsonl_run_writes_a_csv_cell_as_it_was_written(
    bulk_model, tmp_path
):
    """The URL in each output row is the input cell, ``\\r`` and all."""
    model_path, _ = bulk_model
    urls = ["http://x.de/a\rb", "http://www.blumen.de/garten"]
    source = tmp_path / "in.csv"
    with open(source, "w", encoding="utf-8", newline="") as out:
        csv.writer(out).writerows([["url"], *([url] for url in urls)])
    report = bulk.run(
        model_path, source, tmp_path / "out", sink="jsonl", workers=1
    )
    (output,) = report.outputs
    with open(tmp_path / "out" / output, encoding="utf-8") as lines:
        rows = [json.loads(line) for line in lines]
    assert [row["url"] for row in rows] == urls
