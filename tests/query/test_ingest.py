"""Ingestion semantics: idempotence, determinism, refusals."""

from __future__ import annotations

import json
import re
import sqlite3
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.languages import LANGUAGES
from repro.query import (
    QueryError,
    create_result_db,
    index_fingerprint,
    index_run,
    ingest_shard,
    open_index,
)
from repro.query.ingest import ingest_shards


#: Every language code a CSV shard carries a score column for.
CODES = sorted(language.value for language in LANGUAGES)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as stream:
        for row in rows:
            stream.write(json.dumps(row, separators=(",", ":")) + "\n")


def jsonl_row(url, best, score):
    scores = {best: score} if best else {}
    return {
        "url": url,
        "best": best,
        "positives": [best] if best else [],
        "scores": scores,
    }


class TestIngestShard:
    def test_rows_land_with_deterministic_ids(self, tmp_path):
        shard = tmp_path / "a.jsonl"
        write_jsonl(shard, [
            jsonl_row("http://x.de/1", "de", 2.5),
            jsonl_row("http://x.fr/2", "fr", 1.5),
            jsonl_row("http://x.unknown/3", None, None),
        ])
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            rows = ingest_shard(
                connection, ordinal=3, shard_id="a",
                output_path=shard, sha256="abc",
            )
            assert rows == 3
            stride = 1 << 32
            got = connection.execute(
                "SELECT id, url, best, score FROM results ORDER BY id"
            ).fetchall()
            assert got == [
                (3 * stride + 0, "http://x.de/1", "de", 2.5),
                (3 * stride + 1, "http://x.fr/2", "fr", 1.5),
                (3 * stride + 2, "http://x.unknown/3", None, None),
            ]
        finally:
            connection.close()

    def test_same_sha_is_a_noop_stale_sha_replaces(self, tmp_path):
        shard = tmp_path / "a.jsonl"
        write_jsonl(shard, [jsonl_row("http://x.de/1", "de", 2.5)])
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            assert ingest_shard(
                connection, ordinal=0, shard_id="a",
                output_path=shard, sha256="v1",
            ) == 1
            assert ingest_shard(
                connection, ordinal=0, shard_id="a",
                output_path=shard, sha256="v1",
            ) == 0  # idempotent
            write_jsonl(shard, [
                jsonl_row("http://x.de/1", "de", 2.5),
                jsonl_row("http://x.de/2", "de", 2.0),
            ])
            assert ingest_shard(
                connection, ordinal=0, shard_id="a",
                output_path=shard, sha256="v2",
            ) == 2  # stale recording replaced wholesale
            assert connection.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0] == 2
        finally:
            connection.close()

    def test_fingerprint_is_order_independent(self, tmp_path):
        shard_a = tmp_path / "a.jsonl"
        shard_b = tmp_path / "b.jsonl"
        write_jsonl(shard_a, [jsonl_row("http://x.de/1", "de", 2.5)])
        write_jsonl(shard_b, [jsonl_row("http://x.fr/2", "fr", 1.5)])
        first = create_result_db(tmp_path / "one.sqlite")
        second = create_result_db(tmp_path / "two.sqlite")
        try:
            # Same salt so only ingest order differs.
            salt = first.execute(
                "SELECT value FROM meta WHERE key='salt'"
            ).fetchone()[0]
            with second:
                second.execute(
                    "UPDATE meta SET value=? WHERE key='salt'", (salt,)
                )
            for connection, order in (
                (first, (("a", shard_a, 0), ("b", shard_b, 1))),
                (second, (("b", shard_b, 1), ("a", shard_a, 0))),
            ):
                for shard_id, path, ordinal in order:
                    ingest_shard(
                        connection, ordinal=ordinal, shard_id=shard_id,
                        output_path=path, sha256=f"sha-{shard_id}",
                    )
            assert index_fingerprint(first) == index_fingerprint(second)
        finally:
            first.close()
            second.close()

    def test_rebuilt_database_gets_a_new_fingerprint(self, tmp_path):
        """Same rows, different build → different fingerprint (the
        per-creation salt), so replayed cursors are refused."""
        shard = tmp_path / "a.jsonl"
        write_jsonl(shard, [jsonl_row("http://x.de/1", "de", 2.5)])
        prints = []
        for name in ("one.sqlite", "two.sqlite"):
            connection = create_result_db(tmp_path / name)
            ingest_shard(
                connection, ordinal=0, shard_id="a",
                output_path=shard, sha256="same",
            )
            prints.append(index_fingerprint(connection))
            connection.close()
        assert prints[0] != prints[1]

    @pytest.mark.parametrize("name, bad_line", [
        ("a.jsonl", "not json"),
        ("a.jsonl", '{"url": "http://x.de", "best": "de", "scores": [1.0]}'),
        ("a.jsonl", '{"url": "http://x.de", "best": ["de"]}'),
        ("a.jsonl", '{"url": "http://x.de", "positives": [1]}'),
        ("a.jsonl", '{"url": "http://x.de", "positives": "de"}'),
        ("a.jsonl", '{"url": "http://x.de", "scores": {"de": "high"}}'),
        ("a.jsonl", '{"url": "http://x.de", "scores": {"de": true}}'),
        ("a.jsonl", '{"url": 7}'),
        ("a.jsonl", '["http://x.de"]'),
        ("a.jsonl", '{"url": "http://x.de", "scores": {"xx": 1.0}}'),
        ("a.jsonl", '{"url": "http://x.de", "scores": {"de": NaN}}'),
        ("a.csv", "http://x.de,de,de," + ",".join(["abc"] * len(CODES))),
        ("a.csv", "http://x.de,de,de," + ",".join(["nan"] * len(CODES))),
    ])
    def test_malformed_jsonl_is_typed_with_location(
        self, tmp_path, name, bad_line
    ):
        shard = tmp_path / name
        if name.endswith(".csv"):
            header = ",".join(
                ["url", "best", "positives"]
                + [f"score_{code}" for code in CODES]
            )
            shard.write_text(f"{header}\n{bad_line}\n")
        else:
            shard.write_text(f'{{"url": "http://ok.de"}}\n{bad_line}\n')
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            with pytest.raises(QueryError, match=re.escape(f"{name}:2")):
                ingest_shard(
                    connection, ordinal=0, shard_id="a",
                    output_path=shard, sha256="x",
                )
            # The failed transaction left nothing half-ingested.
            assert connection.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0] == 0
        finally:
            connection.close()

    def test_a_csv_score_column_of_no_language_is_refused(self, tmp_path):
        shard = tmp_path / "a.csv"
        shard.write_text("url,best,positives,score_de,score_xx\n"
                         "http://x.de,de,de,1.0,2.0\n")
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            with pytest.raises(QueryError, match="a.csv:1 .*'score_xx'"):
                ingest_shard(
                    connection, ordinal=0, shard_id="a",
                    output_path=shard, sha256="x",
                )
        finally:
            connection.close()

    def test_an_integer_score_reads_back_as_a_float(self, tmp_path):
        shard = tmp_path / "a.jsonl"
        shard.write_text('{"url":"http://x.de/1","best":"de",'
                         '"positives":["de"],"scores":{"de":2,"en":-1}}\n')
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            ingest_shard(connection, ordinal=0, shard_id="a",
                         output_path=shard, sha256="x")
        finally:
            connection.close()
        with open_index(tmp_path / "r.sqlite") as index:
            (row,) = index.lookup("http://x.de/1")
        assert row["scores"] == {"de": 2.0, "en": -1.0}
        assert [type(value) for value in row["scores"].values()] == [
            float, float
        ]
        assert type(row["score"]) is float

    def test_ingest_memory_does_not_grow_with_the_shard(self, tmp_path):
        """Rows stream from the file into the table: ingesting a
        20 000-row shard holds no per-row Python state."""
        shard = tmp_path / "big.jsonl"
        write_jsonl(shard, (
            jsonl_row(f"http://x{number % 7}.de/page/{number}", "de",
                      1.0 + number / 7.0)
            for number in range(20_000)
        ))
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            tracemalloc.start()
            try:
                rows = ingest_shard(connection, ordinal=0, shard_id="big",
                                    output_path=shard, sha256="x")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            connection.close()
        assert rows == 20_000
        assert peak < 1 << 20

    def test_tsv_shards_are_refused_with_remedy(self, tmp_path):
        shard = tmp_path / "part-00000.tsv"
        shard.write_text("de\tde\thttp://x.de/1\n")
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            with pytest.raises(QueryError, match="--sink sqlite"):
                ingest_shard(
                    connection, ordinal=0, shard_id="a",
                    output_path=shard, sha256="x",
                )
        finally:
            connection.close()


def stored_fingerprint(connection):
    return connection.execute(
        "SELECT value FROM meta WHERE key='fingerprint'"
    ).fetchone()[0]


def numbered_shards(shard, count):
    """``count`` index entries that all read ``shard``'s rows."""
    return [
        (ordinal, f"s{ordinal:05d}", shard, f"sha-{ordinal}")
        for ordinal in range(count)
    ]


@pytest.fixture()
def small_shard(tmp_path):
    shard = tmp_path / "a.jsonl"
    write_jsonl(shard, [
        jsonl_row(f"http://x.de/{number}", "de", 1.0 + number)
        for number in range(3)
    ])
    return shard


class TestRunningFingerprint:
    def test_ingest_cost_does_not_grow_with_the_index(
        self, tmp_path, small_shard
    ):
        """Same statements at 100 and 2 000 shards, none of them a
        scan of ``shards`` or a bare scan of ``results``."""
        issued = {}
        for size in (100, 2000):
            connection = create_result_db(tmp_path / f"{size}.sqlite")
            try:
                ingest_shards(connection, numbered_shards(small_shard, size))
                statements = []
                connection.set_trace_callback(statements.append)
                try:
                    ingest_shard(
                        connection, ordinal=size, shard_id="new",
                        output_path=small_shard, sha256="sha-new",
                    )
                finally:
                    connection.set_trace_callback(None)
                # Lines starting with "--" are FTS5's own statements.
                issued[size] = [
                    statement for statement in statements
                    if not statement.startswith("--")
                ]
                for statement in issued[size]:
                    for *_, detail in connection.execute(
                        "EXPLAIN QUERY PLAN " + statement
                    ):
                        assert "SCAN shards" not in detail, statement
                        if "SCAN results" in detail and (
                            "results_fts" not in detail
                        ):
                            assert "INDEX" in detail, statement
                assert stored_fingerprint(connection) == (
                    index_fingerprint(connection)
                )
            finally:
                connection.close()
        assert len(issued[100]) == len(issued[2000])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(steps=st.lists(
        st.tuples(
            st.integers(0, 4),  # shard
            st.one_of(st.none(), st.integers(0, 2)),  # sha256, None: drop
            st.booleans(),  # the group ends after this step
        ),
        max_size=24,
    ))
    def test_running_sum_matches_the_reference(
        self, tmp_path_factory, steps
    ):
        """Any sequence of ingests, re-ingests under a new sha256 and
        drops, in any grouping, keeps the stored fingerprint equal to
        the from-scratch one."""
        directory = tmp_path_factory.mktemp("running-sum")
        shard = directory / "a.jsonl"
        write_jsonl(shard, [jsonl_row("http://x.de/1", "de", 2.5)])
        connection = create_result_db(directory / "r.sqlite")
        expected = {}

        def commit(group, drops):
            ingest_shards(connection, group, drop=drops)
            # A group's drops go first, then its ingests in order.
            for shard_id in drops:
                expected.pop(shard_id, None)
            for _, shard_id, _, sha256 in group:
                expected[shard_id] = sha256
            assert stored_fingerprint(connection) == (
                index_fingerprint(connection)
            )

        try:
            group, drops = [], []
            for shard_number, version, ends_group in steps:
                shard_id = f"s{shard_number}"
                if version is None:
                    drops.append(shard_id)
                else:
                    group.append(
                        (shard_number, shard_id, shard, f"v{version}")
                    )
                if ends_group:
                    commit(group, drops)
                    group, drops = [], []
            commit(group, drops)
            assert dict(connection.execute(
                "SELECT shard_id, sha256 FROM shards"
            )) == expected
        finally:
            connection.close()

    def test_an_index_written_before_the_sum_gets_it_once(
        self, tmp_path, small_shard
    ):
        """An older index keeps no running sum: its first ingest
        computes it from the ``shards`` table, once, inside that
        ingest's transaction — it must not start from zero."""
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            ingest_shards(connection, numbered_shards(small_shard, 3))
            with connection:
                connection.execute(
                    "DELETE FROM meta WHERE key='fingerprint_sum'"
                )
                connection.execute(
                    "UPDATE meta SET value='0123456789ab' "
                    "WHERE key='fingerprint'"
                )
            statements = []
            connection.set_trace_callback(statements.append)
            try:
                for ordinal in (3, 4):
                    ingest_shard(
                        connection, ordinal=ordinal, shard_id=f"s{ordinal}",
                        output_path=small_shard, sha256=f"sha-{ordinal}",
                    )
            finally:
                connection.set_trace_callback(None)
            scans = [
                number for number, statement in enumerate(statements)
                if statement == "SELECT shard_id, sha256 FROM shards"
            ]
            assert len(scans) == 1
            first_commit = statements.index("COMMIT")
            assert statements.index("BEGIN IMMEDIATE") < scans[0]
            assert scans[0] < first_commit
            assert stored_fingerprint(connection) == (
                index_fingerprint(connection)
            )
        finally:
            connection.close()


class TestIndexRun:
    def test_reconcile_matches_run_and_is_idempotent(self, sqlite_run):
        run_dir, report = sqlite_run
        # The engine already ingested everything; reconcile is a no-op.
        again = index_run(run_dir)
        assert again.shards_ingested == 0
        assert again.shards_skipped == report.shards_total
        assert again.rows == report.rows_total

    def test_reconcile_heals_a_ripped_out_shard(self, sqlite_run):
        run_dir, report = sqlite_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        victim = manifest["order"][0]
        db = run_dir / "results.sqlite"
        connection = sqlite3.connect(db)
        with connection:
            connection.execute(
                "DELETE FROM results WHERE shard_id = ?", (victim,)
            )
            connection.execute(
                "DELETE FROM shards WHERE shard_id = ?", (victim,)
            )
        connection.close()
        healed = index_run(run_dir)
        assert healed.shards_ingested == 1
        assert healed.rows == report.rows_total

    def test_rebuild_changes_fingerprint_same_rows(self, sqlite_run):
        run_dir, report = sqlite_run
        with open_index(run_dir) as index:
            before = index.fingerprint
        rebuilt = index_run(run_dir, rebuild=True)
        assert rebuilt.rows == report.rows_total
        assert rebuilt.fingerprint != before

    def test_missing_manifest_is_typed(self, tmp_path):
        with pytest.raises(QueryError, match="nothing to index"):
            index_run(tmp_path)

    def test_model_meta_recorded(self, sqlite_run):
        run_dir, _ = sqlite_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        with open_index(run_dir) as index:
            assert index.model["checksum"] == manifest["model"]["checksum"]
