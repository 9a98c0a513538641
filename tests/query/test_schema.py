"""Result-database lifecycle: create, reopen, refuse foreign files."""

from __future__ import annotations

import sqlite3

import pytest

from repro.query import (
    RESULT_DB_NAME,
    SCHEMA_VERSION,
    IndexCorruptError,
    IndexMissingError,
    IndexVersionError,
    create_result_db,
    open_index,
    open_result_db,
    resolve_db_path,
)
from tests.query.conftest import fill_index


class TestCreate:
    def test_fresh_database_carries_schema_and_salt(self, tmp_path):
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            meta = dict(connection.execute("SELECT key, value FROM meta"))
            assert meta["schema_version"] == str(SCHEMA_VERSION)
            assert len(meta["salt"]) == 16  # 8 random bytes, hex
            tables = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            assert {"meta", "shards", "results", "results_fts"} <= tables
        finally:
            connection.close()

    def test_create_is_idempotent_and_keeps_the_salt(self, tmp_path):
        path = tmp_path / "r.sqlite"
        first = create_result_db(path)
        salt = first.execute(
            "SELECT value FROM meta WHERE key='salt'"
        ).fetchone()[0]
        first.close()
        second = create_result_db(path)
        try:
            assert second.execute(
                "SELECT value FROM meta WHERE key='salt'"
            ).fetchone()[0] == salt
        finally:
            second.close()

    def test_version_skew_refused(self, tmp_path):
        path = tmp_path / "r.sqlite"
        connection = create_result_db(path)
        with connection:
            connection.execute(
                "UPDATE meta SET value='999' WHERE key='schema_version'"
            )
        connection.close()
        with pytest.raises(IndexVersionError, match="999"):
            create_result_db(path)
        with pytest.raises(IndexVersionError):
            open_result_db(path)

    def test_wal_mode(self, tmp_path):
        connection = create_result_db(tmp_path / "r.sqlite")
        try:
            assert connection.execute(
                "PRAGMA journal_mode"
            ).fetchone()[0] == "wal"
        finally:
            connection.close()


class TestOpen:
    def test_missing_database_is_typed(self, tmp_path):
        with pytest.raises(IndexMissingError, match="no result index"):
            open_result_db(tmp_path / "absent.sqlite")

    def test_directory_spec_resolves_conventional_name(self, tmp_path):
        assert resolve_db_path(tmp_path) == tmp_path / RESULT_DB_NAME
        connection = create_result_db(tmp_path / RESULT_DB_NAME)
        connection.close()
        reopened = open_result_db(tmp_path)
        try:
            assert reopened.execute("SELECT 1").fetchone() == (1,)
        finally:
            reopened.close()

    def test_foreign_file_is_typed_corrupt(self, tmp_path):
        path = tmp_path / "not-an-index.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\n" * 10)
        with pytest.raises(IndexCorruptError):
            open_result_db(path)

    def test_sqlite_but_not_ours_is_typed(self, tmp_path):
        path = tmp_path / "other.sqlite"
        foreign = sqlite3.connect(path)
        foreign.execute("CREATE TABLE unrelated (x)")
        foreign.commit()
        foreign.close()
        with pytest.raises(IndexCorruptError):
            open_result_db(path)

    def test_readonly_connection_refuses_writes(self, tmp_path):
        path = tmp_path / "r.sqlite"
        create_result_db(path).close()
        connection = open_result_db(path, readonly=True)
        try:
            with pytest.raises(sqlite3.OperationalError):
                connection.execute("INSERT INTO meta VALUES ('x', 'y')")
        finally:
            connection.close()


class TestJournalMode:
    """Only a writer sets the journal mode; a reader takes the file as
    it is."""

    @pytest.fixture
    def index_path(self, tmp_path):
        path = tmp_path / RESULT_DB_NAME
        fill_index(create_result_db(path), shards=2, rows_per_shard=10).close()
        return path

    def test_an_index_in_rollback_journal_mode_answers_read_only(
        self, index_path
    ):
        connection = sqlite3.connect(index_path)
        assert connection.execute(
            "PRAGMA journal_mode=DELETE"
        ).fetchone()[0] == "delete"
        connection.close()
        index = open_index(index_path)
        try:
            assert index.status()["rows"] == 20
            assert index.counts() == {
                "de": 4, "en": 4, "es": 4, "fr": 4, "it": 4,
            }
        finally:
            index.close()
        check = sqlite3.connect(index_path)
        try:
            assert check.execute(
                "PRAGMA journal_mode"
            ).fetchone()[0] == "delete"
        finally:
            check.close()

    def test_a_wal_index_opens_while_a_writer_holds_it(self, index_path):
        writer = create_result_db(index_path)
        try:
            writer.execute("BEGIN IMMEDIATE")
            writer.execute("DELETE FROM results WHERE shard_id = ?",
                           ("synthetic-01",))
            index = open_index(index_path)
            try:
                assert index.status()["rows"] == 20  # the last commit
            finally:
                index.close()
            writer.rollback()
        finally:
            writer.close()
