"""The query surface over a six-figure-row index.

The acceptance bar of this suite is the plan, not just the rows: every
row-returning and aggregating statement must be answered from an index
range scan — asserted with ``EXPLAIN QUERY PLAN`` against the *actual*
SQL the methods execute (captured via the connection trace hook), so
the assertion cannot drift from the implementation.
"""

from __future__ import annotations

import json
import math
import re
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (
    MAX_PAGE_LIMIT,
    QueryError,
    create_result_db,
    insert_rows,
    open_index,
)
from repro.query.results import MAX_BINS
from repro.query.schema import SCORE_CODES
from repro.store.client import DaemonClient
from repro.store.daemon import start_daemon, stop_daemon

ROWS_TOTAL = 100_000
ROWS_PER_LANGUAGE = 20_000
CODES = ("de", "en", "es", "fr", "it")


@pytest.fixture()
def index(big_db):
    with open_index(big_db) as opened:
        yield opened


def traced_statements(index, operation):
    """Run ``operation`` and return every statement it executed."""
    statements = []
    index.connection.set_trace_callback(statements.append)
    try:
        operation()
    finally:
        index.connection.set_trace_callback(None)
    return statements


def traced_plans(index, operation):
    """Run ``operation`` and return the query plans of every statement
    it executed against the ``results`` table."""
    plans = []
    for statement in traced_statements(index, operation):
        if "FROM results" not in statement:
            continue
        details = [
            row[-1]
            for row in index.connection.execute(
                "EXPLAIN QUERY PLAN " + statement
            )
        ]
        plans.append((statement, details))
    return plans


def assert_no_table_scan(plans):
    """A bare ``SCAN results`` (no index at all) is the failure mode;
    covering-index scans are how aggregates are supposed to look."""
    assert plans, "operation executed no statements over results"
    for statement, details in plans:
        for detail in details:
            if "SCAN results" in detail and "results_fts" not in detail:
                assert "INDEX" in detail, (
                    f"full table scan in {statement!r}: {details}"
                )


class TestQueryPlans:
    def test_per_language_page_is_a_covering_range_scan(self, index):
        plans = traced_plans(index, lambda: index.page("de", limit=10))
        assert_no_table_scan(plans)
        assert any(
            "INDEX idx_results_lang_score" in detail
            for _, details in plans for detail in details
        ), plans

    def test_cursored_page_stays_on_the_index(self, index):
        first = index.page("de", limit=10)
        plans = traced_plans(
            index, lambda: index.page("de", limit=10, cursor=first.next_cursor)
        )
        assert_no_table_scan(plans)
        assert any(
            "idx_results_lang_score" in detail
            for _, details in plans for detail in details
        ), plans

    def test_global_page_uses_the_score_index(self, index):
        plans = traced_plans(index, lambda: index.page(limit=10))
        assert_no_table_scan(plans)
        assert any(
            "INDEX idx_results_score" in detail
            for _, details in plans for detail in details
        ), plans

    def test_counts_never_touch_the_table(self, index):
        """Counts and totals read the kept ``label_counts``: no
        statement names ``results`` at all."""
        statements = traced_statements(
            index,
            lambda: (index.counts(), index.counts("de"), index.status()),
        )
        assert statements
        assert not [
            statement for statement in statements
            if re.search(r"\bresults\b", statement)
        ], statements

    def test_lookups_ride_the_url_index(self, index):
        plans = traced_plans(
            index,
            lambda: (
                index.lookup("http://host0.example-de.test/s0/page0.html"),
                index.lookup("http://host17.", prefix=True, limit=20),
            ),
        )
        assert_no_table_scan(plans)
        assert all(
            any("idx_results_url" in detail for detail in details)
            for _, details in plans
        ), plans

    def test_histogram_scans_only_the_language_slice(self, index):
        plans = traced_plans(index, lambda: index.histogram("de", bins=10))
        assert_no_table_scan(plans)

    @pytest.mark.parametrize("language, covering", [
        ("de", "idx_results_lang_score"), (None, "idx_results_score"),
    ])
    def test_histogram_is_two_probes_and_a_range_count_per_bin(
        self, index, language, covering
    ):
        """Min and max are one index probe each, and every bin one
        covering-index range: no scan, no ``GROUP BY`` sort."""
        bins = 10
        plans = traced_plans(
            index, lambda: index.histogram(language, bins=bins)
        )
        assert 0 < len(plans) <= bins + 2
        searches = [
            detail for _, details in plans for detail in details
            if "results" in detail
        ]
        assert len(searches) == 2 + bins, plans
        assert all(
            detail.startswith(f"SEARCH results USING COVERING INDEX {covering}")
            for detail in searches
        ), plans
        assert not any(
            "TEMP B-TREE" in detail
            for _, details in plans for detail in details
        ), plans

    def test_search_is_one_statement_however_many_rows_match(self, index):
        issued = {
            limit: len(traced_plans(
                index, lambda: index.search("de", limit=limit)
            ))
            for limit in (1, 200)
        }
        assert issued == {1: 1, 200: 1}


class TestPagination:
    def test_full_walk_is_exhaustive_and_duplicate_free(self, index):
        seen = []
        cursor = None
        pages = 0
        while True:
            page = index.page("de", limit=1000, cursor=cursor)
            seen.extend(row["id"] for row in page.rows)
            pages += 1
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert len(seen) == ROWS_PER_LANGUAGE
        assert len(set(seen)) == ROWS_PER_LANGUAGE
        assert pages == ROWS_PER_LANGUAGE // 1000

    def test_pages_are_score_then_id_ordered(self, index):
        page = index.page("en", limit=500)
        keys = [(row["score"], row["id"]) for row in page.rows]
        assert keys == sorted(keys, reverse=True)

    def test_adjacent_pages_are_disjoint_and_contiguous(self, index):
        first = index.page(limit=100)
        second = index.page(limit=100, cursor=first.next_cursor)
        both = index.page(limit=200)
        assert [row["id"] for row in first.rows + second.rows] == [
            row["id"] for row in both.rows
        ]

    def test_limit_clamped_to_the_ceiling(self, index):
        page = index.page(limit=999_999)
        assert len(page.rows) == MAX_PAGE_LIMIT

    def test_final_page_has_no_cursor(self, index):
        # A slice smaller than one page: a single host's de rows.
        page = index.page("de", limit=MAX_PAGE_LIMIT)
        assert page.next_cursor is not None  # 20k rows > one page
        rows = index.lookup("http://host0.example-de.test/s0/", prefix=True)
        assert rows and all(
            row["url"].startswith("http://host0.example-de.test/s0/")
            for row in rows
        )

    def test_und_rows_cannot_be_score_listed(self, index):
        with pytest.raises(QueryError, match="carry no score"):
            index.page("und")
        with pytest.raises(QueryError, match="carry no score"):
            index.histogram("und")


class TestAggregates:
    def test_counts_split_evenly(self, index):
        assert index.counts() == {code: ROWS_PER_LANGUAGE for code in CODES}
        assert index.counts("fr") == {"fr": ROWS_PER_LANGUAGE}
        assert index.counts("und") == {"und": 0}

    def test_status_totals(self, index):
        status = index.status()
        assert status["rows"] == ROWS_TOTAL
        assert status["shards"] == 4
        assert status["fingerprint"] == index.fingerprint

    def test_histogram_bins_cover_every_scored_row(self, index):
        histogram = index.histogram(bins=8)
        assert histogram["rows"] == ROWS_TOTAL
        assert sum(bucket["count"] for bucket in histogram["bins"]) == ROWS_TOTAL
        assert histogram["lo"] == pytest.approx(1.0)
        assert histogram["hi"] == pytest.approx(1.0 + 9972 / 1000.0)
        assert len(histogram["bins"]) == 8

    def test_histogram_of_absent_language_is_empty(self, index):
        assert index.histogram("zz") == {
            "lo": None, "hi": None, "bins": [], "rows": 0,
        }

    def test_histogram_refuses_silly_bins(self, index):
        with pytest.raises(QueryError, match="bins"):
            index.histogram(bins=0)
        with pytest.raises(QueryError, match="bins"):
            index.histogram(bins=MAX_BINS + 1)


class TestLookupAndSearch:
    def test_point_lookup_is_exact(self, index):
        url = "http://host3.example-fr.test/s2/page3.html"
        rows = index.lookup(url)
        assert [row["url"] for row in rows] == [url]
        assert rows[0]["best"] == "fr"

    def test_prefix_lookup_is_ordered_and_capped(self, index):
        rows = index.lookup("http://host42.", prefix=True, limit=25)
        assert len(rows) == 25
        urls = [row["url"] for row in rows]
        assert urls == sorted(urls)
        assert all(url.startswith("http://host42.") for url in urls)

    def test_search_finds_the_token_in_every_shard(self, index):
        page = index.search("page1234")
        assert len(page.rows) == 4  # once per synthetic shard
        assert all("page1234.html" in row["url"] for row in page.rows)

    def test_search_pagination_is_disjoint(self, index):
        first = index.search("de", limit=50)
        assert first.next_cursor is not None
        second = index.search("de", limit=50, cursor=first.next_cursor)
        first_ids = {row["id"] for row in first.rows}
        assert first_ids.isdisjoint(row["id"] for row in second.rows)

    def test_malformed_match_syntax_is_typed(self, index):
        with pytest.raises(QueryError, match="unusable search query"):
            index.search('"unbalanced')


def reference_histogram(connection, language, bins):
    """The histogram as one ``GROUP BY`` over the slice: the definition
    the per-bin range counts must reproduce, bin for bin."""
    where, params = (
        ("score IS NOT NULL", ()) if language is None
        else ("best = ? AND score IS NOT NULL", (language,))
    )
    lo, hi = connection.execute(
        f"SELECT MIN(score), MAX(score) FROM results WHERE {where}", params
    ).fetchone()
    if lo is None:
        return {"lo": None, "hi": None, "bins": [], "rows": 0}
    width = (hi - lo) / bins or 1.0
    counts = [0] * bins
    for bucket, count in connection.execute(
        "SELECT CAST((score - ?) / ? AS INTEGER) AS bucket, COUNT(*) "
        f"FROM results WHERE {where} GROUP BY bucket",
        (lo, width, *params),
    ):
        counts[min(max(int(bucket), 0), bins - 1)] += count
    return {
        "lo": lo,
        "hi": hi,
        "rows": sum(counts),
        "bins": [
            {"lo": lo + index * width, "hi": lo + (index + 1) * width,
             "count": count}
            for index, count in enumerate(counts)
        ],
    }


def write_index(path, scores, labels):
    """An index of one shard: row ``n`` is ``labels[n]`` scored
    ``scores[n]``."""
    rows = (
        (f"http://x.test/{number}", label, score, label,
         *(score if code == label else None for code in SCORE_CODES))
        for number, (score, label) in enumerate(zip(scores, labels))
    )
    connection = create_result_db(path)
    try:
        with connection:
            insert_rows(connection, 0, "shard", rows)
    finally:
        connection.close()


#: Any finite double whose span with another one still fits a double:
#: huge and subnormal magnitudes, zeros of both signs.
ANY_MAGNITUDE = st.floats(min_value=-8e307, max_value=8e307)


@st.composite
def scores_on_bin_edges(draw):
    """``(scores, bins)``: ``lo``, ``hi`` and scores placed exactly on
    the edges ``lo + k * width`` the definition computes."""
    lo = draw(st.floats(-1e6, 1e6))
    hi = lo + draw(st.floats(1e-9, 1e6))
    bins = draw(st.integers(1, 12))
    width = (hi - lo) / bins or 1.0
    ties = draw(st.lists(st.integers(0, bins - 1), min_size=1, max_size=30))
    return [lo, hi, *(lo + k * width for k in ties)], bins


SCORE_SETS = st.one_of(
    st.tuples(st.lists(st.floats(-50, 50), min_size=1, max_size=40),
              st.integers(1, 25)),
    scores_on_bin_edges(),
    st.tuples(st.lists(ANY_MAGNITUDE, min_size=1, max_size=40),
              st.integers(1, 25)),
    st.tuples(ANY_MAGNITUDE, st.integers(1, 8), st.integers(1, 25)).map(
        lambda case: ([case[0]] * case[1], case[2])
    ),
)


class TestHistogramDefinition:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=SCORE_SETS, whole_index=st.booleans())
    def test_bins_equal_the_group_by_definition(
        self, tmp_path_factory, case, whole_index
    ):
        """Random score sets, ties on bin edges, one distinct score,
        and huge and tiny magnitudes: the range counts put every row in
        the bin the ``GROUP BY`` definition does."""
        scores, bins = case
        labels = ["en" if number % 3 == 2 else "de"
                  for number in range(len(scores))]
        path = tmp_path_factory.mktemp("histogram") / "r.sqlite"
        write_index(path, scores, labels)
        language = None if whole_index else "de"
        with open_index(path) as index:
            assert index.histogram(language, bins=bins) == (
                reference_histogram(index.connection, language, bins)
            )


    def test_a_span_wider_than_a_double_still_counts_every_row(
        self, tmp_path
    ):
        """``hi - lo`` overflows: the width is taken as ``hi / bins -
        lo / bins`` instead, and every row still lands in a bin."""
        write_index(tmp_path / "r.sqlite", [-1.7e308, 0.0, 1.7e308],
                    ["de"] * 3)
        with open_index(tmp_path / "r.sqlite") as index:
            histogram = index.histogram("de", bins=2)
        assert histogram["rows"] == 3
        assert [bucket["count"] for bucket in histogram["bins"]] == [1, 2]


class TestInfiniteScores:
    """Ingest accepts ``Infinity``: the bins span the finite scores, an
    infinite score counts in the first (``-inf``) or last (``+inf``)
    bin, and ``rows`` equals ``counts(language)``."""

    def test_plus_infinity_counts_in_the_last_bin(self, tmp_path):
        write_index(tmp_path / "r.sqlite", [1.0, math.inf, 2.0], ["de"] * 3)
        with open_index(tmp_path / "r.sqlite") as index:
            histogram = index.histogram("de", bins=4)
            assert histogram["rows"] == index.counts("de")["de"] == 3
        assert (histogram["lo"], histogram["hi"]) == (1.0, 2.0)
        assert [bucket["count"] for bucket in histogram["bins"]] == [
            1, 0, 0, 2,
        ]

    def test_minus_infinity_counts_in_the_first_bin(self, tmp_path):
        write_index(tmp_path / "r.sqlite", [-math.inf, 1.0, 2.0, 3.0],
                    ["de"] * 4)
        with open_index(tmp_path / "r.sqlite") as index:
            histogram = index.histogram(bins=2)
        assert (histogram["lo"], histogram["hi"], histogram["rows"]) == (
            1.0, 3.0, 4,
        )
        assert [bucket["count"] for bucket in histogram["bins"]] == [2, 2]

    def test_no_finite_score_has_no_span(self, tmp_path):
        write_index(tmp_path / "r.sqlite", [math.inf, -math.inf, math.inf],
                    ["de"] * 3)
        with open_index(tmp_path / "r.sqlite") as index:
            histogram = index.histogram("de", bins=3)
        assert histogram == {
            "lo": None,
            "hi": None,
            "rows": 3,
            "bins": [
                {"lo": None, "hi": None, "count": count}
                for count in (1, 0, 2)
            ],
        }

    def test_the_http_route_answers_the_same(
        self, tmp_path, query_model, sockpath
    ):
        path = tmp_path / "r.sqlite"
        write_index(path, [1.0, math.inf, 2.0], ["de"] * 3)
        with open_index(path) as index:
            expected = index.histogram("de", bins=4)
        socket_path = sockpath("hist.sock")
        start_daemon(query_model[0], socket_path, workers=1, http_port=0,
                     query_db=path)
        try:
            with DaemonClient(socket_path) as client:
                port = client.status()["http_port"]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/query/hist?language=de&bins=4"
            ) as response:
                body = json.loads(response.read())
        finally:
            stop_daemon(socket_path)
        assert body["ok"]
        assert {key: body[key] for key in expected} == expected
