"""The served row kernel over a mapped artifact, and crawler handles."""

from __future__ import annotations

import pytest

from repro.api import Prediction, open_model
from repro.core.pipeline import LanguageIdentifier
from repro.languages import Language
from repro.store import save_identifier
from repro.store.serve import score_batch


@pytest.fixture(scope="module")
def model_path(small_train, tmp_path_factory):
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.4, seed=2)
    )
    path = tmp_path_factory.mktemp("serve") / "nb.urlmodel"
    save_identifier(identifier, path)
    return path, identifier


class TestScoring:
    def test_single_process_matches_identifier(self, model_path, small_bundle):
        path, identifier = model_path
        urls = small_bundle.odp_test.urls[:40]
        results = score_batch(open_model(path), urls)
        assert [result.url for result in results] == list(urls)
        best = identifier.classify_many(urls)
        for row, result in enumerate(results):
            expected = best[row].value if best[row] is not None else None
            assert result.best == expected

    def test_precomputed_scores_skip_the_rescore(self, model_path, small_bundle):
        """The daemon hands ``score_batch`` the scores it already computed
        for its drift counters; the rows must be the same ones a fresh
        score pass gives, without a second ``scores_many``."""
        path, _ = model_path
        served = open_model(path)
        urls = small_bundle.odp_test.urls[:60]
        scores = served.scores_many(urls)

        class NoRescore:
            def scores_many(self, urls):
                raise AssertionError("scores were passed in")

            def capabilities(self):
                return served.capabilities()

        assert score_batch(NoRescore(), urls, scores=scores) == score_batch(
            served, urls
        )

    def test_positives_are_the_binary_answers(self, model_path):
        path, identifier = model_path
        url = "http://www.recherche.fr/produits1.html"
        (result,) = score_batch(open_model(path), [url])
        expected = tuple(
            sorted(lang.value for lang in identifier.predict_languages(url))
        )
        assert result.positives == expected

    def test_empty_batch_answers_empty(self, model_path):
        path, _ = model_path
        assert score_batch(open_model(path), []) == []

    def test_tsv_row_uses_placeholders(self):
        assert Prediction("http://a.de/x", None, ()).tsv() == "-\t-\thttp://a.de/x"
        assert (
            Prediction(
                "http://a.de/x", Language.GERMAN,
                (Language.GERMAN, Language.ENGLISH),
            ).tsv()
            == "de\tde,en\thttp://a.de/x"
        )


class TestCrawlerHandles:
    def test_focused_crawl_accepts_artifact_path(self, model_path, small_bundle):
        from repro.crawler import focused_crawl
        from repro.linkgraph import build_link_graph

        path, identifier = model_path
        graph = build_link_graph(small_bundle.wc_test, seed=5)
        seeds = list(graph.nodes)[:3]
        from_path = focused_crawl(graph, seeds, "de", budget=20, identifier=path)
        from_fitted = focused_crawl(
            graph, seeds, "de", budget=20, identifier=identifier
        )
        assert from_path.crawl_order == from_fitted.crawl_order
        assert open_model(str(path)).name == open_model(identifier).name

    def test_focused_crawl_rejects_junk(self, small_bundle):
        from repro.crawler import focused_crawl
        from repro.linkgraph import build_link_graph

        graph = build_link_graph(small_bundle.wc_test, seed=5)
        with pytest.raises(TypeError, match="identifier"):
            focused_crawl(graph, list(graph.nodes)[:1], "de", budget=5,
                          identifier=12345)

    def test_store_handle_resolves(self, small_train, small_bundle, tmp_path):
        from repro.crawler import focused_crawl
        from repro.linkgraph import build_link_graph
        from repro.store import ModelStore

        identifier = LanguageIdentifier("words", "NB", seed=0).fit(
            small_train.subsample(0.3, seed=1)
        )
        handle = ModelStore(tmp_path / "store").save(identifier)
        assert open_model(handle).name == identifier.name
        graph = build_link_graph(small_bundle.wc_test, seed=5)
        seeds = list(graph.nodes)[:3]
        from_handle = focused_crawl(graph, seeds, "fr", budget=15,
                                    identifier=handle)
        from_fitted = focused_crawl(graph, seeds, "fr", budget=15,
                                    identifier=identifier)
        assert from_handle.crawl_order == from_fitted.crawl_order
