"""Tests for the end-to-end LanguageIdentifier pipeline."""

import numpy as np
import pytest

from repro.api import BatchResult, ModelInfo
from repro.core.pipeline import (
    BASELINE_ALGORITHMS,
    FEATURE_SETS,
    LanguageIdentifier,
    best_labels,
    make_extractor,
)
from repro.features.ngrams import TrigramFeatureExtractor
from repro.languages import LANGUAGES, Language


class TestMakeExtractor:
    def test_known_feature_sets(self):
        for name in FEATURE_SETS:
            assert make_extractor(name) is not None

    def test_kwargs_forwarded(self):
        extractor = make_extractor("trigrams", mode="raw")
        assert isinstance(extractor, TrigramFeatureExtractor)
        assert extractor.mode == "raw"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown feature set"):
            make_extractor("bigrams")


@pytest.fixture(scope="module")
def nb_identifier(small_train):
    return LanguageIdentifier("words", "NB", seed=0).fit(small_train)


class TestLanguageIdentifier:
    def test_name(self):
        assert LanguageIdentifier("words", "NB").name == "NB/words"
        assert LanguageIdentifier(algorithm="ccTLD+").name == "ccTLD+"

    def test_five_binary_classifiers(self, nb_identifier):
        assert set(nb_identifier.classifiers) == set(LANGUAGES)

    def test_predict_languages_obvious_urls(self, nb_identifier):
        german = nb_identifier.predict_languages(
            "http://www.blumen.de/garten/strasse.html"
        )
        assert Language.GERMAN in german

    def test_decisions_align_with_predict(self, nb_identifier, small_bundle):
        urls = small_bundle.odp_test.urls[:20]
        decisions = nb_identifier.decisions(urls)
        for position, url in enumerate(urls):
            expected = nb_identifier.predict_languages(url)
            for language in LANGUAGES:
                assert decisions[language][position] == (language in expected)

    def test_scores_sign_consistency(self, nb_identifier):
        url = "http://www.blumen.de/garten.html"
        scores = nb_identifier.scores(url)
        predicted = nb_identifier.predict_languages(url)
        for language, score in scores.items():
            assert (score > 0) == (language in predicted)

    def test_classify_returns_best_or_none(self, nb_identifier):
        best = nb_identifier.classify("http://www.blumen.de/garten/haus.html")
        assert best is Language.GERMAN

    def test_evaluate_returns_all_languages(self, nb_identifier, small_bundle):
        metrics = nb_identifier.evaluate(small_bundle.odp_test)
        assert set(metrics) == set(LANGUAGES)
        for m in metrics.values():
            assert 0.0 <= m.f_measure <= 1.0

    def test_confusion_diagonal_is_recall(self, nb_identifier, small_bundle):
        test = small_bundle.odp_test
        matrix = nb_identifier.confusion(test)
        metrics = nb_identifier.evaluate(test)
        for language in LANGUAGES:
            assert matrix.recall(language) == pytest.approx(
                metrics[language].recall, abs=1e-9
            )

    def test_unfitted_raises(self):
        identifier = LanguageIdentifier("words", "NB")
        with pytest.raises(RuntimeError, match="before fit"):
            identifier.decisions(["http://a.de/"])

    def test_baselines_need_no_fit(self):
        for name in BASELINE_ALGORITHMS:
            identifier = LanguageIdentifier(algorithm=name)
            assert identifier.is_baseline
            languages = identifier.predict_languages("http://www.spiegel.de/")
            assert languages == {Language.GERMAN}

    def test_baseline_scores(self):
        identifier = LanguageIdentifier(algorithm="ccTLD")
        scores = identifier.scores("http://www.spiegel.de/")
        assert scores[Language.GERMAN] == 1.0
        assert scores[Language.FRENCH] == -1.0

    def test_content_training_requires_support(self, small_train):
        identifier = LanguageIdentifier("custom", "NB")
        contents = ["text"] * len(small_train)
        with pytest.raises(ValueError, match="content"):
            identifier.fit(small_train, contents=contents)

    def test_content_length_mismatch(self, small_train):
        identifier = LanguageIdentifier("words", "NB")
        with pytest.raises(ValueError, match="align"):
            identifier.fit(small_train, contents=["x"])

    @pytest.mark.parametrize("algorithm", ["NB", "RE", "ME", "DT", "kNN"])
    def test_all_algorithms_fit_and_predict(self, algorithm, small_train):
        feature_set = "custom" if algorithm == "DT" else "words"
        sub = small_train.subsample(0.4, seed=0)
        identifier = LanguageIdentifier(feature_set, algorithm, seed=0).fit(sub)
        result = identifier.predict_languages("http://www.blumen.de/garten")
        assert isinstance(result, set)

    def test_multiple_languages_possible(self, nb_identifier, small_bundle):
        """Section 4.2: a URL may be classified as several languages."""
        counts = [
            len(nb_identifier.predict_languages(url))
            for url in small_bundle.odp_test.urls[:300]
        ]
        assert any(c > 1 for c in counts) or any(c == 0 for c in counts)


class TestBestLabels:
    """The one best-label rule: first maximum in the model's language
    order, ``None`` when that maximum is not positive."""

    def test_first_maximum_wins_ties(self):
        en, de, fr, es, it = LANGUAGES
        scores = {
            en: [1.0, 0.5, 0.2],
            de: [1.0, 2.0, 0.2],
            fr: [0.3, 2.0, 0.2],
            es: [0.0, 0.0, 0.1],
            it: [-1.0, 0.0, 0.2],
        }
        assert best_labels(scores) == [en, de, en]

    def test_ties_follow_the_mapping_order(self):
        scores = {language: [1.0] for language in reversed(LANGUAGES)}
        assert best_labels(scores) == [LANGUAGES[-1]]

    def test_non_positive_maximum_is_none(self):
        scores = {language: [0.0, -2.0] for language in LANGUAGES}
        scores[Language.GERMAN] = [0.0, -0.5]
        assert best_labels(scores) == [None, None]

    def test_empty_batch(self):
        assert best_labels({language: [] for language in LANGUAGES}) == []

    def test_classify_paths_share_it(self, nb_identifier, small_bundle):
        urls = small_bundle.odp_test.urls[:50]
        expected = best_labels(nb_identifier.scores_many(urls))
        assert nb_identifier.classify_many(urls) == expected
        assert list(nb_identifier.predict(urls).best) == expected
        assert [nb_identifier.classify(url) for url in urls] == expected

    def test_batch_result_derives_everything_from_scores(self):
        en, de, fr, es, it = LANGUAGES
        scores = {en: [0.5, -1.0], de: [0.5, 0.0], fr: [0.1, -3.0],
                  es: [-0.2, -1.0], it: [0.0, -0.1]}
        model = ModelInfo(name="m", backend="remote", languages=LANGUAGES)
        matrix = np.array(list(scores.values())).T
        result = BatchResult(("u1", "u2"), matrix, model)
        assert result.urls == ("u1", "u2") and result.model is model
        assert result.scores == scores
        assert result.best == (en, None)
        assert result.decisions == {
            en: [True, False], de: [True, False], fr: [True, False],
            es: [False, False], it: [False, False],
        }
        assert result[0].positives == (de, en, fr)
