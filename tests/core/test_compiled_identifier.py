"""The compiled batch backend of :class:`LanguageIdentifier`.

Backend selection, transparent fallback, batch-vs-sparse equivalence on
real URL corpora for every linear algorithm × feature set combination,
pickling of compiled models, and the per-URL row memo's eviction.
"""

from __future__ import annotations

import pickle
import statistics
import time

import pytest

from repro.core import pipeline
from repro.core.pipeline import CompiledIdentifier, LanguageIdentifier
from repro.languages import LANGUAGES

#: Every (algorithm, feature set) pair with a compiled lowering; the
#: Markov chain is trigram-only by construction.
COMPILABLE = [
    ("NB", "words"),
    ("NB", "trigrams"),
    ("NB", "custom"),
    ("RE", "words"),
    ("RE", "trigrams"),
    ("RE", "custom"),
    ("RO", "words"),
    ("RO", "trigrams"),
    ("RO", "custom"),
    ("MM", "trigrams"),
    ("ME", "words"),
    ("ME", "trigrams"),
    ("ME", "custom"),
]


def _fitted(algorithm, feature_set, small_train, backend="auto"):
    identifier = LanguageIdentifier(
        feature_set=feature_set, algorithm=algorithm, seed=0, backend=backend
    )
    return identifier.fit(small_train.subsample(0.6, seed=3))


@pytest.mark.parametrize("algorithm,feature_set", COMPILABLE)
class TestCompiledBackend:
    def test_auto_backend_compiles(self, algorithm, feature_set, small_train):
        identifier = _fitted(algorithm, feature_set, small_train)
        assert isinstance(identifier.compiled, CompiledIdentifier)

    def test_decisions_match_sparse_path(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = _fitted(algorithm, feature_set, small_train)
        urls = small_bundle.odp_test.urls[:120]
        assert identifier.decisions(urls) == identifier._sparse_decisions(urls)

    def test_scores_match_sparse_path(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = _fitted(algorithm, feature_set, small_train)
        urls = small_bundle.odp_test.urls[:60]
        batch_scores = identifier.scores_many(urls)
        for row, url in enumerate(urls):
            reference = identifier.scores(url)
            for language in LANGUAGES:
                assert batch_scores[language][row] == pytest.approx(
                    reference[language], abs=1e-9
                )

    def test_sparse_backend_opts_out(self, algorithm, feature_set, small_train):
        identifier = _fitted(
            algorithm, feature_set, small_train, backend="sparse"
        )
        assert identifier.compiled is None

    def test_compiled_survives_pickle(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = _fitted(algorithm, feature_set, small_train)
        clone = pickle.loads(pickle.dumps(identifier))
        assert clone.compiled is not None
        urls = small_bundle.odp_test.urls[:40]
        assert clone.decisions(urls) == identifier.decisions(urls)


class TestLegacyPickles:
    def test_pre_backend_pickles_still_predict(self, small_train, small_bundle):
        """Models pickled before the compiled backend existed unpickle
        without ``backend``/``_compiled`` in their ``__dict__`` — the
        class-level defaults must keep them predicting."""
        identifier = _fitted("NB", "words", small_train)
        legacy = LanguageIdentifier.__new__(LanguageIdentifier)
        state = identifier.__dict__.copy()
        state.pop("_compiled")
        state.pop("backend")
        legacy.__dict__.update(state)
        urls = small_bundle.odp_test.urls[:20]
        assert legacy.compiled is None  # falls back to the sparse path
        assert legacy.decisions(urls) == identifier.decisions(urls)


class TestBackendSelection:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            LanguageIdentifier(backend="turbo")

    @pytest.mark.parametrize("algorithm", ["DT", "kNN"])
    def test_nonlinear_algorithms_fall_back(self, algorithm, small_train):
        identifier = _fitted(algorithm, "custom", small_train)
        assert identifier.compiled is None  # transparent sparse fallback
        urls = ["http://www.recherche.fr/produits1.html"]
        assert set(identifier.decisions(urls)) == set(LANGUAGES)

    def test_iis_maxent_falls_back(self, small_train):
        """Only the default (L-BFGS / gradient) MaxEnt trainers lower;
        the IIS variant scores over L1-normalised inputs and stays on
        the sparse reference path."""
        identifier = LanguageIdentifier(
            feature_set="words",
            algorithm="ME",
            seed=0,
            algorithm_kwargs={"method": "iis", "iterations": 3},
        ).fit(small_train.subsample(0.3, seed=5))
        assert identifier.compiled is None
        urls = ["http://www.recherche.fr/produits1.html"]
        assert set(identifier.decisions(urls)) == set(LANGUAGES)

    def test_compiled_backend_requires_linear_algorithm(self, small_train):
        identifier = LanguageIdentifier(
            feature_set="custom", algorithm="DT", backend="compiled"
        )
        with pytest.raises(ValueError, match="compiled"):
            identifier.fit(small_train.subsample(0.3, seed=5))

    def test_baselines_stay_sparse(self):
        identifier = LanguageIdentifier(algorithm="ccTLD+")
        assert identifier.compiled is None
        decisions = identifier.decisions(["http://www.zeitung.de/wetter"])
        assert decisions[next(iter(decisions))] is not None


class TestBatchEntryPoints:
    def test_classify_many_matches_classify(self, small_train, small_bundle):
        identifier = _fitted("NB", "words", small_train)
        urls = small_bundle.odp_test.urls[:50]
        assert identifier.classify_many(urls) == [
            identifier.classify(url) for url in urls
        ]

    def test_scores_many_sparse_path_matches(self, small_train, small_bundle):
        identifier = _fitted("NB", "words", small_train, backend="sparse")
        urls = small_bundle.odp_test.urls[:25]
        batch_scores = identifier.scores_many(urls)
        for row, url in enumerate(urls):
            reference = identifier.scores(url)
            for language in LANGUAGES:
                assert batch_scores[language][row] == reference[language]

    def test_row_cache_reuse_is_consistent(self, small_train, small_bundle):
        identifier = _fitted("NB", "words", small_train)
        urls = small_bundle.odp_test.urls[:30]
        first = identifier.decisions(urls)
        second = identifier.decisions(urls)  # served from the row memo
        assert first == second

    def test_evaluate_uses_batch_path(self, small_train, small_bundle):
        compiled = _fitted("RE", "words", small_train)
        sparse = _fitted("RE", "words", small_train, backend="sparse")
        test = small_bundle.odp_test
        compiled_metrics = compiled.evaluate(test)
        sparse_metrics = sparse.evaluate(test)
        for language in LANGUAGES:
            assert (
                compiled_metrics[language].f_measure
                == sparse_metrics[language].f_measure
            )

    def test_confusion_matches_sparse(self, small_train, small_bundle):
        compiled = _fitted("NB", "trigrams", small_train)
        sparse = _fitted("NB", "trigrams", small_train, backend="sparse")
        test = small_bundle.odp_test
        assert compiled.confusion(test).cells == sparse.confusion(test).cells


def _distinct_urls(start: int, count: int) -> list[str]:
    """``count`` distinct URLs, each with its own host word."""
    words = (
        "".join(chr(ord("a") + int(digit)) for digit in str(number))
        for number in range(start, start + count)
    )
    return [f"http://www.{word}.de/{word}/seite" for word in words]


class TestRowMemo:
    def test_eviction_cost_does_not_grow_with_run_length(self, small_train):
        """Past :data:`ROW_CACHE_SIZE` URLs every new URL evicts one;
        that must cost the same however long the memo has been
        evicting."""
        compiled = _fitted("NB", "words", small_train).compiled
        batch = 1024
        timings = []
        for start in range(0, 3 * pipeline.ROW_CACHE_SIZE, batch):
            urls = _distinct_urls(start, batch)
            began = time.perf_counter()
            compiled.batch(urls)
            timings.append(time.perf_counter() - began)
        third = len(timings) // 3
        first = statistics.median(timings[:third])
        last = statistics.median(timings[-third:])
        assert compiled.cache_info["rows"] == pipeline.ROW_CACHE_SIZE
        assert last < 2 * first, (first, last)

    def test_oldest_url_is_evicted_and_hits_do_not_refresh(
        self, small_train, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "ROW_CACHE_SIZE", 4)
        compiled = _fitted("NB", "words", small_train).compiled
        urls = _distinct_urls(0, 5)
        compiled.batch(urls[:4])
        compiled.batch(urls[:1])  # a hit leaves its URL where it was
        compiled.batch(urls[4:])
        assert list(compiled._row_cache) == urls[1:]
        assert compiled.cache_info["rows"] == 4
