"""Fused vs reference extraction backends sharing one process.

The per-URL interned-row memo of :class:`CompiledIdentifier` is keyed by
URL, and both extraction backends produce (provably equal) rows for the
same URL — so a single shared memo would *work* until the day a fast-path
bug let one backend poison the other's answers.  The backends therefore
own disjoint memos (and disjoint tokenizer caches), and these regression
tests alternate backends in one process to pin that isolation down,
along with the routing/fallback and pickling behaviour around it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.pipeline import LanguageIdentifier
from repro.urls.tokenizer import (
    clear_token_cache,
    tokenize_bytes_cached,
    tokenize_cached,
)


@pytest.fixture(scope="module")
def fitted(small_train):
    identifier = LanguageIdentifier("words", "NB", seed=0)
    return identifier.fit(small_train.subsample(0.4, seed=3))


class TestBackendAlternation:
    def test_decisions_stable_across_switches(self, fitted, small_bundle):
        compiled = fitted.compiled
        urls = small_bundle.odp_test.urls[:60]
        assert compiled.extraction == "fused"
        fused_first = compiled.scores_matrix(urls)
        compiled.extraction = "reference"
        reference = compiled.scores_matrix(urls)
        compiled.extraction = "fused"
        fused_again = compiled.scores_matrix(urls)
        # Fused scores are bit-equal, so the decisions are too.
        assert np.array_equal(fused_first, reference)
        assert np.array_equal(fused_again, reference)

    def test_memos_stay_disjoint_per_backend(self, fitted, small_bundle):
        compiled = fitted.compiled
        compiled._row_caches["fused"].clear()
        compiled._row_caches["reference"].clear()
        first, second = (
            small_bundle.odp_test.urls[:30],
            small_bundle.odp_test.urls[30:60],
        )
        compiled.extraction = "fused"
        compiled.scores_matrix(first)
        compiled.extraction = "reference"
        compiled.scores_matrix(second)
        fused_keys = set(compiled._row_caches["fused"])
        reference_keys = set(compiled._row_caches["reference"])
        assert fused_keys == set(first)
        assert reference_keys == set(second)
        # The active-backend view (what the bench and the daemon status
        # consume) follows the switch.
        assert set(compiled._row_cache) == reference_keys
        compiled.extraction = "fused"
        assert set(compiled._row_cache) == fused_keys

    def test_cache_info_names_the_backend(self, fitted):
        compiled = fitted.compiled
        compiled.extraction = "fused"
        assert fitted.compiled.cache_info["extraction"] == "fused"
        compiled.extraction = "reference"
        assert fitted.compiled.cache_info["extraction"] == "reference"
        compiled.extraction = "fused"

    def test_tokenizer_memos_are_separate(self, fitted, small_bundle):
        compiled = fitted.compiled
        urls = [
            url + "/memo-isolation"
            for url in small_bundle.odp_test.urls[:20]
        ]
        clear_token_cache()
        compiled._row_caches["fused"].clear()
        compiled._row_caches["reference"].clear()
        compiled.extraction = "fused"
        compiled.scores_matrix(urls)
        # The fused path never touches the string-token memo.
        assert tokenize_cached.cache_info().currsize == 0
        assert tokenize_bytes_cached.cache_info().currsize >= len(urls)
        compiled.extraction = "reference"
        compiled.scores_matrix(urls)
        assert tokenize_cached.cache_info().currsize >= len(urls)
        compiled.extraction = "fused"

    def test_invalid_mode_rejected(self, fitted):
        with pytest.raises(ValueError, match="fused.*reference"):
            fitted.compiled.extraction = "vectorised"


class TestFallbackAndPickling:
    def test_custom_extractor_stays_on_reference(self, small_train):
        identifier = LanguageIdentifier("custom", "NB", seed=0).fit(
            small_train.subsample(0.4, seed=3)
        )
        compiled = identifier.compiled
        assert compiled.extraction == "reference"
        with pytest.raises(ValueError, match="no fused extraction plan"):
            compiled.extraction = "fused"

    def test_pickle_rebuilds_plan_and_empties_memos(
        self, fitted, small_bundle
    ):
        urls = small_bundle.odp_test.urls[:40]
        fitted.compiled.scores_matrix(urls)
        clone = pickle.loads(pickle.dumps(fitted))
        compiled = clone.compiled
        assert compiled.extraction == "fused"
        assert compiled._fused_plan is not None
        assert not compiled._row_caches["fused"]
        assert not compiled._row_caches["reference"]
        assert clone.decisions(urls) == fitted.decisions(urls)

    def test_reference_preference_survives_pickle(self, fitted):
        fitted.compiled.extraction = "reference"
        clone = pickle.loads(pickle.dumps(fitted))
        assert clone.compiled.extraction == "reference"
        fitted.compiled.extraction = "fused"
