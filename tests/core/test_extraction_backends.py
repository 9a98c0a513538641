"""Fused vs reference extraction paths.

A :class:`CompiledIdentifier` chooses its extraction path once, when it
is built: the byte-level fused plan for the stock words/trigrams
extractors, the string-based reference extractor otherwise.  These
tests build one fuse-eligible model twice, once with no fused plan, and
hold the two paths to bit-equal scores and to their own token memos,
along with the fallback and pickling behaviour around the choice.
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
from tests.conftest import reference_extraction


@pytest.fixture(scope="module")
def fitted(small_train):
    identifier = LanguageIdentifier("words", "NB", seed=0)
    return identifier.fit(small_train.subsample(0.4, seed=3))


@pytest.fixture(scope="module")
def reference(fitted):
    """The fitted model's compiled twin on the reference path."""
    return reference_extraction(fitted.compiled)


class TestTwoBackends:
    def test_scores_are_bit_equal(self, fitted, reference, small_bundle):
        urls = small_bundle.odp_test.urls[:60]
        assert fitted.compiled.extraction == "fused"
        assert reference.extraction == "reference"
        # Same CSR entry order on both paths -> same summation order.
        assert np.array_equal(
            fitted.compiled.scores_matrix(urls), reference.scores_matrix(urls)
        )

    def test_cache_info_names_the_backend(self, fitted, reference):
        assert fitted.compiled.cache_info["extraction"] == "fused"
        assert reference.cache_info["extraction"] == "reference"

    def test_each_backend_tokenises_through_its_own_memo(
        self, fitted, reference, small_bundle
    ):
        urls = [
            url + "/memo-isolation"
            for url in small_bundle.odp_test.urls[:20]
        ]
        clear_token_cache()
        fitted.compiled.scores_matrix(urls)
        # The fused path never touches the string-token memo.
        assert tokenize_cached.cache_info().currsize == 0
        assert tokenize_bytes_cached.cache_info().currsize >= len(urls)
        reference.scores_matrix(urls)
        assert tokenize_cached.cache_info().currsize >= len(urls)


class TestFallbackAndPickling:
    def test_custom_extractor_stays_on_reference(self, small_train):
        identifier = LanguageIdentifier("custom", "NB", seed=0).fit(
            small_train.subsample(0.4, seed=3)
        )
        assert identifier.compiled.extraction == "reference"

    def test_pickle_rebuilds_plan_and_empties_the_memo(
        self, fitted, small_bundle
    ):
        urls = small_bundle.odp_test.urls[:40]
        fitted.compiled.scores_matrix(urls)
        clone = pickle.loads(pickle.dumps(fitted))
        compiled = clone.compiled
        assert compiled.extraction == "fused"
        assert compiled._fused_plan is not None
        assert not compiled._row_cache
        assert clone.decisions(urls) == fitted.decisions(urls)
