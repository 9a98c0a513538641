"""Property-based parity of the fused byte-level extraction path.

The fused path (byte tokeniser, base-27 trigram codes,
``FeatureIndexer.rows_fused``) claims *exact* equivalence with the
string-based reference for any input: same tokens, same trigrams, same
CSR arrays entry for entry, and — through the compiled backend — the
same ``decisions()`` as the sparse oracle.  These tests hold it to that
claim over hypothesis-generated text and the seeded adversarial URL set
(unicode/IDN hosts, percent-encoding, lone surrogates, mixed-case
schemes, query/fragment soup, degenerate lengths).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pipeline import LanguageIdentifier
from repro.features.indexer import FeatureIndexer, build_fused_plan
from repro.features.ngrams import TrigramFeatureExtractor
from repro.features.words import WordFeatureExtractor
from repro.testing.urlgen import EDGE_CASE_URLS, adversarial_urls
from repro.urls.tokenizer import tokenize, tokenize_bytes
from repro.urls.trigrams import byte_url_trigrams, url_trigrams
from tests.conftest import reference_extraction

#: Arbitrary unicode text — the parity contract is "any string", not
#: "well-formed URL".  (Lone surrogates are covered by the adversarial
#: edge cases below; hypothesis' default alphabet excludes them.)
ANY_TEXT = st.text(max_size=80)

ADVERSARIAL = adversarial_urls(300, seed=7)

#: Compiled (algorithm, feature set) pairs with a fused extraction plan.
FUSED_COMPILABLE = [
    ("NB", "words"),
    ("NB", "trigrams"),
    ("RE", "words"),
    ("RE", "trigrams"),
    ("RO", "words"),
    ("RO", "trigrams"),
    ("MM", "trigrams"),
    ("ME", "words"),
    ("ME", "trigrams"),
]


class TestTokenParity:
    @given(ANY_TEXT)
    def test_byte_tokens_match_reference(self, text):
        expected = [token.encode("ascii") for token in tokenize(text)]
        assert tokenize_bytes(text) == expected

    def test_adversarial_urls(self):
        for url in ADVERSARIAL:
            expected = [token.encode("ascii") for token in tokenize(url)]
            assert tokenize_bytes(url) == expected, url


class TestTrigramParity:
    @given(ANY_TEXT)
    def test_byte_trigrams_match_reference(self, text):
        assert byte_url_trigrams(text) == url_trigrams(text)

    def test_adversarial_urls(self):
        for url in ADVERSARIAL:
            assert byte_url_trigrams(url) == url_trigrams(url), url


class TestRowsFusedParity:
    """``rows_fused`` must emit the *identical* CsrBatch the reference
    two-step (extract dicts, then transform) builds — indices, data and
    residuals in the same first-occurrence order, so that downstream
    float summation order (and thus compiled scores) is bit-identical.
    """

    @pytest.mark.parametrize(
        "extractor", [WordFeatureExtractor(), TrigramFeatureExtractor()],
        ids=["words", "trigrams"],
    )
    def test_batches_identical(self, extractor):
        fit_urls = ADVERSARIAL[:120]
        indexer = FeatureIndexer().fit(extractor.extract_many(fit_urls))
        plan = build_fused_plan(extractor, indexer)
        assert plan is not None
        reference = indexer.transform(extractor.extract_many(ADVERSARIAL))
        fused = indexer.rows_fused(ADVERSARIAL, plan)
        assert np.array_equal(reference.indptr, fused.indptr)
        assert np.array_equal(reference.indices, fused.indices)
        assert np.array_equal(reference.data, fused.data)
        assert reference.residuals == fused.residuals

    def test_custom_extractors_have_no_plan(self):
        indexer = FeatureIndexer().fit([{"w:a": 1.0}])
        assert build_fused_plan(TrigramFeatureExtractor(mode="raw"), indexer) is None

        class Subclassed(WordFeatureExtractor):
            pass

        assert build_fused_plan(Subclassed(), indexer) is None


@pytest.mark.parametrize("algorithm,feature_set", FUSED_COMPILABLE)
class TestFusedDecisionParity:
    """Fused-path ``decisions()`` byte-identical to the sparse oracle."""

    def _fitted(self, algorithm, feature_set, small_train):
        identifier = LanguageIdentifier(
            feature_set=feature_set, algorithm=algorithm, seed=0
        )
        return identifier.fit(small_train.subsample(0.5, seed=3))

    def test_decisions_match_sparse_oracle(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = self._fitted(algorithm, feature_set, small_train)
        compiled = identifier.compiled
        assert compiled is not None and compiled.extraction == "fused"
        urls = small_bundle.odp_test.urls[:80] + list(EDGE_CASE_URLS)
        assert identifier.decisions(urls) == identifier._sparse_decisions(urls)

    def test_fused_scores_equal_reference_extraction(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = self._fitted(algorithm, feature_set, small_train)
        compiled = identifier.compiled
        urls = small_bundle.odp_test.urls[:60] + ADVERSARIAL[:60]
        fused = compiled.scores_matrix(urls)
        reference = reference_extraction(compiled).scores_matrix(urls)
        # Same CSR entry order on both paths -> same summation order ->
        # bit-identical scores, not merely approximately equal.
        assert np.array_equal(fused, reference)
