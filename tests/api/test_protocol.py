"""The Predictor protocol surface: conformance, lifecycle, typed results."""

from __future__ import annotations

import pytest

from repro.api import (
    BatchResult,
    Capabilities,
    ModelInfo,
    Prediction,
    Predictor,
    open_model,
    predict_iter,
)
from repro.core.pipeline import LanguageIdentifier
from repro.languages import LANGUAGES, Language
from repro.store import save_identifier
from repro.store.serve import score_batch


@pytest.fixture(scope="module")
def identifier(small_train):
    return LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.3, seed=4)
    )


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory, identifier):
    path = tmp_path_factory.mktemp("proto-models") / "model.urlmodel"
    save_identifier(identifier, path)
    return path


@pytest.fixture(scope="module")
def urls(small_bundle):
    return small_bundle.odp_test.urls[:40]


class TestConformance:
    def test_every_backend_is_a_predictor(self, identifier, artifact_path):
        from repro.store.client import RemoteIdentifier

        assert isinstance(identifier, Predictor)
        assert isinstance(open_model(artifact_path), Predictor)
        # isinstance() would probe `name`, whose lazy fetch dials the
        # daemon — assert the protocol members on the class instead.
        for member in (
            "predict", "predict_iter", "decisions", "scores_many",
            "scores", "capabilities", "close", "__enter__", "__exit__",
            "name",
        ):
            assert hasattr(RemoteIdentifier, member), member

    def test_baseline_identifier_conforms_too(self, urls):
        baseline = LanguageIdentifier(algorithm="ccTLD")
        assert isinstance(baseline, Predictor)
        result = baseline.predict(urls)
        assert result.decisions == baseline.decisions(urls)
        assert result.model.backend == "sparse"

    def test_context_manager_lifecycle(self, artifact_path, urls):
        with open_model(artifact_path) as model:
            assert model.predict(urls[:3]).urls == tuple(urls[:3])
        model.close()  # idempotent


class TestCapabilities:
    def test_fitted_identifier(self, identifier):
        capabilities = identifier.capabilities()
        assert isinstance(capabilities, Capabilities)
        assert capabilities.compiled and not capabilities.remote
        assert capabilities.model.backend == "compiled"
        assert capabilities.model.languages == tuple(LANGUAGES)
        assert capabilities.model.train_corpus is not None
        assert capabilities.model.created_at is None  # never saved

    def test_serving_identifier_carries_rollout(self, artifact_path):
        capabilities = open_model(artifact_path).capabilities()
        assert capabilities.model.created_at is not None  # save stamp
        assert capabilities.model.train_corpus is not None
        assert capabilities.batch and capabilities.streaming

    def test_sparse_identifier(self, small_train):
        sparse = LanguageIdentifier(
            "words", "NB", backend="sparse"
        ).fit(small_train.subsample(0.2, seed=1))
        capabilities = sparse.capabilities()
        assert not capabilities.compiled
        assert capabilities.model.backend == "sparse"

    def test_remote_identifiers_build_one_block_from_one_status(self):
        """``name`` and ``capabilities()`` share one cached status round
        trip, and the sync and async identifiers build the same block."""
        import asyncio

        from repro.store.client import AsyncRemoteIdentifier, RemoteIdentifier

        status = {"model": {"name": "NB/words", "rollout": {
            "created_at": "2026-01-01T00:00:00Z", "train_corpus": "abc"}}}

        class Client:
            handle = "repro://d.sock"
            calls = 0

            def status(self):
                self.calls += 1
                return status

            async def astatus(self):
                return self.status()

        remote = RemoteIdentifier(Client())
        assert remote.name == "NB/words"
        capabilities = remote.capabilities()
        assert remote.client.calls == 1
        assert capabilities.remote and not capabilities.compiled
        assert capabilities.model == ModelInfo(
            name="NB/words", backend="remote", languages=tuple(LANGUAGES),
            created_at="2026-01-01T00:00:00Z", train_corpus="abc",
            source="repro://d.sock",
        )
        remote_async = AsyncRemoteIdentifier(Client())
        assert remote_async.name == "remote"  # nothing fetched yet
        assert asyncio.run(remote_async.acapabilities()) == capabilities
        assert remote_async.name == "NB/words"


class TestTypedResults:
    def test_prediction_tsv_matches_serving_rows(self, identifier, urls):
        """The daemon's classify rows are the predict rows without their
        scores, and print byte-identically — the CLI output format is
        one format."""
        served = score_batch(identifier, urls)
        predicted = list(identifier.predict(urls))
        assert [(row.url, row.best, row.positives) for row in served] == [
            (row.url, row.best, row.positives) for row in predicted
        ]
        assert all(row.scores == {} for row in served)
        assert [row.tsv() for row in served] == [
            row.tsv() for row in predicted
        ]

    def test_batch_result_shape(self, identifier, urls):
        result = identifier.predict(urls)
        assert isinstance(result, BatchResult)
        assert isinstance(result.model, ModelInfo)
        assert len(result) == len(urls)
        assert set(result.scores) == set(LANGUAGES)
        first, last = result[0], result[-1]
        assert isinstance(first, Prediction)
        assert last.url == urls[-1]
        with pytest.raises(IndexError):
            result[len(urls)]

    def test_positives_sorted_by_code(self, identifier, urls):
        for prediction in identifier.predict(urls):
            codes = [language.value for language in prediction.positives]
            assert codes == sorted(codes)
            for language, score in prediction.scores.items():
                assert isinstance(language, Language)
                assert (score > 0.0) == (language in prediction.positives)


class TestStreamingHelper:
    def test_module_level_predict_iter(self, identifier, urls):
        streamed = list(predict_iter(identifier, iter(urls), chunk_size=11))
        assert [p.url for p in streamed] == list(urls)

    def test_chunk_size_validated_eagerly(self, identifier, urls):
        with pytest.raises(ValueError, match="chunk_size"):
            predict_iter(identifier, urls, chunk_size=0)  # before iteration
        with pytest.raises(ValueError, match="chunk_size"):
            identifier.predict_iter(urls, chunk_size=-1)

    def test_empty_input(self, identifier):
        assert list(identifier.predict_iter(iter(()))) == []
