"""The end-to-end URL language identifier (S15).

:class:`LanguageIdentifier` is the library's main entry point.  It
follows the paper's setup exactly:

* one *binary* classifier per language ("Is it language X or not?"),
  so a URL may be assigned several languages or none (Section 4.2),
* each binary classifier is trained on all positive samples plus an
  equally sized random negative sample (Section 4.1),
* a shared feature extractor is fitted once on the full multi-language
  training corpus (the trained dictionary of the custom features needs
  all five languages).

Inference backends
------------------
Two backends answer predictions:

* the **sparse reference path** walks string-keyed feature dicts once
  per URL per language — slow but fully inspectable (and the ground
  truth for equivalence tests);
* the **compiled path** (:class:`CompiledIdentifier`): after ``fit``,
  every score-linear classifier (NB, RE, RO, MM, and the default
  L-BFGS/gradient MaxEnt) lowers its dict weights onto a
  :class:`~repro.features.indexer.FeatureIndexer` space,
  the five weight vectors are stacked into one ``(V, k)`` matrix, and a
  whole batch of URLs is scored with a single CSR×dense matrix product.

``backend="auto"`` (the default) compiles when every per-language
classifier supports it and falls back transparently to the sparse path
otherwise (DT, kNN, iterative-scaling MaxEnt, the TLD baselines);
``"sparse"`` never compiles; ``"compiled"`` raises at fit time if
lowering is impossible.

Fitted compiled models persist to a versioned, memory-mappable artifact
via :mod:`repro.store` (``ModelStore`` / ``save_identifier``), which N
serving processes load zero-copy — one shared read-only weight matrix
instead of N pickled clones.
Batch entry points — :meth:`LanguageIdentifier.scores_matrix` and
everything derived from it: :meth:`~LanguageIdentifier.predict`,
:meth:`~LanguageIdentifier.decisions`,
:meth:`~LanguageIdentifier.evaluate`, :meth:`~LanguageIdentifier.confusion`,
:meth:`~LanguageIdentifier.scores_many`,
:meth:`~LanguageIdentifier.classify_many` — ride the compiled path;
single-URL introspection (:meth:`~LanguageIdentifier.scores`,
``feature_log_odds``-style probes) always uses the sparse reference.
Compare backends with
``PYTHONPATH=src python -m pytest benchmarks/bench_core_throughput.py -q``.

Example
-------
>>> from repro import LanguageIdentifier, build_datasets
>>> data = build_datasets(scale=0.2)
>>> clf = LanguageIdentifier(feature_set="words", algorithm="NB")
>>> _ = clf.fit(data.combined_train)
>>> sorted(l.value for l in clf.predict_languages("http://www.zeitung-aktuell.de/artikel/wetter.html"))
['de']
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.algorithms import BinaryClassifier, make_classifier
from repro.algorithms.cctld import CcTldLabeler
from repro.algorithms.compiled import CompiledScorer
from repro.api.protocol import DEFAULT_CHUNK_SIZE
from repro.api.types import (
    BatchResult,
    Capabilities,
    ModelInfo,
    Prediction,
    argmax_labels,
)
from repro.corpus.records import Corpus, balanced_binary_indices
from repro.evaluation.confusion import ConfusionMatrix, confusion_matrix
from repro.evaluation.metrics import BinaryMetrics, evaluate_binary
from repro.features import (
    CustomFeatureExtractor,
    FeatureExtractor,
    TrigramFeatureExtractor,
    WordFeatureExtractor,
)
from repro.features.indexer import (
    CsrBatch,
    FeatureIndexer,
    FusedExtractionPlan,
    build_fused_plan,
)
from repro.languages import LANGUAGES, Language
from repro.urls.tokenizer import tokenize_bytes_cached, tokenize_cached

#: Valid values for ``LanguageIdentifier(backend=...)``.
BACKENDS = ("auto", "compiled", "sparse")

#: Feature-set registry keyed by the paper's names.
FEATURE_SETS = {
    "words": WordFeatureExtractor,
    "trigrams": TrigramFeatureExtractor,
    "custom": CustomFeatureExtractor,
}

#: Algorithms that work on URLs directly (no features, no training).
BASELINE_ALGORITHMS = ("ccTLD", "ccTLD+")


def make_extractor(name: str, **kwargs) -> FeatureExtractor:
    """Instantiate a feature extractor by name (words/trigrams/custom)."""
    try:
        factory = FEATURE_SETS[name]
    except KeyError:
        raise ValueError(
            f"unknown feature set {name!r}; choose from {sorted(FEATURE_SETS)}"
        ) from None
    return factory(**kwargs)


#: Interned rows memoized per URL by :meth:`CompiledIdentifier.batch`.
ROW_CACHE_SIZE = 1 << 16


def stack_scores(scores: Mapping[Language, Sequence[float]]) -> np.ndarray:
    """The ``(n, k)`` score matrix of a ``scores_many``-shaped map, its
    columns in the map's order."""
    return np.array(list(scores.values()), dtype=np.float64).T


def best_labels(
    scores: Mapping[Language, Sequence[float]],
) -> list[Language | None]:
    """The single best language per row of a ``scores_many`` result.

    The best label is the top-scoring language, or ``None`` when the top
    score is not positive (every binary classifier said no).  Ties go to
    the language that comes first in ``scores`` — the model's language
    order, :data:`~repro.languages.LANGUAGES` for every stock backend —
    through :func:`~repro.api.types.argmax_labels`, the one tie rule.
    """
    return list(argmax_labels(stack_scores(scores), tuple(scores)))


class CompiledIdentifier:
    """Vectorized batch-inference backend for a fitted identifier.

    Holds the shared :class:`FeatureIndexer` and one compiled scorer per
    language.  All scorers' weight columns are stacked into a single
    ``(V, k)`` matrix at build time, so scoring a batch of URLs is: one
    shared feature extraction, one CSR assembly, one CSR×dense matrix
    product, then per-scorer finalisation (bias/normalisation/residuals).

    Interned rows are memoized per URL (bounded FIFO of
    :data:`ROW_CACHE_SIZE` entries), so re-scored URLs — crawler frontier
    revisits, repeated triage batches — skip extraction and interning
    entirely and go straight to the matrix product.
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        indexer: FeatureIndexer,
        scorers: dict[Language, CompiledScorer],
        columns: np.ndarray | None = None,
    ) -> None:
        """``columns``, when given, is the prestacked ``(V, total)``
        weight matrix whose column blocks follow ``scorers`` order; the
        per-scorer hstack is then skipped.  A memory-mapped artifact
        (:mod:`repro.store`) passes its mapped matrix here so every
        serving process shares one read-only copy instead of
        re-assembling a private one."""
        self.extractor = extractor
        self.indexer = indexer
        self.scorers = scorers
        self._init_extraction()
        self._column_slices: dict[Language, slice] = {}
        offset = 0
        column_blocks = []
        for language, scorer in scorers.items():
            self._column_slices[language] = slice(offset, offset + scorer.n_columns)
            if columns is None and scorer.n_columns:
                column_blocks.append(scorer.columns())
            offset += scorer.n_columns
        if columns is not None:
            if columns.shape[1] != offset:
                raise ValueError(
                    f"prestacked columns have {columns.shape[1]} columns; "
                    f"scorers expect {offset}"
                )
            self._columns = columns if offset else None
        else:
            self._columns = np.hstack(column_blocks) if column_blocks else None

    def _init_extraction(self) -> None:
        """Choose the extraction path and start an empty row memo.

        Words/trigrams feature sets get a byte-level fused plan and
        extract through it; custom extractors (and raw-mode trigrams)
        get no plan and extract through the string-based reference
        path.  The choice holds for the identifier's whole life.
        """
        self._fused_plan: FusedExtractionPlan | None = build_fused_plan(
            self.extractor, self.indexer
        )
        self._row_cache: OrderedDict[
            str, tuple[np.ndarray, np.ndarray, tuple[tuple[str, float], ...]]
        ] = OrderedDict()

    @property
    def extraction(self) -> str:
        """The extraction path, fixed at build: ``"fused"`` or
        ``"reference"``."""
        return "reference" if self._fused_plan is None else "fused"

    @property
    def cache_info(self) -> dict:
        """Occupancy of the interned-row memo (``rows`` cached of
        ``capacity``) plus the extraction path.  Long-lived
        serving processes surface this in their status output so
        operators can see the memo warm up."""
        return {
            "rows": len(self._row_cache),
            "capacity": ROW_CACHE_SIZE,
            "extraction": self.extraction,
        }

    @property
    def tokenizer_cache_info(self) -> dict:
        """``hits``, ``misses`` and ``entries`` of the token memo the
        extraction path tokenises through (the fused path's byte-token
        memo, or the reference path's string-token one)."""
        fused = self._fused_plan is not None
        info = (tokenize_bytes_cached if fused else tokenize_cached).cache_info()
        return {"hits": info.hits, "misses": info.misses,
                "entries": info.currsize}

    @property
    def stacked_columns(self) -> np.ndarray | None:
        """The ``(V, total)`` stacked weight matrix (``None`` when no
        scorer contributes matmul columns).  This is the array a model
        artifact persists and serving processes memory-map."""
        return self._columns

    @property
    def column_slices(self) -> dict[Language, slice]:
        """Per-language column block of :attr:`stacked_columns`."""
        return dict(self._column_slices)

    @classmethod
    def build(
        cls,
        extractor: FeatureExtractor,
        classifiers: Mapping[Language, BinaryClassifier],
        train_vectors: Sequence[Mapping[str, float]],
    ) -> "CompiledIdentifier | None":
        """Compile every per-language classifier, or ``None`` if any
        classifier has no vectorized lowering."""
        indexer = FeatureIndexer().fit(train_vectors)
        scorers: dict[Language, CompiledScorer] = {}
        for language, classifier in classifiers.items():
            scorer = classifier.compile(indexer)
            if scorer is None:
                return None
            scorers[language] = scorer
        return cls(extractor=extractor, indexer=indexer, scorers=scorers)

    def batch(self, urls: Sequence[str]) -> CsrBatch:
        """Extract and intern a batch of URLs into CSR form.

        URLs seen before are served from the interned-row memo; only the
        cache misses pay extraction + interning (in one sub-batch).
        """
        cache = self._row_cache
        missing = list(dict.fromkeys(url for url in urls if url not in cache))
        if missing:
            if self._fused_plan is not None:
                fresh = self.indexer.rows_fused(missing, self._fused_plan)
            else:
                fresh = self.indexer.transform(
                    self.extractor.extract_many(missing)
                )
            fresh_residuals: dict[int, list[tuple[str, float]]] = {}
            for row, name, value in fresh.residuals:
                fresh_residuals.setdefault(row, []).append((name, value))
            for row, url in enumerate(missing):
                ids, values = fresh.row_slice(row)
                # Copies, not views: a view would pin the whole sub-batch
                # allocation for as long as any one row stays cached.
                cache[url] = (
                    ids.copy(),
                    values.copy(),
                    tuple(fresh_residuals.get(row, ())),
                )

        indptr = np.empty(len(urls) + 1, dtype=np.int64)
        indptr[0] = 0
        id_blocks: list[np.ndarray] = []
        value_blocks: list[np.ndarray] = []
        residuals: list[tuple[int, str, float]] = []
        total = 0
        for row, url in enumerate(urls):
            ids, values, row_residuals = cache[url]
            id_blocks.append(ids)
            value_blocks.append(values)
            total += len(ids)
            indptr[row + 1] = total
            for name, value in row_residuals:
                residuals.append((row, name, value))
        if id_blocks:
            indices = np.concatenate(id_blocks)
            data = np.concatenate(value_blocks)
        else:
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)
        while len(cache) > ROW_CACHE_SIZE:
            cache.popitem(last=False)
        return CsrBatch(
            indptr=indptr,
            indices=indices,
            data=data,
            n_features=len(self.indexer),
            residuals=residuals,
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Memos are transient and the fused plan's intern tables are
        # cheap to rebuild from the indexer — keep pickles small.
        state.pop("_row_cache", None)
        state.pop("_fused_plan", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_extraction()

    def scores_matrix(self, urls: Sequence[str]) -> np.ndarray:
        """``(n_urls, n_languages)`` decision scores in one pass.

        The two halves are marked as trace stages (``extract``,
        ``matmul``) for :mod:`repro.obs` span capture — a no-op unless
        the serving daemon is recording a traced request.
        """
        from repro.obs.trace import stage

        with stage("extract"):
            batch = self.batch(urls)
        with stage("matmul"):
            if self._columns is not None:
                sums = batch.matmul(self._columns)
            else:
                sums = np.zeros((batch.n_rows, 0), dtype=np.float64)
            out = np.empty(
                (batch.n_rows, len(self.scorers)), dtype=np.float64
            )
            for column, (language, scorer) in enumerate(self.scorers.items()):
                out[:, column] = scorer.finalize(
                    sums[:, self._column_slices[language]], batch
                )
        return out


class IdentifierBase(abc.ABC):
    """The prediction/evaluation surface shared by every identifier.

    Three concrete identifiers exist: the trainable
    :class:`LanguageIdentifier` below, the artifact-backed
    :class:`~repro.store.ServingIdentifier` that serving workers
    reconstruct from a memory-mapped model file, and the daemon-backed
    :class:`~repro.store.client.RemoteIdentifier`.  All answer the same
    questions; everything here is derived from the one batch primitive
    :meth:`scores_matrix`, so subclasses only supply that (plus,
    optionally, a higher-fidelity single-URL :meth:`scores`).

    Every subclass natively satisfies the public
    :class:`repro.api.Predictor` protocol — :meth:`predict` /
    :meth:`predict_iter` / :meth:`capabilities` / :meth:`close` and the
    context-manager lifecycle are implemented here, so whatever
    :func:`repro.api.open_model` resolves to answers the same typed
    surface.
    """

    #: Report label, e.g. ``"NB/words"``; subclasses override.
    name: str = "identifier"

    # -- the repro.api.Predictor surface ------------------------------------------

    def predict(self, urls: Sequence[str]) -> BatchResult:
        """Score one batch into a typed :class:`~repro.api.BatchResult`.

        One :meth:`scores_matrix` pass (a single matmul on compiled
        backends, one request on remote ones) is the result; the scores,
        the per-language decisions and the best labels derive from it.
        """
        urls = tuple(urls)
        return BatchResult(
            urls, self.scores_matrix(urls), self.capabilities().model
        )

    def predict_iter(
        self, urls: Iterable[str], chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Prediction]:
        """Stream :class:`~repro.api.Prediction` rows over an
        arbitrarily large URL iterable, scoring ``chunk_size`` URLs per
        batch pass so the input is never materialised in full."""
        from repro.api.protocol import predict_iter

        return predict_iter(self, urls, chunk_size=chunk_size)

    def capabilities(self) -> Capabilities:
        """Backend capabilities + model provenance, without scoring.

        The default inspects the identifier: ``compiled`` when a
        vectorized backend is attached, the training-corpus fingerprint
        when one was stamped at fit time.  Remote and artifact-backed
        subclasses override to surface their rollout metadata.
        """
        compiled = getattr(self, "compiled", None) is not None
        return Capabilities(
            model=ModelInfo(
                name=self.name,
                backend="compiled" if compiled else "sparse",
                languages=tuple(LANGUAGES),
                train_corpus=getattr(self, "train_fingerprint", None),
            ),
            compiled=compiled,
            remote=False,
        )

    def close(self) -> None:
        """Release backend resources (no-op for in-process backends)."""

    def __enter__(self) -> "IdentifierBase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the batch primitives ------------------------------------------------------

    @abc.abstractmethod
    def scores_matrix(self, urls: Sequence[str]) -> np.ndarray:
        """``(n_urls, n_languages)`` decision scores for a batch of URLs,
        columns in ``capabilities().model.languages`` order."""

    def decisions(self, urls: Sequence[str]) -> dict[Language, list[bool]]:
        """Per-language binary decisions (``score > 0``) for a batch."""
        return self.predict(urls).decisions

    def scores_many(self, urls: Sequence[str]) -> dict[Language, list[float]]:
        """Per-language decision scores for a batch of URLs."""
        return self.predict(urls).scores

    def scores(self, url: str) -> dict[Language, float]:
        """Per-language decision scores (larger = more confident yes).

        The default goes through :meth:`scores_many` with a batch of
        one; :class:`LanguageIdentifier` overrides it with the sparse
        reference path for exact single-URL introspection.
        """
        batch = self.scores_many([url])
        return {language: values[0] for language, values in batch.items()}

    def classify_many(
        self,
        urls: Sequence[str],
        scores: Mapping[Language, Sequence[float]] | None = None,
    ) -> list[Language | None]:
        """Batch variant of :meth:`classify` (single best language or
        ``None`` per URL, ties to the earlier language — see
        :func:`best_labels`), served by the compiled backend when present.

        Callers that already hold this batch's :meth:`scores_many`
        result pass it via ``scores`` to avoid a second scoring pass.
        """
        if scores is None:
            return list(self.predict(urls).best)
        return best_labels(scores)

    def predict_languages(self, url: str) -> set[Language]:
        """All languages whose binary classifier answers yes for ``url``."""
        decisions = self.decisions([url])
        return {language for language, answer in decisions.items() if answer[0]}

    def classify(self, url: str) -> Language | None:
        """Single best language, or ``None`` when every classifier says no.

        Not part of the paper's evaluation protocol (which is strictly
        binary) but what downstream applications such as the quota
        crawler want.
        """
        scores = self.scores(url)
        return best_labels(
            {language: (value,) for language, value in scores.items()}
        )[0]

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, test: Corpus) -> dict[Language, BinaryMetrics]:
        """Section 4.2 metrics of all five classifiers on ``test``."""
        decisions = self.decisions(test.urls)
        truths = test.labels
        return {
            language: evaluate_binary(
                decisions[language],
                [truth == language for truth in truths],
            )
            for language in LANGUAGES
        }

    def confusion(self, test: Corpus) -> ConfusionMatrix:
        """The paper-style confusion matrix on ``test``."""
        return confusion_matrix(test.labels, self.decisions(test.urls))


class LanguageIdentifier(IdentifierBase):
    """Five one-vs-rest URL language classifiers behind one interface.

    Parameters
    ----------
    feature_set:
        ``"words"``, ``"trigrams"`` or ``"custom"`` — ignored for the
        TLD baselines.
    algorithm:
        ``"NB"``, ``"DT"``, ``"RE"``, ``"ME"``, ``"kNN"`` or the
        training-free baselines ``"ccTLD"`` / ``"ccTLD+"``.
    seed:
        Controls the negative-sample draw per language.
    negative_sampling:
        ``"balanced"`` (paper's default: equally many negatives as
        positives) or ``"all"`` (every other-language URL as a negative —
        what the paper warns "would have led to too conservative
        classifiers"; kept for the ablation bench).
    positive_weight:
        Integer replication factor for one side of the training set,
        implementing Section 3.2's remark that the classifiers "could be
        modified, e.g., by increasing positive or negative training
        examples, to give more weight to detecting either the positive
        or negative cases".  ``2`` repeats every positive twice (recall-
        leaning); negative values like ``-2`` repeat every *negative*
        twice (precision-leaning); ``1`` is the paper's symmetric
        default.
    backend:
        ``"auto"`` (default) compiles the vectorized inference backend
        at fit time when the algorithm supports it, falling back to the
        sparse reference path otherwise; ``"sparse"`` never compiles;
        ``"compiled"`` requires compilation and raises otherwise.
    algorithm_kwargs / extractor_kwargs:
        Forwarded to the underlying factories.
    """

    # Class-level defaults so models pickled before these attributes
    # existed still predict after unpickling.
    backend = "auto"
    _compiled: CompiledIdentifier | None = None
    train_fingerprint: str | None = None

    def __init__(
        self,
        feature_set: str = "words",
        algorithm: str = "NB",
        seed: int = 0,
        negative_sampling: str = "balanced",
        positive_weight: int = 1,
        backend: str = "auto",
        algorithm_kwargs: dict | None = None,
        extractor_kwargs: dict | None = None,
    ) -> None:
        if negative_sampling not in ("balanced", "all"):
            raise ValueError(
                "negative_sampling must be 'balanced' or 'all', got "
                f"{negative_sampling!r}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if positive_weight in (0, -1) or not isinstance(positive_weight, int):
            raise ValueError(
                "positive_weight must be a non-zero integer other than -1 "
                "(1 = symmetric, n = repeat positives n times, -n = repeat "
                f"negatives n times); got {positive_weight!r}"
            )
        self.feature_set = feature_set
        self.algorithm = algorithm
        self.seed = seed
        self.negative_sampling = negative_sampling
        self.positive_weight = positive_weight
        self.backend = backend
        self.algorithm_kwargs = dict(algorithm_kwargs or {})
        self.extractor_kwargs = dict(extractor_kwargs or {})
        self.extractor: FeatureExtractor | None = None
        self.classifiers: dict[Language, BinaryClassifier] = {}
        self._compiled: CompiledIdentifier | None = None
        self._labeler: CcTldLabeler | None = None
        if algorithm in BASELINE_ALGORITHMS:
            self._labeler = CcTldLabeler(plus=algorithm.endswith("+"))
        self._fitted = algorithm in BASELINE_ALGORITHMS

    @property
    def name(self) -> str:
        """Report label, e.g. ``"NB/words"`` or ``"ccTLD+"``."""
        if self._labeler is not None:
            return self._labeler.name
        return f"{self.algorithm}/{self.feature_set}"

    @property
    def is_baseline(self) -> bool:
        """True for the training-free ccTLD / ccTLD+ identifiers."""
        return self._labeler is not None

    # -- training ----------------------------------------------------------------

    def fit(
        self,
        corpus: Corpus,
        contents: Sequence[str] | None = None,
    ) -> "LanguageIdentifier":
        """Train all five binary classifiers on ``corpus``.

        ``contents`` (optional, aligned with ``corpus.records``) switches
        on the Section 7 mode: training vectors are built from URL *and*
        page content, while prediction always uses URLs only.
        """
        if self._labeler is not None:
            return self  # TLD baselines need no training
        if contents is not None and len(contents) != len(corpus):
            raise ValueError("contents must align with corpus records")

        extractor = make_extractor(self.feature_set, **self.extractor_kwargs)
        extractor.fit(corpus.urls, corpus.labels)
        self.extractor = extractor
        # Rollout identity: which corpus trained this model.  Stamped
        # into artifact headers so a serving fleet can trace deployed
        # weights back to their training data (docs/serving.md).
        self.train_fingerprint = corpus.fingerprint()

        train_vectors = self._training_vectors(corpus, contents)
        self.classifiers = {}
        for offset, language in enumerate(LANGUAGES):
            if self.negative_sampling == "balanced":
                indices, labels = balanced_binary_indices(
                    corpus, language, seed=self.seed + offset
                )
            else:
                indices = list(range(len(corpus)))
                labels = [record.language == language for record in corpus.records]
            indices, labels = self._apply_weight(indices, labels)
            vectors = [train_vectors[i] for i in indices]
            classifier = make_classifier(self.algorithm, **self.algorithm_kwargs)
            classifier.fit(vectors, labels)
            self.classifiers[language] = classifier
        self._compiled = None
        if self.backend != "sparse":
            self._compiled = CompiledIdentifier.build(
                extractor, self.classifiers, train_vectors
            )
            if self._compiled is None and self.backend == "compiled":
                raise ValueError(
                    f"algorithm {self.algorithm!r} has no compiled lowering; "
                    "use backend='auto' or 'sparse'"
                )
        self._fitted = True
        return self

    @property
    def compiled(self) -> CompiledIdentifier | None:
        """The vectorized backend, or ``None`` when on the sparse path."""
        return self._compiled

    def _apply_weight(
        self, indices: list[int], labels: list[bool]
    ) -> tuple[list[int], list[bool]]:
        """Replicate one side of the training set per ``positive_weight``."""
        weight = self.positive_weight
        if weight == 1:
            return indices, labels
        repeat_positives = weight > 1
        repeats = weight if repeat_positives else -weight
        out_indices: list[int] = []
        out_labels: list[bool] = []
        for index, label in zip(indices, labels):
            count = repeats if label == repeat_positives else 1
            out_indices.extend([index] * count)
            out_labels.extend([label] * count)
        return out_indices, out_labels

    def _training_vectors(
        self, corpus: Corpus, contents: Sequence[str] | None
    ):
        assert self.extractor is not None
        if contents is None:
            return self.extractor.extract_many(corpus.urls)
        extract_with_content = getattr(
            self.extractor, "extract_with_content", None
        )
        if extract_with_content is None:
            raise ValueError(
                f"feature set {self.feature_set!r} does not support "
                "content-augmented training"
            )
        return [
            extract_with_content(record.url, content)
            for record, content in zip(corpus.records, contents)
        ]

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("LanguageIdentifier used before fit")

    # -- prediction -----------------------------------------------------------------

    def scores_matrix(self, urls: Sequence[str]) -> np.ndarray:
        """``(n_urls, 5)`` decision scores, columns in
        :data:`~repro.languages.LANGUAGES` order.

        On the compiled backend the whole batch is scored with one
        CSR×dense matrix product; on the sparse path feature extraction
        still happens once per URL and is shared by all five binary
        classifiers; the TLD baselines score ±1.
        """
        self._require_fitted()
        if self._compiled is not None:
            return self._compiled.scores_matrix(urls)
        if self._labeler is not None:
            rows = [[1.0 if label == language else -1.0 for language in LANGUAGES]
                    for label in self._labeler.label_many(urls)]
        else:
            assert self.extractor is not None
            rows = [[self.classifiers[language].decision_score(vector)
                     for language in LANGUAGES]
                    for vector in self.extractor.extract_many(urls)]
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(LANGUAGES))

    def _sparse_decisions(self, urls: Sequence[str]) -> dict[Language, list[bool]]:
        """The string-keyed reference path (equivalence oracle for the
        compiled backend)."""
        assert self.extractor is not None
        vectors = self.extractor.extract_many(urls)
        return {
            language: self.classifiers[language].predict_many(vectors)
            for language in LANGUAGES
        }

    def scores(self, url: str) -> dict[Language, float]:
        """Per-language decision scores via the sparse reference path
        (larger = more confident yes) — the single-URL introspection
        entry point and the oracle the compiled backend is tested
        against."""
        self._require_fitted()
        if self._labeler is not None:
            label = self._labeler.label(url)
            return {
                language: 1.0 if label == language else -1.0
                for language in LANGUAGES
            }
        assert self.extractor is not None
        vector = self.extractor.extract(url)
        return {
            language: self.classifiers[language].decision_score(vector)
            for language in LANGUAGES
        }
