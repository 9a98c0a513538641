"""Saving and loading fitted identifiers as portable model artifacts.

:func:`save_identifier` lowers a fitted, compiled
:class:`~repro.core.pipeline.LanguageIdentifier` into the container of
:mod:`repro.store.format`:

* the interned vocabulary of its
  :class:`~repro.features.indexer.FeatureIndexer` (one newline-joined
  UTF-8 buffer),
* the stacked ``(V, k)`` weight matrix of its
  :class:`~repro.core.pipeline.CompiledIdentifier` (one float64 buffer —
  *the* artifact payload that serving workers memory-map),
* per-language scorer finalisation state (bias constants, rank-profile
  arrays, Markov residual weights) and the extractor's configuration
  and trained state in the JSON header.

:func:`load_identifier` is the inverse: it rebuilds the compiled
backend directly over the mapped buffers — no refit, no pickle — and
wraps it in a :class:`ServingIdentifier`, which answers the full
:class:`~repro.core.pipeline.IdentifierBase` surface.

Only algorithms with a compiled lowering round-trip (NB, RE, RO, MM and
the default MaxEnt trainers); the decision tree, kNN and the TLD
baselines keep the deprecated pickle path.  Round-trips are lossless by
construction — weights are persisted as raw little-endian float64, so a
loaded model's ``decisions()`` are byte-identical to the fitted
original's.
"""

from __future__ import annotations

import os

import numpy as np

from repro.algorithms.compiled import (
    CompiledLinear,
    CompiledNormalizedLinear,
    CompiledRankOrder,
    CompiledScorer,
)
from repro.algorithms.markov import MarkovResidualWeight
from repro.core.pipeline import CompiledIdentifier, IdentifierBase
from repro.features import (
    CustomFeatureExtractor,
    FeatureExtractor,
    TrigramFeatureExtractor,
    WordFeatureExtractor,
)
from repro.features.dictionaries import TrainedDictionary
from repro.features.indexer import FeatureIndexer
from repro.languages import Language
from repro.store.format import ArtifactError, ArtifactFile, write_artifact

#: ``model.kind`` value identifying artifacts written by this module.
MODEL_KIND = "repro/url-language-identifier"

#: Weight dtypes an artifact may declare via the ``weights_dtype`` flag.
WEIGHT_DTYPES = ("float64", "float32")

#: Header flag keys this reader understands; anything else is refused.
KNOWN_FLAGS = frozenset({"weights_dtype"})

#: Score-error contract of float32-quantised artifacts, *relative* to
#: ``1 + sum_i x_i * |w64_i|`` per decision score.  Rounding float64
#: weights to float32 perturbs each by at most ``|w| * 2**-24``, so the
#: score error is bounded by that weighted sum times ``2**-24`` ≈ 6e-8;
#: the contract allows 16x headroom.  Decisions (``score > 0``) are
#: expected to be byte-identical on any corpus whose scores are not
#: adversarially within the bound of zero — the quantisation test suite
#: asserts exactly that.
QUANTIZED_SCORE_TOLERANCE = 1e-6


# -- extractor (de)serialisation -------------------------------------------------


def _serialize_extractor(extractor: FeatureExtractor) -> dict:
    """JSON spec (config + trained state) of a fitted extractor."""
    if isinstance(extractor, WordFeatureExtractor):
        return {"name": "words", "config": {"prefix": extractor.prefix}}
    if isinstance(extractor, TrigramFeatureExtractor):
        return {
            "name": "trigrams",
            "config": {"mode": extractor.mode, "prefix": extractor.prefix},
        }
    if isinstance(extractor, CustomFeatureExtractor):
        trained = extractor.trained
        return {
            "name": "custom",
            "config": {"selected_only": extractor.selected_only},
            "state": {
                "trained_dictionary": {
                    "min_url_fraction": trained.min_url_fraction,
                    "min_purity": trained.min_purity,
                    "min_token_length": trained.min_token_length,
                    "min_document_count": trained.min_document_count,
                    "words": {
                        language.value: sorted(words)
                        for language, words in trained.words.items()
                    },
                }
            },
        }
    raise ArtifactError(
        f"feature extractor {type(extractor).__name__} has no artifact "
        "serialisation; use the pickle fallback"
    )


def _build_extractor(spec: dict) -> FeatureExtractor:
    """Rebuild an extractor from :func:`_serialize_extractor` output."""
    name = spec.get("name")
    config = spec.get("config", {})
    if name == "words":
        return WordFeatureExtractor(prefix=config["prefix"])
    if name == "trigrams":
        return TrigramFeatureExtractor(mode=config["mode"], prefix=config["prefix"])
    if name == "custom":
        state = spec.get("state", {}).get("trained_dictionary", {})
        trained = TrainedDictionary(
            min_url_fraction=state.get("min_url_fraction", 0.0001),
            min_purity=state.get("min_purity", 0.80),
            min_token_length=state.get("min_token_length", 3),
            min_document_count=state.get("min_document_count", 6),
            words={
                Language.coerce(code): frozenset(words)
                for code, words in state.get("words", {}).items()
            },
        )
        return CustomFeatureExtractor(
            selected_only=config["selected_only"], trained_dictionary=trained
        )
    raise ArtifactError(f"artifact references unknown feature set {name!r}")


# -- scorer (de)serialisation ----------------------------------------------------


def _serialize_scorer(
    language: Language,
    scorer: CompiledScorer,
    column_slice: slice,
    buffers: dict[str, np.ndarray],
) -> dict:
    """Header spec for one per-language scorer.

    Weight columns live in the shared stacked matrix (referenced by
    ``columns``); anything that is not a matmul column — the rank-order
    profile arrays — becomes a dedicated buffer.
    """
    spec: dict = {"columns": [column_slice.start, column_slice.stop]}
    if isinstance(scorer, CompiledNormalizedLinear):
        spec["type"] = "normalized-linear"
        return spec
    if isinstance(scorer, CompiledRankOrder):
        spec["type"] = "rank-order"
        spec["profile_size"] = scorer.profile_size
        buffers[f"rank_positive:{language.value}"] = scorer.rank_positive
        buffers[f"rank_negative:{language.value}"] = scorer.rank_negative
        return spec
    if isinstance(scorer, CompiledLinear):
        spec["type"] = "linear"
        spec["bias"] = scorer.bias
        if scorer.oov_weight is not None:
            if not isinstance(scorer.oov_weight, MarkovResidualWeight):
                raise ArtifactError(
                    "compiled scorer carries a non-serialisable OOV handler "
                    f"({type(scorer.oov_weight).__name__}); use the pickle "
                    "fallback"
                )
            spec["oov"] = {
                "kind": "markov-residual",
                "state": scorer.oov_weight.state_dict(),
            }
        return spec
    raise ArtifactError(
        f"compiled scorer {type(scorer).__name__} has no artifact "
        "serialisation; use the pickle fallback"
    )


def _build_scorer(
    spec: dict,
    language: Language,
    columns: np.ndarray | None,
    artifact: ArtifactFile,
    indexer: FeatureIndexer,
) -> CompiledScorer:
    """Rebuild one scorer over views of the mapped buffers (zero-copy)."""
    kind = spec.get("type")
    start, stop = spec["columns"]
    if kind == "linear":
        oov = spec.get("oov")
        oov_weight = None
        if oov is not None:
            if oov.get("kind") != "markov-residual":
                raise ArtifactError(
                    f"artifact references unknown OOV handler {oov.get('kind')!r}"
                )
            oov_weight = MarkovResidualWeight.from_state_dict(oov["state"])
        assert columns is not None, "linear scorer requires the stacked matrix"
        return CompiledLinear(
            weights=columns[:, start], bias=spec["bias"], oov_weight=oov_weight
        )
    if kind == "normalized-linear":
        assert columns is not None, "normalized scorer requires the stacked matrix"
        return CompiledNormalizedLinear(
            weights=columns[:, start], mask=columns[:, start + 1]
        )
    if kind == "rank-order":
        return CompiledRankOrder(
            rank_positive=artifact.buffer(f"rank_positive:{language.value}"),
            rank_negative=artifact.buffer(f"rank_negative:{language.value}"),
            profile_size=spec["profile_size"],
            names_array=indexer.names_array,
        )
    raise ArtifactError(f"artifact references unknown scorer type {kind!r}")


# -- rollout metadata -------------------------------------------------------------


def _rollout_stamp(identifier) -> dict:
    """The ``model.rollout`` header block: deployment provenance.

    ``created_at`` is the artifact's save time (ISO-8601 UTC with
    microseconds — sortable as a plain string), and ``train_corpus`` is
    the sha256 fingerprint :meth:`repro.corpus.records.Corpus.fingerprint`
    of the corpus the identifier was fitted on (``None`` for models
    trained before fingerprinting existed).  The serving daemon's
    hot-reload gate (:meth:`repro.store.daemon.ServingDaemon._reload_gate`)
    requires this block on any replacement artifact and refuses
    rollbacks by ``created_at`` ordering; :meth:`ModelStore.list
    <repro.store.registry.ModelStore.list>` surfaces both fields so
    operators can audit what is deployable.

    Re-saving a loaded :class:`ServingIdentifier` refreshes
    ``created_at`` but preserves the original ``train_corpus`` — the
    weights' provenance does not change by being copied.
    """
    from datetime import datetime, timezone

    return {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="microseconds"
        ),
        "train_corpus": getattr(identifier, "train_fingerprint", None),
    }


# -- save / load -----------------------------------------------------------------


def save_identifier(
    identifier, path: str | os.PathLike, *, dtype: str | None = None
) -> str:
    """Persist a fitted, compiled identifier as a model artifact.

    Accepts anything exposing a ``compiled``
    :class:`~repro.core.pipeline.CompiledIdentifier` plus the usual
    config attributes — a trained
    :class:`~repro.core.pipeline.LanguageIdentifier` or an already
    loaded :class:`ServingIdentifier`.  Returns the artifact's content
    checksum.  Raises :class:`ArtifactError` when the identifier has no
    compiled backend (DT/kNN/IIS-MaxEnt/baselines — keep those on the
    deprecated pickle path).

    ``dtype`` selects the stored precision of the stacked weight matrix:
    ``None`` keeps the matrix's own dtype, ``"float64"`` is the exact
    default, and ``"float32"`` quantises the matmul columns — halving
    the mmapped footprint at the cost of scores moving by at most
    :data:`QUANTIZED_SCORE_TOLERANCE` (relative; decisions are expected
    to be unchanged).  Everything outside the matmul — rank-order
    profiles, Markov residual weights, bias constants — always stays
    exact, and a ``weights_dtype`` header flag marks quantised files so
    old readers refuse them instead of mis-reading.
    """
    if dtype is not None and dtype not in WEIGHT_DTYPES:
        raise ArtifactError(
            f"unsupported weights dtype {dtype!r}; choose from {WEIGHT_DTYPES}"
        )
    compiled: CompiledIdentifier | None = getattr(identifier, "compiled", None)
    if compiled is None:
        raise ArtifactError(
            f"identifier {getattr(identifier, 'name', identifier)!r} has no "
            "compiled backend, so it cannot be stored as an artifact; "
            "train with backend='auto'/'compiled' or fall back to pickle"
        )

    names = compiled.indexer.names
    if any("\n" in name for name in names):
        raise ArtifactError("feature names with newlines are not storable")
    buffers: dict[str, np.ndarray] = {
        "vocabulary": np.frombuffer(
            "\n".join(names).encode("utf-8"), dtype=np.uint8
        ),
    }
    stacked = compiled.stacked_columns
    flags: dict[str, str] = {}
    if stacked is not None:
        if dtype is not None:
            stacked = np.asarray(stacked, dtype=np.dtype(dtype))
        if stacked.dtype == np.float32:
            flags["weights_dtype"] = "float32"
        elif stacked.dtype != np.float64:
            raise ArtifactError(
                f"stacked weight matrix has unsupported dtype {stacked.dtype}; "
                f"choose from {WEIGHT_DTYPES}"
            )
        buffers["columns"] = stacked

    column_slices = compiled.column_slices
    scorer_specs = {
        language.value: _serialize_scorer(
            language, scorer, column_slices[language], buffers
        )
        for language, scorer in compiled.scorers.items()
    }

    model = {
        "kind": MODEL_KIND,
        "rollout": _rollout_stamp(identifier),
        "name": getattr(identifier, "name", "identifier"),
        "feature_set": getattr(identifier, "feature_set", "words"),
        "algorithm": getattr(identifier, "algorithm", "NB"),
        "seed": getattr(identifier, "seed", 0),
        "negative_sampling": getattr(identifier, "negative_sampling", "balanced"),
        "positive_weight": getattr(identifier, "positive_weight", 1),
        "n_features": len(names),
        "languages": [language.value for language in compiled.scorers],
        "extractor": _serialize_extractor(compiled.extractor),
        "scorers": scorer_specs,
    }
    return write_artifact(path, model, buffers, flags=flags)


class ServingIdentifier(IdentifierBase):
    """A read-only identifier reconstructed from a model artifact.

    Serves the full :class:`~repro.core.pipeline.IdentifierBase`
    surface (``decisions`` / ``scores_many`` / ``classify_many`` /
    ``evaluate`` / ``confusion`` / single-URL helpers) straight off the
    mapped weight matrix.  There is no sparse reference path and no
    training state — this is the deployment-side object; keep the
    trainable :class:`~repro.core.pipeline.LanguageIdentifier` for
    experimentation and introspection.
    """

    def __init__(
        self,
        compiled: CompiledIdentifier,
        model: dict,
        weights_dtype: str = "float64",
    ) -> None:
        self._compiled = compiled
        self.model = dict(model)
        #: Stored precision of the mapped weight matrix ("float32" for
        #: quantised artifacts; scores then carry the
        #: :data:`QUANTIZED_SCORE_TOLERANCE` contract).
        self.weights_dtype = weights_dtype
        self.feature_set = model.get("feature_set", "words")
        self.algorithm = model.get("algorithm", "NB")
        self.seed = model.get("seed", 0)
        self.negative_sampling = model.get("negative_sampling", "balanced")
        self.positive_weight = model.get("positive_weight", 1)
        self.backend = "compiled"
        #: Train-corpus fingerprint carried over from the artifact's
        #: rollout metadata, so re-saving preserves provenance.
        self.train_fingerprint = (model.get("rollout") or {}).get("train_corpus")

    @property
    def rollout(self) -> dict:
        """Rollout metadata stamped at save time (``created_at``,
        ``train_corpus``); empty for pre-rollout artifacts."""
        return dict(self.model.get("rollout") or {})

    @property
    def name(self) -> str:
        """Report label, e.g. ``"NB/words"`` (as the trained original)."""
        return self.model.get("name", f"{self.algorithm}/{self.feature_set}")

    @property
    def compiled(self) -> CompiledIdentifier:
        """The vectorized backend reconstructed from the artifact."""
        return self._compiled

    def capabilities(self):
        """The :class:`repro.api.Predictor` capability block, with the
        artifact's rollout metadata (save stamp, corpus fingerprint) as
        the model provenance."""
        from repro.api.types import Capabilities, ModelInfo

        rollout = self.rollout
        return Capabilities(
            model=ModelInfo(
                name=self.name,
                backend="compiled",
                languages=tuple(self._compiled.scorers),
                created_at=rollout.get("created_at"),
                train_corpus=rollout.get("train_corpus"),
            ),
            compiled=True,
            remote=False,
        )

    def scores_matrix(self, urls):
        """``(n_urls, n_languages)`` decision scores — one matmul for the
        batch, columns in the artifact's language order."""
        return self._compiled.scores_matrix(urls)


def load_identifier(path: str | os.PathLike) -> ServingIdentifier:
    """Load a model artifact into a :class:`ServingIdentifier`.

    O(header + vocabulary): the weight matrix is memory-mapped, not
    read, so concurrent serving processes share one read-only copy via
    the OS page cache.  Raises the :mod:`repro.store.format` error
    hierarchy on malformed files.
    """
    artifact = ArtifactFile(path)
    model = artifact.model
    if model.get("kind") != MODEL_KIND:
        raise ArtifactError(
            f"{artifact.path} is a valid artifact container but not a "
            f"language-identifier model (kind={model.get('kind')!r})"
        )
    flags = artifact.flags
    unknown_flags = set(flags) - KNOWN_FLAGS
    if unknown_flags:
        raise ArtifactError(
            f"{artifact.path} carries unknown load-affecting flags "
            f"{sorted(unknown_flags)}; this reader understands "
            f"{sorted(KNOWN_FLAGS)} — refusing rather than mis-reading"
        )
    weights_dtype = flags.get("weights_dtype", "float64")
    if weights_dtype not in WEIGHT_DTYPES:
        raise ArtifactError(
            f"{artifact.path} declares weights_dtype={weights_dtype!r}; "
            f"this reader understands {WEIGHT_DTYPES}"
        )

    blob = artifact.buffer("vocabulary").tobytes().decode("utf-8")
    names = blob.split("\n") if blob else []
    if len(names) != model.get("n_features", len(names)):
        raise ArtifactError(
            f"{artifact.path}: vocabulary has {len(names)} names, header "
            f"records {model.get('n_features')}"
        )
    indexer = FeatureIndexer.from_names(names)
    extractor = _build_extractor(model.get("extractor", {}))

    columns = artifact.buffer("columns") if "columns" in artifact.buffer_names else None
    if columns is not None and str(columns.dtype) != weights_dtype:
        raise ArtifactError(
            f"{artifact.path}: columns buffer is {columns.dtype}, header "
            f"flags declare {weights_dtype!r} — artifact is inconsistent"
        )
    scorers = {}
    for code in model.get("languages", []):
        language = Language.coerce(code)
        scorers[language] = _build_scorer(
            model["scorers"][code], language, columns, artifact, indexer
        )

    compiled = CompiledIdentifier(
        extractor=extractor, indexer=indexer, scorers=scorers, columns=columns
    )
    return ServingIdentifier(
        compiled=compiled, model=model, weights_dtype=weights_dtype
    )
