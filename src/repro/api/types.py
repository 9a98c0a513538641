"""Typed result and capability values of the prediction facade.

These dataclasses are the facade's half of the contract: every
:class:`~repro.api.Predictor` answers ``predict`` with a
:class:`BatchResult` (the batch's score matrix plus the
:class:`ModelInfo` provenance of the model that produced it) and
``capabilities`` with a :class:`Capabilities` block, no matter which
backend — in-process, memory-mapped artifact, or remote daemon — did
the scoring.

Only numpy and :mod:`repro.languages` are imported here, so these types
are safe to use from any layer without cycles.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.languages import Language

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["BatchResult", "Capabilities", "ModelInfo", "Prediction", "argmax_labels"]


@dataclass(frozen=True)
class ModelInfo:
    """Provenance of the model behind a predictor.

    ``backend`` is where inference actually runs: ``"compiled"`` (the
    vectorized matmul path, in-process or mapped from an artifact),
    ``"sparse"`` (the dict-walking reference path), or ``"remote"`` (a
    serving daemon; no weights in this process).  ``created_at`` and
    ``train_corpus`` carry the artifact's rollout metadata — the save
    timestamp and the sha256 fingerprint of the training corpus — and
    are ``None`` where no rollout stamp exists (freshly fitted models,
    pre-rollout artifacts).
    """

    name: str
    backend: str
    languages: tuple[Language, ...]
    created_at: Optional[str] = None
    train_corpus: Optional[str] = None
    source: Optional[str] = None


@dataclass(frozen=True)
class Capabilities:
    """What a predictor can do, answerable without scoring anything.

    ``batch`` and ``streaming`` are True for every conforming
    predictor (``predict`` / ``predict_iter`` are part of the
    protocol); they exist so future constrained backends can say no.
    ``remote`` predictors hold no weights locally and survive daemon
    hot reloads; ``compiled`` ones answer batches with one matrix
    product.
    """

    model: ModelInfo
    compiled: bool
    remote: bool
    batch: bool = True
    streaming: bool = True


@dataclass(frozen=True)
class Prediction:
    """One URL's answer: the paper's per-language binary decisions
    plus the single best label downstream applications want.

    ``positives`` are the languages whose binary classifier said yes,
    sorted by language code; ``best`` is the top-scoring language or
    ``None`` when every classifier said no; ``scores`` are the raw
    decision scores (larger = more confident yes).
    """

    url: str
    best: Optional[Language]
    positives: tuple[Language, ...]
    scores: Mapping[Language, float] = field(default_factory=dict)

    def tsv(self) -> str:
        """The CLI's output row: ``best <TAB> binary-yes <TAB> url``
        with ``-`` placeholders."""
        best = self.best.value if self.best is not None else "-"
        positives = ",".join(language.value for language in self.positives)
        return f"{best}\t{positives or '-'}\t{self.url}"


def _best_columns(matrix: NDArray[np.float64]) -> NDArray[np.intp]:
    """Each row's best column: the row's first maximum, or -1 when that
    maximum is not positive.  The one tie rule: ``argmax`` returns the
    first maximum, so ties go to the model's earliest language."""
    return np.where(matrix.max(axis=1) > 0.0, matrix.argmax(axis=1), -1)


def _positive_masks(matrix: NDArray[np.float64]) -> NDArray[np.uint8]:
    """Each row's decisions as a bitmask: bit ``j`` is set when column
    ``j`` scored above zero (one byte holds the five languages)."""
    return np.packbits(matrix > 0.0, axis=1, bitorder="little")[:, 0]


def argmax_labels(
    matrix: NDArray[np.float64], languages: Sequence[Language]
) -> tuple[Optional[Language], ...]:
    """Each row's best label: the language (a column of ``matrix``,
    named by ``languages``) of :func:`_best_columns`, or ``None`` when
    the row's maximum is not positive.
    """
    labels = (*languages, None)  # column -1 is "no language"
    return tuple(labels[column] for column in _best_columns(matrix).tolist())


@cache
def _positives_table(
    languages: tuple[Language, ...],
) -> tuple[tuple[Language, ...], ...]:
    """Every subset of ``languages`` as a code-sorted tuple, indexed by
    its bitmask (bit ``j`` set when column ``j`` answered yes): at most
    32 entries, built once per language tuple."""
    by_code = sorted(languages, key=lambda language: language.value)
    return tuple(
        tuple(language for language in by_code
              if mask >> languages.index(language) & 1)
        for mask in range(1 << len(languages))
    )


@dataclass(frozen=True, eq=False)
class BatchResult:
    """One scored batch: ``matrix[i, j]`` is the decision score of
    ``urls[i]`` for ``model.languages[j]``.

    Every other field is a view of the matrix, derived once on first
    use: ``scores`` / ``decisions`` (``score > 0``) keyed by language
    in the model's order, the equivalence-oracle shape of
    ``scores_many`` / ``decisions``; ``best`` (:func:`argmax_labels`)
    and code-sorted ``positives``, row-aligned with ``urls``.  Iterate
    (or index) to get row-major :class:`Prediction` values.  Results
    are equal when their URLs, models and matrices are.
    """

    urls: tuple[str, ...]
    matrix: NDArray[np.float64]
    model: ModelInfo

    def __post_init__(self) -> None:
        expected = (len(self.urls), len(self.model.languages))
        if self.matrix.shape != expected:
            raise ValueError(f"score matrix {self.matrix.shape} is not "
                             f"URLs x languages {expected}")

    @cached_property
    def scores(self) -> dict[Language, list[float]]:
        return dict(zip(self.model.languages, self.matrix.T.tolist()))

    @cached_property
    def decisions(self) -> dict[Language, list[bool]]:
        return dict(zip(self.model.languages, (self.matrix.T > 0.0).tolist()))

    @cached_property
    def best(self) -> tuple[Optional[Language], ...]:
        return argmax_labels(self.matrix, self.model.languages)

    @cached_property
    def positives(self) -> tuple[tuple[Language, ...], ...]:
        table = _positives_table(self.model.languages)
        return tuple(
            table[mask] for mask in _positive_masks(self.matrix).tolist()
        )

    @cached_property
    def _rows(self) -> tuple[Prediction, ...]:
        languages = self.model.languages
        return tuple(
            Prediction(url, best, positives, dict(zip(languages, row)))
            for url, best, positives, row in zip(
                self.urls, self.best, self.positives, self.matrix.tolist()
            )
        )

    def __len__(self) -> int:
        return len(self.urls)

    def __getitem__(self, row: int) -> Prediction:
        return self._rows[row]

    def __iter__(self) -> Iterator[Prediction]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchResult):
            return NotImplemented
        return (self.urls, self.model) == (other.urls, other.model) and bool(
            np.array_equal(self.matrix, other.matrix))
