"""The :class:`Predictor` protocol — the one public prediction surface.

Anything :func:`repro.api.open_model` returns satisfies this protocol,
whatever the backend: a trainable
:class:`~repro.core.pipeline.LanguageIdentifier`, an artifact-backed
:class:`~repro.store.ServingIdentifier`, or a daemon-backed
:class:`~repro.store.client.RemoteIdentifier`.  The protocol is
structural (:pep:`544`): backends implement it natively on
:class:`~repro.core.pipeline.IdentifierBase`, which derives both batch
primitives (and ``predict``) from one ``(n, k)`` ``scores_matrix`` per
batch, and third-party backends need no inheritance, only the methods.

Lifecycle: predictors are context managers.  ``close()`` releases any
backend connection (a daemon socket); for in-process backends it is a
no-op.  A closed predictor that is used again may transparently
reconnect (remote) or keep working (local) — ``close`` is a release,
not a poison pill.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from types import TracebackType
from typing import Optional, Protocol, runtime_checkable

from repro.api.types import BatchResult, Capabilities, Prediction
from repro.languages import Language

__all__ = ["DEFAULT_CHUNK_SIZE", "Predictor", "predict_iter"]

#: Default URLs per chunk on the streaming path (one matmul each).
DEFAULT_CHUNK_SIZE = 512


@runtime_checkable
class Predictor(Protocol):
    """A model that turns URLs into language decisions.

    The two batch primitives every backend must answer are
    :meth:`decisions` and :meth:`scores_many` — their outputs are held
    to the sparse-oracle equivalence contract (byte-identical
    decisions, scores within 1e-9) regardless of backend.  ``predict``
    / ``predict_iter`` are the typed convenience surface derived from
    one scoring pass.
    """

    @property
    def name(self) -> str:
        """Report label of the model, e.g. ``"NB/words"``."""
        ...

    def predict(self, urls: Sequence[str]) -> BatchResult:
        """Score one batch: decisions, scores, best labels, provenance."""
        ...

    def predict_iter(
        self, urls: Iterable[str], chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Prediction]:
        """Stream predictions over an arbitrarily large URL iterable,
        scoring ``chunk_size`` URLs per pass so the full input is never
        materialised."""
        ...

    def decisions(self, urls: Sequence[str]) -> dict[Language, list[bool]]:
        """Per-language binary decisions for a batch (the paper's
        protocol; byte-identical across backends)."""
        ...

    def scores_many(self, urls: Sequence[str]) -> dict[Language, list[float]]:
        """Per-language decision scores for a batch."""
        ...

    def scores(self, url: str) -> dict[Language, float]:
        """Per-language decision scores for one URL (introspection)."""
        ...

    def capabilities(self) -> Capabilities:
        """Backend capabilities and model provenance, without scoring."""
        ...

    def close(self) -> None:
        """Release backend resources (no-op for in-process backends)."""
        ...

    def __enter__(self) -> "Predictor":
        ...

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        ...


def predict_iter(
    predictor: Predictor,
    urls: Iterable[str],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Prediction]:
    """Stream predictions from any predictor in bounded memory.

    Module-level twin of :meth:`Predictor.predict_iter` for callers
    that hold a predictor-shaped object from elsewhere; chunks the
    iterable, scores each chunk in one batch pass, and yields row-major
    :class:`~repro.api.types.Prediction` values as they are ready.
    A bad ``chunk_size`` raises here, at the call site, not on first
    iteration.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    def generate() -> Iterator[Prediction]:
        chunk: list[str] = []
        for url in urls:
            chunk.append(url)
            if len(chunk) >= chunk_size:
                yield from predictor.predict(chunk)
                chunk.clear()
        if chunk:
            yield from predictor.predict(chunk)

    return generate()
