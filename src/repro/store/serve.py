"""The daemon's ``classify`` rows, from one scored batch.

:func:`score_batch` turns one batch of URLs into the rows the daemon's
``classify`` operation (:mod:`repro.store.daemon`) answers with — the
best label and the positive languages of each URL, as
:class:`~repro.api.Prediction` values without scores — from one
:class:`~repro.api.BatchResult`.  :class:`~repro.store.client.DaemonClient`
hands the same rows back.

Scoring a file is ``repro classify`` (in process, streamed) or
``repro bulk`` (checkpointed, fanned out over worker processes); a
stream of batches against warm caches is a daemon plus
``classify --model repro://<socket>``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace

from repro.api.types import BatchResult, Prediction
from repro.core.pipeline import IdentifierBase, stack_scores
from repro.languages import Language


def score_batch(
    identifier: IdentifierBase,
    urls: Sequence[str],
    scores: Mapping[Language, Sequence[float]] | None = None,
) -> list[Prediction]:
    """The ``classify`` answer's rows for one batch, in input order.

    A caller that already holds the batch's ``scores_many`` map passes
    it as ``scores`` to skip the re-score; its keys name the columns.
    """
    if scores is None:
        result = identifier.predict(urls)
    else:
        model = replace(identifier.capabilities().model, languages=tuple(scores))
        result = BatchResult(tuple(urls), stack_scores(scores), model)
    return [
        Prediction(url, best, positives)
        for url, best, positives in zip(
            result.urls, result.best, result.positives
        )
    ]
