"""The served row shape and the per-batch kernel behind it.

:func:`score_batch` turns one batch of URLs into :class:`ServedUrl`
rows — the best label plus every language whose binary classifier
answered yes — from a single ``scores_many`` matmul.  The daemon's
``classify`` operation (:mod:`repro.store.daemon`) answers with these
rows, and :class:`~repro.store.client.DaemonClient` hands them back.

Scoring a file is ``repro classify`` (in process, streamed) or
``repro bulk`` (checkpointed, fanned out over worker processes); a
stream of batches against warm caches is a daemon plus
``classify --model repro://<socket>``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro.core.pipeline import IdentifierBase


class ServedUrl(NamedTuple):
    """One scored URL: the single best label (or ``None``) plus every
    language whose binary classifier answered yes."""

    url: str
    best: str | None
    positives: tuple[str, ...]

    def tsv(self) -> str:
        """The CLI's output row: ``best <TAB> binary-yes <TAB> url``,
        with ``-`` placeholders.  ``classify`` and the serve front-ends
        all emit this format, so they stay diff-compatible."""
        return f"{self.best or '-'}\t{','.join(self.positives) or '-'}\t{self.url}"


def score_batch(
    identifier: IdentifierBase, urls: Sequence[str], scores=None
) -> list[ServedUrl]:
    """Score one batch with ``identifier`` (a single matmul when compiled).

    One ``scores_many`` pass yields both the best label and the
    per-language yes/no answers, in input order.  A caller that already
    holds the batch's ``scores_many`` result (the daemon does, to feed
    its drift counters) passes it as ``scores`` to skip the re-score.
    """
    if scores is None:
        scores = identifier.scores_many(urls)
    best = identifier.classify_many(urls, scores=scores)
    results = []
    for row, url in enumerate(urls):
        positives = tuple(
            sorted(
                language.value
                for language in scores
                if scores[language][row] > 0.0
            )
        )
        results.append(
            ServedUrl(
                url=url,
                best=best[row].value if best[row] is not None else None,
                positives=positives,
            )
        )
    return results
