"""The asyncio inference facade: :func:`aopen_model` / :class:`AsyncPredictor`.

The async twin of :func:`repro.api.open_model`.  One call resolves any
model handle to a live :class:`AsyncPredictor` whose batch methods are
coroutines:

>>> from repro.api import aopen_model
>>> async def classify(urls):                            # doctest: +SKIP
...     async with await aopen_model("repro+tcp://127.0.0.1:7707") as model:
...         return await model.adecisions(urls)

Two resolution routes, one surface:

* **Daemon handles** (``repro://<socket-path>``,
  ``repro+tcp://<host>:<port>``) get a *native* asyncio client — a
  :class:`~repro.store.client.AsyncDaemonClient` that multiplexes every
  concurrent coroutine's requests over **one** keep-alive connection,
  pairing pipelined responses by correlation id.  Handle options
  (``?timeout=&retries=&backoff=&deadline=``) are honoured with exactly
  the sync resolver's grammar via
  :func:`repro.api.resolver.daemon_endpoint`.
* **Everything else** (artifact paths, ``store://`` names, fitted
  identifiers) resolves through the sync resolver *off the event loop*
  (:func:`asyncio.to_thread`) and is wrapped so each scoring call also
  runs in a worker thread — local scoring is GIL-bound C-accelerated
  NumPy, so the loop stays responsive while a batch scores.

Both routes answer the same sparse-oracle equivalence contract as the
sync facade: ``adecisions`` byte-identical, scores within 1e-9
(``tests/api/test_async_predictor.py``).
"""

from __future__ import annotations

import asyncio
import os
from collections.abc import Sequence
from types import TracebackType
from typing import Optional, Protocol, Union, cast, runtime_checkable

from repro.api.protocol import Predictor
from repro.api.resolver import (
    ModelHandleLike,
    _unusable_daemon,
    daemon_endpoint,
    is_daemon_handle,
    open_model,
)
from repro.api.types import BatchResult, Capabilities
from repro.languages import Language

__all__ = ["AsyncPredictor", "aopen_model"]


@runtime_checkable
class AsyncPredictor(Protocol):
    """A model that turns URLs into language decisions, asynchronously.

    The coroutine surface of :class:`~repro.api.protocol.Predictor`:
    the same two batch primitives (:meth:`adecisions` /
    :meth:`ascores_many`), the same derived convenience call
    (:meth:`apredict`), held to the same sparse-oracle equivalence
    contract.  Structural (:pep:`544`) — daemon-native clients and
    thread-lifted local predictors both satisfy it without inheritance.
    Async-context-manager lifecycle; :meth:`aclose` releases the
    backend connection.
    """

    @property
    def name(self) -> str:
        """Report label of the model, e.g. ``"NB/words"``."""
        ...

    async def apredict(self, urls: Sequence[str]) -> BatchResult:
        """Score one batch: decisions, scores, best labels, provenance."""
        ...

    async def adecisions(
        self, urls: Sequence[str]
    ) -> dict[Language, list[bool]]:
        """Per-language binary decisions for a batch (byte-identical
        across backends and across the sync facade)."""
        ...

    async def ascores_many(
        self, urls: Sequence[str]
    ) -> dict[Language, list[float]]:
        """Per-language decision scores for a batch."""
        ...

    async def acapabilities(self) -> Capabilities:
        """Backend capabilities and model provenance, without scoring."""
        ...

    async def aclose(self) -> None:
        """Release backend resources (connection, cached metadata)."""
        ...

    async def __aenter__(self) -> "AsyncPredictor":
        ...

    async def __aexit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        ...


class _ThreadedPredictor:
    """A sync :class:`Predictor` lifted onto the event loop.

    Every scoring call runs in a worker thread
    (:func:`asyncio.to_thread`), so a large local batch never blocks
    concurrently running coroutines.  Calls are **not** serialised here
    — local backends are stateless per call and thread-safe for
    scoring — so concurrent ``gather`` fans out across threads exactly
    like concurrent daemon calls fan out across correlation ids.
    """

    def __init__(self, predictor: Predictor) -> None:
        self._predictor = predictor

    @property
    def name(self) -> str:
        return self._predictor.name

    async def apredict(self, urls: Sequence[str]) -> BatchResult:
        return await asyncio.to_thread(self._predictor.predict, list(urls))

    async def adecisions(
        self, urls: Sequence[str]
    ) -> dict[Language, list[bool]]:
        return await asyncio.to_thread(self._predictor.decisions, list(urls))

    async def ascores_many(
        self, urls: Sequence[str]
    ) -> dict[Language, list[float]]:
        return await asyncio.to_thread(
            self._predictor.scores_many, list(urls)
        )

    async def acapabilities(self) -> Capabilities:
        return await asyncio.to_thread(self._predictor.capabilities)

    async def aclose(self) -> None:
        await asyncio.to_thread(self._predictor.close)

    async def __aenter__(self) -> "_ThreadedPredictor":
        return self

    async def __aexit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        await self.aclose()


async def _aopen_daemon(handle: str, timeout: float) -> AsyncPredictor:
    """Dial a daemon handle with the native asyncio client and verify
    it answers — the sync resolver's steps, pinged over asyncio."""
    from repro.store.client import AsyncRemoteIdentifier, DaemonError

    address, timeout, retry, tracing = daemon_endpoint(
        handle, timeout=timeout
    )
    remote = AsyncRemoteIdentifier.connect(
        address, timeout=timeout, retry=retry, tracing=tracing
    )
    try:
        await remote.client.aping()
    except DaemonError as error:
        await remote.aclose()
        raise _unusable_daemon(handle, error) from error
    return cast(AsyncPredictor, remote)


async def aopen_model(
    handle: ModelHandleLike,
    *,
    store_root: Optional[Union[str, os.PathLike]] = None,
    timeout: float = 30.0,
) -> AsyncPredictor:
    """Resolve any model handle to a live :class:`AsyncPredictor`.

    The handle grammar is :func:`repro.api.open_model`'s, plus the TCP
    daemon scheme: daemon handles (``repro://``, ``repro+tcp://``) get
    a native asyncio client multiplexing concurrent calls over one
    keep-alive connection; every other handle resolves through the sync
    resolver in a worker thread and scores via worker threads.  Failure
    modes are the sync facade's typed :mod:`repro.api.errors`
    hierarchy.
    """
    if is_daemon_handle(handle):
        return await _aopen_daemon(cast(str, handle), timeout)
    predictor = await asyncio.to_thread(
        open_model, handle, store_root=store_root, timeout=timeout
    )
    return _ThreadedPredictor(predictor)
