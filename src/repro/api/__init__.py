"""``repro.api`` — the one public entry point for inference.

The paper's deliverable is a single cheap operation: *given URLs,
return language decisions*.  This package is that operation's stable
seam.  Callers resolve any model handle with :func:`open_model` and
talk to the resulting :class:`Predictor` — never to a specific backend
— so model placement (in-process weights, a memory-mapped artifact, a
store-managed deployment, a remote daemon) can change without touching
caller code:

>>> from repro.api import open_model
>>> with open_model("model.urlmodel") as model:          # doctest: +SKIP
...     for prediction in model.predict_iter(urls):
...         print(prediction.tsv())

Surface:

* :func:`open_model` / :func:`register_scheme` — URI-style handle
  resolution (``path``, ``store://name[@version]``, ``repro://socket``,
  ``repro+tcp://host:port``, legacy pickle) with an extensible scheme
  registry;
* :func:`aopen_model` / :class:`AsyncPredictor` — the asyncio twin:
  daemon handles get a native async client multiplexing concurrent
  calls over one keep-alive connection, local handles score in worker
  threads;
* :class:`Predictor` — the structural protocol every backend
  implements (``predict`` / ``predict_iter`` / ``decisions`` /
  ``scores_many`` / ``scores`` / ``capabilities`` / ``close``,
  context-manager lifecycle);
* :class:`Prediction` / :class:`BatchResult` / :class:`ModelInfo` /
  :class:`Capabilities` — typed results carrying decisions, scores,
  and model provenance from rollout metadata;
* :func:`predict_iter` — chunked streaming over arbitrarily large URL
  iterables;
* :class:`ResolveError` and friends — the typed failure hierarchy of
  resolution.

Every backend behind this facade is held to the sparse-oracle
equivalence contract: ``decisions()`` byte-identical, scores within
1e-9, whichever resolution route produced the predictor
(``tests/api/test_resolution_equivalence.py``).  See ``docs/api.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.api.errors import (
    BackendUnavailableError,
    InvalidHandleError,
    ModelNotFoundError,
    ResolveError,
    UnknownSchemeError,
    UnreadableModelError,
    VersionMismatchError,
)
from repro.api.protocol import DEFAULT_CHUNK_SIZE, Predictor, predict_iter
from repro.api.resolver import (
    DAEMON_SCHEME,
    DEFAULT_STORE_ROOT,
    STORE_ROOT_ENV,
    TCP_DAEMON_SCHEME,
    ResolveContext,
    daemon_endpoint,
    daemon_socket_path,
    is_daemon_handle,
    open_model,
    portable_handle,
    register_scheme,
    registered_schemes,
    resolve_artifact_path,
    sniff_model_format,
    tcp_daemon_address,
)
from repro.api.types import BatchResult, Capabilities, ModelInfo, Prediction

if TYPE_CHECKING:
    from repro.api.aio import AsyncPredictor, aopen_model

# The async facade loads on first use: it imports asyncio, which the
# synchronous callers (the daemon, bulk workers, the CLI) never need.
__getattr__, __dir__ = lazy_exports(globals(), {
    "AsyncPredictor": "repro.api.aio",
    "aopen_model": "repro.api.aio",
})

__all__ = [
    "AsyncPredictor",
    "BackendUnavailableError",
    "BatchResult",
    "Capabilities",
    "DAEMON_SCHEME",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_STORE_ROOT",
    "InvalidHandleError",
    "ModelInfo",
    "ModelNotFoundError",
    "Prediction",
    "Predictor",
    "ResolveContext",
    "ResolveError",
    "STORE_ROOT_ENV",
    "TCP_DAEMON_SCHEME",
    "UnknownSchemeError",
    "UnreadableModelError",
    "VersionMismatchError",
    "aopen_model",
    "daemon_endpoint",
    "daemon_socket_path",
    "is_daemon_handle",
    "open_model",
    "portable_handle",
    "predict_iter",
    "register_scheme",
    "registered_schemes",
    "resolve_artifact_path",
    "sniff_model_format",
    "tcp_daemon_address",
]
