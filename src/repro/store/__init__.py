"""Portable model artifacts, zero-copy multi-process serving, and the
long-lived serving daemon.

This package persists fitted identifiers as a versioned binary format —
a JSON header plus raw little-endian numpy buffers — that serving
workers open with ``mmap``, so N processes share one read-only weight
matrix instead of N pickled clones, and serves them two ways: an
in-process :class:`ServingIdentifier` and a socket/HTTP daemon.

Layers, bottom to top:

* :mod:`repro.store.format` — the container: magic, format version,
  64-byte-aligned buffers, payload checksums, the
  :class:`ArtifactError` hierarchy.
* :mod:`repro.store.artifact` — model (de)lowering:
  :func:`save_identifier` / :func:`load_identifier`, rollout metadata
  stamping, and the deployment-side :class:`ServingIdentifier`.
* :mod:`repro.store.registry` — the :class:`ModelStore` directory of
  named artifacts (save/load/list/verify), surfacing rollout metadata
  per :class:`ModelHandle`.
* :mod:`repro.store.serve` — :func:`score_batch`, the daemon's
  ``classify`` rows (:class:`~repro.api.Prediction` values without
  scores) from one :class:`~repro.api.BatchResult`.
* :mod:`repro.store.metrics` — request counts and latency histograms
  shared by the daemon's status block and ``repro.bulk`` progress
  reporting.
* :mod:`repro.store.wire` — the length-prefixed JSON protocol spoken
  between daemon and clients.
* :mod:`repro.store.daemon` — the long-lived pre-forked serving daemon
  (Unix socket + optional HTTP front-end, SIGHUP hot reload).
* :mod:`repro.store.client` — :class:`DaemonClient` and
  :class:`RemoteIdentifier` (handle strings resolve through
  :func:`repro.api.open_model`, which fronts every backend here).

See ``docs/architecture.md`` for the on-disk layout and header fields,
``docs/serving.md`` for the daemon lifecycle and wire protocol, and
``docs/api.md`` for the public prediction facade.
"""

from repro.store.artifact import (
    MODEL_KIND,
    QUANTIZED_SCORE_TOLERANCE,
    ServingIdentifier,
    load_identifier,
    save_identifier,
)
from repro.store.client import (
    DaemonClient,
    DaemonError,
    DaemonRequestError,
    DaemonUnavailableError,
    RemoteIdentifier,
)
from repro.store.daemon import ServingDaemon, start_daemon, stop_daemon
from repro.store.format import (
    FORMAT_VERSION,
    ArtifactChecksumError,
    ArtifactError,
    ArtifactFile,
    ArtifactFormatError,
    ArtifactMissingError,
    ArtifactVersionError,
    is_artifact,
    write_artifact,
)
from repro.store.registry import ARTIFACT_SUFFIX, ModelHandle, ModelStore
from repro.store.serve import score_batch

__all__ = [
    "ARTIFACT_SUFFIX",
    "ArtifactChecksumError",
    "ArtifactError",
    "ArtifactFile",
    "ArtifactFormatError",
    "ArtifactMissingError",
    "ArtifactVersionError",
    "DaemonClient",
    "DaemonError",
    "DaemonRequestError",
    "DaemonUnavailableError",
    "FORMAT_VERSION",
    "MODEL_KIND",
    "ModelHandle",
    "ModelStore",
    "QUANTIZED_SCORE_TOLERANCE",
    "RemoteIdentifier",
    "ServingDaemon",
    "ServingIdentifier",
    "is_artifact",
    "load_identifier",
    "save_identifier",
    "score_batch",
    "start_daemon",
    "stop_daemon",
    "write_artifact",
]
