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

from repro._lazy import lazy_exports

# Each name loads its module on first use: a bulk worker that opens an
# artifact does not import the daemon or its clients.
__getattr__, __dir__ = lazy_exports(globals(), {
    "MODEL_KIND": "repro.store.artifact",
    "QUANTIZED_SCORE_TOLERANCE": "repro.store.artifact",
    "ServingIdentifier": "repro.store.artifact",
    "load_identifier": "repro.store.artifact",
    "save_identifier": "repro.store.artifact",
    "DaemonClient": "repro.store.client",
    "DaemonError": "repro.store.client",
    "DaemonRequestError": "repro.store.client",
    "DaemonUnavailableError": "repro.store.client",
    "RemoteIdentifier": "repro.store.client",
    "ServingDaemon": "repro.store.daemon",
    "start_daemon": "repro.store.daemon",
    "stop_daemon": "repro.store.daemon",
    "FORMAT_VERSION": "repro.store.format",
    "ArtifactChecksumError": "repro.store.format",
    "ArtifactError": "repro.store.format",
    "ArtifactFile": "repro.store.format",
    "ArtifactFormatError": "repro.store.format",
    "ArtifactMissingError": "repro.store.format",
    "ArtifactVersionError": "repro.store.format",
    "is_artifact": "repro.store.format",
    "write_artifact": "repro.store.format",
    "ARTIFACT_SUFFIX": "repro.store.registry",
    "ModelHandle": "repro.store.registry",
    "ModelStore": "repro.store.registry",
    "score_batch": "repro.store.serve",
})

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
