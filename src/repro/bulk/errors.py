"""The typed failure hierarchy of the bulk engine.

Mirrors the :mod:`repro.api.errors` idiom: every anticipated failure is
a subclass of one base with an actionable message, so the CLI can turn
any of them into a clean exit and library callers can catch precisely.
"""

from __future__ import annotations

__all__ = [
    "BulkError",
    "CheckpointError",
    "ManifestCorruptError",
    "ManifestMismatchError",
    "ShardCommitError",
    "VerifyError",
]


class BulkError(Exception):
    """Base class for every bulk-engine failure."""


class ShardCommitError(BulkError):
    """A scored shard's output could not be committed to disk (ENOSPC,
    permissions, a vanished output directory).  The run stops — row
    data is safe in the input, nothing half-written carries the final
    output name — and a later ``--resume`` re-scores exactly the
    uncommitted shards."""


class VerifyError(BulkError):
    """``repro bulk verify`` found the output directory inconsistent
    with its manifest — shards still pending, output files missing, or
    bytes whose sha256 no longer matches the checkpointed one."""


class CheckpointError(BulkError):
    """The run manifest cannot be used to resume."""


class ManifestCorruptError(CheckpointError):
    """The manifest file does not parse (truncated, hand-edited, or
    not a manifest at all), or its journal records a shard the
    manifest does not plan.  Resuming from it would be guesswork —
    start a fresh run in a clean output directory instead."""


class ManifestMismatchError(CheckpointError):
    """The manifest describes a *different* run — another model
    checksum or another shard list.  Resuming would silently mix two
    models' scores in one output; refused."""
