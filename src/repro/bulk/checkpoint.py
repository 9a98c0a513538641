"""The run checkpoint: what makes a bulk run killable and resumable.

Two files in the output directory record everything needed to pick a
run back up after a crash, a SIGKILL, or a deliberate stop.
``manifest.json`` is the plan:

* the **model fingerprint** — handle, name, artifact checksum, rollout
  metadata — so a resume against a *different* model is refused
  instead of silently mixing two models' scores in one output;
* the **shard list** in deterministic output order, so a resume
  against a changed input directory is refused too;
* per-shard completion: output file name, row count, wall seconds, and
  the **sha256 of the output shard** — on resume, every shard claiming
  ``done`` must still have its exact output bytes on disk, or it is
  re-scored (a half-written or deleted output never survives into the
  final corpus).

``manifest.journal`` beside it is the append-only completion journal:
one line per committed shard, ``<crc32 hex> <JSON {"entry", "shard"}>``,
carrying that shard's whole manifest entry (summary included).

Durability protocol: committing a shard appends its record and fsyncs
the journal — one record, whatever the shard count, where rewriting
the manifest per shard cost time in proportion to the shards planned.
The manifest is only ever replaced **atomically** (write to a temp
file, ``fsync``, ``os.replace``): when the run is planned, and when it
is *compacted* on resume and at the end of every run.  Compaction
writes the full state durably before it deletes the journal, so a kill
between the two steps only leaves records to replay that the manifest
already holds.  :meth:`RunManifest.load` replays the journal up to the
first torn or checksum-failing record, so a kill at any instant loses
at most the shards that were mid-flight, never the record of finished
work — and every reader (resume, ``bulk verify``, ``query index``,
lineage) sees each journaled shard.  Output shards get the same
treatment (written to ``*.part``, fsynced, renamed), which is why a
``done`` entry's checksum can be trusted enough to *verify* rather
than re-score.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.bulk.errors import (
    ManifestCorruptError,
    ManifestMismatchError,
)
from repro.bulk.source import Shard

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "RunManifest",
    "journal_path",
    "sha256_file",
]

#: File name of the run manifest inside the output directory.
MANIFEST_NAME = "manifest.json"

#: Manifest format version (bumped on incompatible layout changes;
#: version 2 added the completion journal, which version-1 builds
#: would ignore).
MANIFEST_VERSION = 2


def journal_path(manifest_path: str | os.PathLike) -> Path:
    """The completion journal of a manifest: ``manifest.journal``
    beside ``manifest.json``."""
    return Path(manifest_path).with_suffix(".journal")


def sha256_file(path: str | os.PathLike, chunk_bytes: int = 1 << 20) -> str:
    """Hex sha256 of a file, streamed (output shards can be huge)."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while True:
            block = stream.read(chunk_bytes)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Replace ``path`` with ``payload`` atomically (tmp + fsync + rename).

    A reader (or a resume) therefore sees either the previous manifest
    or the new one, never a truncated hybrid — a SIGKILL mid-save
    cannot corrupt the checkpoint.
    """
    data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _fsync_directory(path: Path) -> None:
    """Make the entries of directory ``path`` (a rename, a new file)
    durable, so they cannot be reordered with what follows."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class RunManifest:
    """In-memory view of ``manifest.json`` with its journal applied
    (see the module docstring)."""

    model: dict
    sink: str
    chunk_size: int
    url_field: str
    order: list[str] = field(default_factory=list)
    shards: dict[str, dict] = field(default_factory=dict)
    summary: dict | None = None
    #: File name of the run's derived SQLite result index (set by
    #: sinks that maintain one, e.g. ``sqlite``).  Advisory: the index
    #: is always rebuildable from the shards and is *not* part of the
    #: resume/verify contract — the text outputs stay the only source
    #: of truth.
    query_index: str | None = None
    version: int = MANIFEST_VERSION

    # -- construction --------------------------------------------------------------

    @classmethod
    def plan(
        cls,
        model: dict,
        shards: list[Shard],
        *,
        sink: str,
        chunk_size: int,
        url_field: str,
    ) -> "RunManifest":
        """A fresh manifest with every shard pending."""
        manifest = cls(
            model=dict(model),
            sink=sink,
            chunk_size=chunk_size,
            url_field=url_field,
        )
        for shard in shards:
            manifest.order.append(shard.shard_id)
            manifest.shards[shard.shard_id] = {
                "source": shard.path,
                "format": shard.format,
                "size_bytes": shard.size_bytes,
                "status": "pending",
            }
        return manifest

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunManifest":
        """Parse a manifest file and replay its journal, refusing
        anything malformed.

        Raises :class:`ManifestCorruptError` for unreadable/truncated
        JSON, a missing required field, or a journal record naming a
        shard the manifest does not plan, and
        :class:`ManifestMismatchError` for a manifest of a different
        format version.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ManifestCorruptError(
                f"run manifest {path} does not parse ({error}); it is not "
                "safe to resume from — remove the output directory and "
                "start the run fresh"
            ) from None
        if not isinstance(payload, dict):
            raise ManifestCorruptError(
                f"run manifest {path} is not a JSON object; remove the "
                "output directory and start the run fresh"
            )
        if payload.get("version") != MANIFEST_VERSION:
            raise ManifestMismatchError(
                f"run manifest {path} has format version "
                f"{payload.get('version')!r}; this build writes "
                f"{MANIFEST_VERSION} — finish the run with the build that "
                "started it, or start fresh"
            )
        try:
            manifest = cls(
                model=dict(payload["model"]),
                sink=str(payload["sink"]),
                chunk_size=int(payload["chunk_size"]),
                url_field=str(payload["url_field"]),
                order=list(payload["order"]),
                shards={
                    key: dict(value)
                    for key, value in payload["shards"].items()
                },
                summary=payload.get("summary"),
                query_index=payload.get("query_index"),
                version=int(payload["version"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ManifestCorruptError(
                f"run manifest {path} is missing or mistypes a required "
                f"field ({error!r}); remove the output directory and start "
                "the run fresh"
            ) from None
        if sorted(manifest.order) != sorted(manifest.shards):
            raise ManifestCorruptError(
                f"run manifest {path} is inconsistent: its shard order and "
                "its shard table name different shards; remove the output "
                "directory and start the run fresh"
            )
        manifest._replay(path)
        return manifest

    def _replay(self, path: Path) -> None:
        """Apply the intact records of ``path``'s journal, in order.

        A record counts only when its line is complete and its checksum
        matches.  A kill mid-append tears the last line, and nothing
        after a damaged record can be trusted, so replay stops at the
        first of either.  A valid record naming a shard outside the
        plan belongs to another run and is refused.
        """
        journal = journal_path(path)
        try:
            data = journal.read_bytes()
        except FileNotFoundError:
            return
        for line in data.split(b"\n")[:-1]:  # [-1]: torn tail or b""
            checksum, _, payload = line.partition(b" ")
            if checksum != b"%08x" % zlib.crc32(payload):
                break
            try:
                record = json.loads(payload)
                shard_id, entry = record["shard"], dict(record["entry"])
            except (KeyError, TypeError, ValueError) as error:
                raise ManifestCorruptError(
                    f"completion journal {journal} holds a malformed "
                    f"record ({error!r}); remove the output directory and "
                    "start the run fresh"
                ) from None
            if shard_id not in self.shards:
                raise ManifestCorruptError(
                    f"completion journal {journal} records shard "
                    f"{shard_id!r}, which {path.name} does not plan; "
                    "remove the output directory and start the run fresh"
                )
            self.shards[shard_id] = entry

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Atomically replace the manifest file with this state, then
        delete the journal it supersedes (compaction).

        The manifest is durable — fsynced, renamed, its directory
        fsynced — before the journal goes.  A journal found with no
        manifest beside it belongs to no run this state describes, so
        it goes *first*: a kill can never pair it with a fresh plan.
        """
        path = Path(path)
        journal = journal_path(path)
        if not path.exists():
            journal.unlink(missing_ok=True)
        payload = {
            "version": self.version,
            "model": self.model,
            "sink": self.sink,
            "chunk_size": self.chunk_size,
            "url_field": self.url_field,
            "order": self.order,
            "shards": self.shards,
        }
        if self.summary is not None:
            payload["summary"] = self.summary
        if self.query_index is not None:
            payload["query_index"] = self.query_index
        _atomic_write_json(path, payload)
        if journal.exists():
            _fsync_directory(path.parent)
            journal.unlink()

    def journal(self, path: str | os.PathLike, shard_id: str) -> None:
        """Make ``shard_id``'s entry durable without rewriting the
        manifest: append one checksummed record to the journal of the
        manifest at ``path`` and fsync it.

        The record holds only this shard's entry, so its cost does not
        grow with the shards planned or already done.
        """
        payload = json.dumps(
            {"entry": self.shards[shard_id], "shard": shard_id},
            separators=(",", ":"), sort_keys=True,
        ).encode("utf-8")
        journal = journal_path(path)
        with open(journal, "ab") as stream:
            created = stream.tell() == 0
            stream.write(b"%08x %s\n" % (zlib.crc32(payload), payload))
            stream.flush()
            os.fsync(stream.fileno())
        if created:
            _fsync_directory(journal.parent)

    # -- state transitions ---------------------------------------------------------

    def mark_done(
        self,
        shard_id: str,
        *,
        output: str,
        rows: int,
        sha256: str,
        seconds: float,
        quarantined: int = 0,
        quarantine_file: str | None = None,
        quarantine_sha256: str | None = None,
    ) -> None:
        """Record one shard's completed, renamed, hashed output.

        When rows were quarantined, the sidecar file name and its
        sha256 are checkpointed too, so resume validation and ``bulk
        verify`` cover the quarantine record with the same rigor as
        the scores themselves.
        """
        entry = self.shards[shard_id]
        entry.update(
            status="done",
            output=output,
            rows=rows,
            sha256=sha256,
            seconds=round(seconds, 6),
        )
        if quarantined:
            entry.update(
                quarantined=quarantined,
                quarantine_file=quarantine_file,
                quarantine_sha256=quarantine_sha256,
            )
        else:
            for key in ("quarantined", "quarantine_file", "quarantine_sha256"):
                entry.pop(key, None)

    def pending_ids(self) -> list[str]:
        return [
            shard_id
            for shard_id in self.order
            if self.shards[shard_id].get("status") != "done"
        ]

    def done_ids(self) -> list[str]:
        return [
            shard_id
            for shard_id in self.order
            if self.shards[shard_id].get("status") == "done"
        ]

    # -- resume validation ---------------------------------------------------------

    def check_model(self, fingerprint: dict) -> None:
        """Refuse to resume against a different model.

        The artifact checksum is the identity that matters: same
        checksum, same scores, byte for byte.  Handles may differ (the
        same artifact reached via path on one host and ``store://`` on
        another is fine); checksums may not.
        """
        recorded = self.model.get("checksum")
        current = fingerprint.get("checksum")
        if recorded != current:
            raise ManifestMismatchError(
                f"run manifest was checkpointed against model checksum "
                f"{str(recorded)[:16]}… but --model resolves to "
                f"{str(current)[:16]}…; resuming would mix two models' "
                "scores in one output. Point --model at the original "
                "artifact, or start a fresh run in a new output directory."
            )

    def check_shards(self, shards: list[Shard]) -> None:
        """Refuse to resume against a changed input shard set.

        Identity is the shard id list *and* each file's byte size —
        regenerated shard files under the same names would otherwise
        mix two corpora's scores in one output.  (Same-size content
        swaps still slip through; hashing multi-GB inputs at plan time
        would cost more than the scoring.)
        """
        current = [shard.shard_id for shard in shards]
        if current != self.order:
            missing = sorted(set(self.order) - set(current))
            added = sorted(set(current) - set(self.order))
            detail = []
            if missing:
                detail.append(f"missing from input: {missing}")
            if added:
                detail.append(f"new in input: {added}")
            raise ManifestMismatchError(
                "input shard list changed since the run was checkpointed"
                f" ({'; '.join(detail) or 'order changed'}); resume needs "
                "the original input — or start a fresh run in a new "
                "output directory"
            )
        resized = [
            shard.shard_id
            for shard in shards
            if shard.size_bytes != self.shards[shard.shard_id].get(
                "size_bytes"
            )
        ]
        if resized:
            raise ManifestMismatchError(
                f"input shard(s) changed size since the run was "
                f"checkpointed: {resized}; their committed outputs would "
                "mix two corpora — resume needs the original input, or "
                "start a fresh run in a new output directory"
            )

    def verify_outputs(self, output_dir: str | os.PathLike) -> list[str]:
        """Demote ``done`` shards whose output bytes are gone or wrong.

        Returns the shard ids demoted back to pending (missing file,
        shortened/altered content — anything whose sha256 no longer
        matches the checkpointed one).  Called on resume so a crash
        mid-rename, a deleted file, or disk corruption causes a
        re-score, never a silently incomplete corpus.
        """
        output_dir = Path(output_dir)
        demoted: list[str] = []
        for shard_id in self.done_ids():
            entry = self.shards[shard_id]
            output = output_dir / entry["output"]
            try:
                matches = sha256_file(output) == entry["sha256"]
            except OSError:
                matches = False
            if matches and entry.get("quarantine_file"):
                sidecar = output_dir / entry["quarantine_file"]
                try:
                    matches = (
                        sha256_file(sidecar) == entry["quarantine_sha256"]
                    )
                except OSError:
                    matches = False
            if not matches:
                entry["status"] = "pending"
                for key in (
                    "output", "rows", "sha256", "seconds",
                    "quarantined", "quarantine_file", "quarantine_sha256",
                ):
                    entry.pop(key, None)
                demoted.append(shard_id)
        return demoted
