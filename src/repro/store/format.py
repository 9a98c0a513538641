"""The versioned binary container for model artifacts.

An artifact is a single file holding a JSON header plus raw
little-endian numpy buffers, laid out so the buffers can be served
straight out of an ``mmap`` — no deserialisation, no copies::

    offset 0   magic            b"RLANGID\\x00"            (8 bytes)
    offset 8   header length    uint64 little-endian       (8 bytes)
    offset 16  header           UTF-8 JSON
    ...        zero padding to a 64-byte boundary
    payload    buffers, each aligned to a 64-byte boundary

The header carries three top-level keys:

``format_version``
    Integer version of this container layout.  Readers refuse files
    whose version they do not understand (:class:`ArtifactVersionError`)
    instead of guessing.
``buffers``
    ``name -> {offset, nbytes, dtype, shape}`` table.  Offsets are
    relative to the payload start so they do not depend on the header's
    own length; dtypes are numpy dtype strings and must be
    little-endian (or byte-order-free, e.g. ``|u1``).
``checksum``
    ``{algorithm, hexdigest}`` over the whole payload region, written at
    save time.  :meth:`ArtifactFile.verify` recomputes it on demand;
    plain loads skip it so that an ``mmap``-ed open stays lazy (pages
    fault in only when the weights are actually read).
``flags`` (optional)
    String-to-string table of load-affecting options, e.g.
    ``{"weights_dtype": "float32"}`` for quantised weight buffers.
    Written only when non-empty; model-layer readers must refuse
    unknown keys rather than skip them, since a flag changes how the
    payload must be interpreted.
``model``
    Free-form model-level metadata; this layer does not interpret it
    (:mod:`repro.store.artifact` does — including the ``model.rollout``
    provenance block the serving daemon's hot-reload gate requires;
    see ``docs/serving.md``).

Alignment is 64 bytes so every buffer start is cache-line- and
SIMD-friendly no matter what precedes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import sys
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

#: File signature; changing the layout incompatibly must change this or
#: bump :data:`FORMAT_VERSION`.
MAGIC = b"RLANGID\x00"

#: Current container layout version.
FORMAT_VERSION = 1

#: Every buffer starts on a multiple of this many bytes.
ALIGNMENT = 64

_CHECKSUM_ALGORITHM = "sha256"


class ArtifactError(Exception):
    """Base class for every model-artifact failure."""


class ArtifactFormatError(ArtifactError):
    """The file is not an artifact or its container structure is broken
    (bad magic, truncated file, unparseable header, bad buffer table)."""


class ArtifactVersionError(ArtifactError):
    """The artifact was written by an incompatible format version."""


class ArtifactChecksumError(ArtifactError):
    """The payload does not match the checksum recorded in the header."""


def _align(offset: int) -> int:
    """Smallest multiple of :data:`ALIGNMENT` that is ``>= offset``."""
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _canonical_array(name: str, array: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian view/copy of ``array`` for writing."""
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise ArtifactError(f"buffer {name!r} has object dtype; not storable")
    # "=" is native order, which is big-endian on big-endian hosts —
    # swap both cases so the payload bytes always match the "<" header.
    byteorder = array.dtype.byteorder
    if byteorder == ">" or (byteorder == "=" and sys.byteorder == "big"):
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


def _dtype_string(array: np.ndarray) -> str:
    """Platform-independent dtype string (``<f8``, ``<i8``, ``|u1``)."""
    dtype = array.dtype
    if dtype.byteorder == "=":
        dtype = dtype.newbyteorder("<")
    return dtype.str


def write_atomic(path: str | os.PathLike, chunks: Iterable[bytes]) -> None:
    """Replace the file at ``path`` with ``chunks``, atomically.

    The bytes go to a temporary sibling of this call's own, which is
    fsynced and then renamed over ``path``: a reader sees the previous
    file or the new one, never a torn mix, and concurrent saves to one
    path all succeed (the last rename wins).  On any failure the
    temporary file is removed and ``path`` is left as it was.  The file
    gets the usual permissions (``0o666`` less the umask).
    """
    path = Path(path)
    tmp_path = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as stream:
            for chunk in chunks:
                stream.write(chunk)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def write_artifact(
    path: str | os.PathLike,
    model: Mapping,
    buffers: Mapping[str, np.ndarray],
    flags: Mapping[str, str] | None = None,
) -> str:
    """Write ``buffers`` + ``model`` metadata as one artifact file.

    The file is written through :func:`write_atomic`, so readers never
    observe a half-written artifact and concurrent saves to one path
    all succeed.
    Returns the payload's checksum hex digest (the artifact's content
    identity, also recorded in the header).

    ``flags`` is an optional string-to-string table of *load-affecting*
    options (e.g. ``{"weights_dtype": "float32"}``).  Unlike ``model``
    metadata, readers must refuse flags they do not understand — a flag
    changes how the payload is to be interpreted, so skipping one would
    silently mis-read the model.  The key is written only when non-empty
    so that flag-free artifacts stay byte-stable across versions.
    """
    arrays = {name: _canonical_array(name, array) for name, array in buffers.items()}

    table: dict[str, dict] = {}
    payload = bytearray()
    for name, array in arrays.items():
        offset = _align(len(payload))
        payload.extend(b"\x00" * (offset - len(payload)))
        payload.extend(array.tobytes(order="C"))
        table[name] = {
            "offset": offset,
            "nbytes": array.nbytes,
            "dtype": _dtype_string(array),
            "shape": list(array.shape),
        }

    digest = hashlib.new(_CHECKSUM_ALGORITHM, bytes(payload)).hexdigest()
    header = {
        "format_version": FORMAT_VERSION,
        "buffers": table,
        "checksum": {"algorithm": _CHECKSUM_ALGORITHM, "hexdigest": digest},
        "model": dict(model),
    }
    if flags:
        header["flags"] = dict(flags)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_start = _align(len(MAGIC) + 8 + len(header_bytes))

    write_atomic(path, (
        MAGIC,
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        b"\x00" * (payload_start - len(MAGIC) - 8 - len(header_bytes)),
        payload,
    ))
    return digest


def is_artifact(path: str | os.PathLike) -> bool:
    """True when ``path`` exists and starts with the artifact magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


class ArtifactFile:
    """A memory-mapped, read-only view of one artifact file.

    Buffers come back as numpy views directly over the mapping —
    loading is O(header), and N processes opening the same file share
    one set of physical pages through the OS page cache.  The mapping
    stays alive for as long as any returned view references it, so an
    :class:`ArtifactFile` may be dropped once the views are built.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as error:
            raise ArtifactFormatError(f"cannot open artifact {self.path}: {error}")
        except ValueError as error:  # zero-length file cannot be mapped
            raise ArtifactFormatError(f"not a model artifact: {self.path} ({error})")
        try:
            self._parse_header()
        except ArtifactError:
            self._mmap.close()
            raise

    def _parse_header(self) -> None:
        data = self._mmap
        if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
            raise ArtifactFormatError(f"not a model artifact: {self.path}")
        header_length = int.from_bytes(
            data[len(MAGIC) : len(MAGIC) + 8], "little"
        )
        header_end = len(MAGIC) + 8 + header_length
        if header_end > len(data):
            raise ArtifactFormatError(f"truncated artifact header: {self.path}")
        try:
            self.header = json.loads(bytes(data[len(MAGIC) + 8 : header_end]))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ArtifactFormatError(
                f"corrupt artifact header in {self.path}: {error}"
            )
        if not isinstance(self.header, dict) or "format_version" not in self.header:
            raise ArtifactFormatError(
                f"corrupt artifact header in {self.path}: missing format_version"
            )
        version = self.header["format_version"]
        if version != FORMAT_VERSION:
            raise ArtifactVersionError(
                f"artifact {self.path} has format version {version}; "
                f"this reader understands version {FORMAT_VERSION}"
            )
        self._payload_start = _align(header_end)
        self._table = self.header.get("buffers", {})
        for name, entry in self._table.items():
            end = self._payload_start + entry["offset"] + entry["nbytes"]
            if end > len(data):
                raise ArtifactFormatError(
                    f"artifact {self.path} is truncated: buffer {name!r} "
                    f"ends at {end}, file has {len(data)} bytes"
                )

    @property
    def model(self) -> dict:
        """The model-level metadata block of the header."""
        return self.header.get("model", {})

    @property
    def flags(self) -> dict:
        """Load-affecting option table (empty for flag-free artifacts).

        Model-layer readers must refuse any key they do not understand
        (see :func:`write_artifact`)."""
        return self.header.get("flags", {})

    @property
    def checksum(self) -> str:
        """The payload checksum recorded at save time (not recomputed)."""
        return self.header.get("checksum", {}).get("hexdigest", "")

    @property
    def nbytes(self) -> int:
        """Total artifact size in bytes."""
        return len(self._mmap)

    @property
    def buffer_names(self) -> tuple[str, ...]:
        return tuple(self._table)

    def buffer(self, name: str) -> np.ndarray:
        """Read-only numpy view of one named buffer (zero-copy)."""
        try:
            entry = self._table[name]
        except KeyError:
            raise ArtifactFormatError(
                f"artifact {self.path} has no buffer {name!r}; "
                f"available: {sorted(self._table)}"
            ) from None
        dtype = np.dtype(entry["dtype"])
        count = entry["nbytes"] // dtype.itemsize
        array = np.frombuffer(
            self._mmap,
            dtype=dtype,
            count=count,
            offset=self._payload_start + entry["offset"],
        )
        return array.reshape(entry["shape"])

    def verify(self) -> str:
        """Recompute the payload checksum against the recorded one.

        Returns the hex digest on success; raises
        :class:`ArtifactChecksumError` on mismatch.  This reads every
        payload page, so it is an explicit integrity pass, not part of
        the (lazy) load path.
        """
        recorded = self.header.get("checksum", {})
        algorithm = recorded.get("algorithm", _CHECKSUM_ALGORITHM)
        try:
            digest = hashlib.new(algorithm)
        except ValueError:
            raise ArtifactChecksumError(
                f"artifact {self.path} uses unknown checksum algorithm "
                f"{algorithm!r}"
            ) from None
        digest.update(self._mmap[self._payload_start :])
        actual = digest.hexdigest()
        if actual != recorded.get("hexdigest"):
            raise ArtifactChecksumError(
                f"artifact {self.path} failed checksum verification: "
                f"payload is {actual}, header records "
                f"{recorded.get('hexdigest')!r}"
            )
        return actual

    def close(self) -> None:
        """Close the mapping.  Fails (``BufferError``) while buffer views
        are still alive; long-lived serving processes simply never call
        this."""
        self._mmap.close()

    def __enter__(self) -> "ArtifactFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
