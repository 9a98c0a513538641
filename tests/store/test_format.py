"""The binary artifact container: layout, alignment, error handling."""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.store.format import (
    ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    ArtifactChecksumError,
    ArtifactFile,
    ArtifactFormatError,
    ArtifactVersionError,
    is_artifact,
    write_artifact,
)

BUFFERS = {
    "weights": np.arange(12, dtype=np.float64).reshape(3, 4),
    "ranks": np.array([5, -1, 3], dtype=np.int64),
    "blob": np.frombuffer(b"hello\nworld", dtype=np.uint8),
}


@pytest.fixture()
def artifact_path(tmp_path):
    path = tmp_path / "model.urlmodel"
    write_artifact(path, {"kind": "test", "note": 42}, BUFFERS)
    return path


class TestRoundTrip:
    def test_buffers_round_trip_exactly(self, artifact_path):
        artifact = ArtifactFile(artifact_path)
        for name, expected in BUFFERS.items():
            loaded = artifact.buffer(name)
            assert loaded.dtype == expected.dtype
            assert loaded.shape == expected.shape
            assert np.array_equal(loaded, expected)

    def test_model_metadata_round_trips(self, artifact_path):
        artifact = ArtifactFile(artifact_path)
        assert artifact.model == {"kind": "test", "note": 42}
        assert artifact.header["format_version"] == FORMAT_VERSION

    def test_buffers_are_read_only_views(self, artifact_path):
        artifact = ArtifactFile(artifact_path)
        weights = artifact.buffer("weights")
        assert not weights.flags.writeable
        # Zero-copy: the array's memory is the mapping, not a heap copy.
        assert not weights.flags.owndata

    def test_buffer_alignment(self, artifact_path):
        artifact = ArtifactFile(artifact_path)
        for name in artifact.buffer_names:
            entry = artifact.header["buffers"][name]
            assert entry["offset"] % ALIGNMENT == 0

    def test_checksum_verifies(self, artifact_path):
        artifact = ArtifactFile(artifact_path)
        assert artifact.verify() == artifact.checksum

    def test_is_artifact_sniffs_magic(self, artifact_path, tmp_path):
        assert is_artifact(artifact_path)
        other = tmp_path / "not-a-model.bin"
        other.write_bytes(b"something else entirely")
        assert not is_artifact(other)
        assert not is_artifact(tmp_path / "missing.bin")

    def test_empty_buffer_table(self, tmp_path):
        path = tmp_path / "empty.urlmodel"
        write_artifact(path, {"kind": "empty"}, {})
        artifact = ArtifactFile(path)
        assert artifact.buffer_names == ()
        assert artifact.verify()

    def test_big_endian_arrays_are_canonicalised(self, tmp_path):
        path = tmp_path / "be.urlmodel"
        big = np.arange(4, dtype=">f8")
        write_artifact(path, {}, {"weights": big})
        loaded = ArtifactFile(path).buffer("weights")
        assert loaded.dtype == np.dtype("<f8")
        assert np.array_equal(loaded, big)


class TestCorruption:
    def test_bad_magic_rejected(self, artifact_path):
        data = bytearray(artifact_path.read_bytes())
        data[:4] = b"EVIL"
        artifact_path.write_bytes(bytes(data))
        with pytest.raises(ArtifactFormatError, match="not a model artifact"):
            ArtifactFile(artifact_path)

    def test_corrupt_header_json_rejected(self, artifact_path):
        data = bytearray(artifact_path.read_bytes())
        data[len(MAGIC) + 8] = ord("}")  # break the JSON's first byte
        artifact_path.write_bytes(bytes(data))
        with pytest.raises(ArtifactFormatError, match="corrupt artifact header"):
            ArtifactFile(artifact_path)

    def test_truncated_payload_rejected(self, artifact_path):
        data = artifact_path.read_bytes()
        artifact_path.write_bytes(data[: len(data) - 40])
        with pytest.raises(ArtifactFormatError, match="truncated"):
            ArtifactFile(artifact_path)

    def test_version_mismatch_rejected(self, artifact_path):
        raw = artifact_path.read_bytes()
        header_length = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
        header = json.loads(raw[len(MAGIC) + 8 : len(MAGIC) + 8 + header_length])
        header["format_version"] = FORMAT_VERSION + 1
        # Re-encode, padding to the original length so offsets stay valid.
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        encoded += b" " * (header_length - len(encoded))
        artifact_path.write_bytes(
            raw[: len(MAGIC) + 8] + encoded + raw[len(MAGIC) + 8 + header_length :]
        )
        with pytest.raises(ArtifactVersionError, match="format version"):
            ArtifactFile(artifact_path)

    def test_flipped_payload_byte_fails_verify(self, artifact_path):
        data = bytearray(artifact_path.read_bytes())
        data[-1] ^= 0xFF
        artifact_path.write_bytes(bytes(data))
        artifact = ArtifactFile(artifact_path)  # lazy load still succeeds
        with pytest.raises(ArtifactChecksumError, match="checksum"):
            artifact.verify()

    def test_unknown_buffer_name(self, artifact_path):
        artifact = ArtifactFile(artifact_path)
        with pytest.raises(ArtifactFormatError, match="no buffer"):
            artifact.buffer("nonexistent")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ArtifactFormatError):
            ArtifactFile(path)


def _save_repeatedly(path, writer, barrier, saves):
    """Save ``saves`` artifacts to ``path``; exit with the failures."""
    weights = np.full(65_536, float(writer))
    barrier.wait()
    failures = 0
    for save in range(saves):
        try:
            write_artifact(
                path, {"writer": writer, "save": save}, {"weights": weights}
            )
        except Exception:
            failures += 1
    raise SystemExit(failures)


class TestConcurrentSaves:
    def test_two_processes_saving_one_path_all_succeed(self, tmp_path):
        path = tmp_path / "shared.urlmodel"
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        writers = [
            context.Process(
                target=_save_repeatedly, args=(path, writer, barrier, 20)
            )
            for writer in (1, 2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=60)
            if process.is_alive():
                process.kill()
        assert [process.exitcode for process in writers] == [0, 0]
        artifact = ArtifactFile(path)
        artifact.verify()
        assert artifact.model["save"] == 19
        assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
