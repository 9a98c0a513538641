"""Resolution failures raise the typed hierarchy with actionable messages.

Every path the satellite checklist names: nonexistent path, dead daemon
socket, unknown scheme, artifact/store version mismatch, and the
pickle-deprecation warning — plus the registry's own guard rails.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import (
    BackendUnavailableError,
    InvalidHandleError,
    ModelNotFoundError,
    ResolveError,
    UnknownSchemeError,
    UnreadableModelError,
    VersionMismatchError,
    open_model,
    register_scheme,
    registered_schemes,
    resolve_artifact_path,
    sniff_model_format,
)
from repro.core.pipeline import LanguageIdentifier
from repro.store import ModelStore, save_identifier
from repro.store.format import FORMAT_VERSION, MAGIC


@pytest.fixture(scope="module")
def identifier(small_train):
    return LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.25, seed=9)
    )


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory, identifier):
    path = tmp_path_factory.mktemp("err-models") / "model.urlmodel"
    save_identifier(identifier, path)
    return path


class TestPathErrors:
    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(ModelNotFoundError, match="repro train"):
            open_model(str(tmp_path / "missing.urlmodel"))

    def test_not_found_is_also_file_not_found(self, tmp_path):
        """Pre-facade callers caught FileNotFoundError; still can."""
        with pytest.raises(FileNotFoundError):
            open_model(str(tmp_path / "missing.urlmodel"))

    def test_garbage_file_is_unreadable(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x93definitely not a model\x00" * 4)
        with pytest.warns(DeprecationWarning):  # sniffed as a pickle try
            with pytest.raises(UnreadableModelError, match="neither"):
                open_model(str(path))

    def test_pickle_of_non_identifier_is_unreadable(self, tmp_path):
        path = tmp_path / "dict.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "a model"}, handle)
        with pytest.warns(DeprecationWarning):
            with pytest.raises(UnreadableModelError, match="not a language"):
                open_model(str(path))

    def test_artifact_version_mismatch(self, tmp_path, artifact_path):
        raw = artifact_path.read_bytes()
        header_length = int.from_bytes(raw[len(MAGIC): len(MAGIC) + 8], "little")
        header = json.loads(raw[len(MAGIC) + 8: len(MAGIC) + 8 + header_length])
        header["format_version"] = FORMAT_VERSION + 1
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        encoded += b" " * (header_length - len(encoded))
        future = tmp_path / "future.urlmodel"
        future.write_bytes(
            raw[: len(MAGIC) + 8] + encoded
            + raw[len(MAGIC) + 8 + header_length:]
        )
        with pytest.raises(VersionMismatchError, match="incompatible format"):
            open_model(str(future))

    def test_type_error_for_non_handles(self):
        with pytest.raises(TypeError, match="got int"):
            open_model(12345)


class TestSchemeErrors:
    def test_unknown_scheme_lists_registered(self):
        with pytest.raises(UnknownSchemeError) as info:
            open_model("s3://bucket/model")
        message = str(info.value)
        assert "repro" in message and "store" in message
        assert "register_scheme" in message

    def test_empty_daemon_socket_path(self):
        with pytest.raises(InvalidHandleError, match="empty socket path"):
            open_model("repro://")

    def test_invalid_handle_is_also_value_error(self):
        with pytest.raises(ValueError):
            open_model("repro://")

    def test_dead_daemon_socket(self, tmp_path):
        with pytest.raises(BackendUnavailableError, match="serve start"):
            open_model(f"repro://{tmp_path / 'nobody-home.sock'}")

    def test_daemon_refusal_is_typed_too(self, tmp_path, monkeypatch):
        """A live daemon refusing the resolve ping (e.g. a protocol-
        version gate) surfaces as the same typed error, not a raw
        DaemonRequestError traceback."""
        from repro.store.client import DaemonRequestError, RemoteIdentifier

        def refuse(self):
            raise DaemonRequestError("protocol-version", "speak v99")

        monkeypatch.setattr("repro.store.client.DaemonClient.ping", refuse)
        closed = []
        monkeypatch.setattr(
            RemoteIdentifier, "close", lambda self: closed.append(True)
        )
        with pytest.raises(BackendUnavailableError, match="protocol-version"):
            open_model(f"repro://{tmp_path / 'gated.sock'}")
        assert closed  # the failed resolve released its connection

    def test_all_errors_share_one_base(self, tmp_path):
        for handle in (
            "s3://x", "repro://", f"repro://{tmp_path / 'dead.sock'}",
            str(tmp_path / "missing.urlmodel"), "store://absent",
        ):
            with pytest.raises(ResolveError):
                open_model(handle, store_root=tmp_path)


class TestStoreErrors:
    def test_missing_store_name(self, tmp_path, identifier):
        store = ModelStore(tmp_path / "models")
        store.save(identifier, "present")
        with pytest.raises(ModelNotFoundError, match="present"):
            open_model("store://absent", store_root=store.root)

    def test_store_version_mismatch(self, tmp_path, identifier):
        store = ModelStore(tmp_path / "models")
        store.save(identifier, "deployed")
        with pytest.raises(VersionMismatchError, match="pinned"):
            open_model("store://deployed@deadbeef", store_root=store.root)

    def test_store_pin_is_case_insensitive(self, tmp_path, identifier):
        """Hex is hex: an uppercase-pasted checksum pin must match."""
        store = ModelStore(tmp_path / "models")
        checksum = store.save(identifier, "deployed").checksum
        predictor = open_model(
            f"store://deployed@{checksum[:12].upper()}", store_root=store.root
        )
        assert predictor.name == identifier.name

    def test_stale_model_handle_raises_typed(self, tmp_path, identifier):
        """A ModelHandle whose artifact vanished after store.list()
        fails with the same typed hierarchy as every other route."""
        store = ModelStore(tmp_path / "models")
        handle = store.save(identifier, "ephemeral")
        store.delete("ephemeral")
        with pytest.raises(ResolveError, match="ephemeral"):
            open_model(handle)

    def test_a_vanished_store_artifact_is_not_found(self, tmp_path, identifier):
        """Deleted between ``save()`` (or ``list()``) and the open: the
        same ``ModelNotFoundError`` a missing plain path raises."""
        store = ModelStore(tmp_path / "models")
        handle = store.save(identifier, "m")
        store.delete("m")
        with pytest.raises(ModelNotFoundError, match="no longer exists"):
            open_model(handle)

    def test_nameless_store_handle(self, tmp_path):
        with pytest.raises(InvalidHandleError, match="names no model"):
            open_model("store://", store_root=tmp_path)
        with pytest.raises(InvalidHandleError, match="names no model"):
            open_model("store://@abc123", store_root=tmp_path)

    def test_nested_store_name_rejected(self, tmp_path):
        with pytest.raises(InvalidHandleError, match="invalid store model"):
            open_model("store://a/b", store_root=tmp_path)

    def test_missing_store_root_is_typed_and_creates_nothing(self, tmp_path):
        """A failed read must not litter the filesystem with an empty
        store directory (ModelStore's constructor would mkdir it)."""
        root = tmp_path / "no-such-store"
        with pytest.raises(ModelNotFoundError, match="store root"):
            open_model("store://anything", store_root=root)
        assert not root.exists()


class TestPickleDeprecation:
    def test_pickle_route_warns_with_replacement(self, tmp_path, identifier):
        path = tmp_path / "legacy.pkl"
        with open(path, "wb") as handle:
            pickle.dump(identifier, handle)
        with pytest.warns(DeprecationWarning, match="train --format artifact"):
            predictor = open_model(str(path))
        assert predictor.name == identifier.name

    def test_artifact_route_does_not_warn(self, artifact_path, recwarn):
        open_model(str(artifact_path))
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestArtifactPathResolution:
    def test_plain_path_passes_through(self, artifact_path):
        assert resolve_artifact_path(artifact_path) == str(artifact_path)

    def test_store_handle_resolves_to_file(self, tmp_path, identifier):
        store = ModelStore(tmp_path / "models")
        handle = store.save(identifier, "served")
        resolved = resolve_artifact_path("store://served", store_root=store.root)
        assert resolved == str(handle.path)

    def test_pickle_rejected_for_serving(self, tmp_path, identifier):
        path = tmp_path / "legacy.pkl"
        with open(path, "wb") as handle:
            pickle.dump(identifier, handle)
        with pytest.raises(UnreadableModelError, match="format artifact"):
            resolve_artifact_path(str(path))

    def test_daemon_handle_rejected_for_serving(self):
        with pytest.raises(InvalidHandleError, match="running daemon"):
            resolve_artifact_path("repro://live.sock")

    def test_sniff_reports_both_formats(self, tmp_path, artifact_path):
        assert sniff_model_format(artifact_path) == "artifact"
        legacy = tmp_path / "legacy.pkl"
        with open(legacy, "wb") as handle:
            pickle.dump({"any": "pickle"}, handle)
        assert sniff_model_format(legacy) == "pickle"
        with pytest.raises(ModelNotFoundError):
            sniff_model_format(tmp_path / "nope.urlmodel")


class TestRegistry:
    def test_custom_scheme_round_trips(self, identifier):
        register_scheme("memtest", lambda rest, context: identifier)
        try:
            assert "memtest" in registered_schemes()
            assert open_model("memtest://anything") is identifier
        finally:
            # Keep the process-wide registry clean for other tests.
            from repro.api import resolver

            resolver._SCHEMES.pop("memtest", None)

    def test_duplicate_registration_guard(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("repro", lambda rest, context: None)

    def test_invalid_scheme_name(self):
        with pytest.raises(ValueError, match="invalid scheme"):
            register_scheme("no spaces", lambda rest, context: None)
