"""Per-scheme handle options and portable handles (worker re-open)."""

from __future__ import annotations

import os
from urllib.parse import quote

import pytest

from repro.api import (
    InvalidHandleError,
    daemon_socket_path,
    is_daemon_handle,
    open_model,
    portable_handle,
    resolve_artifact_path,
)
from repro.core.pipeline import LanguageIdentifier
from repro.store import ModelStore


@pytest.fixture(scope="module")
def stored_model(small_train, tmp_path_factory):
    """``(root, name, identifier)`` of a model saved into a store."""
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.3, seed=4)
    )
    root = tmp_path_factory.mktemp("options-store")
    ModelStore(root).save(identifier, "opts")
    return root, "opts", identifier


class TestStoreRootOption:
    def test_root_option_resolves_without_env(
        self, stored_model, monkeypatch
    ):
        root, name, identifier = stored_model
        monkeypatch.delenv("REPRO_MODEL_STORE", raising=False)
        monkeypatch.chdir(root.parent)  # no ./models here either
        handle = f"store://{name}?root={quote(str(root))}"
        with open_model(handle) as predictor:
            urls = ["http://www.blumen.de/garten"]
            assert predictor.decisions(urls) == identifier.decisions(urls)

    def test_root_option_beats_argument_and_env(
        self, stored_model, tmp_path, monkeypatch
    ):
        root, name, _ = stored_model
        monkeypatch.setenv("REPRO_MODEL_STORE", str(tmp_path / "wrong"))
        handle = f"store://{name}?root={quote(str(root))}"
        path = resolve_artifact_path(handle, store_root=tmp_path / "wrong2")
        assert path == str(ModelStore(root).path(name))

    def test_unknown_option_refused(self, stored_model):
        root, name, _ = stored_model
        with pytest.raises(InvalidHandleError, match="unknown store://"):
            open_model(f"store://{name}?compression=zstd")

    def test_duplicate_option_refused(self):
        with pytest.raises(InvalidHandleError, match="given twice"):
            open_model("store://m?root=/a&root=/b")


class TestDaemonOptions:
    def test_socket_path_strips_options(self):
        assert daemon_socket_path("repro://a/b.sock?timeout=5") == "a/b.sock"
        assert daemon_socket_path("repro:///run/x.sock") == "/run/x.sock"

    def test_only_daemon_schemes_are_daemon_handles(self):
        assert is_daemon_handle("repro://a.sock")
        assert is_daemon_handle("repro+tcp://127.0.0.1:7707")
        for value in ("a.sock", "store://m", 123, None):
            assert not is_daemon_handle(value)
        with pytest.raises(InvalidHandleError, match="serving handle"):
            daemon_socket_path("model.urlmodel")

    def test_bad_timeout_refused(self):
        with pytest.raises(InvalidHandleError, match="timeout"):
            open_model("repro://x.sock?timeout=soon")

    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_unusable_timeout_values_refused_typed(self, value):
        # Parseable-but-invalid values must raise the typed error, not
        # socket.settimeout's raw ValueError (CLI callers catch only
        # the ResolveError hierarchy).
        with pytest.raises(InvalidHandleError, match="positive number"):
            open_model(f"repro://x.sock?timeout={value}")

    def test_unknown_option_refused(self):
        with pytest.raises(InvalidHandleError, match="unknown repro://"):
            daemon_socket_path("repro://x.sock?compression=zstd")

    def test_retry_options_strip_from_socket_path(self):
        handle = "repro://a/b.sock?retries=3&backoff=0.1&deadline=2"
        assert daemon_socket_path(handle) == "a/b.sock"

    @pytest.mark.parametrize("option", ["retries=-1", "retries=soon"])
    def test_bad_retries_refused_typed(self, option):
        with pytest.raises(InvalidHandleError, match="retries"):
            open_model(f"repro://x.sock?{option}")

    @pytest.mark.parametrize("option", [
        "backoff=0", "backoff=nan", "deadline=-2", "deadline=inf",
    ])
    def test_bad_retry_seconds_refused_typed(self, option):
        with pytest.raises(InvalidHandleError, match="positive number"):
            open_model(f"repro://x.sock?{option}")


class TestPortableHandle:
    def test_path_becomes_absolute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert portable_handle("m.urlmodel") == str(tmp_path / "m.urlmodel")
        assert portable_handle(
            tmp_path / "m.urlmodel"
        ) == str(tmp_path / "m.urlmodel")

    def test_store_handle_pins_resolved_root(
        self, stored_model, monkeypatch
    ):
        root, name, identifier = stored_model
        portable = portable_handle(f"store://{name}", store_root=root)
        assert portable == f"store://{name}?root={quote(str(root))}"
        # the portable string alone re-opens the model anywhere
        monkeypatch.delenv("REPRO_MODEL_STORE", raising=False)
        monkeypatch.chdir(root.parent)
        with open_model(portable) as predictor:
            assert predictor.name == identifier.name

    def test_store_handle_keeps_existing_root_option(self, stored_model):
        root, name, _ = stored_model
        original = f"store://{name}?root={quote(str(root))}"
        assert portable_handle(original, store_root="/elsewhere") == original

    def test_env_root_is_pinned(self, stored_model, monkeypatch):
        root, name, _ = stored_model
        monkeypatch.setenv("REPRO_MODEL_STORE", str(root))
        assert portable_handle(f"store://{name}") == (
            f"store://{name}?root={quote(str(root))}"
        )

    def test_daemon_socket_paths_become_absolute(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert portable_handle("repro://x.sock") == (
            f"repro://{tmp_path / 'x.sock'}"
        )
        assert portable_handle("repro://x.sock?timeout=5") == (
            f"repro://{tmp_path / 'x.sock'}?timeout=5"
        )
        assert portable_handle("repro:///run/r.sock") == "repro:///run/r.sock"

    def test_live_objects_refused(self, stored_model):
        _, _, identifier = stored_model
        with pytest.raises(TypeError, match="portable form"):
            portable_handle(identifier)


class TestVersionPinWithOptions:
    def test_checksum_pin_and_root_combine(self, stored_model):
        root, name, _ = stored_model
        checksum = ModelStore(root).describe(name).checksum
        handle = (
            f"store://{name}@{checksum[:12]}?root={quote(str(root))}"
        )
        assert resolve_artifact_path(handle) == str(
            ModelStore(root).path(name)
        )
        with pytest.raises(Exception, match="does not match"):
            resolve_artifact_path(
                f"store://{name}@{'f' * 12}?root={quote(str(root))}"
            )
