"""Daemon lifecycle, wire protocol, hot reload, and client error paths.

The long test here walks the full operator arc the docs promise:
start → score a batch (byte-identical to the sparse oracle) → SIGHUP
hot reload to a new artifact → byte-identical to the *new* oracle →
graceful stop with every daemon-created file removed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.api import InvalidHandleError, daemon_endpoint, open_model
from repro.core.pipeline import LanguageIdentifier
from repro.store import save_identifier, write_artifact
from repro.store.client import (
    AsyncDaemonClient,
    DaemonClient,
    DaemonRequestError,
    DaemonUnavailableError,
    RemoteIdentifier,
)
from repro.store.daemon import (
    ServingDaemon,
    pidfile_for,
    read_pid,
    start_daemon,
    stop_daemon,
)
from repro.store.format import MAGIC
from repro.store.wire import (
    Frame,
    FrameTooLargeError,
    WireError,
    recv_frame_ex,
    send_message,
)


@pytest.fixture(scope="module")
def oracle_pair(small_train):
    """Two distinct fitted identifiers (different algorithms, so their
    decisions demonstrably differ) — the before/after of a hot reload."""
    train = small_train.subsample(0.4, seed=2)
    first = LanguageIdentifier("words", "NB", seed=0).fit(train)
    second = LanguageIdentifier("words", "RE", seed=1).fit(train)
    return first, second


@pytest.fixture(scope="module")
def test_urls(small_bundle):
    return small_bundle.odp_test.urls[:60]


def sparse_oracle(identifier, urls):
    """The reference answers, keyed by language code (wire format)."""
    return {
        language.value: values
        for language, values in identifier._sparse_decisions(urls).items()
    }


def process_gone(pid, timeout=10.0):
    """True once ``pid`` no longer runs (a zombie awaiting its reaper
    counts as gone — under some inits nothing ever collects it)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except OSError:
            return True
        time.sleep(0.05)
    return False


def wait_for_checksum(client, checksum, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = client.status()
        if status["model"]["checksum"] == checksum:
            return status
        time.sleep(0.1)
    raise AssertionError(f"daemon never started serving checksum {checksum}")


class TestWire:
    """Framing unit tests over an in-process socket pair."""

    def test_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"op": "ping", "v": 1})
            assert recv_frame_ex(b) == Frame({"op": "ping", "v": 1})

    def test_oversized_frame_rejected_without_reading(self):
        a, b = socket.socketpair()
        with a, b:
            # Bits 31/30/29 are the deadline/correlation/trace flags, so
            # the largest flag-free declared length is (1 << 29) - 1; any
            # value above MAX_FRAME_BYTES in that space must be refused
            # before a single body byte is read.
            a.sendall((1 << 28).to_bytes(4, "big"))
            with pytest.raises(FrameTooLargeError):
                recv_frame_ex(b)

    def test_non_object_body_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            body = b"[1, 2]"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(WireError, match="JSON object"):
                recv_frame_ex(b)


class TestHandles:
    @pytest.mark.parametrize("client_class", [DaemonClient, AsyncDaemonClient])
    def test_parse_handle(self, client_class):
        """Both clients name their endpoint with the handle that
        resolves back to it."""
        for endpoint, handle in (
            ("model.sock", "repro://model.sock"),
            ("/run/repro.sock", "repro:///run/repro.sock"),
            (("127.0.0.1", 7707), "repro+tcp://127.0.0.1:7707"),
        ):
            client = client_class(endpoint)
            assert client.handle == handle
            assert daemon_endpoint(handle)[0] == endpoint

    def test_non_handles_rejected(self):
        with pytest.raises(InvalidHandleError, match="not a daemon"):
            daemon_endpoint("model.urlmodel")
        with pytest.raises(InvalidHandleError, match="empty socket path"):
            daemon_endpoint("repro://")
        with pytest.raises(InvalidHandleError, match="host:port"):
            daemon_endpoint("repro+tcp://localhost")


class TestLifecycle:
    def test_start_score_reload_stop(
        self, oracle_pair, test_urls, tmp_path, sockpath
    ):
        """The full arc: every decision byte-identical to the sparse
        oracle of whichever artifact generation is live."""
        first, second = oracle_pair
        model_path = tmp_path / "live.urlmodel"
        socket_path = sockpath("live.sock")
        save_identifier(first, model_path)
        first_bytes = model_path.read_bytes()  # kept for the rollback gate

        pid = start_daemon(model_path, socket_path, workers=2)
        try:
            assert read_pid(socket_path) == pid
            with DaemonClient(socket_path) as client:
                status = client.status()
                generation = status["generation"]
                first_checksum = status["model"]["checksum"]
                assert generation == 1
                assert status["model"]["name"] == "NB/words"
                rollout = status["model"]["rollout"]
                assert rollout["created_at"]
                assert rollout["train_corpus"] == first.train_fingerprint

                # Batch answers == the sparse oracle, byte for byte.
                assert client.decisions(test_urls) == sparse_oracle(
                    first, test_urls
                )
                # Scores survive the JSON hop bit-identically.
                reference = first.scores_many(test_urls)
                assert client.score(test_urls) == {
                    language.value: values
                    for language, values in reference.items()
                }
                # classify rows agree with the in-process kernel.
                rows = client.classify(test_urls[:10])
                best = first.classify_many(test_urls[:10])
                assert [row.best for row in rows] == [
                    b.value if b else None for b in best
                ]

                # Daemon-wide request accounting: the status block
                # counts every op above, with latencies.
                requests = client.status()["requests"]
                assert requests["errors"] == 0
                for op in ("status", "decisions", "score", "classify"):
                    assert requests["by_op"][op] >= 1
                latency = requests["latency_ms"]
                assert latency["count"] == requests["total"] >= 4
                assert sum(latency["counts"]) == latency["count"]
                assert latency["p50_ms"] is not None

                # Gate: an artifact without rollout metadata is refused.
                import numpy as np

                write_artifact(
                    model_path,
                    {"kind": "repro/url-language-identifier"},
                    {"junk": np.zeros(3)},
                )
                client.reload()
                time.sleep(1.0)
                status = client.status()
                assert status["model"]["checksum"] == first_checksum
                assert status["generation"] == generation

                # SIGHUP to the real replacement: generation handover.
                save_identifier(second, model_path)
                os.kill(pid, signal.SIGHUP)
                deadline = time.time() + 30
                while time.time() < deadline:
                    status = client.status()
                    if status["model"]["checksum"] != first_checksum:
                        break
                    time.sleep(0.1)
                assert status["model"]["name"] == "RE/words"
                assert status["generation"] == generation + 1
                assert client.decisions(test_urls) == sparse_oracle(
                    second, test_urls
                )

                # Gate: restoring the older artifact is a refused rollback.
                second_checksum = status["model"]["checksum"]
                model_path.write_bytes(first_bytes)
                client.reload()
                time.sleep(1.0)
                assert (
                    client.status()["model"]["checksum"] == second_checksum
                )
        finally:
            stopped = stop_daemon(socket_path)

        assert stopped == pid
        assert not socket_path.exists()
        assert not pidfile_for(socket_path).exists()
        assert process_gone(pid)

    def test_remote_identifier_and_crawler_handle(
        self, oracle_pair, test_urls, tmp_path, sockpath
    ):
        """``repro://`` handles resolve to a weightless identifier whose
        answers match the daemon's model exactly."""
        first, _ = oracle_pair
        model_path = tmp_path / "handle.urlmodel"
        socket_path = sockpath("handle.sock")
        save_identifier(first, model_path)
        start_daemon(model_path, socket_path, workers=1)
        try:
            remote = open_model(f"repro://{socket_path}")
            assert isinstance(remote, RemoteIdentifier)
            assert remote.name == "NB/words"
            assert remote.decisions(test_urls) == first._sparse_decisions(
                test_urls
            )
            assert remote.scores_many(test_urls) == first.scores_many(
                test_urls
            )
            # The full IdentifierBase surface works over the wire.
            assert remote.classify_many(test_urls[:5]) == first.classify_many(
                test_urls[:5]
            )
        finally:
            stop_daemon(socket_path)


class TestHttpFrontend:
    def test_http_serves_the_same_operations(
        self, oracle_pair, test_urls, tmp_path, sockpath
    ):
        first, _ = oracle_pair
        model_path = tmp_path / "http.urlmodel"
        socket_path = sockpath("http.sock")
        save_identifier(first, model_path)
        start_daemon(model_path, socket_path, workers=1, http_port=0)
        try:
            with DaemonClient(socket_path) as client:
                port = client.status()["http_port"]
            base = f"http://127.0.0.1:{port}"

            with urllib.request.urlopen(f"{base}/healthz") as response:
                assert response.read() == b"ok\n"

            with urllib.request.urlopen(f"{base}/v1/status") as response:
                status = json.loads(response.read())
            assert status["ok"] and status["model"]["name"] == "NB/words"

            request = urllib.request.Request(
                f"{base}/v1/classify",
                data=json.dumps({"urls": test_urls[:5]}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                body = json.loads(response.read())
            best = first.classify_many(test_urls[:5])
            assert [row["best"] for row in body["results"]] == [
                b.value if b else None for b in best
            ]

            bad = urllib.request.Request(
                f"{base}/v1/classify", data=b"[]", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(bad)
            assert caught.value.code == 400

            # A body "op" must not widen a batch endpoint: this stays a
            # classify — and must NOT stop the daemon.
            smuggled = urllib.request.Request(
                f"{base}/v1/classify",
                data=json.dumps({"urls": [], "op": "stop"}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(smuggled) as response:
                body = json.loads(response.read())
            assert body["ok"] and body["results"] == []
            with urllib.request.urlopen(f"{base}/healthz") as response:
                assert response.read() == b"ok\n"  # still alive

            # Oversized Content-Length is refused before buffering.
            oversized = urllib.request.Request(
                f"{base}/v1/classify",
                data=b"{}",
                headers={"Content-Length": str(64 * 1024 * 1024)},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(oversized)
            assert caught.value.code == 413
        finally:
            stop_daemon(socket_path)


class TestClientErrorPaths:
    def test_daemon_down_fails_fast(self, sockpath):
        with DaemonClient(sockpath("nothing.sock"), timeout=2.0) as client:
            with pytest.raises(DaemonUnavailableError, match="serve start"):
                client.ping()

    def test_stale_socket_file(self, sockpath):
        """A socket file whose daemon is gone refuses connections."""
        stale = sockpath("stale.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(stale))
        listener.close()  # file remains, nobody listens
        with DaemonClient(stale, timeout=2.0) as client:
            with pytest.raises(DaemonUnavailableError):
                client.ping()

    def test_protocol_version_gate(self, oracle_pair, tmp_path, sockpath):
        first, _ = oracle_pair
        model_path = tmp_path / "proto.urlmodel"
        socket_path = sockpath("proto.sock")
        save_identifier(first, model_path)
        start_daemon(model_path, socket_path, workers=1)
        try:
            with DaemonClient(socket_path, protocol_version=99) as client:
                with pytest.raises(DaemonRequestError) as caught:
                    client.ping()
                assert caught.value.code == "protocol-version"
            with DaemonClient(socket_path) as client:
                with pytest.raises(DaemonRequestError) as caught:
                    client.request("no-such-op")
                assert caught.value.code == "unknown-op"
                with pytest.raises(DaemonRequestError) as caught:
                    client.request("classify", urls="not-a-list")
                assert caught.value.code == "bad-request"
        finally:
            stop_daemon(socket_path)

    def test_double_start_refused(self, oracle_pair, tmp_path, sockpath):
        """Starting over a live socket must fail loudly — never report
        the old daemon as serving the new model."""
        first, _ = oracle_pair
        model_path = tmp_path / "dup.urlmodel"
        socket_path = sockpath("dup.sock")
        save_identifier(first, model_path)
        start_daemon(model_path, socket_path, workers=1)
        try:
            with pytest.raises(RuntimeError, match="already serving"):
                start_daemon(model_path, socket_path, workers=1)
        finally:
            stop_daemon(socket_path)

    def test_version_mismatched_artifact_refuses_to_boot(
        self, tmp_path, sockpath
    ):
        """A daemon pointed at an artifact from an incompatible format
        version dies at startup with the reason in its log."""
        bogus = tmp_path / "future.urlmodel"
        header = json.dumps({"format_version": 999, "buffers": {}}).encode()
        bogus.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        with pytest.raises(RuntimeError, match="died during startup"):
            start_daemon(
                bogus, sockpath("future.sock"), workers=1, ready_timeout=20
            )

    def test_stop_without_daemon(self, tmp_path):
        with pytest.raises(RuntimeError, match="pidfile"):
            stop_daemon(tmp_path / "never.sock")


class TestEnvironment:
    def test_documented_variables_size_the_span_ring_and_drift_window(
        self, tmp_path, monkeypatch
    ):
        """docs/observability.md names REPRO_SERVE_TRACE_CAPACITY and
        REPRO_SERVE_DRIFT_WINDOW (the REPRO_SERVE_* family)."""
        monkeypatch.setenv("REPRO_SERVE_TRACE_CAPACITY", "7")
        monkeypatch.setenv("REPRO_SERVE_DRIFT_WINDOW", "123")
        daemon = ServingDaemon(tmp_path / "m.urlmodel", tmp_path / "d.sock")
        assert daemon._spans.capacity == 7
        assert daemon._drift_window == 123


class TestRolloutMetadata:
    def test_store_surfaces_rollout(self, oracle_pair, tmp_path):
        """ModelStore.list/describe expose the created-at stamp and the
        train-corpus fingerprint without loading any weights."""
        from repro.store import ModelStore

        first, _ = oracle_pair
        store = ModelStore(tmp_path / "store")
        handle = store.save(first, name="nb")
        assert handle.train_corpus == first.train_fingerprint
        assert handle.created_at is not None
        (listed,) = store.list()
        assert listed.created_at == handle.created_at
        assert listed.train_corpus == handle.train_corpus

    def test_resave_preserves_provenance(self, oracle_pair, tmp_path):
        """Copying weights through load→save keeps train_corpus but
        refreshes created_at (the rollback gate's ordering key)."""
        from repro.store import load_identifier

        first, _ = oracle_pair
        original = tmp_path / "orig.urlmodel"
        copy = tmp_path / "copy.urlmodel"
        save_identifier(first, original)
        served = load_identifier(original)
        assert served.train_fingerprint == first.train_fingerprint
        save_identifier(served, copy)
        resaved = load_identifier(copy)
        assert resaved.rollout["train_corpus"] == first.train_fingerprint
        assert resaved.rollout["created_at"] >= served.rollout["created_at"]
