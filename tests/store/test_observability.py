"""End-to-end observability: wire-level tracing through the daemon,
Prometheus exposition on ``GET /metrics``, the span ring on
``GET /v1/traces``, per-language drift telemetry in ``serve status``,
and trace ids stamped onto the structured JSON event log.

One daemon boot serves most of the module (tracing is per-client, so a
traced and an untraced client share it); assertions follow the path a
single traced classify takes: client → wire frame → worker span →
ring buffer → scrape → log line.  Daemon-wide accounting across
workers and transports, and the reload rule, get daemons of their own.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.pipeline import LanguageIdentifier
from repro.obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.store import save_identifier
from repro.store.client import AsyncRemoteIdentifier, DaemonClient
from repro.store.daemon import start_daemon, stop_daemon
from repro.store.wire import PROTOCOL_VERSION, recv_frame, send_message

from ..obs.test_prom import parse_exposition


@pytest.fixture(scope="module")
def fitted(small_train):
    train = small_train.subsample(0.3, seed=5)
    return LanguageIdentifier("words", "NB", seed=0).fit(train)


@pytest.fixture(scope="module")
def obs_daemon(fitted, tmp_path_factory, sockpath_module):
    """A JSON-logging daemon with an HTTP frontend, up for the module."""
    tmp_path = tmp_path_factory.mktemp("obs")
    model_path = tmp_path / "obs.urlmodel"
    socket_path = sockpath_module("obs.sock")
    save_identifier(fitted, model_path)
    start_daemon(
        model_path, socket_path, workers=1, http_port=0, log_json=True
    )
    try:
        with DaemonClient(socket_path) as client:
            port = client.status()["http_port"]
        yield socket_path, f"http://127.0.0.1:{port}"
    finally:
        stop_daemon(socket_path)


@pytest.fixture(scope="module")
def sockpath_module(tmp_path_factory):
    """Module-scoped twin of the function-scoped ``sockpath`` fixture
    (unix socket paths must stay under the AF_UNIX length limit)."""
    import tempfile
    from pathlib import Path

    base = Path(tempfile.mkdtemp(prefix="repro-obs-", dir="/tmp"))
    yield lambda name: base / name
    for leftover in base.glob("*"):
        leftover.unlink(missing_ok=True)
    base.rmdir()


URLS = [
    "http://www.example.de/nachrichten/wirtschaft",
    "http://example.fr/actualites/page",
    "http://example.com/news/business/today",
    "http://example.es/noticias/deportes",
] * 3


class TestTracedRequests:
    def test_trace_id_flows_client_to_span_ring(self, obs_daemon):
        socket_path, _ = obs_daemon
        with DaemonClient(socket_path, tracing=True) as client:
            client.classify(URLS)
            trace = client.last_trace
            assert trace is not None
            assert len(trace["trace_id"]) == 32
            assert trace["server_span_id"] not in (None, trace["span_id"])
            spans = client.traces()
        (span,) = [s for s in spans if s["trace"] == trace["trace_id"]]
        assert span["span"] == trace["server_span_id"]
        assert span["parent"] == trace["span_id"]
        assert span["op"] == "classify" and span["ok"] is True
        assert span["ms"] > 0.0
        for name in ("accept", "dispatch", "respond"):
            assert name in span["stages_ms"]
        # The pipeline marks its own stages inside dispatch.
        assert "extract" in span["stages_ms"]
        assert "matmul" in span["stages_ms"]

    def test_untraced_requests_record_no_span(self, obs_daemon):
        socket_path, _ = obs_daemon
        with DaemonClient(socket_path) as plain:
            assert plain.tracing is False
            before = plain.request("traces")["recorded"]
            plain.classify(URLS[:2])
            assert plain.last_trace is None
            assert plain.request("traces")["recorded"] == before

    def test_each_traced_request_mints_a_fresh_trace(self, obs_daemon):
        socket_path, _ = obs_daemon
        with DaemonClient(socket_path, tracing=True) as client:
            client.ping()
            first = client.last_trace["trace_id"]
            client.ping()
            assert client.last_trace["trace_id"] != first

    def test_async_client_traces_too(self, obs_daemon):
        socket_path, _ = obs_daemon

        async def run():
            remote = AsyncRemoteIdentifier.connect(
                socket_path, tracing=True
            )
            async with remote:
                await remote.client.aclassify(URLS[:4])
                trace = remote.client.last_trace
                assert trace is not None
                spans = await remote.client.atraces()
            matching = [
                s for s in spans if s["trace"] == trace["trace_id"]
            ]
            assert matching and matching[-1]["parent"] == trace["span_id"]

        asyncio.run(run())

    def test_traces_limit_is_validated(self, obs_daemon):
        socket_path, _ = obs_daemon
        from repro.store.client import DaemonRequestError

        with DaemonClient(socket_path) as client:
            with pytest.raises(DaemonRequestError) as caught:
                client.request("traces", limit=0)
            assert caught.value.code == "bad-request"


class TestDriftTelemetry:
    def test_classify_traffic_moves_the_drift_block(self, obs_daemon):
        socket_path, _ = obs_daemon
        with DaemonClient(socket_path) as client:
            before = client.status()["drift"]["current"]["rows"]
            client.classify(URLS)
            drift = client.status()["drift"]
            assert drift["current"]["rows"] >= before + len(URLS)
            assert set(drift["current"]["decisions"]) >= {"en", "de", "fr"}
            assert drift["window_rows"] > 0


class TestHttpExposition:
    def test_metrics_endpoint_speaks_prometheus(self, obs_daemon):
        socket_path, base = obs_daemon
        with DaemonClient(socket_path, tracing=True) as client:
            client.classify(URLS)
        # Request counters cover the whole daemon; one batch through the
        # HTTP frontend puts the third transport in the scrape too.
        request = urllib.request.Request(
            f"{base}/v1/classify",
            data=json.dumps({"urls": URLS[:3]}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert json.loads(response.read())["ok"]
        with urllib.request.urlopen(f"{base}/metrics") as response:
            assert response.headers["Content-Type"] == PROM_CONTENT_TYPE
            text = response.read().decode("utf-8")
        types, samples = parse_exposition(text)
        assert types["repro_requests_total"] == "counter"
        assert types["repro_request_latency_seconds"] == "histogram"
        values = {
            name: value for name, labels, value in samples if not labels
        }
        # The span ring and drift banks are fork-shared, so whichever
        # process answers the scrape sees the socket workers' traffic.
        assert values["repro_trace_spans_total"] >= 1.0
        by_op = {
            labels.get("op"): value
            for name, labels, value in samples
            if name == "repro_requests_total"
        }
        assert by_op.get("classify", 0.0) >= 1.0
        drift_rows = [
            value for name, labels, value in samples
            if name == "repro_drift_rows_total"
            and labels.get("bank") == "current"
        ]
        assert drift_rows and drift_rows[0] >= float(len(URLS))

    def test_traces_endpoint_serves_the_ring(self, obs_daemon):
        socket_path, base = obs_daemon
        with DaemonClient(socket_path, tracing=True) as client:
            client.ping()
            trace_id = client.last_trace["trace_id"]
        with urllib.request.urlopen(f"{base}/v1/traces") as response:
            body = json.loads(response.read())
        assert body["ok"] and body["capacity"] >= 1
        assert any(s["trace"] == trace_id for s in body["traces"])
        with urllib.request.urlopen(f"{base}/v1/traces?limit=1") as response:
            limited = json.loads(response.read())
        assert len(limited["traces"]) == 1

    def test_traces_endpoint_rejects_bad_limit(self, obs_daemon):
        _, base = obs_daemon
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{base}/v1/traces?limit=zero")
        assert caught.value.code == 400


class TestJsonEventLog:
    def test_trace_id_lands_in_the_event_log(self, obs_daemon, sockpath_module):
        socket_path, _ = obs_daemon
        log_path = socket_path.with_name(socket_path.name + ".log")
        with DaemonClient(socket_path, tracing=True) as client:
            client.ping()
            trace_id = client.last_trace["trace_id"]
        # The worker logs the span *after* answering, so poll briefly.
        deadline = time.time() + 10.0
        while True:
            events = []
            for line in log_path.read_text().splitlines():
                try:
                    events.append(json.loads(line))
                except ValueError:
                    pytest.fail(
                        f"non-JSON line in --log-json log: {line!r}"
                    )
            matching = [
                e for e in events
                if e["event"] == "request" and e.get("trace") == trace_id
            ]
            if matching or time.time() > deadline:
                break
            time.sleep(0.05)
        assert any(e["event"] == "daemon-start" for e in events)
        (request,) = matching
        assert request["op"] == "ping" and request["ok"] is True
        assert request["role"] == "worker"


class TestBoundedOpLabels:
    def test_unknown_ops_add_no_label_besides_invalid(self, obs_daemon):
        socket_path, _ = obs_daemon
        with DaemonClient(socket_path) as client:
            before = client.status()["requests"]["by_op"]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10.0)
            raw.connect(str(socket_path))
            for n in range(200):
                op = f"no-such-op-{n:03d}-" + "x" * 200
                send_message(raw, {"v": PROTOCOL_VERSION, "op": op})
                answer, _ = recv_frame(raw)
                assert answer["error"]["code"] == "unknown-op"
        with DaemonClient(socket_path) as client:
            after = client.status()["requests"]["by_op"]
        assert set(after) - set(before) <= {"invalid"}
        assert after["invalid"] - before.get("invalid", 0) == 200


@pytest.fixture
def fleet_daemon(fitted, tmp_path, sockpath):
    """Two workers behind unix, TCP and HTTP front doors at once."""
    model_path = tmp_path / "fleet.urlmodel"
    socket_path = sockpath("fleet.sock")
    save_identifier(fitted, model_path)
    start_daemon(model_path, socket_path, workers=2, http_port=0,
                 tcp="127.0.0.1:0")
    try:
        with DaemonClient(socket_path) as client:
            status = client.status()
        tcp = (status["tcp"]["host"], status["tcp"]["port"])
        yield socket_path, tcp, f"http://127.0.0.1:{status['http_port']}"
    finally:
        stop_daemon(socket_path)


def _scrape_counts(base: str) -> dict:
    """One scrape of the request and respawn counters, keyed by (name,
    *label values); whichever process answers it reports the whole
    daemon."""
    with urllib.request.urlopen(f"{base}/metrics") as response:
        _, samples = parse_exposition(response.read().decode("utf-8"))
    return {
        (name, *labels.values()): value
        for name, labels, value in samples
        if name in ("repro_requests_total", "repro_requests_transport_total",
                    "repro_worker_respawns_total")
    }


def _worker_statuses(socket_path) -> dict:
    """Each worker's own status block, by pid: a held connection pins
    its worker, so the second connection lands on the other one."""
    with DaemonClient(socket_path) as first, \
            DaemonClient(socket_path) as second:
        statuses = [first.status(), second.status()]
    assert [status["role"] for status in statuses] == ["worker"] * 2
    return {status["pid"]: status for status in statuses}


class TestFleetWideAccounting:
    def test_every_process_reports_the_whole_daemon(self, fleet_daemon):
        socket_path, tcp, base = fleet_daemon
        for endpoint, connections in ((socket_path, 5), (tcp, 3)):
            for _ in range(connections):
                with DaemonClient(endpoint) as client:
                    client.classify(URLS[:2])
        for _ in range(2):
            request = urllib.request.Request(
                f"{base}/v1/classify",
                data=json.dumps({"urls": URLS[:2]}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert json.loads(response.read())["ok"]

        # One worker answers the scrape, yet counts every worker's
        # unix, TCP and HTTP traffic.
        scrape = _scrape_counts(base)
        assert scrape[("repro_requests_total", "classify")] == 10
        assert scrape[("repro_requests_transport_total", "tcp")] == 3
        assert scrape[("repro_requests_transport_total", "http")] == 2
        statuses = _worker_statuses(socket_path)
        assert len(statuses) == 2
        for status in statuses.values():
            assert status["requests"]["by_op"]["classify"] == 10
            assert status["requests"]["by_transport"]["tcp"] == 3
            assert status["requests"]["by_transport"]["http"] == 2

        # A worker's death takes none of the counts with it.
        victim = min(statuses)
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 30
        while _scrape_counts(base)[("repro_worker_respawns_total",)] < 1:
            assert time.time() < deadline, "the worker was never respawned"
            time.sleep(0.05)
        after = _scrape_counts(base)
        for key, value in scrape.items():
            assert after[key] >= value, key
        respawned = _worker_statuses(socket_path)
        assert victim not in respawned
        for status in respawned.values():
            assert status["requests"]["by_op"]["classify"] == 10


@pytest.fixture(scope="module")
def refitted(small_train):
    """A second model with its own weights (and checksum) to reload to."""
    train = small_train.subsample(0.3, seed=6)
    return LanguageIdentifier("words", "NB", seed=0).fit(train)


def _status_of_generation(socket_path, generation: int) -> dict:
    """Poll fresh connections until a worker of ``generation`` answers."""
    deadline = time.time() + 30
    while True:
        with DaemonClient(socket_path) as client:
            status = client.status()
        if status["generation"] == generation:
            return status
        assert time.time() < deadline, f"generation {generation} never came"
        time.sleep(0.1)


class TestReloadRule:
    def test_reload_renews_spans_and_drift_but_keeps_scrape_counts(
        self, fitted, refitted, tmp_path, sockpath
    ):
        model_path = tmp_path / "reload.urlmodel"
        socket_path = sockpath("reload.sock")
        save_identifier(fitted, model_path)
        start_daemon(model_path, socket_path, workers=1)
        try:
            with DaemonClient(socket_path, tracing=True) as client:
                client.classify(URLS)
                status = client.status()
            assert status["traces"]["recorded"] >= 1
            assert status["drift"]["current"]["rows"] == len(URLS)
            classified = status["requests"]["by_op"]["classify"]

            save_identifier(refitted, model_path)
            with DaemonClient(socket_path) as client:
                client.reload()
            status = _status_of_generation(socket_path, 2)
            # The new generation forked over a fresh ring and fresh
            # drift banks; request counts span generations.
            assert status["traces"]["recorded"] == 0
            drift = status["drift"]
            assert drift["windows_completed"] == 0
            assert drift["baseline"]["rows"] == drift["current"]["rows"] == 0
            assert status["requests"]["by_op"]["classify"] == classified

            with DaemonClient(socket_path, tracing=True) as client:
                client.classify(URLS[:4])
                trace_id = client.last_trace["trace_id"]
                spans = client.traces()
                status = client.status()
            assert [span["trace"] for span in spans] == [trace_id]
            assert spans[0]["pid"] == status["pid"]
            assert status["generation"] == 2
            assert status["drift"]["current"]["rows"] == 4
            assert status["requests"]["by_op"]["classify"] == classified + 1
        finally:
            stop_daemon(socket_path)
