"""The TCP and HTTP front doors, held to the Unix-socket daemon's contract.

One parametrized ``transport`` fixture runs the existing lifecycle and
robustness scenarios — oracle byte-parity, SIGHUP reload, saturation
shedding, SIGTERM drain, worker-kill chaos — unmodified against both
wire front doors of the *same* daemon (every daemon here listens on its
Unix socket, on TCP and on HTTP at once, which is exactly the
deployment shape ``serve start --tcp --http`` produces).  The same
scenarios then run over HTTP, which workers answer like the wire while
the supervising parent only sheds.  On top of the shared matrix:
keep-alive pipelining with correlation-id echo over raw sockets, the
``repro+tcp://`` resolver route, ``parse_tcp_spec`` grammar, and the
HTTP front-end's batch answers, keep-alive and idle limit.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core.pipeline import LanguageIdentifier
from repro.store import save_identifier
from repro.store.client import (
    DaemonClient,
    DaemonError,
    DaemonRequestError,
    RemoteIdentifier,
    RetryPolicy,
)
from repro.store.daemon import (
    HTTP_IDLE_SECONDS,
    parse_tcp_spec,
    pidfile_for,
    signal_daemon,
    start_daemon,
    stop_daemon,
)
from repro.store.wire import (
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame_ex,
    send_message,
)
from repro.testing.faults import FAULTS_ENV, FAULTS_STATE_ENV

FAST = RetryPolicy(retries=4, backoff=0.01, backoff_max=0.02)


@pytest.fixture(scope="module")
def oracle_pair(small_train, tmp_path_factory):
    """Two fitted identifiers (distinct algorithms) and the saved
    artifact of the first — the before/after of a hot reload."""
    train = small_train.subsample(0.3, seed=7)
    first = LanguageIdentifier("words", "NB", seed=0).fit(train)
    second = LanguageIdentifier("words", "RE", seed=1).fit(train)
    path = tmp_path_factory.mktemp("tcp-model") / "nb.urlmodel"
    save_identifier(first, path)
    return path, first, second


@pytest.fixture(scope="module")
def test_urls(small_bundle):
    return small_bundle.odp_test.urls[:30]


def sparse_oracle(identifier, urls):
    return {
        language.value: values
        for language, values in identifier._sparse_decisions(urls).items()
    }


def arm_faults(monkeypatch, tmp_path, spec: str) -> None:
    monkeypatch.setenv(FAULTS_ENV, spec)
    monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path / "fault-state"))


@pytest.fixture(params=["unix", "tcp"])
def transport(request):
    """Which front door of the dual-listener daemon a scenario dials."""
    return request.param


@pytest.fixture
def live_daemon(oracle_pair, sockpath, transport, tmp_path):
    """Factory for unix + TCP + HTTP daemons, yielding per-transport
    endpoints.

    Returned records carry ``endpoint`` (what :class:`DaemonClient`
    dials for the parametrized transport), ``socket_path`` (for
    signals/stop), ``http_port`` and ``pid``.  Started *inside* the
    test so chaos scenarios can arm faults in the environment first.
    """
    model_path, first, _ = oracle_pair
    started = []

    def start(workers=2, model=None):
        socket_path = sockpath(f"d{len(started)}.sock")
        pid = start_daemon(
            model or model_path, socket_path, workers=workers,
            tcp="127.0.0.1:0", http_port=0,
        )
        with DaemonClient(socket_path) as client:
            status = client.status()
        tcp_block = status["tcp"]
        assert tcp_block["host"] == "127.0.0.1" and tcp_block["port"] > 0
        endpoint = (
            socket_path if transport == "unix"
            else ("127.0.0.1", tcp_block["port"])
        )
        record = SimpleNamespace(
            pid=pid, socket_path=socket_path, endpoint=endpoint,
            tcp_port=tcp_block["port"], http_port=status["http_port"],
        )
        started.append(record)
        return record

    yield start
    for record in started:
        try:
            stop_daemon(record.socket_path)
        except RuntimeError:
            pass  # the scenario already stopped (or drained) it


def raw_connect(record, transport):
    """A raw stream socket to the parametrized front door."""
    if transport == "unix":
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(str(record.socket_path))
    else:
        raw = socket.create_connection(("127.0.0.1", record.tcp_port))
    raw.settimeout(30.0)
    return raw


def http_request(port, method, path, body=None, keep_alive=False,
                 timeout=30.0):
    """``(status, headers, body bytes)`` of one request on a fresh
    connection.  ``Connection: close`` unless ``keep_alive``, so the
    answering worker is free again as soon as it has replied."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers={} if keep_alive else {"Connection": "close"},
        )
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


def respawn_under_a_trickle(record, urls, connect, payload, peers=4):
    """SIGKILL the only worker while ``peers`` connections trickle
    ``payload`` to the shedding parent at 0.5 s a byte.

    The worker is first held by the armed slow ``classify``, so the
    parent sheds, and two pings sent whole over the unix socket must
    both be answered in that state.  ``connect()`` then dials each
    trickling connection.  Returns ``(seconds from the kill to the
    respawn, whether the parent closed every trickling connection
    unanswered)``; gives up after 5 s without a respawn.
    """
    with DaemonClient(record.endpoint) as client:
        worker = client.status()
    assert worker["role"] == "worker"

    def pin():
        try:
            with DaemonClient(record.endpoint, retry=FAST) as client:
                client.classify(urls)
        except DaemonError:
            pass  # its worker is killed under it

    def trickle(raw):
        for byte in payload:
            try:
                raw.sendall(bytes([byte]))
            except OSError:
                return  # the parent closed the connection
            time.sleep(0.5)

    def cut_off(raw):
        raw.settimeout(3.0)
        try:
            return raw.recv(1) == b""
        except ConnectionError:
            return True
        except TimeoutError:
            return False

    no_retry = RetryPolicy(retries=0, backoff=0.01)
    pinned = threading.Thread(target=pin)
    pinned.start()
    time.sleep(0.5)  # let the worker take the slow classify
    pingers = [raw_connect(record, "unix") for _ in range(2)]
    for pinger in pingers:
        send_message(pinger, {"op": "ping", "v": 1})
    for pinger in pingers:
        with pinger:
            assert recv_frame_ex(pinger).message["ok"] is True
    tricklers = [connect() for _ in range(peers)]
    try:
        for raw in tricklers:
            threading.Thread(target=trickle, args=(raw,), daemon=True).start()
        time.sleep(1.0)
        os.kill(worker["pid"], signal.SIGKILL)
        killed = time.monotonic()
        respawn = None
        while respawn is None and time.monotonic() - killed < 5.0:
            try:
                with DaemonClient(record.endpoint, timeout=0.5,
                                  retry=no_retry) as client:
                    status = client.status()
                if status["robustness"]["worker_respawns"] >= 1:
                    respawn = time.monotonic() - killed
            except DaemonError:
                pass  # the parent is not answering yet
            time.sleep(0.05)
        all_cut_off = all([cut_off(raw) for raw in tricklers])
    finally:
        for raw in tricklers:
            raw.close()
    pinned.join(timeout=30)
    assert not pinned.is_alive()
    return respawn, all_cut_off


def hold_the_worker(record, urls):
    """Start a ``classify`` that holds a ``workers=1`` daemon's only
    worker (the armed slow handler), so the supervising parent answers
    every new connection meanwhile; returns the thread to join."""

    def classify():
        with DaemonClient(record.endpoint, retry=FAST) as client:
            client.classify(urls)

    held = threading.Thread(target=classify)
    held.start()
    time.sleep(0.6)  # let the worker take the slow classify
    return held


def read_response(reader):
    """``(status, headers, body)`` of one HTTP/1.1 response read off a
    raw socket's buffered reader; header names are lower-cased."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


class TestTransportMatrix:
    """The lifecycle and robustness scenarios, over both front doors."""

    def test_lifecycle_oracle_parity_and_accounting(
        self, live_daemon, oracle_pair, test_urls, transport
    ):
        _, first, _ = oracle_pair
        record = live_daemon()
        with DaemonClient(record.endpoint) as client:
            assert client.decisions(test_urls) == sparse_oracle(
                first, test_urls
            )
            reference = first.scores_many(test_urls)
            assert client.score(test_urls) == {
                language.value: values
                for language, values in reference.items()
            }
            rows = client.classify(test_urls[:10])
            best = first.classify_many(test_urls[:10])
            assert [row.best for row in rows] == [
                b.value if b else None for b in best
            ]
            # One persistent connection lands everything on one worker,
            # whose per-transport counters must name this front door
            # (the status answering now counts itself only on the next
            # snapshot, so: decisions + score + classify = 3).
            requests = client.status()["requests"]
            assert requests["by_transport"][transport] >= 3
            assert requests["errors"] == 0

    def test_sighup_reload_serves_the_new_oracle(
        self, live_daemon, oracle_pair, test_urls, tmp_path
    ):
        model_path, first, second = oracle_pair
        # A private artifact copy: the reload mutates it.
        private = tmp_path / "reload.urlmodel"
        private.write_bytes(model_path.read_bytes())
        record = live_daemon(model=private)
        with DaemonClient(record.endpoint) as client:
            first_checksum = client.status()["model"]["checksum"]
            assert client.decisions(test_urls) == sparse_oracle(
                first, test_urls
            )
            save_identifier(second, private)
            signal_daemon(record.socket_path, signal.SIGHUP)
            deadline = time.time() + 30
            while time.time() < deadline:
                status = client.status()
                if status["model"]["checksum"] != first_checksum:
                    break
                time.sleep(0.1)
            assert status["model"]["name"] == "RE/words"
            assert client.decisions(test_urls) == sparse_oracle(
                second, test_urls
            )

    def test_saturated_daemon_sheds_with_typed_overloaded(
        self, live_daemon, oracle_pair, test_urls, tmp_path, monkeypatch
    ):
        _, first, _ = oracle_pair
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=decisions,seconds=2.5,times=1",
        )
        record = live_daemon(workers=1)
        slow_result = {}

        def slow_call():
            with DaemonClient(record.endpoint, retry=FAST) as client:
                slow_result["decisions"] = client.decisions(test_urls)

        pinned = threading.Thread(target=slow_call)
        pinned.start()
        time.sleep(0.6)
        no_retry = RetryPolicy(retries=0, backoff=0.01)
        with DaemonClient(record.endpoint, retry=no_retry) as client:
            with pytest.raises(DaemonRequestError) as caught:
                client.decisions(test_urls[:2])
        assert caught.value.code == "overloaded"
        # Health stays observable from the parent on this same door.
        with DaemonClient(record.endpoint, retry=FAST) as client:
            status = client.status()
        assert status["role"] == "parent"
        assert status["robustness"]["overload_rejections"] >= 1
        pinned.join(timeout=30)
        assert slow_result["decisions"] == sparse_oracle(first, test_urls)

    def test_sigterm_drains_in_flight_then_refuses_late_frames(
        self, live_daemon, oracle_pair, test_urls, tmp_path, monkeypatch
    ):
        _, first, _ = oracle_pair
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=decisions,seconds=1.2,times=1",
        )
        record = live_daemon(workers=1)
        no_retry = RetryPolicy(retries=0, backoff=0.01)
        client = DaemonClient(record.endpoint, retry=no_retry)
        outcome = {}

        def in_flight():
            try:
                outcome["decisions"] = client.decisions(test_urls)
            except Exception as error:  # noqa: BLE001 - assert below
                outcome["error"] = error

        try:
            request = threading.Thread(target=in_flight)
            request.start()
            time.sleep(0.5)
            signal_daemon(record.socket_path, signal.SIGTERM)
            request.join(timeout=30)
            assert "error" not in outcome, outcome.get("error")
            assert outcome["decisions"] == sparse_oracle(first, test_urls)
            with pytest.raises(DaemonRequestError) as caught:
                client.ping()
            assert caught.value.code == "shutting-down"
        finally:
            client.close()
            from repro.store.daemon import pidfile_for

            deadline = time.time() + 30
            while time.time() < deadline and pidfile_for(
                record.socket_path
            ).exists():
                time.sleep(0.1)

    def test_worker_sigkill_mid_request_retry_completes(
        self, live_daemon, oracle_pair, test_urls, tmp_path, monkeypatch
    ):
        _, first, _ = oracle_pair
        arm_faults(
            monkeypatch, tmp_path, "worker-kill:op=decisions,times=1"
        )
        record = live_daemon(workers=2)
        with DaemonClient(record.endpoint, retry=FAST) as client:
            assert client.decisions(test_urls) == sparse_oracle(
                first, test_urls
            )
            status = client.status()
        assert status["robustness"]["retries_observed"] >= 1

    def test_a_trickled_request_stalls_no_respawn(
        self, live_daemon, test_urls, tmp_path, monkeypatch, transport
    ):
        """Wire ``ping``s trickled to the shedding parent a byte per
        0.5 s cost one shed pass its read budget, not the whole
        requests: a killed worker is respawned promptly, and the
        trickling connections are closed unanswered."""
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=classify,seconds=5,times=1",
        )
        record = live_daemon(workers=1)
        respawn, cut_off = respawn_under_a_trickle(
            record, test_urls[:2], lambda: raw_connect(record, transport),
            encode_frame({"op": "ping", "v": 1}),
        )
        assert respawn is not None and respawn < 3.0, respawn
        assert cut_off

    def test_the_shedding_parent_records_a_traced_requests_span(
        self, live_daemon, test_urls, tmp_path, monkeypatch, transport
    ):
        """A traced request the parent answers while every worker is
        busy gets its span recorded like a worker's: the span id it
        echoed is in the ring, stamped with the supervisor's pid and
        the door that was dialled."""
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=classify,seconds=2.5,times=1",
        )
        record = live_daemon(workers=1)
        held = hold_the_worker(record, test_urls[:2])
        try:
            with DaemonClient(record.endpoint, retry=FAST,
                              tracing=True) as client:
                assert client.status()["role"] == "parent"
                server_span = client.last_trace["server_span_id"]
        finally:
            held.join(timeout=30)
        with DaemonClient(record.endpoint) as client:
            spans = [
                span for span in client.traces()
                if span["span"] == server_span
            ]
        assert len(spans) == 1, spans
        (span,) = spans
        assert span["pid"] == record.pid
        assert span["transport"] == transport
        assert span["op"] == "status" and span["ok"] is True
        assert "dispatch" in span["stages_ms"]

    def test_the_shedding_parent_answers_unreadable_frames_typed(
        self, live_daemon, test_urls, tmp_path, monkeypatch, transport
    ):
        """While every worker is busy, the parent answers a frame it
        cannot read the way a worker does: ``bad-request`` for a body
        that is not JSON or nests deeper than the parser can follow,
        ``frame-too-large`` for a length word announcing more than the
        cap."""
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=classify,seconds=2.5,times=1",
        )
        record = live_daemon(workers=1)
        held = hold_the_worker(record, test_urls[:2])
        body, deep = b"not json", b"[" * 100_000
        try:
            with DaemonClient(record.endpoint, retry=FAST) as client:
                assert client.status()["role"] == "parent"
            for payload, code in (
                (len(body).to_bytes(4, "big") + body, "bad-request"),
                (len(deep).to_bytes(4, "big") + deep, "bad-request"),
                ((MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
                 "frame-too-large"),
            ):
                with raw_connect(record, transport) as raw:
                    raw.sendall(payload)
                    answer = recv_frame_ex(raw).message
                assert answer["error"]["code"] == code, answer
        finally:
            held.join(timeout=30)

    def test_keepalive_pipelining_echoes_correlation_ids_in_order(
        self, live_daemon, transport
    ):
        """Five frames written back-to-back before any read: the daemon
        answers strictly in request order, echoing each frame's
        correlation id — the contract the async client's multiplexing
        rests on."""
        record = live_daemon(workers=1)
        cids = [7, 3, 9, 1, 4]
        with raw_connect(record, transport) as raw:
            for cid in cids:
                send_message(raw, {"op": "ping", "v": 1},
                             correlation_id=cid)
            for expected in cids:
                frame = recv_frame_ex(raw)
                assert frame.message["ok"] is True
                assert frame.correlation_id == expected

    def test_idless_frames_get_idless_responses(
        self, live_daemon, transport
    ):
        """A legacy client that never sends correlation ids must get
        byte-compatible responses with no correlation field."""
        record = live_daemon(workers=1)
        with raw_connect(record, transport) as raw:
            send_message(raw, {"op": "ping", "v": 1})
            frame = recv_frame_ex(raw)
            assert frame.message["ok"] is True
            assert frame.correlation_id is None


class TestHttpChaos:
    """The chaos matrix over HTTP: workers answer it, the parent sheds.

    Wire calls that pin or inspect the daemon go over its unix socket.
    """

    @pytest.fixture
    def transport(self):
        return "unix"

    def test_saturated_daemon_sheds_with_503_overloaded(
        self, live_daemon, oracle_pair, test_urls, tmp_path, monkeypatch
    ):
        _, first, _ = oracle_pair
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=decisions,seconds=2.5,times=1",
        )
        record = live_daemon(workers=1)
        slow_result = {}

        def slow_call():
            with DaemonClient(record.endpoint, retry=FAST) as client:
                slow_result["decisions"] = client.decisions(test_urls)

        pinned = threading.Thread(target=slow_call)
        pinned.start()
        time.sleep(0.6)
        port = record.http_port
        status, headers, body = http_request(
            port, "POST", "/v1/classify", {"urls": test_urls[:2]},
            keep_alive=True,
        )
        assert status == 503
        assert json.loads(body)["error"]["code"] == "overloaded"
        assert headers["Connection"] == "close"  # one request, then close
        # Health and status stay observable from the parent.
        assert http_request(port, "GET", "/healthz")[2] == b"ok\n"
        answer = json.loads(http_request(port, "GET", "/v1/status")[2])
        assert answer["role"] == "parent"
        assert answer["robustness"]["overload_rejections"] >= 1
        pinned.join(timeout=30)
        assert not pinned.is_alive()
        assert slow_result["decisions"] == sparse_oracle(first, test_urls)

    def test_worker_sigkill_mid_request_drops_the_connection(
        self, live_daemon, oracle_pair, test_urls, tmp_path, monkeypatch
    ):
        _, first, _ = oracle_pair
        arm_faults(
            monkeypatch, tmp_path, "worker-kill:op=classify,times=1"
        )
        record = live_daemon(workers=2)
        with pytest.raises(ConnectionError):  # no response at all
            http_request(record.http_port, "POST", "/v1/classify",
                         {"urls": test_urls})
        deadline = time.time() + 10
        while True:
            with DaemonClient(record.endpoint, retry=FAST) as client:
                robustness = client.status()["robustness"]
            if robustness["worker_respawns"] >= 1:
                break
            assert time.time() < deadline, "the worker was never respawned"
            time.sleep(0.05)
        status, _, body = http_request(
            record.http_port, "POST", "/v1/classify", {"urls": test_urls}
        )
        assert status == 200
        rows = json.loads(body)["results"]
        oracle = sparse_oracle(first, test_urls)
        assert {
            language: [language in row["positives"] for row in rows]
            for language in oracle
        } == oracle

    def test_a_trickled_request_stalls_no_respawn(
        self, live_daemon, test_urls, tmp_path, monkeypatch
    ):
        """``GET /healthz`` trickled to the shedding parent a byte per
        0.5 s: the same one read budget per shed pass as the wire."""
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=classify,seconds=5,times=1",
        )
        record = live_daemon(workers=1)
        respawn, cut_off = respawn_under_a_trickle(
            record, test_urls[:2],
            lambda: socket.create_connection(
                ("127.0.0.1", record.http_port), timeout=30.0
            ),
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert respawn is not None and respawn < 3.0, respawn
        assert cut_off

    def test_sigterm_drains_an_in_flight_batch(
        self, live_daemon, oracle_pair, test_urls, tmp_path, monkeypatch
    ):
        _, first, _ = oracle_pair
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=decisions,seconds=1.2,times=1",
        )
        record = live_daemon(workers=1)
        outcome = {}

        def in_flight():
            outcome["answer"] = http_request(
                record.http_port, "POST", "/v1/decisions",
                {"urls": test_urls}, keep_alive=True,
            )

        request = threading.Thread(target=in_flight)
        request.start()
        time.sleep(0.5)
        signal_daemon(record.socket_path, signal.SIGTERM)
        request.join(timeout=30)
        assert not request.is_alive()
        status, headers, body = outcome["answer"]
        assert status == 200
        assert headers["Connection"] == "close"
        assert json.loads(body)["decisions"] == sparse_oracle(
            first, test_urls
        )
        deadline = time.time() + 30
        while time.time() < deadline and pidfile_for(
            record.socket_path
        ).exists():
            time.sleep(0.1)

    def test_sighup_reload_serves_the_new_oracle(
        self, live_daemon, oracle_pair, test_urls, tmp_path
    ):
        model_path, first, second = oracle_pair
        private = tmp_path / "reload.urlmodel"
        private.write_bytes(model_path.read_bytes())
        record = live_daemon(model=private)

        def get_status():
            return json.loads(
                http_request(record.http_port, "GET", "/v1/status")[2]
            )

        def decisions():
            status, _, body = http_request(
                record.http_port, "POST", "/v1/decisions",
                {"urls": test_urls},
            )
            assert status == 200, body
            return json.loads(body)["decisions"]

        first_checksum = get_status()["model"]["checksum"]
        assert decisions() == sparse_oracle(first, test_urls)
        save_identifier(second, private)
        signal_daemon(record.socket_path, signal.SIGHUP)
        deadline = time.time() + 30
        while time.time() < deadline:
            status = get_status()
            if status["model"]["checksum"] != first_checksum:
                break
            time.sleep(0.1)
        assert status["model"]["name"] == "RE/words"
        assert decisions() == sparse_oracle(second, test_urls)


class TestTcpSpecGrammar:
    def test_host_port_forms(self):
        assert parse_tcp_spec("127.0.0.1:7707") == ("127.0.0.1", 7707)
        assert parse_tcp_spec(":0") == ("127.0.0.1", 0)
        assert parse_tcp_spec("0.0.0.0:80") == ("0.0.0.0", 80)
        assert parse_tcp_spec(("example.org", 9000)) == ("example.org", 9000)

    @pytest.mark.parametrize("spec", ["7707", "host:", "host:http", ""])
    def test_malformed_specs_refused(self, spec):
        with pytest.raises(ValueError):
            parse_tcp_spec(spec)

    def test_bad_spec_fails_in_the_caller_not_the_child(
        self, oracle_pair, sockpath
    ):
        """`serve start --tcp nonsense` must raise in the starting
        process, not die invisibly in the detached daemon."""
        model_path, _, _ = oracle_pair
        with pytest.raises(ValueError, match="host:port"):
            start_daemon(
                model_path, sockpath("bad.sock"), workers=1, tcp="nonsense"
            )


class TestTcpResolver:
    def test_repro_tcp_handle_resolves_with_oracle_parity(
        self, live_daemon, oracle_pair, test_urls, transport
    ):
        from repro.api import open_model

        if transport == "unix":
            pytest.skip("resolver route is the TCP-specific half")
        _, first, _ = oracle_pair
        record = live_daemon()
        handle = f"repro+tcp://127.0.0.1:{record.tcp_port}"
        with open_model(handle) as model:
            assert isinstance(model, RemoteIdentifier)
            assert model.name == "NB/words"
            decisions = {
                language.value: values
                for language, values in model.decisions(test_urls).items()
            }
        assert decisions == sparse_oracle(first, test_urls)


class TestHttpBatches:
    @pytest.fixture()
    def http_daemon(self, oracle_pair, sockpath):
        model_path, first, _ = oracle_pair
        socket_path = sockpath("http.sock")
        start_daemon(model_path, socket_path, workers=1, http_port=0)
        with DaemonClient(socket_path) as client:
            port = client.status()["http_port"]
        yield port, first
        stop_daemon(socket_path)

    def post(self, port, path, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    @pytest.mark.parametrize("route, key", [
        ("/v1/classify", "results"),
        ("/v1/score", "scores"),
        ("/v1/decisions", "decisions"),
    ])
    def test_batch_answers_keep_the_exact_old_shape(
        self, http_daemon, test_urls, route, key
    ):
        """Every batch route answers ``{v, ok, <key>}`` and nothing else."""
        port, _ = http_daemon
        answer = self.post(port, route, {"urls": test_urls[:7]})
        assert set(answer) == {"v", "ok", key}

    def test_old_paging_fields_get_the_whole_batch(
        self, http_daemon, test_urls
    ):
        """HTTP batches do not page (``MAX_BATCH_URLS`` bounds a
        response): a body still carrying ``limit``/``cursor`` is
        answered in full with no ``next_cursor``, so a client's
        ``while next_cursor`` loop ends after one page.  Limits the
        paging scheme refused with a 400 are ignored the same way."""
        port, first = http_daemon
        urls = test_urls[:11]
        for limit in (4, 0, -3, "four"):
            body, pages = {"urls": urls, "limit": limit}, []
            while True:
                page = self.post(port, "/v1/classify", body)
                pages.append(page)
                if page.get("next_cursor") is None:
                    break
                body = {**body, "cursor": page["next_cursor"]}
            (page,) = pages
            assert page["ok"] and set(page) == {"v", "ok", "results"}
            assert [row["url"] for row in page["results"]] == urls
            assert [row["best"] for row in page["results"]] == [
                b.value if b else None for b in first.classify_many(urls)
            ]
        scores = self.post(
            port, "/v1/score", {"urls": urls[:3], "limit": 1, "cursor": "x"}
        )
        assert scores["scores"] == {
            language.value: values
            for language, values in first.scores_many(urls[:3]).items()
        }

    def test_back_to_back_keepalive_posts_do_not_stall(
        self, http_daemon, test_urls
    ):
        """The front-end writes headers and body as two segments; with
        Nagle's algorithm on, every back-to-back request on a kept-alive
        connection waited out the client's delayed ACK (~40 ms)."""
        import http.client
        import statistics

        port, _ = http_daemon
        body = json.dumps({"urls": (test_urls * 2)[:32]})
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        latencies = []
        try:
            for _ in range(21):
                started = time.perf_counter()
                connection.request(
                    "POST", "/v1/classify", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                answer = json.loads(response.read())
                latencies.append(time.perf_counter() - started)
                assert response.status == 200 and len(answer["results"]) == 32
        finally:
            connection.close()
        # The first request opens the connection; time the next 20.
        assert statistics.median(latencies[1:]) < 0.010, latencies


class TestHttpServedByWorkers:
    """HTTP is answered by workers, one connection each, like the wire;
    the supervising parent stays single-threaded and never stalls."""

    @pytest.fixture
    def transport(self):
        return "unix"

    @pytest.mark.parametrize("head, status", [
        (b"POST /v1/nope HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 2097152\r\n\r\n", 404),
        (b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n", 411),
        (b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: many\r\n\r\n", 400),
        (b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 67108864\r\n\r\n", 413),
    ], ids=["404", "411", "400", "413"])
    def test_a_refusal_that_leaves_the_body_unread_still_arrives(
        self, live_daemon, head, status
    ):
        """The worker answers, then drains what the client still sends
        before it closes: closing with the body unread would reset the
        connection and destroy the answer before the client reads it."""
        record = live_daemon(workers=2)
        body = b"x" * (2 << 20)
        answers = []
        for _ in range(10):
            with socket.create_connection(
                ("127.0.0.1", record.http_port), timeout=10.0
            ) as raw:
                try:
                    raw.sendall(head + body)
                    answers.append(read_response(raw.makefile("rb"))[0])
                except OSError as error:
                    answers.append(repr(error))
        assert answers == [status] * 10

    def test_a_free_worker_answers(self, live_daemon):
        record = live_daemon(workers=2)
        status = json.loads(
            http_request(record.http_port, "GET", "/v1/status")[2]
        )
        assert status["role"] == "worker"
        assert status["pid"] != record.pid

    def test_the_supervisor_runs_one_thread(self, live_daemon, test_urls):
        record = live_daemon(workers=2)
        port = record.http_port
        assert http_request(port, "POST", "/v1/classify",
                            {"urls": test_urls})[0] == 200
        with socket.create_connection(("127.0.0.1", port)) as held:
            held.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_response(held.makefile("rb"))[0] == 200
            assert os.listdir(f"/proc/{record.pid}/task") == [
                str(record.pid)
            ]

    def test_a_stalled_body_stalls_neither_respawn_nor_health(
        self, live_daemon
    ):
        """A POST whose body never completes holds one worker; killing
        the other must still be repaired, and health must still answer,
        promptly."""
        record = live_daemon(workers=2)
        base = f"http://127.0.0.1:{record.http_port}"
        with socket.create_connection(
            ("127.0.0.1", record.http_port)
        ) as stalled:
            stalled.sendall(
                b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{\"urls\":"
            )
            time.sleep(0.3)  # let a worker take the stalled request
            with DaemonClient(record.endpoint) as client:
                free = client.status()
            assert free["role"] == "worker"
            os.kill(free["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while True:
                with urllib.request.urlopen(
                    f"{base}/v1/status", timeout=1.0
                ) as response:
                    status = json.loads(response.read())
                if status["robustness"]["worker_respawns"] >= 1:
                    break
                assert time.monotonic() < deadline, "no respawn within 5 s"
                time.sleep(0.05)
            with urllib.request.urlopen(
                f"{base}/healthz", timeout=1.0
            ) as response:
                assert response.read() == b"ok\n"
            with urllib.request.urlopen(
                f"{base}/metrics", timeout=1.0
            ) as response:
                assert b"repro_worker_respawns_total 1" in response.read()

    @pytest.mark.parametrize("announced", ["abc", "-1"])
    def test_malformed_content_length_is_a_typed_400(
        self, live_daemon, announced
    ):
        record = live_daemon(workers=1)
        with socket.create_connection(
            ("127.0.0.1", record.http_port), timeout=5.0
        ) as raw:
            raw.sendall(
                b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + announced.encode() + b"\r\n\r\n"
                b'{"urls": []}'
            )
            status, headers, body = read_response(raw.makefile("rb"))
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == "bad-request"

    def test_a_body_nested_past_the_parser_is_a_typed_400(
        self, live_daemon
    ):
        record = live_daemon(workers=1)
        body = b'{"urls": ' + b"[" * 100_000
        with socket.create_connection(
            ("127.0.0.1", record.http_port), timeout=5.0
        ) as raw:
            raw.sendall(
                b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            reader = raw.makefile("rb")
            status, _, answer = read_response(reader)
            assert status == 400
            assert json.loads(answer)["error"]["code"] == "bad-request"
            raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, health = read_response(reader)
            assert (status, health) == (200, b"ok\n")
        status = json.loads(
            http_request(record.http_port, "GET", "/v1/status")[2]
        )
        assert status["robustness"]["worker_respawns"] == 0

    def test_a_chunked_body_gets_one_411_and_a_close(self, live_daemon):
        """Only a ``Content-Length`` body is read, so chunks must not be
        left on the stream to be taken for a second request."""
        record = live_daemon(workers=1)
        body = b'{"urls": []}'
        with socket.create_connection(
            ("127.0.0.1", record.http_port), timeout=5.0
        ) as raw:
            raw.sendall(
                b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
            )
            reader = raw.makefile("rb")
            status, headers, answer = read_response(reader)
            assert status == 411
            assert headers["connection"] == "close"
            assert json.loads(answer)["error"]["code"] == "bad-request"
            assert reader.read() == b""

    def test_pipelined_posts_are_answered_in_order(
        self, live_daemon, test_urls
    ):
        """Both requests arrive in one segment, so the second already
        sits in the handler's read buffer when the first is answered."""
        record = live_daemon(workers=1)
        batches = [test_urls[:3], test_urls[3:5]]
        requests = b"".join(
            b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            for body in (
                json.dumps({"urls": batch}).encode() for batch in batches
            )
        )
        with socket.create_connection(
            ("127.0.0.1", record.http_port), timeout=10.0
        ) as raw:
            raw.sendall(requests)
            reader = raw.makefile("rb")
            for batch in batches:
                status, _, body = read_response(reader)
                assert status == 200
                assert [
                    row["url"] for row in json.loads(body)["results"]
                ] == batch

    def test_an_idle_keepalive_connection_holds_its_worker_until_the_limit(
        self, live_daemon, test_urls
    ):
        record = live_daemon(workers=1)
        with socket.create_connection(
            ("127.0.0.1", record.http_port),
            timeout=HTTP_IDLE_SECONDS + 5.0,
        ) as idle:
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            reader = idle.makefile("rb")
            assert read_response(reader)[0] == 200
            answered = time.monotonic()
            no_retry = RetryPolicy(retries=0, backoff=0.01)
            with DaemonClient(record.endpoint, retry=no_retry) as client:
                with pytest.raises(DaemonRequestError) as caught:
                    client.classify(test_urls[:2])
            assert caught.value.code == "overloaded"
            assert time.monotonic() - answered < HTTP_IDLE_SECONDS
            assert reader.read() == b""  # the worker closed it: EOF
        with DaemonClient(record.endpoint, retry=FAST) as client:
            assert len(client.classify(test_urls[:2])) == 2
