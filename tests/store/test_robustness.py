"""Fault tolerance of the serving stack: deadlines, retries,
back-pressure, crash containment, and graceful drain.

Three layers of test, cheapest first:

* wire unit tests over socket pairs and fake sockets — the deadline
  header, torn-frame detection, EINTR recovery;
* the sans-I/O request planner on its own, then client retry-policy
  tests against a *scripted* Unix-socket server — deterministic
  control over every response, no daemon processes; one table, run
  against both the sync and the async client;
* chaos integration tests against a real pre-forked daemon with faults
  armed through :mod:`repro.testing.faults` — worker SIGKILL mid-
  request, saturation, deadline expiry, crash loops, SIGTERM drain.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.pipeline import LanguageIdentifier
from repro.store import save_identifier
from repro.store.client import (
    IDEMPOTENT_OPS,
    AsyncDaemonClient,
    DaemonClient,
    DaemonRequestError,
    DaemonUnavailableError,
    RequestPlan,
    RetryPolicy,
)
from repro.store.daemon import (
    DaemonNotRunningError,
    DaemonStartupError,
    DaemonStopTimeout,
    read_pid,
    signal_daemon,
    start_daemon,
    stop_daemon,
)
from repro.store.metrics import RobustnessCounters
from repro.store.wire import (
    DEADLINE_FLAG,
    ERROR_CODES,
    MAX_FRAME_BYTES,
    RETRYABLE_CODES,
    ConnectionClosed,
    Frame,
    WireError,
    error_response,
    ok_response,
    read_frame_async,
    recv_frame_ex,
    send_message,
)
from repro.testing.faults import FAULTS_ENV, FAULTS_STATE_ENV


@pytest.fixture(scope="module")
def served_model(small_train, tmp_path_factory):
    """``(artifact_path, identifier)`` for the chaos daemons."""
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.3, seed=7)
    )
    path = tmp_path_factory.mktemp("robust-model") / "nb.urlmodel"
    save_identifier(identifier, path)
    return path, identifier


@pytest.fixture(scope="module")
def test_urls(small_bundle):
    return small_bundle.odp_test.urls[:30]


def sparse_oracle(identifier, urls):
    return {
        language.value: values
        for language, values in identifier._sparse_decisions(urls).items()
    }


# -- wire: deadline header, torn frames, EINTR ------------------------------------


class TestDeadlineHeader:
    def test_roundtrip_with_budget(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"op": "ping", "v": 1}, deadline_ms=1500)
            frame = recv_frame_ex(b)
            assert frame.message == {"op": "ping", "v": 1}
            assert frame.deadline_ms == 1500

    def test_absent_budget_is_none_and_bytes_identical(self):
        """No deadline → the frame is byte-identical to the
        pre-deadline protocol (that is why this was not a version
        bump)."""
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"op": "ping"})
            frame = b.recv(1 << 16)
        body = frame[4:]
        word = int.from_bytes(frame[:4], "big")
        assert not word & DEADLINE_FLAG
        assert word == len(body)
        a, b = socket.socketpair()
        with a, b:
            a.sendall(frame)
            decoded = recv_frame_ex(b)
        assert decoded.message == {"op": "ping"}
        assert decoded.deadline_ms is None

    def test_negative_budget_clamps_to_zero(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"op": "ping"}, deadline_ms=-50)
            assert recv_frame_ex(b).deadline_ms == 0

    def test_flagged_length_still_bounded(self):
        """The flag bit must not let an attacker smuggle an oversized
        length past the frame cap."""
        a, b = socket.socketpair()
        with a, b:
            word = DEADLINE_FLAG | (MAX_FRAME_BYTES + 1)
            a.sendall(word.to_bytes(4, "big"))
            from repro.store.wire import FrameTooLargeError

            with pytest.raises(FrameTooLargeError):
                recv_frame_ex(b)


class TestTornFrames:
    def test_truncated_body_is_dirty_close(self):
        """Half a body then close → ConnectionClosed with clean=False
        (a truncation, never a parsed partial message)."""
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall((100).to_bytes(4, "big") + b'{"op":')
            with pytest.raises(ConnectionClosed) as caught:
                recv_frame_ex(b)
            assert caught.value.clean is False

    def test_truncated_deadline_field_is_dirty_close(self):
        a, b = socket.socketpair()
        with b:
            with a:
                word = DEADLINE_FLAG | 10
                a.sendall(word.to_bytes(4, "big") + b"\x00\x00\x00")
            with pytest.raises(ConnectionClosed) as caught:
                recv_frame_ex(b)
            assert caught.value.clean is False

    def test_close_on_boundary_is_clean(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            with pytest.raises(ConnectionClosed) as caught:
                recv_frame_ex(b)
            assert caught.value.clean is True

    def test_truncated_length_prefix_is_dirty(self):
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall(b"\x00\x00")
            with pytest.raises(ConnectionClosed) as caught:
                recv_frame_ex(b)
            assert caught.value.clean is False


class TestNestingDepth:
    def test_a_body_nested_past_the_parser_is_a_wire_error(self):
        """``json`` gives up on deep nesting with ``RecursionError``;
        both readers must turn it into a typed ``WireError`` like any
        other unreadable body, or one frame crashes whoever reads it."""
        body = b"[" * 100_000
        payload = len(body).to_bytes(4, "big") + body
        a, b = socket.socketpair()
        with a, b:
            a.sendall(payload)
            with pytest.raises(WireError, match="not valid JSON"):
                recv_frame_ex(b)

        async def read_async():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            return await read_frame_async(reader)

        with pytest.raises(WireError, match="not valid JSON"):
            asyncio.run(read_async())


class _InterruptedSocket:
    """A socket stand-in whose recv/send raise InterruptedError on a
    schedule — the raising-signal-handler case PEP 475 leaves open."""

    def __init__(self, payload: bytes = b"", interrupts: int = 2,
                 send_chunk: int = 3) -> None:
        self.payload = payload
        self.offset = 0
        self.interrupts = interrupts
        self.send_chunk = send_chunk
        self.sent = bytearray()

    def recv(self, n: int) -> bytes:
        if self.interrupts > 0:
            self.interrupts -= 1
            raise InterruptedError
        chunk = self.payload[self.offset:self.offset + min(n, 5)]
        self.offset += len(chunk)
        return chunk

    def send(self, view) -> int:
        if self.interrupts > 0:
            self.interrupts -= 1
            raise InterruptedError
        taken = bytes(view[: self.send_chunk])
        self.sent.extend(taken)
        return len(taken)


class TestEintrRecovery:
    def test_recv_resumes_after_interrupt(self):
        body = b'{"op":"ping"}'
        frame = len(body).to_bytes(4, "big") + body
        sock = _InterruptedSocket(payload=frame, interrupts=3)
        assert recv_frame_ex(sock) == Frame({"op": "ping"})

    def test_send_resumes_at_exact_offset(self):
        """Interrupts and short sends must never duplicate or drop
        bytes — the peer decodes one intact frame."""
        sock = _InterruptedSocket(interrupts=4, send_chunk=3)
        send_message(sock, {"op": "status", "v": 1}, deadline_ms=250)
        a, b = socket.socketpair()
        with a, b:
            a.sendall(bytes(sock.sent))
            frame = recv_frame_ex(b)
        assert frame.message == {"op": "status", "v": 1}
        assert frame.deadline_ms == 250


class TestErrorTaxonomy:
    def test_retryable_codes_are_registered(self):
        assert RETRYABLE_CODES <= set(ERROR_CODES)

    def test_terminal_codes_stay_terminal(self):
        for code in ("bad-request", "deadline-exceeded", "internal"):
            assert code in ERROR_CODES
            assert code not in RETRYABLE_CODES

    def test_mutating_ops_are_not_idempotent(self):
        assert "reload" not in IDEMPOTENT_OPS
        assert "stop" not in IDEMPOTENT_OPS


# -- RetryPolicy ------------------------------------------------------------------


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.retries >= 1
        assert 0 < policy.backoff <= policy.backoff_max

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1},
        {"backoff": 0.0},
        {"backoff": 0.5, "backoff_max": 0.1},
        {"deadline": 0.0},
        {"deadline": -3.0},
    ])
    def test_invalid_configs_refused(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_grows_exponentially_with_jitter(self):
        policy = RetryPolicy(backoff=0.1, backoff_max=1.0)
        for attempt, ceiling in ((1, 0.1), (2, 0.2), (3, 0.4), (6, 1.0)):
            for _ in range(20):
                delay = policy.delay(attempt)
                assert ceiling * 0.5 <= delay <= ceiling


class TestRequestPlan:
    """What the sans-I/O attempt planner decides that the client table
    below cannot observe; its retry verdicts are checked there, through
    both clients."""

    def test_replays_are_stamped_after_the_request_fields(self):
        plan = RequestPlan(
            RetryPolicy(backoff=0.01), "classify", {"urls": ["http://a.de/x"]},
            1, "d.sock",
        )
        first, budget = plan.next_attempt()
        assert list(first) == ["v", "op", "urls"]
        assert first == {"v": 1, "op": "classify", "urls": ["http://a.de/x"]}
        assert budget is None
        plan.failed(ConnectionResetError("gone"))
        replay, _ = plan.next_attempt()
        assert list(replay) == ["v", "op", "urls", "attempt"]
        assert replay["attempt"] == 2

    def test_deadline_budget_shrinks_across_attempts(self):
        plan = RequestPlan(
            RetryPolicy(backoff=0.01, deadline=5.0), "ping", {}, 1, "d.sock"
        )
        _, first = plan.next_attempt()
        assert 0 < first <= 5000
        time.sleep(0.02)
        _, second = plan.next_attempt()
        assert second < first


# -- client retry behaviour against a scripted server -----------------------------


class ScriptedServer:
    """A Unix-socket server that answers from a fixed script.

    Each script entry handles one *connection*: ``"ok"`` answers every
    frame successfully, an error code string answers one frame with
    that typed refusal then closes, ``"torn"`` sends half a response
    frame then hard-closes, ``"reset"`` closes without answering.
    Records every received request and counts accepted connections for
    assertions.
    """

    def __init__(self, path, script):
        self.path = str(path)
        self.script = list(script)
        self.requests: list[tuple[dict, int | None]] = []
        self.connections = 0
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for action in self.script:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with connection:
                try:
                    self._handle(connection, action)
                except (ConnectionClosed, OSError):
                    pass
        self._listener.close()

    def _handle(self, connection, action) -> None:
        frame = recv_frame_ex(connection)
        self.requests.append((frame.message, frame.deadline_ms))
        if action == "reset":
            return
        if action == "torn":
            import json

            body = json.dumps(ok_response(pong=True)).encode()
            frame = len(body).to_bytes(4, "big") + body
            connection.sendall(frame[: len(frame) // 2])
            return
        if action == "ok":
            send_message(connection, ok_response(pid=os.getpid()))
            while True:  # keep answering on the persistent connection
                frame = recv_frame_ex(connection)
                self.requests.append((frame.message, frame.deadline_ms))
                send_message(connection, ok_response(pid=os.getpid()))
        send_message(
            connection, error_response(action, f"scripted {action}")
        )

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


@pytest.fixture()
def scripted(sockpath):
    servers = []

    def factory(script):
        server = ScriptedServer(sockpath(f"s{len(servers)}.sock"), script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


FAST = RetryPolicy(retries=4, backoff=0.01, backoff_max=0.02)


@pytest.fixture(params=["sync", "async"])
def call(request):
    """``call(endpoint, policy, method, *args)``: one request through
    :class:`DaemonClient` or — its ``a``-prefixed twin under
    ``asyncio.run`` — :class:`AsyncDaemonClient`, so every retry case
    below holds both clients to the same :class:`RequestPlan`."""
    if request.param == "sync":

        def call_sync(endpoint, policy, method, *args, timeout=30.0):
            with DaemonClient(endpoint, timeout=timeout, retry=policy) as c:
                return getattr(c, method)(*args)

        return call_sync

    def call_async(endpoint, policy, method, *args, timeout=30.0):
        async def run():
            async with AsyncDaemonClient(
                endpoint, timeout=timeout, retry=policy
            ) as client:
                return await getattr(client, "a" + method)(*args)

        return asyncio.run(run())

    return call_async


class TestClientRetries:
    def test_retryable_refusals_are_retried_to_success(self, scripted, call):
        server = scripted(["overloaded", "shutting-down", "ok"])
        assert call(server.path, FAST, "ping") is True
        ops = [message["op"] for message, _ in server.requests]
        assert ops == ["ping", "ping", "ping"]
        # Replayed attempts are stamped so the daemon can count them.
        assert server.requests[1][0]["attempt"] == 2
        assert server.requests[2][0]["attempt"] == 3

    def test_terminal_refusal_not_retried(self, scripted, call):
        server = scripted(["bad-request", "ok"])
        with pytest.raises(DaemonRequestError) as caught:
            call(server.path, FAST, "status")
        assert caught.value.code == "bad-request"
        assert len(server.requests) == 1

    def test_deadline_exceeded_not_retried(self, scripted, call):
        server = scripted(["deadline-exceeded", "ok"])
        with pytest.raises(DaemonRequestError) as caught:
            call(server.path, FAST, "decisions", ["http://a.de/x"])
        assert caught.value.code == "deadline-exceeded"
        assert len(server.requests) == 1

    def test_torn_frame_retried_on_fresh_connection(self, scripted, call):
        server = scripted(["torn", "ok"])
        assert call(server.path, FAST, "ping") is True
        assert len(server.requests) == 2
        assert server.connections == 2

    def test_connection_reset_retried(self, scripted, call):
        server = scripted(["reset", "ok"])
        assert call(server.path, FAST, "ping") is True
        assert len(server.requests) == 2

    def test_budget_exhaustion_surfaces_typed_error(self, scripted, call):
        server = scripted(["overloaded"] * 3)
        policy = RetryPolicy(retries=2, backoff=0.01, backoff_max=0.02)
        with pytest.raises(DaemonRequestError) as caught:
            call(server.path, policy, "ping")
        assert caught.value.code == "overloaded"
        assert len(server.requests) == 3  # 1 try + 2 retries, no more

    def test_non_idempotent_op_never_retried(self, scripted, call):
        server = scripted(["overloaded", "ok"])
        with pytest.raises(DaemonRequestError) as caught:
            call(server.path, FAST, "stop")
        assert caught.value.code == "overloaded"
        assert len(server.requests) == 1

    def test_zero_retries_disables_retrying(self, scripted, call):
        server = scripted(["overloaded", "ok"])
        policy = RetryPolicy(retries=0, backoff=0.01)
        with pytest.raises(DaemonRequestError):
            call(server.path, policy, "ping")
        assert len(server.requests) == 1

    def test_deadline_propagates_in_frame_header(self, scripted, call):
        server = scripted(["ok"])
        policy = RetryPolicy(retries=0, backoff=0.01, deadline=5.0)
        call(server.path, policy, "ping")
        (_, deadline_ms), = server.requests
        assert deadline_ms is not None
        assert 0 < deadline_ms <= 5000

    def test_no_deadline_means_no_header_budget(self, scripted, call):
        server = scripted(["ok"])
        assert call(server.path, FAST, "ping") is True
        (_, deadline_ms), = server.requests
        assert deadline_ms is None

    def test_deadline_bounds_total_retry_time(self, scripted, call):
        """Retries stop when the end-to-end deadline expires even with
        retry budget left."""
        server = scripted(["overloaded"] * 50)
        policy = RetryPolicy(
            retries=50, backoff=0.05, backoff_max=0.05, deadline=0.3
        )
        started = time.monotonic()
        with pytest.raises(DaemonRequestError):
            call(server.path, policy, "ping")
        assert time.monotonic() - started < 2.0
        assert len(server.requests) < 20

    def test_connection_refusal_fails_fast(self, sockpath, call):
        """A daemon that was never there is not retried — fail fast so
        misconfiguration is loud."""
        started = time.monotonic()
        with pytest.raises(DaemonUnavailableError):
            call(sockpath("never.sock"), FAST, "ping", timeout=2.0)
        assert time.monotonic() - started < 1.0

    def test_refusal_names_the_start_command_of_its_transport(
        self, sockpath, call
    ):
        """A refused TCP dial points at ``serve start --tcp``; a refused
        Unix dial at plain ``serve start``."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(DaemonUnavailableError) as caught:
            call(("127.0.0.1", port), FAST, "ping", timeout=2.0)
        assert f"no serving daemon on '127.0.0.1:{port}'" in str(caught.value)
        assert "'repro serve start --tcp'" in str(caught.value)
        with pytest.raises(DaemonUnavailableError) as caught:
            call(sockpath("never.sock"), FAST, "ping", timeout=2.0)
        assert "'repro serve start'" in str(caught.value)


# -- robustness counters ----------------------------------------------------------


class TestRobustnessCounters:
    def test_bump_and_snapshot(self):
        counters = RobustnessCounters()
        snapshot = counters.snapshot()
        assert snapshot["overload_rejections"] == 0
        assert snapshot["last_crash_at"] is None
        counters.bump("overload_rejections")
        counters.bump("retries_observed", by=3)
        counters.mark_crash(when=123.5)
        snapshot = counters.snapshot()
        assert snapshot["overload_rejections"] == 1
        assert snapshot["retries_observed"] == 3
        assert snapshot["last_crash_at"] == 123.5

    def test_unknown_field_refused(self):
        with pytest.raises(KeyError):
            RobustnessCounters().bump("no-such-counter")

    def test_shared_across_fork(self):
        counters = RobustnessCounters()
        pid = os.fork()
        if pid == 0:  # child bumps, parent observes
            counters.bump("worker_respawns", by=7)
            os._exit(0)
        os.waitpid(pid, 0)
        assert counters.snapshot()["worker_respawns"] == 7


# -- typed process-management errors ----------------------------------------------


class TestTypedProcessErrors:
    def test_stop_without_daemon_is_typed(self, tmp_path):
        with pytest.raises(DaemonNotRunningError):
            stop_daemon(tmp_path / "never.sock")

    def test_typed_errors_remain_runtime_errors(self):
        """Callers that still catch RuntimeError keep working."""
        for error_type in (
            DaemonStartupError, DaemonNotRunningError, DaemonStopTimeout,
        ):
            assert issubclass(error_type, RuntimeError)


# -- chaos: a real daemon with armed faults ---------------------------------------


def arm_faults(monkeypatch, tmp_path, spec: str) -> None:
    """Arm faults for a daemon about to be started (the detached
    process inherits the environment)."""
    monkeypatch.setenv(FAULTS_ENV, spec)
    monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path / "fault-state"))


class TestChaos:
    def test_worker_sigkill_mid_request_client_retry_completes(
        self, served_model, test_urls, tmp_path, monkeypatch, sockpath
    ):
        """The headline chaos scenario: a worker is SIGKILLed after
        reading a request; the client's retry lands on surviving
        capacity and completes with the exact same answer."""
        model_path, identifier = served_model
        socket_path = sockpath("kill.sock")
        arm_faults(
            monkeypatch, tmp_path, "worker-kill:op=decisions,times=1"
        )
        start_daemon(model_path, socket_path, workers=2)
        try:
            with DaemonClient(socket_path, retry=FAST) as client:
                assert client.decisions(test_urls) == sparse_oracle(
                    identifier, test_urls
                )
                status = client.status()
            assert status["robustness"]["retries_observed"] >= 1
            # The death is noticed and the worker replaced on the next
            # supervise tick — poll briefly for the fleet counters.
            deadline = time.time() + 10
            while time.time() < deadline:
                with DaemonClient(socket_path, retry=FAST) as client:
                    robustness = client.status()["robustness"]
                if robustness["worker_respawns"] >= 1:
                    break
                time.sleep(0.1)
            assert robustness["worker_respawns"] >= 1
            assert robustness["last_crash_at"] is not None
        finally:
            stop_daemon(socket_path)

    def test_torn_response_client_retry_completes(
        self, served_model, test_urls, tmp_path, monkeypatch, sockpath
    ):
        model_path, identifier = served_model
        socket_path = sockpath("torn.sock")
        arm_faults(
            monkeypatch, tmp_path, "torn-frame:op=decisions,times=1"
        )
        start_daemon(model_path, socket_path, workers=1)
        try:
            with DaemonClient(socket_path, retry=FAST) as client:
                assert client.decisions(test_urls) == sparse_oracle(
                    identifier, test_urls
                )
        finally:
            stop_daemon(socket_path)

    def test_saturated_daemon_sheds_load_with_typed_overloaded(
        self, served_model, test_urls, tmp_path, monkeypatch, sockpath
    ):
        """With the single worker pinned in a slow request, new batch
        work is refused `overloaded` (never silently queued) while
        ping/status still answer from the parent."""
        model_path, identifier = served_model
        socket_path = sockpath("busy.sock")
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=decisions,seconds=2.5,times=1",
        )
        start_daemon(model_path, socket_path, workers=1)
        slow_result = {}

        def slow_call():
            with DaemonClient(socket_path, retry=FAST) as client:
                slow_result["decisions"] = client.decisions(test_urls)

        try:
            pinned = threading.Thread(target=slow_call)
            pinned.start()
            time.sleep(0.6)  # let the slow request occupy the worker
            no_retry = RetryPolicy(retries=0, backoff=0.01)
            with DaemonClient(socket_path, retry=no_retry) as client:
                with pytest.raises(DaemonRequestError) as caught:
                    client.decisions(test_urls[:2])
            assert caught.value.code == "overloaded"
            # Health stays observable from the parent while saturated.
            with DaemonClient(socket_path, retry=FAST) as client:
                status = client.status()
            assert status["role"] == "parent"
            assert status["state"] == "ok"
            assert status["inflight"] == 1
            assert status["robustness"]["overload_rejections"] >= 1
            pinned.join(timeout=30)
            # The pinned request itself completed correctly.
            assert slow_result["decisions"] == sparse_oracle(
                identifier, test_urls
            )
        finally:
            stop_daemon(socket_path)

    def test_expired_deadline_is_typed_and_counted(
        self, served_model, test_urls, tmp_path, monkeypatch, sockpath
    ):
        model_path, _ = served_model
        socket_path = sockpath("late.sock")
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=decisions,seconds=1.0,times=1",
        )
        start_daemon(model_path, socket_path, workers=1)
        try:
            policy = RetryPolicy(retries=0, backoff=0.01, deadline=0.3)
            with DaemonClient(socket_path, retry=policy) as client:
                with pytest.raises(DaemonRequestError) as caught:
                    client.decisions(test_urls[:5])
            assert caught.value.code == "deadline-exceeded"
            with DaemonClient(socket_path, retry=FAST) as client:
                status = client.status()
            assert status["robustness"]["deadline_expiries"] >= 1
        finally:
            stop_daemon(socket_path)

    def test_crash_loop_degrades_then_backoff_recovers(
        self, served_model, test_urls, tmp_path, monkeypatch, sockpath
    ):
        """Three injected deaths flip the daemon to `degraded` (status
        still answered, from the parent); once the backoff expires and
        the fault budget is spent, a respawned worker serves again and
        the state returns to `ok`."""
        model_path, identifier = served_model
        socket_path = sockpath("loop.sock")
        arm_faults(
            monkeypatch, tmp_path, "worker-kill:op=decisions,times=3"
        )
        monkeypatch.setenv("REPRO_SERVE_CRASH_THRESHOLD", "2")
        monkeypatch.setenv("REPRO_SERVE_BACKOFF_INITIAL", "0.4")
        start_daemon(model_path, socket_path, workers=1)
        no_retry = RetryPolicy(retries=0, backoff=0.01)
        try:
            saw_degraded = False
            deadline = time.time() + 60
            while time.time() < deadline:
                try:
                    with DaemonClient(socket_path, retry=no_retry) as client:
                        client.decisions(test_urls[:2])
                except (DaemonUnavailableError, DaemonRequestError):
                    pass  # the injected kill or an overloaded refusal
                with DaemonClient(socket_path, retry=FAST) as client:
                    status = client.status()
                if status["state"] == "degraded":
                    saw_degraded = True
                    break
                time.sleep(0.1)
            assert saw_degraded, "crash loop never degraded the daemon"
            assert status["robustness"]["last_crash_at"] is not None

            # Recovery: backoff expires, the kill budget (times=3) runs
            # out, and a respawned worker answers for real again.
            recovered = False
            while time.time() < deadline:
                try:
                    with DaemonClient(socket_path, retry=FAST) as client:
                        decisions = client.decisions(test_urls[:2])
                        status = client.status()
                    if status["state"] == "ok":
                        recovered = True
                        break
                except (DaemonUnavailableError, DaemonRequestError):
                    pass
                time.sleep(0.2)
            assert recovered, "daemon never recovered from the crash loop"
            assert decisions == sparse_oracle(identifier, test_urls[:2])
            assert status["robustness"]["worker_respawns"] >= 1
        finally:
            stop_daemon(socket_path)

    def test_sigterm_drains_in_flight_and_refuses_late_frames(
        self, served_model, test_urls, tmp_path, monkeypatch, sockpath
    ):
        """SIGTERM mid-request: the in-flight answer arrives complete
        and byte-identical; the next frame on the same connection gets
        a typed `shutting-down`, never a reset."""
        model_path, identifier = served_model
        socket_path = sockpath("drain.sock")
        arm_faults(
            monkeypatch, tmp_path,
            "slow-handler:op=decisions,seconds=1.2,times=1",
        )
        start_daemon(model_path, socket_path, workers=1)
        no_retry = RetryPolicy(retries=0, backoff=0.01)
        client = DaemonClient(socket_path, retry=no_retry)
        outcome = {}

        def in_flight():
            try:
                outcome["decisions"] = client.decisions(test_urls)
            except Exception as error:  # noqa: BLE001 - assert below
                outcome["error"] = error

        try:
            request = threading.Thread(target=in_flight)
            request.start()
            time.sleep(0.5)  # request is mid-dispatch in the worker
            signal_daemon(socket_path, signal.SIGTERM)
            request.join(timeout=30)
            assert "error" not in outcome, outcome.get("error")
            assert outcome["decisions"] == sparse_oracle(
                identifier, test_urls
            )
            # Same connection, inside the drain-notify window: the late
            # frame is answered with the typed retryable refusal.
            with pytest.raises(DaemonRequestError) as caught:
                client.ping()
            assert caught.value.code == "shutting-down"
        finally:
            client.close()
            # The daemon is already stopping; just wait it out.
            from repro.store.daemon import pidfile_for

            deadline = time.time() + 30
            while time.time() < deadline and pidfile_for(
                socket_path
            ).exists():
                time.sleep(0.1)
        assert not socket_path.exists()

    def test_oversized_batch_is_terminal_bad_request(
        self, served_model, sockpath
    ):
        """MAX_BATCH_URLS bounds per-request work with a terminal
        refusal (the identical batch could only be refused again)."""
        from repro.store.daemon import MAX_BATCH_URLS

        model_path, _ = served_model
        socket_path = sockpath("big.sock")
        start_daemon(model_path, socket_path, workers=1)
        try:
            urls = ["http://example.de/x"] * (MAX_BATCH_URLS + 1)
            with DaemonClient(socket_path, retry=FAST) as client:
                with pytest.raises(DaemonRequestError) as caught:
                    client.decisions(urls)
            assert caught.value.code == "bad-request"
            assert "split the batch" in str(caught.value)
        finally:
            stop_daemon(socket_path)


@pytest.fixture(scope="module")
def second_model(small_train):
    """Another fit, with its own checksum, for a daemon to reload to."""
    return LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.3, seed=8)
    )


def _children_of(pid: int) -> list[int]:
    """The live child pids of ``pid``: a daemon supervisor's workers."""
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


def _reload_to(socket_path, identifier, model_path, generation: int) -> dict:
    """Save ``identifier`` over the served artifact, ask for a reload,
    and poll until a worker of ``generation`` answers."""
    save_identifier(identifier, model_path)
    with DaemonClient(socket_path, retry=FAST) as client:
        client.reload()
    deadline = time.time() + 15
    while True:
        with DaemonClient(socket_path, retry=FAST) as client:
            status = client.status()
        if status["generation"] == generation:
            return status
        assert time.time() < deadline, f"generation {generation} never came"
        time.sleep(0.05)


class TestOneWriterPerRow:
    """Every process writes only its own row of the fork-shared blocks,
    so a worker killed mid-write leaves nothing held, and the rows a
    reload's handover needs are always there."""

    def test_sigkills_and_reloads_never_stall_a_scrape(
        self, served_model, second_model, tmp_path, monkeypatch, sockpath
    ):
        first = served_model[1]
        model_path = tmp_path / "chaos.urlmodel"
        save_identifier(first, model_path)
        socket_path = sockpath("rows.sock")
        # Every death respawns at once: this test is about the shared
        # state, not about crash-loop backoff.
        monkeypatch.setenv("REPRO_SERVE_CRASH_THRESHOLD", "1000")
        start_daemon(model_path, socket_path, workers=2)
        supervisor = read_pid(socket_path)
        stop = threading.Event()

        def ping_loop() -> None:
            while not stop.is_set():
                try:
                    with DaemonClient(socket_path, retry=FAST) as client:
                        while not stop.is_set():
                            client.ping()
                except (DaemonUnavailableError, DaemonRequestError):
                    pass  # its worker was killed under it

        def scrape() -> dict:
            started = time.monotonic()
            with DaemonClient(socket_path, timeout=5, retry=FAST) as client:
                status = client.status()
            assert time.monotonic() - started < 5, "a scrape stalled"
            return status

        pinger = threading.Thread(target=ping_loop)
        pinger.start()
        rng = random.Random(5)
        try:
            total, generation = 0, 1
            for kill in range(30):
                deadline = time.time() + 15
                while not (victims := _children_of(supervisor)):
                    assert time.time() < deadline, "no worker came back"
                    time.sleep(0.01)  # its respawn is still forking
                try:
                    os.kill(rng.choice(victims), signal.SIGKILL)
                except ProcessLookupError:
                    pass  # a draining worker exited first
                time.sleep(0.1)
                status = scrape()
                assert status["requests"]["total"] >= total, kill
                total = status["requests"]["total"]
                if kill % 10 == 9:
                    generation += 1
                    model = (second_model, first)[generation % 2]
                    status = _reload_to(
                        socket_path, model, model_path, generation
                    )
                    assert status["requests"]["total"] >= total
            deadline = time.time() + 15
            while len(_children_of(supervisor)) != 2:
                assert time.time() < deadline, _children_of(supervisor)
                time.sleep(0.1)
            assert scrape()["robustness"]["worker_respawns"] >= 1
        finally:
            stop.set()
            pinger.join(timeout=30)
            stop_daemon(socket_path)
        assert not pinger.is_alive()

    def test_reload_during_crash_backoff_forks_one_generation(
        self, served_model, second_model, test_urls, tmp_path, monkeypatch,
        sockpath,
    ):
        """A reload sent while both workers' respawns wait out a
        crash-loop backoff forks the new generation once: the held-back
        respawns are dropped, not forked on top of it, and the next
        reload still lands."""
        first = served_model[1]
        model_path = tmp_path / "backoff.urlmodel"
        save_identifier(first, model_path)
        socket_path = sockpath("backoff.sock")
        arm_faults(monkeypatch, tmp_path, "worker-kill:op=classify,times=2")
        monkeypatch.setenv("REPRO_SERVE_CRASH_THRESHOLD", "1")
        monkeypatch.setenv("REPRO_SERVE_BACKOFF_INITIAL", "3")
        monkeypatch.setenv("REPRO_SERVE_BACKOFF_MAX", "3")
        start_daemon(model_path, socket_path, workers=2)
        supervisor = read_pid(socket_path)
        no_retry = RetryPolicy(retries=0, backoff=0.01)
        try:
            deadline = time.time() + 30
            while not (tmp_path / "fault-state" / "worker-kill.2").exists():
                assert time.time() < deadline, "the kills never fired"
                try:
                    with DaemonClient(socket_path, retry=no_retry) as client:
                        client.classify(test_urls[:2])
                except (DaemonUnavailableError, DaemonRequestError):
                    pass  # the injected kill, or `overloaded` meanwhile
            status = _reload_to(socket_path, second_model, model_path, 2)
            assert status["state"] == "ok"
            time.sleep(3.5)  # past the backoff the respawns waited for
            assert len(_children_of(supervisor)) == 2
            _reload_to(socket_path, first, model_path, 3)
        finally:
            stop_daemon(socket_path)

    def test_back_to_back_requests_to_an_idle_worker_are_not_shed(
        self, served_model, test_urls, sockpath
    ):
        """A caller that closes one connection and at once opens the
        next reaches the lone worker: a worker still closing the first
        connection is not occupied, so the parent does not answer the
        second with 503 `overloaded`."""
        model_path, _ = served_model
        socket_path = sockpath("idle.sock")
        start_daemon(model_path, socket_path, workers=1, http_port=0)
        try:
            with DaemonClient(socket_path) as client:
                port = client.status()["http_port"]
            body = json.dumps({"urls": test_urls[:2]}).encode()
            for round_ in range(500):
                with DaemonClient(socket_path) as client:
                    client.status()
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/classify", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(request, timeout=30) as reply:
                        assert json.loads(reply.read())["ok"]
                except urllib.error.HTTPError as error:
                    pytest.fail(f"round {round_}: HTTP {error.code}")
        finally:
            stop_daemon(socket_path)
