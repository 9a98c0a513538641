"""AsyncPredictor conformance: parity with the sync facade, multiplexed
concurrency, cancellation.

Every test drives coroutines through ``asyncio.run`` inside plain
synchronous test functions (no asyncio pytest plugin needed).  Two
layers:

* conformance against a live dual-listener daemon — ``adecisions`` /
  ``apredict`` byte-identical to the sparse oracle and to the sync
  :class:`Predictor` over the same daemon, on both transports;
* multiplexing — N concurrent callers share one connection and each
  gets *its own* answer back (correlation-id pairing under fan-in).

The retry/deadline matrix runs against both clients in
``tests/store/test_robustness.py::TestClientRetries``.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.api import AsyncPredictor, BatchResult, aopen_model, open_model
from repro.api.errors import BackendUnavailableError
from repro.core.pipeline import LanguageIdentifier
from repro.store import save_identifier
from repro.store.client import (
    AsyncDaemonClient,
    AsyncRemoteIdentifier,
    RetryPolicy,
)
from repro.store.daemon import start_daemon, stop_daemon
from repro.store.wire import recv_frame, send_message

FAST = RetryPolicy(retries=4, backoff=0.01, backoff_max=0.02)


@pytest.fixture(scope="module")
def identifier(small_train):
    return LanguageIdentifier("words", "NB", seed=0).fit(
        small_train.subsample(0.3, seed=7)
    )


@pytest.fixture(scope="module")
def test_urls(small_bundle):
    return small_bundle.odp_test.urls[:30]


@pytest.fixture(scope="module")
def live_daemon(identifier, tmp_path_factory):
    """One dual-listener daemon shared by the conformance tests:
    ``(artifact_path, socket_path, tcp_port)``."""
    root = tmp_path_factory.mktemp("aio-daemon")
    model_path = root / "aio.urlmodel"
    socket_path = root / "aio.sock"
    save_identifier(identifier, model_path)
    start_daemon(model_path, socket_path, workers=2, tcp="127.0.0.1:0")
    from repro.store.client import DaemonClient

    with DaemonClient(socket_path) as client:
        port = client.status()["tcp"]["port"]
    yield model_path, socket_path, port
    stop_daemon(socket_path)


def handles_of(live_daemon):
    model_path, socket_path, port = live_daemon
    return {
        "unix": f"repro://{socket_path}",
        "tcp": f"repro+tcp://127.0.0.1:{port}",
        "local": str(model_path),
    }


class TestConformance:
    @pytest.mark.parametrize("route", ["unix", "tcp", "local"])
    def test_adecisions_byte_identical_to_sparse_oracle(
        self, live_daemon, identifier, test_urls, route
    ):
        handle = handles_of(live_daemon)[route]

        async def run():
            model = await aopen_model(handle)
            try:
                return await model.adecisions(test_urls)
            finally:
                await model.aclose()

        assert asyncio.run(run()) == identifier._sparse_decisions(test_urls)

    @pytest.mark.parametrize("route", ["unix", "tcp", "local"])
    def test_apredict_matches_the_sync_predictor_exactly(
        self, live_daemon, identifier, test_urls, route
    ):
        handle = handles_of(live_daemon)[route]
        with open_model(handle) as sync_model:
            expected = sync_model.predict(test_urls)

        async def run():
            async with await aopen_model(handle) as model:
                return await model.apredict(test_urls)

        result = asyncio.run(run())
        assert isinstance(result, BatchResult)
        assert result.urls == expected.urls
        assert result.scores == expected.scores
        assert result.decisions == expected.decisions
        assert result.best == expected.best
        assert result.model.name == expected.model.name

    def test_every_route_satisfies_the_protocol(self, live_daemon):
        for handle in handles_of(live_daemon).values():

            async def run(handle=handle):
                model = await aopen_model(handle)
                try:
                    assert isinstance(model, AsyncPredictor)
                    assert (await model.acapabilities()).model.name
                    assert isinstance(model.name, str)
                finally:
                    await model.aclose()

            asyncio.run(run())

    def test_remote_capabilities_report_the_handle(self, live_daemon):
        handle = handles_of(live_daemon)["tcp"]

        async def run():
            async with await aopen_model(handle) as model:
                capabilities = await model.acapabilities()
                assert capabilities.remote is True
                assert capabilities.model.backend == "remote"
                assert capabilities.model.source == handle.split("?")[0]

        asyncio.run(run())

    def test_handle_options_pin_the_async_dial_settings(self, live_daemon):
        handle = handles_of(live_daemon)["tcp"] + (
            "?timeout=7&retries=2&backoff=0.2&deadline=3"
        )

        async def run():
            async with await aopen_model(handle) as model:
                client = model.client
                assert client.timeout == 7.0
                assert client.retry.retries == 2
                assert client.retry.backoff == 0.2
                assert client.retry.deadline == 3.0
                assert await client.aping() is True

        asyncio.run(run())

    def test_dead_endpoint_raises_the_typed_facade_error(self, sockpath):
        async def run():
            with pytest.raises(BackendUnavailableError):
                await aopen_model(f"repro://{sockpath('gone.sock')}")

        asyncio.run(run())


class TestMultiplexing:
    def test_concurrent_callers_share_one_connection_and_get_their_own_answers(
        self, live_daemon, identifier, test_urls
    ):
        """Fan-in correctness: each concurrent caller scores a
        *different* slice and must receive exactly that slice's oracle
        answer — misdirected correlation pairing would cross results."""
        _, _, port = live_daemon
        slices = [test_urls[i:i + 5] for i in range(0, 25, 5)]

        async def run():
            client = AsyncDaemonClient(("127.0.0.1", port), retry=FAST)
            try:
                results = await asyncio.gather(
                    *(client.adecisions(chunk) for chunk in slices)
                )
            finally:
                await client.aclose()
            assert client.connections_opened == 1
            return results

        results = asyncio.run(run())
        for chunk, result in zip(slices, results):
            expected = {
                language.value: values
                for language, values
                in identifier._sparse_decisions(chunk).items()
            }
            assert result == expected

    def test_interleaved_ops_multiplex_correctly(self, live_daemon):
        _, _, port = live_daemon

        async def run():
            async with AsyncDaemonClient(("127.0.0.1", port)) as client:
                pings, statuses = await asyncio.gather(
                    asyncio.gather(*(client.aping() for _ in range(10))),
                    asyncio.gather(*(client.astatus() for _ in range(10))),
                )
                assert all(pings)
                assert all(s["model"]["name"] == "NB/words"
                           for s in statuses)
                assert client.connections_opened == 1

        asyncio.run(run())

    def test_cancellation_mid_request_leaves_the_client_usable(self):
        """Cancel a caller while its request sits unanswered: the
        coroutine observes CancelledError, the pending map is cleaned
        so the cid cannot be mispaired, and the next request on a fresh
        connection succeeds."""
        done = threading.Event()

        def silent_then_ok(listener):
            connection, _ = listener.accept()
            with connection:
                recv_frame(connection)  # swallow, never answer
                done.wait(timeout=30)
            connection2, _ = listener.accept()
            with connection2:
                message, _ = recv_frame(connection2)
                send_message(connection2, {"v": 1, "ok": True, "pong": True})

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory(prefix="aio-cx-") as root:
            path = str(Path(root) / "silent.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            listener.listen(2)
            server = threading.Thread(
                target=silent_then_ok, args=(listener,), daemon=True
            )
            server.start()

            async def run():
                client = AsyncDaemonClient(
                    path, retry=RetryPolicy(retries=0, backoff=0.01)
                )
                try:
                    task = asyncio.get_running_loop().create_task(
                        client.aping()
                    )
                    await asyncio.sleep(0.3)  # request is on the wire
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    assert client._pending == {}
                    await client._drop_connection()
                    done.set()
                    assert await client.aping() is True
                finally:
                    await client.aclose()

            try:
                asyncio.run(run())
            finally:
                done.set()
                listener.close()
                server.join(timeout=10)


class TestAsyncRemoteIdentifierSurface:
    def test_ascores_many_matches_sync_scores(
        self, live_daemon, identifier, test_urls
    ):
        _, socket_path, _ = live_daemon

        async def run():
            async with AsyncRemoteIdentifier.connect(socket_path) as model:
                return await model.ascores_many(test_urls)

        assert asyncio.run(run()) == identifier.scores_many(test_urls)

    def test_name_is_lazy_then_cached(self, live_daemon):
        _, socket_path, _ = live_daemon

        async def run():
            model = AsyncRemoteIdentifier.connect(socket_path)
            try:
                assert model.name == "remote"  # nothing fetched yet
                await model.acapabilities()
                assert model.name == "NB/words"
            finally:
                await model.aclose()

        asyncio.run(run())
