"""Client side of the serving daemon: sockets in, identifiers out.

Two clients and the identifiers over them:

* :class:`DaemonClient` — one persistent blocking connection to a
  running :mod:`repro.store.daemon` (Unix socket or TCP), speaking the
  length-prefixed JSON protocol of :mod:`repro.store.wire`.
* :class:`AsyncDaemonClient` — its asyncio twin, multiplexing any
  number of concurrent callers over one connection by correlation id.
* :class:`RemoteIdentifier` / :class:`AsyncRemoteIdentifier` — the
  :class:`repro.api.Predictor` / :class:`repro.api.AsyncPredictor`
  surfaces over those clients.  ``repro://<socket-path>`` and
  ``repro+tcp://<host>:<port>`` handles resolve to them through
  :func:`repro.api.open_model` / :func:`repro.api.aopen_model`.

The two clients share every decision and keep only their I/O apart.
Each logical request gets a sans-I/O :class:`RequestPlan` under the
client's :class:`RetryPolicy`: it numbers the attempts, carries the
remaining deadline budget and turns each attempt's outcome into a
backoff delay or a typed error; the transports connect, send, receive,
close and sleep.
Response decoding and the capability block are module functions both
sides call.

Error taxonomy: :class:`DaemonUnavailableError` means nothing answered
(daemon not started, crashed, or wrong endpoint) — callers may retry or
fall back to loading the artifact themselves.
:class:`DaemonRequestError` means a live daemon *refused* the request
and carries the protocol error ``code``.  Refusals in
:data:`~repro.store.wire.RETRYABLE_CODES` (``overloaded``,
``shutting-down``) are retried *inside* the client by its
:class:`RetryPolicy` before this error ever surfaces — so by the time a
caller sees it, the retry budget is spent and looping further is
pointless.
"""

from __future__ import annotations

import contextlib
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.api.types import BatchResult, Capabilities, ModelInfo, Prediction
from repro.core.pipeline import IdentifierBase
from repro.languages import LANGUAGES, Language
from repro.obs.trace import start_trace
from repro.store.wire import (
    MAX_CORRELATION_ID,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ConnectionClosed,
    WireError,
    encode_frame,
    read_frame_async,
    recv_frame_ex,
    send_message,
)

if TYPE_CHECKING:
    # The async client's methods import asyncio when they run, so the
    # blocking client (``start_daemon``'s readiness ping, the CLI) does
    # not load it.
    import asyncio

#: Operations safe to replay: pure reads whose repetition cannot change
#: daemon state.  ``reload`` and ``stop`` are excluded — replaying a
#: mutation after an ambiguous failure could act twice.
IDEMPOTENT_OPS = frozenset(
    {"ping", "status", "classify", "score", "decisions", "traces"}
)

#: Failures of the transport itself — a dead connection, a torn frame,
#: a timed-out read.  Retried like a retryable refusal.
TRANSPORT_ERRORS = (WireError, OSError)


class DaemonError(Exception):
    """Base class for every daemon-client failure."""


class DaemonUnavailableError(DaemonError):
    """No daemon answered on the endpoint (not started, crashed, or a
    stale path).  Start one with ``repro serve start`` or fall back to
    :func:`repro.api.open_model` on the artifact path."""


class DaemonRequestError(DaemonError):
    """A live daemon refused the request.

    ``code`` is one of :data:`repro.store.wire.ERROR_CODES`; retrying
    the identical request will fail identically, so callers should fix
    the request (or the deployment) instead of looping.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


@dataclass(frozen=True)
class RetryPolicy:
    """How the daemon clients retry transient failures.

    Retries happen only for *idempotent* operations
    (:data:`IDEMPOTENT_OPS`), and only on transient failures: transport
    errors (the connection died — a crashed or hot-reload-retired
    worker) and refusals whose code is in
    :data:`~repro.store.wire.RETRYABLE_CODES`.  Terminal refusals
    (``bad-request``, ``deadline-exceeded``, …) surface immediately —
    replaying them could only fail identically.

    ``retries`` bounds the retry budget (total attempts = retries + 1).
    Delays grow exponentially from ``backoff`` up to ``backoff_max``,
    each scaled by a uniform jitter in [0.5, 1.0] so a fleet of clients
    bounced by one daemon restart does not retry in lockstep.

    ``deadline`` (seconds) is the end-to-end budget for one logical
    request across all its attempts.  It is also propagated to the
    daemon in the frame header, so the server can refuse or abandon
    work this client will no longer wait for.
    """

    retries: int = 4
    backoff: float = 0.05
    backoff_max: float = 2.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff <= 0 or self.backoff_max < self.backoff:
            raise ValueError("need 0 < backoff <= backoff_max")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive seconds")

    def delay(self, attempt: int) -> float:
        """Jittered sleep before retry number ``attempt`` (1-based)."""
        base = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
        return base * (0.5 + random.random() / 2)


class RequestPlan:
    """The attempts of one logical request under a :class:`RetryPolicy`.

    Sans-I/O: it never touches a socket and never sleeps.  A transport
    asks :meth:`next_attempt` for each attempt's request and deadline
    budget, performs the round trip, and hands back the outcome —
    :meth:`failed` for a transport error, :meth:`answered` for a
    response.  Both return the backoff to sleep before the next attempt
    or raise the typed error the caller sees.
    """

    def __init__(self, policy: RetryPolicy, op: str, fields: dict,
                 version: int, endpoint: str) -> None:
        self.policy = policy
        self.op = op
        self.fields = fields
        self.version = version
        self.endpoint = endpoint
        self.idempotent = op in IDEMPOTENT_OPS
        self.expires = (
            time.monotonic() + policy.deadline
            if policy.deadline is not None else None
        )
        self.attempt = 0

    def next_attempt(self) -> tuple[dict, int | None]:
        """The next attempt's request message and its remaining deadline
        budget in milliseconds (``None`` without a policy deadline).

        Replays carry an ``attempt`` field so the daemon's robustness
        counters see them.
        """
        self.attempt += 1
        message = {"v": self.version, "op": self.op, **self.fields}
        if self.attempt > 1:
            message["attempt"] = self.attempt
        if self.expires is None:
            return message, None
        return message, max(0, int((self.expires - time.monotonic()) * 1000))

    def failed(self, error: Exception) -> float:
        """Backoff before retrying after a transport error; raises
        :class:`DaemonUnavailableError` once retrying is not allowed."""
        if self._may_retry():
            return self.policy.delay(self.attempt)
        raise DaemonUnavailableError(
            f"serving daemon on {self.endpoint!r} stopped answering ({error})"
        ) from None

    def answered(self, response: dict) -> float | None:
        """``None`` when ``response`` is the success to return, else the
        backoff before retrying a retryable refusal.  Raises
        :class:`DaemonRequestError` for a terminal refusal, or for a
        retryable one that outlived the budget."""
        if response.get("ok"):
            return None
        error_block = response.get("error", {})
        code = error_block.get("code", "internal")
        if code in RETRYABLE_CODES and self._may_retry():
            return self.policy.delay(self.attempt)
        raise DaemonRequestError(
            code=code,
            message=error_block.get("message", "daemon returned an error"),
        )

    def _may_retry(self) -> bool:
        if not self.idempotent or self.attempt > self.policy.retries:
            return False
        return self.expires is None or time.monotonic() < self.expires


# -- response decoding, shared by the sync and async clients -----------------------


def _served_rows(response: dict) -> list[Prediction]:
    """The rows of a ``classify`` response, in input order (no scores)."""
    return [
        Prediction(row["url"], row["best"] and Language(row["best"]),
                   tuple(map(Language, row["positives"])))
        for row in response["results"]
    ]


def _code_map(response: dict, key: str) -> dict[str, list]:
    """The ``{language code: values}`` map of a ``score`` or
    ``decisions`` response."""
    return {code: list(values) for code, values in response[key].items()}


def _trace_fields(limit: int | None) -> dict:
    """Request fields of a ``traces`` op."""
    return {} if limit is None else {"limit": int(limit)}


def _spans(response: dict) -> list[dict]:
    """The span records of a ``traces`` response, oldest first."""
    return list(response["traces"])


def _by_language(codes: dict[str, list]) -> dict[Language, list]:
    """A code-keyed map re-keyed by :class:`~repro.languages.Language`."""
    return {Language.coerce(code): values for code, values in codes.items()}


def _score_matrix(codes: dict[str, list], model: ModelInfo) -> np.ndarray:
    """A ``score`` response as the ``(n, k)`` matrix ``model`` names."""
    columns = [codes[language.value] for language in model.languages]
    return np.array(columns, dtype=np.float64).T


def _remote_capabilities(status: dict, source: str) -> Capabilities:
    """The capability block of a daemon-served model, from the daemon's
    ``status`` block: backend ``"remote"`` (no weights in this process)
    and the rollout provenance of the model it serves."""
    model = status.get("model", {})
    rollout = model.get("rollout") or {}
    return Capabilities(
        model=ModelInfo(
            name=model.get("name", "remote"),
            backend="remote",
            languages=tuple(LANGUAGES),
            created_at=rollout.get("created_at"),
            train_corpus=rollout.get("train_corpus"),
            source=source,
        ),
        compiled=False,
        remote=True,
    )


class _ClientBase:
    """What both daemon clients share: the endpoint they dial, the retry
    policy they plan attempts with, and tracing.  Their I/O lives in
    the subclasses."""

    def __init__(
        self,
        socket_path: "str | os.PathLike | tuple[str, int]",
        timeout: float = 30.0,
        protocol_version: int = PROTOCOL_VERSION,
        retry: RetryPolicy | None = None,
        tracing: bool = False,
    ) -> None:
        """``socket_path`` is a Unix socket path, or a ``(host, port)``
        tuple to dial a daemon's TCP front door instead.
        ``protocol_version`` exists so tests can provoke the daemon's
        version gate; production callers never pass it.  With
        ``tracing`` on, every request frame carries a fresh trace id
        (:data:`repro.store.wire.TRACE_FLAG`); the daemon echoes it on
        the response, records a per-stage span, and :attr:`last_trace`
        holds both sides' ids for correlation."""
        if isinstance(socket_path, tuple):
            host, port = socket_path
            self.socket_path: str | None = None
            self.tcp_address: tuple[str, int] | None = (str(host), int(port))
            self.endpoint = f"{host}:{port}"
        else:
            self.socket_path = os.fspath(socket_path)
            self.tcp_address = None
            self.endpoint = self.socket_path
        self.timeout = timeout
        self.protocol_version = protocol_version
        self.retry = RetryPolicy() if retry is None else retry
        self.tracing = bool(tracing)
        #: Ids of the most recently answered traced request:
        #: ``trace_id``, the client's ``span_id``, and the daemon's
        #: echoed ``server_span_id`` (``None`` until the first traced
        #: request, or when the daemon predates tracing).
        self.last_trace: dict | None = None

    @property
    def handle(self) -> str:
        """The facade handle string this client's endpoint resolves from."""
        if self.tcp_address is not None:
            return f"repro+tcp://{self.endpoint}"
        return f"repro://{self.socket_path}"

    def _unavailable(self, error: Exception) -> DaemonUnavailableError:
        """The fail-fast error for an endpoint nobody listens on."""
        start = "repro serve start"
        if self.tcp_address is not None:
            start += " --tcp"
        return DaemonUnavailableError(
            f"no serving daemon on {self.endpoint!r} ({error}); "
            f"start one with '{start}'"
        )

    def _plan(self, op: str, fields: dict) -> RequestPlan:
        return RequestPlan(
            self.retry, op, fields, self.protocol_version, self.endpoint
        )


class DaemonClient(_ClientBase):
    """One connection to a serving daemon, reconnecting across reloads.

    The connection is opened lazily on the first request and kept for
    the client's lifetime (a daemon worker serves any number of
    requests per connection).  Transient failures — a connection closed
    by a hot-reload handover or a crashed worker, a typed
    ``overloaded`` or ``shutting-down`` refusal — are retried on a
    fresh connection under the client's :class:`RetryPolicy` (jittered
    exponential backoff, idempotent operations only) before surfacing
    :class:`DaemonUnavailableError` / :class:`DaemonRequestError`.
    A daemon that was never there fails fast: connection *refusal* is
    not retried.

    Use as a context manager or call :meth:`close` when done::

        with DaemonClient("repro.sock") as client:
            rows = client.classify(["http://www.blumen.de/garten"])
    """

    _sock: socket.socket | None = None

    # -- connection management ----------------------------------------------------

    def _connect(self) -> socket.socket:
        if self.tcp_address is not None:
            try:
                sock = socket.create_connection(
                    self.tcp_address, timeout=self.timeout
                )
            except OSError as error:
                raise self._unavailable(error) from None
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as error:
            sock.close()
            raise self._unavailable(error) from None
        return sock

    def close(self) -> None:
        """Drop the connection (the next request reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing ---------------------------------------------------------

    def _roundtrip(self, message: dict, deadline_ms: int | None) -> dict:
        if self._sock is None:
            self._sock = self._connect()
        trace = start_trace() if self.tracing else None
        send_message(
            self._sock,
            message,
            deadline_ms=deadline_ms,
            trace_id=trace.trace_id if trace is not None else None,
            span_id=trace.span_id if trace is not None else None,
        )
        frame = recv_frame_ex(self._sock)
        if trace is not None:
            self.last_trace = {
                "trace_id": trace.trace_id,
                "span_id": trace.span_id,
                "server_span_id": frame.span_id,
            }
        return frame.message

    def request(self, op: str, **fields) -> dict:
        """Issue one ``op`` request and return the success response.

        Transient failures are retried under :attr:`retry` on a fresh
        connection — the worker that held ours crashed, retired in a
        hot reload, or shed the request (:class:`RequestPlan` decides).
        Raises :class:`DaemonRequestError` on a terminal refusal (or a
        retryable one that outlived the retry budget) and
        :class:`DaemonUnavailableError` when no daemon answers.
        """
        plan = self._plan(op, fields)
        while True:
            message, deadline_ms = plan.next_attempt()
            try:
                response = self._roundtrip(message, deadline_ms)
            except TRANSPORT_ERRORS as error:
                self.close()
                time.sleep(plan.failed(error))
                continue
            delay = plan.answered(response)
            if delay is None:
                return response
            # A draining worker closes after this answer; an overloaded
            # daemon wants us elsewhere.  Either way the retry belongs
            # on a fresh connection.
            self.close()
            time.sleep(delay)

    # -- the served operations ----------------------------------------------------

    def ping(self) -> bool:
        """True when a daemon answers on the endpoint."""
        return bool(self.request("ping").get("ok"))

    def status(self) -> dict:
        """The answering worker's status block: pid, generation, model
        name/checksum/rollout metadata, cache occupancy."""
        return self.request("status")

    def classify(self, urls) -> list[Prediction]:
        """Batch triage: one :class:`~repro.api.Prediction` (best label
        and positives, no scores) per input URL, in input order — the
        rows ``repro classify`` prints."""
        return _served_rows(self.request("classify", urls=list(urls)))

    def score(self, urls) -> dict[str, list[float]]:
        """Per-language decision scores, keyed by language code.

        JSON transports floats via ``repr`` round-tripping, so scores
        arrive bit-identical to what the daemon's matmul produced.
        """
        return _code_map(self.request("score", urls=list(urls)), "scores")

    def decisions(self, urls) -> dict[str, list[bool]]:
        """Per-language binary decisions, keyed by language code."""
        return _code_map(
            self.request("decisions", urls=list(urls)), "decisions"
        )

    def traces(self, limit: int | None = None) -> list[dict]:
        """The daemon's most recent request spans, oldest first.

        Spans come from the fork-shared ring buffer every worker writes
        traced requests into (capacity ``REPRO_SERVE_TRACE_CAPACITY``),
        so the answer covers the whole daemon, not just the worker that
        happens to hold this connection.  ``limit`` caps the answer to
        the newest N spans."""
        return _spans(self.request("traces", **_trace_fields(limit)))

    def reload(self) -> dict:
        """Ask the daemon to re-examine its artifact path (same effect
        as ``SIGHUP``).  Returns immediately; the swap is asynchronous
        and gated by rollout metadata — poll :meth:`status` for the new
        checksum."""
        return self.request("reload")

    def stop(self) -> dict:
        """Ask the daemon to shut down gracefully (same as ``SIGTERM``)."""
        return self.request("stop")


class RemoteIdentifier(IdentifierBase):
    """An :class:`~repro.core.pipeline.IdentifierBase` served by a daemon.

    Holds no weights: every batch call becomes one request over the
    client's persistent connection, answered straight off the daemon's
    shared weight matrix.  Scores round-trip bit-identically through
    JSON, so a ``RemoteIdentifier`` honours the same equivalence-oracle
    contract as the in-process compiled backend.

    This is what ``repro://`` handles resolve to — a crawler fleet can
    point dozens of processes at one daemon and none of them pays a
    model load.
    """

    def __init__(self, client: DaemonClient) -> None:
        self.client = client
        self._capabilities: Capabilities | None = None

    @classmethod
    def connect(cls, socket_path: "str | os.PathLike | tuple[str, int]",
                timeout: float = 30.0,
                retry: RetryPolicy | None = None,
                tracing: bool = False) -> "RemoteIdentifier":
        """A remote identifier over a fresh :class:`DaemonClient`
        (``socket_path`` may be a ``(host, port)`` TCP endpoint;
        ``tracing`` turns on per-request trace ids)."""
        return cls(DaemonClient(socket_path, timeout=timeout, retry=retry,
                                tracing=tracing))

    @property
    def name(self) -> str:
        """Report label of the model the daemon serves (from the cached
        capability block)."""
        return self.capabilities().model.name

    def capabilities(self) -> Capabilities:
        """The :class:`repro.api.Predictor` capability block.

        Backend is ``"remote"`` — no weights in this process — and the
        provenance comes from the daemon's status block.  The block is
        fetched once and cached, so the ``predict``/``predict_iter``
        surface does not pay a status round-trip per batch; a stream
        that spans a hot reload keeps reporting the provenance it
        started with.  :meth:`close` drops the cache — call it (or ask
        the daemon's status directly) for fresh provenance.
        """
        if self._capabilities is None:
            self._capabilities = _remote_capabilities(
                self.client.status(), self.client.handle
            )
        return self._capabilities

    def close(self) -> None:
        """Drop the daemon connection (a later call reconnects) and the
        cached capability block (a later call refetches, so a
        hot-reloaded daemon's new provenance becomes visible)."""
        self._capabilities = None
        self.client.close()

    def scores_matrix(self, urls):
        return _score_matrix(self.client.score(urls), self.capabilities().model)

    def decisions(self, urls):
        """One ``decisions`` request: no scores cross the wire."""
        return _by_language(self.client.decisions(urls))


class AsyncDaemonClient(_ClientBase):
    """Asyncio-native daemon client multiplexing one connection.

    Where :class:`DaemonClient` serializes request/response pairs, this
    client lets any number of coroutines issue requests concurrently
    over **one** socket: every request frame carries a correlation id,
    a single background reader task pairs incoming response frames back
    to their awaiting callers, and writes are serialized so pipelined
    frames never interleave.  The daemon answers strictly in order, so
    one connection behaves like a FIFO pipeline — high fan-in
    concurrency without a connection per caller.

    Retries follow the same :class:`RequestPlan` as the sync client:
    idempotent ops only, transport errors and typed
    ``overloaded``/``shutting-down`` refusals retried on a fresh
    connection with jittered exponential backoff, the remaining
    deadline budget propagated in each attempt's frame header.

    Responses from servers that do not echo correlation ids are paired
    FIFO — correct because the protocol answers strictly in order.

    Use as an async context manager or call :meth:`aclose`::

        async with AsyncDaemonClient("repro.sock") as client:
            rows = await client.aclassify(["http://www.blumen.de/garten"])
    """

    def __init__(
        self,
        socket_path: "str | os.PathLike | tuple[str, int]",
        timeout: float = 30.0,
        protocol_version: int = PROTOCOL_VERSION,
        retry: RetryPolicy | None = None,
        tracing: bool = False,
    ) -> None:
        super().__init__(socket_path, timeout, protocol_version, retry,
                         tracing)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._sent_traces: dict = {}
        self._connect_lock: asyncio.Lock | None = None
        self._write_lock: asyncio.Lock | None = None
        self._next_cid = 0
        #: Connections dialed over this client's lifetime — observability
        #: for tests and capacity planning (1 under pure multiplexing;
        #: +1 per retry-forced reconnect).
        self.connections_opened = 0

    # -- connection management ----------------------------------------------------

    def _locks(self) -> tuple[asyncio.Lock, asyncio.Lock]:
        import asyncio

        # Created lazily so the client can be constructed outside a
        # running event loop.
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
            self._write_lock = asyncio.Lock()
        assert self._write_lock is not None
        return self._connect_lock, self._write_lock

    async def _ensure_connected(self) -> None:
        import asyncio

        connect_lock, _ = self._locks()
        async with connect_lock:
            if self._writer is not None:
                return
            try:
                if self.tcp_address is not None:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(*self.tcp_address),
                        self.timeout,
                    )
                    sock = writer.get_extra_info("socket")
                    if sock is not None:
                        sock.setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                        )
                else:
                    assert self.socket_path is not None
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_unix_connection(self.socket_path),
                        self.timeout,
                    )
            except (OSError, asyncio.TimeoutError) as error:
                raise self._unavailable(error) from None
            self._reader, self._writer = reader, writer
            self.connections_opened += 1
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader)
            )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Pair every incoming response frame with its awaiting caller.

        Runs until the connection dies, then fails every still-pending
        future with the transport error so each caller's retry loop can
        decide for itself.  A response whose correlation id matches no
        pending future (its caller was cancelled) is dropped on the
        floor — the stream stays aligned because pairing is positional
        only for id-less responses.
        """
        try:
            while True:
                frame = await read_frame_async(reader)
                future = None
                cid = None
                if frame.correlation_id is not None:
                    cid = frame.correlation_id
                    future = self._pending.pop(cid, None)
                elif self._pending:
                    # Id-less server (or a scripted test double): the
                    # strict in-order contract makes FIFO pairing exact.
                    cid = next(iter(self._pending))
                    future = self._pending.pop(cid)
                sent = self._sent_traces.pop(cid, None) if cid is not None else None
                if sent is not None:
                    self.last_trace = {
                        "trace_id": sent.trace_id,
                        "span_id": sent.span_id,
                        "server_span_id": frame.span_id,
                    }
                if future is not None and not future.done():
                    future.set_result(frame.message)
        except (WireError, OSError) as error:
            self._connection_lost(error)

    def _connection_lost(self, error: Exception) -> None:
        """Tear down state after the transport died under the reader."""
        writer, self._writer, self._reader = self._writer, None, None
        self._reader_task = None
        if writer is not None:
            writer.close()
        self._fail_pending(error)

    def _fail_pending(self, error: Exception) -> None:
        self._sent_traces.clear()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    error if isinstance(error, WireError)
                    else ConnectionClosed(str(error), clean=False)
                )

    async def _drop_connection(self) -> None:
        """Voluntarily close (retry path / :meth:`aclose`).

        Any *other* requests still in flight on the connection fail with
        a dirty :class:`ConnectionClosed` and retry under their own
        budgets — the same thing a daemon-side close would do to them.
        """
        import asyncio

        task, self._reader_task = self._reader_task, None
        writer, self._writer, self._reader = self._writer, None, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if writer is not None:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._fail_pending(ConnectionClosed("connection dropped", clean=False))

    async def aclose(self) -> None:
        """Close the connection (a later request reconnects)."""
        await self._drop_connection()

    async def __aenter__(self) -> "AsyncDaemonClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- request plumbing ---------------------------------------------------------

    def _claim_cid(self) -> int:
        self._next_cid = (self._next_cid + 1) & MAX_CORRELATION_ID
        while self._next_cid in self._pending:
            self._next_cid = (self._next_cid + 1) & MAX_CORRELATION_ID
        return self._next_cid

    async def _roundtrip(self, message: dict,
                         deadline_ms: int | None) -> dict:
        import asyncio

        await self._ensure_connected()
        _, write_lock = self._locks()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        async with write_lock:
            if self._writer is None:
                raise ConnectionClosed("connection lost before send",
                                       clean=False)
            cid = self._claim_cid()
            self._pending[cid] = future
            trace = start_trace() if self.tracing else None
            if trace is not None:
                self._sent_traces[cid] = trace
            try:
                self._writer.write(
                    encode_frame(
                        message,
                        deadline_ms,
                        cid,
                        trace_id=trace.trace_id if trace is not None else None,
                        span_id=trace.span_id if trace is not None else None,
                    )
                )
                await self._writer.drain()
            except (OSError, ConnectionError) as error:
                self._pending.pop(cid, None)
                self._sent_traces.pop(cid, None)
                raise ConnectionClosed(
                    f"send failed: {error}", clean=False
                ) from None
        try:
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            self._pending.pop(cid, None)
            self._sent_traces.pop(cid, None)
            raise TimeoutError(
                f"no response within {self.timeout:.1f}s"
            ) from None
        except asyncio.CancelledError:
            # Caller cancelled mid-request: forget the id so the late
            # response (already being computed) is dropped, not paired
            # with some future request.
            self._pending.pop(cid, None)
            self._sent_traces.pop(cid, None)
            raise

    async def request(self, op: str, **fields) -> dict:
        """Async twin of :meth:`DaemonClient.request` — the same
        :class:`RequestPlan`, ``asyncio.sleep`` backoff."""
        import asyncio

        plan = self._plan(op, fields)
        while True:
            message, deadline_ms = plan.next_attempt()
            try:
                response = await self._roundtrip(message, deadline_ms)
            except TRANSPORT_ERRORS as error:
                await self._drop_connection()
                await asyncio.sleep(plan.failed(error))
                continue
            delay = plan.answered(response)
            if delay is None:
                return response
            await self._drop_connection()
            await asyncio.sleep(delay)

    # -- the served operations ----------------------------------------------------

    async def aping(self) -> bool:
        """True when a daemon answers on the endpoint."""
        return bool((await self.request("ping")).get("ok"))

    async def astatus(self) -> dict:
        """The answering worker's status block."""
        return await self.request("status")

    async def aclassify(self, urls) -> list[Prediction]:
        """Batch triage, one :class:`~repro.api.Prediction` (without
        scores) per input URL in order."""
        return _served_rows(await self.request("classify", urls=list(urls)))

    async def ascore(self, urls) -> dict[str, list[float]]:
        """Per-language decision scores, keyed by language code."""
        return _code_map(
            await self.request("score", urls=list(urls)), "scores"
        )

    async def adecisions(self, urls) -> dict[str, list[bool]]:
        """Per-language binary decisions, keyed by language code."""
        return _code_map(
            await self.request("decisions", urls=list(urls)), "decisions"
        )

    async def atraces(self, limit: int | None = None) -> list[dict]:
        """The daemon's most recent request spans, oldest first
        (async twin of :meth:`DaemonClient.traces`)."""
        return _spans(await self.request("traces", **_trace_fields(limit)))

    async def astop(self) -> dict:
        """Ask the daemon to shut down gracefully (SIGTERM)."""
        return await self.request("stop")


class AsyncRemoteIdentifier:
    """The :class:`repro.api.AsyncPredictor` surface over a daemon.

    The async twin of :class:`RemoteIdentifier`: holds no weights, one
    request per batch call, scores round-tripping bit-identically
    through JSON.  ``apredict`` builds its
    :class:`~repro.api.BatchResult` from one score pass exactly as the
    sync ``predict`` does, so sync and async predictions over the same
    daemon are byte-identical.
    """

    def __init__(self, client: AsyncDaemonClient) -> None:
        self.client = client
        self._capabilities: Capabilities | None = None

    @classmethod
    def connect(cls, socket_path: "str | os.PathLike | tuple[str, int]",
                timeout: float = 30.0,
                retry: RetryPolicy | None = None,
                tracing: bool = False) -> "AsyncRemoteIdentifier":
        """An async remote identifier over a fresh
        :class:`AsyncDaemonClient` (``socket_path`` may be a
        ``(host, port)`` TCP endpoint; ``tracing`` turns on
        per-request trace ids)."""
        return cls(AsyncDaemonClient(socket_path, timeout=timeout,
                                     retry=retry, tracing=tracing))

    @property
    def name(self) -> str:
        """Report label; remote daemons answer it via capabilities."""
        if self._capabilities is not None:
            return self._capabilities.model.name
        return "remote"

    async def acapabilities(self) -> Capabilities:
        """Capability block (fetched once, cached like the sync twin)."""
        if self._capabilities is None:
            self._capabilities = _remote_capabilities(
                await self.client.astatus(), self.client.handle
            )
        return self._capabilities

    async def adecisions(self, urls) -> dict:
        return _by_language(await self.client.adecisions(urls))

    async def ascores_many(self, urls) -> dict:
        return _by_language(await self.client.ascore(urls))

    async def apredict(self, urls) -> BatchResult:
        """One score pass into a :class:`repro.api.BatchResult`, built
        exactly like the sync ``predict``."""
        urls = tuple(urls)
        codes = await self.client.ascore(urls)
        model = (await self.acapabilities()).model
        return BatchResult(urls, _score_matrix(codes, model), model)

    async def aclose(self) -> None:
        """Drop the connection and the cached capability block."""
        self._capabilities = None
        await self.client.aclose()

    async def __aenter__(self) -> "AsyncRemoteIdentifier":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
