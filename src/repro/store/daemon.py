"""The long-lived serving daemon: pre-forked workers over one mmap.

A crawler fleet wants an answer per frontier expansion without paying
a model load, a process start or cold caches per batch.
:class:`ServingDaemon` pays them once:

* the parent process loads one model artifact (header parsed, weight
  matrix **memory-mapped**) and then pre-forks N workers — every worker
  inherits the same mapping, so the OS backs all of them with one
  physical copy of the ``(V, k)`` weight matrix;
* workers accept connections on a shared Unix socket and answer batch
  ``classify`` / ``score`` / ``decisions`` requests with the
  length-prefixed JSON protocol of :mod:`repro.store.wire`; each worker
  keeps its :class:`~repro.store.artifact.ServingIdentifier` alive
  across requests, so the memoized tokenizer and the interned-row cache
  warm up once and stay warm;
* ``--http`` additionally serves the same operations over plain HTTP
  (stdlib :mod:`http.server` parsing only) for curl-friendly probing
  and load-balancer health checks.  Workers inherit that listener too
  and answer it like the socket, so the parent only supervises: it
  forks, respawns and reloads workers, and sheds load when every
  worker is busy, but never scores a batch;
* ``SIGHUP`` (or the ``reload`` operation) hot-reloads the artifact
  path **gated by rollout metadata**: the replacement must be a valid
  identifier artifact carrying a ``model.rollout`` stamp at least as
  new as the serving one (see :meth:`ServingDaemon._reload_gate`), and
  the swap is a worker-generation handover — new workers fork over the
  new mapping, old workers finish their connections and exit, the
  socket never stops accepting;
* ``SIGTERM`` / ``SIGINT`` (or the ``stop`` operation) shut down
  gracefully: workers drain in-flight connections, the socket and pid
  files are removed.

Process-management helpers (:func:`start_daemon`, :func:`stop_daemon`,
:func:`signal_daemon`) implement the ``repro serve start|stop|reload``
CLI: a double-fork detach with a pidfile next to the socket, readiness
probed through the client's ``ping``.

``docs/serving.md`` is the operator's guide: lifecycle, the wire
protocol spec, hot-reload semantics, and capacity planning.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import select
import signal
import socket
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler
from pathlib import Path

from repro.obs.events import EventLogger, json_log_enabled
from repro.obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.prom import render_prometheus
from repro.obs.trace import SpanLog, capture_stages, new_span_id, stage
from repro.store.artifact import MODEL_KIND, ServingIdentifier, load_identifier
from repro.store.format import ArtifactError, ArtifactFile
from repro.store.metrics import (
    DEFAULT_DRIFT_WINDOW_ROWS,
    DriftCounters,
    RequestMetrics,
    RobustnessCounters,
)
from repro.store.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ConnectionClosed,
    Frame,
    FrameTooLargeError,
    WireError,
    decode_body,
    encode_frame,
    error_response,
    ok_response,
    recv_frame_ex,
    send_message,
)
from repro.testing import faults

#: Default worker count for ``serve start``.
DEFAULT_WORKERS = 2

#: Seconds between the supervision loop's housekeeping passes.
SUPERVISE_INTERVAL = 0.2

#: Seconds a worker allows one frame's (or HTTP request's) bytes to
#: trickle in or out once transfer has started.  Idle waiting *between*
#: requests is separate (select at :data:`SUPERVISE_INTERVAL`), so this
#: only cuts off peers that stall mid-request.
FRAME_IO_TIMEOUT = 30.0

#: Seconds a graceful shutdown waits for workers before SIGKILL.
DRAIN_TIMEOUT = 10.0

#: Seconds a draining worker keeps a persistent connection open to
#: answer one late frame with a typed ``shutting-down`` error instead
#: of resetting it mid-conversation.
DRAIN_NOTIFY_SECONDS = 1.0

#: Seconds an HTTP keep-alive connection may sit idle between requests
#: before its worker closes it.  A held connection is a worker's whole
#: capacity, so a scraper or a connection pool that keeps one open
#: between requests must not hold a worker for long (HTTP clients
#: reconnect on close).
HTTP_IDLE_SECONDS = 2.0

#: The ops that score URLs: never answered by the supervising parent.
BATCH_OPS = ("classify", "score", "decisions")

#: Seconds one shed pass of the supervising parent may spend reading
#: requests, shared by every connection it accepts: a peer that
#: trickles its request a byte at a time costs the pass this much at
#: most, and then the parent goes back to reaping and respawning.
SHED_READ_SECONDS = 1.0

#: Upper bound on one batch request's URL count.  The frame cap already
#: bounds bytes; this bounds *work* — a maximal batch must not be able
#: to occupy a worker long enough to read as an outage.
MAX_BATCH_URLS = 65536

#: Crash containment defaults (env-overridable so chaos tests can run
#: the loop at test speed): this many current-generation worker deaths
#: inside the window flips the daemon to ``degraded`` and swaps hot
#: respawns for exponential backoff.
CRASH_LOOP_THRESHOLD = 3
CRASH_LOOP_WINDOW = 30.0
RESPAWN_BACKOFF_INITIAL = 0.5
RESPAWN_BACKOFF_MAX = 30.0

#: Spans retained in the fork-shared trace ring buffer (env-overridable
#: via ``REPRO_SERVE_TRACE_CAPACITY``).
TRACE_CAPACITY = 256


def parse_tcp_spec(spec: "str | tuple[str, int]") -> tuple[str, int]:
    """Parse a ``host:port`` TCP listener spec into ``(host, port)``.

    An omitted host (``:8642``) binds loopback — exposing the daemon
    beyond the machine is an explicit choice (``0.0.0.0:8642``), never
    a default.  Port ``0`` asks the kernel for a free port; the daemon
    resolves and reports the real one in its status block.
    """
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    text = str(spec)
    if ":" not in text:
        raise ValueError(
            f"TCP spec {text!r} must look like host:port (try 127.0.0.1:0)"
        )
    host, _, port_text = text.rpartition(":")
    return host or "127.0.0.1", int(port_text)


class DaemonStartupError(RuntimeError):
    """:func:`start_daemon` could not produce a serving daemon — the
    socket is taken, the detached process died at boot, or readiness
    timed out.  Subclasses ``RuntimeError`` for callers that still
    catch broadly."""


class DaemonNotRunningError(RuntimeError):
    """No live daemon is recorded for the socket (missing or stale
    pidfile)."""


class DaemonStopTimeout(RuntimeError):
    """The daemon acknowledged ``SIGTERM`` but outlived the stop
    deadline; it may still be draining — inspect its log and pidfile."""


def _utc_now() -> str:
    """ISO-8601 UTC timestamp with microseconds (sortable as a string)."""
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


class _ShedReader(io.RawIOBase):
    """Reads from one connection the shedding parent accepted, against
    the shed pass's one deadline.

    Each read waits at most for what remains of the pass's budget, and
    raises ``TimeoutError`` once it is spent.  It is the socket
    :func:`~repro.store.wire.recv_frame_ex` reads a wire request from
    and, buffered, the ``rfile`` :class:`_HttpHandler` parses HTTP from.
    """

    def __init__(self, connection: socket.socket, deadline: float) -> None:
        self._connection = connection
        self._deadline = deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("the shed pass's read budget is spent")
        self._connection.settimeout(remaining)
        return self._connection.recv_into(buffer)

    recv = io.RawIOBase.read


@dataclass
class _ModelState:
    """Everything one worker generation serves from."""

    identifier: ServingIdentifier
    checksum: str
    rollout: dict
    generation: int
    loaded_at: float


class ServingDaemon:
    """One daemon instance: config in, blocking :meth:`run` out.

    Construct then :meth:`run` in a dedicated process (foreground), or
    let :func:`start_daemon` do the fork-and-detach dance.  All
    filesystem artifacts the daemon creates (socket, pidfile) live next
    to ``socket_path`` and are removed on graceful shutdown.
    """

    def __init__(
        self,
        model_path: str | os.PathLike,
        socket_path: str | os.PathLike,
        workers: int = DEFAULT_WORKERS,
        http_port: int | None = None,
        pid_path: str | os.PathLike | None = None,
        tcp: "str | tuple[str, int] | None" = None,
        query_db: str | os.PathLike | None = None,
        log_json: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.model_path = Path(model_path)
        self.socket_path = Path(socket_path)
        self.workers = workers
        self.http_port = http_port
        #: Optional result index (a results.sqlite or a bulk run
        #: directory) exposed read-only via GET /v1/query/* on the
        #: HTTP front-end.  Opened per request: SQLite in WAL mode
        #: makes readers free, and a short-lived read transaction can
        #: never block a concurrently re-indexing bulk run.
        self.query_db = Path(query_db) if query_db is not None else None
        self.pid_path = Path(pid_path) if pid_path else pidfile_for(socket_path)
        #: Optional TCP front door: parsed at construction (so a bad
        #: spec fails fast in the caller's process), bound in run(),
        #: resolved into ``tcp_address`` before workers fork.
        self.tcp_spec = parse_tcp_spec(tcp) if tcp is not None else None
        self.tcp_address: tuple[str, int] | None = None
        self._state: _ModelState | None = None
        #: Every bound front door, each mapped to its transport name
        #: (``unix`` always, ``tcp`` and ``http`` when configured).
        self._listeners: dict[socket.socket, str] = {}
        self._children: dict[int, int] = {}  # pid -> generation
        self._stop_requested = False
        self._hup_requested = False
        self._worker_stop = False  # set in children only
        self._supervisor_pid: int | None = None  # set in children at fork
        self._started_at = 0.0
        # Fleet-shared counters, created before run() forks so every
        # worker updates the same shared block: request accounting and
        # the fault-tolerance counters (crash-loop flag included) cover
        # the whole daemon whichever process answers, and survive
        # worker deaths and reloads.  Admission state is per worker
        # instead of one shared counter: each _spawn_worker allocates a
        # shared busy flag the child sets while holding a connection
        # (one connection per worker, so a held connection IS
        # occupancy).  The parent sums flags of live workers only —
        # a SIGKILLed worker's stale flag dies with its table entry,
        # where a global counter would leak an increment forever.
        self._metrics = RequestMetrics()
        self._robustness = RobustnessCounters()
        self._child_busy: dict[int, object] = {}  # pid -> shared flag
        self._my_busy = None  # this worker's flag (children only)
        # Observability (docs/observability.md).  The span ring buffer
        # is fork-shared like the robustness counters: workers append
        # the spans of traced requests, the parent reads them back out
        # for `status --traces` / GET /v1/traces.  The ring and the
        # drift counters describe one model generation, so both are
        # replaced on reload before the new generation forks; drift
        # needs the model's language set, so it is created in run().
        self._spans = SpanLog(capacity=int(os.environ.get(
            "REPRO_SERVE_TRACE_CAPACITY", TRACE_CAPACITY)))
        self._drift: DriftCounters | None = None
        self._drift_window = int(os.environ.get(
            "REPRO_SERVE_DRIFT_WINDOW", DEFAULT_DRIFT_WINDOW_ROWS))
        #: Structured JSON event logging (--log-json or REPRO_LOG=json):
        #: every _log line becomes a {"event": "log"} record and
        #: lifecycle transitions emit typed events with trace ids.
        self.log_json = bool(log_json) or json_log_enabled()
        self._events = (
            EventLogger(sys.stderr, component="serve")
            if self.log_json else None
        )
        # Crash containment (parent only).  Env overrides exist so the
        # chaos tests can drive the loop at test speed instead of
        # waiting out production windows.
        self._crash_threshold = int(os.environ.get(
            "REPRO_SERVE_CRASH_THRESHOLD", CRASH_LOOP_THRESHOLD))
        self._crash_window = float(os.environ.get(
            "REPRO_SERVE_CRASH_WINDOW", CRASH_LOOP_WINDOW))
        self._backoff_initial = float(os.environ.get(
            "REPRO_SERVE_BACKOFF_INITIAL", RESPAWN_BACKOFF_INITIAL))
        self._backoff_max = float(os.environ.get(
            "REPRO_SERVE_BACKOFF_MAX", RESPAWN_BACKOFF_MAX))
        self._crash_times: deque[float] = deque()
        self._respawn_backoff = 0.0
        self._respawn_at = 0.0  # monotonic instant the backoff expires
        self._pending_respawns = 0

    # -- logging ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        """One timestamped line to stderr (the log file when detached).

        Under ``--log-json`` / ``REPRO_LOG=json`` the same line becomes
        a structured ``{"event": "log", "message": ...}`` record, so a
        fleet's logs stay machine-parseable without losing the prose.
        """
        if self._events is not None:
            self._events.emit("log", message=message,
                              role="worker" if self._is_worker else "parent")
            return
        print(f"[{_utc_now()}] repro-serve[{os.getpid()}] {message}",
              file=sys.stderr, flush=True)

    def _event(self, event: str, **fields) -> None:
        """Emit one typed lifecycle event (JSON mode only)."""
        if self._events is not None:
            self._events.emit(
                event,
                role="worker" if self._is_worker else "parent",
                **fields,
            )

    # -- model loading and the reload gate ----------------------------------------

    def _load_state(self, generation: int) -> _ModelState:
        """Map the artifact at ``model_path`` into a serving state."""
        identifier = load_identifier(self.model_path)
        with ArtifactFile(self.model_path) as artifact:
            checksum = artifact.checksum
        return _ModelState(
            identifier=identifier,
            checksum=checksum,
            rollout=dict(identifier.model.get("rollout", {})),
            generation=generation,
            loaded_at=time.time(),
        )

    def _make_drift(self, state: _ModelState) -> DriftCounters | None:
        """Fresh fork-shared drift counters for ``state``'s languages.

        Created (pre-fork) per model generation: a reloaded model
        starts a new baseline, and a replacement serving a different
        language set gets arrays of the right shape.
        """
        languages = [
            language.value
            for language in state.identifier.compiled.scorers
        ]
        if not languages:
            return None
        return DriftCounters(languages, window_rows=self._drift_window)

    def _reload_gate(self, current: _ModelState) -> str | None:
        """Why the artifact at ``model_path`` must NOT replace ``current``.

        Returns ``None`` when the reload may proceed, else a
        human-readable refusal.  The gate exists so a fat-fingered
        ``cp`` cannot take down serving: the replacement must

        * parse as an artifact of the identifier ``model.kind``,
        * carry ``model.rollout`` metadata (created-at stamp, and the
          train-corpus fingerprint when the trainer recorded one), and
        * not be a rollback: its ``rollout.created_at`` must be >= the
          serving artifact's (ISO-8601 UTC strings compare correctly).

        An identical payload checksum is reported as a no-op refusal so
        operators see that their new file never actually changed.
        """
        try:
            with ArtifactFile(self.model_path) as artifact:
                model = artifact.model
                checksum = artifact.checksum
        except ArtifactError as error:
            return f"replacement does not parse: {error}"
        if model.get("kind") != MODEL_KIND:
            return (
                "replacement is not a language-identifier artifact "
                f"(kind={model.get('kind')!r})"
            )
        rollout = model.get("rollout") or {}
        if not rollout.get("created_at"):
            return (
                "replacement carries no rollout metadata "
                "(model.rollout.created_at); re-save it with a current "
                "repro train / ModelStore.save"
            )
        if checksum == current.checksum:
            return f"replacement is byte-identical to the serving artifact ({checksum[:12]}…)"
        serving_created = current.rollout.get("created_at")
        if serving_created and rollout["created_at"] < serving_created:
            return (
                f"replacement is older than the serving artifact "
                f"({rollout['created_at']} < {serving_created}); refusing "
                "the rollback — delete the daemon and start fresh to force it"
            )
        return None

    # -- request dispatch (every transport, workers and the shedding parent) -------

    def _timed_dispatch(self, message: dict,
                        deadline: float | None = None,
                        transport: str = "unix") -> dict:
        """:meth:`_dispatch` plus daemon-wide request accounting.

        A request that arrives once this process was told to stop (a
        draining worker, or the parent mid-shutdown) is refused first,
        with the typed, retryable ``shutting-down``, before any work or
        accounting.  A request already past this check when the stop
        arrives is answered for real: in-flight work completes
        byte-identically.

        Every other answered request lands in the one fork-shared
        :class:`~repro.store.metrics.RequestMetrics` (op counts,
        transport counts, error count, latency histogram), so ``serve
        status`` and ``GET /metrics`` report the whole daemon's traffic
        whichever process answers.  Updates are safe from any process:
        each takes the shared block's lock for its slot increments only.

        A batch that reached the supervising parent, over any
        transport, is refused here with ``overloaded`` before any work
        or accounting (it is counted in ``overload_rejections`` only):
        the parent answers only while every worker is busy, and it
        never scores.

        ``deadline`` is the request's expiry on *this process's*
        monotonic clock (converted from the frame header's budget at
        receive time).  It is checked before dispatch — refusing work
        nobody will wait for — and again after, so work that outlived
        the caller's budget reports ``deadline-exceeded`` rather than
        pretending the caller got the answer in time.
        """
        refusal = self._drain_refusal()
        if refusal is not None:
            return refusal
        op = message.get("op")
        if self._is_worker:
            faults.maybe_kill("worker-kill", op=op)
        elif op in BATCH_OPS:
            return self._overloaded()
        started = time.perf_counter()
        attempt = message.get("attempt")
        if isinstance(attempt, int) and attempt > 1:
            self._robustness.bump("retries_observed")
        if isinstance(op, str):
            faults.maybe_sleep("slow-handler", op=op)
        if deadline is not None and time.monotonic() >= deadline:
            self._robustness.bump("deadline_expiries")
            response = error_response(
                "deadline-exceeded",
                "request deadline expired before dispatch",
            )
        else:
            response = self._dispatch(message)
            if (
                deadline is not None
                and response.get("ok")
                and time.monotonic() >= deadline
            ):
                self._robustness.bump("deadline_expiries")
                response = error_response(
                    "deadline-exceeded",
                    "request completed after its deadline expired",
                )
        self._metrics.observe(
            op if isinstance(op, str) else "invalid",
            time.perf_counter() - started,
            ok=bool(response.get("ok")),
            transport=transport,
        )
        return response

    def _overloaded(self) -> dict:
        """The typed, retryable refusal of work that reached the parent."""
        self._robustness.bump("overload_rejections")
        return error_response(
            "overloaded",
            f"all {self.workers} workers are busy; retry with backoff",
        )

    def _drain_refusal(self) -> dict | None:
        """The typed, retryable refusal of a request that arrives once
        this process was told to stop; None while it serves."""
        if not (self._worker_stop or self._stop_requested):
            return None
        return error_response(
            "shutting-down", "draining; retry on a new connection"
        )

    def _dispatch(self, message: dict) -> dict:
        """Answer one request against the current model state."""
        if not isinstance(message.get("op"), str):
            return error_response("bad-request", "request carries no 'op'")
        if message.get("v") != PROTOCOL_VERSION:
            return error_response(
                "protocol-version",
                f"daemon speaks protocol {PROTOCOL_VERSION}, "
                f"request carries v={message.get('v')!r}",
            )
        op = message["op"]
        if op == "ping":
            return ok_response(pid=os.getpid())
        if op == "status":
            return ok_response(**self._status_block())
        if op == "traces":
            limit = message.get("limit")
            if limit is not None and (
                not isinstance(limit, int) or limit < 1
            ):
                return error_response(
                    "bad-request", f"'limit' must be >= 1, got {limit!r}"
                )
            return ok_response(
                traces=self._spans.snapshot(limit=limit),
                recorded=self._spans.recorded,
                capacity=self._spans.capacity,
            )
        if op in ("reload", "stop"):
            # Workers forward the ask to the supervising parent, which
            # owns the generation handover / shutdown.  The supervisor
            # pid was captured at fork time: getppid() would name the
            # *reaper* (pid 1) if the parent died and we were orphaned,
            # and signalling that would be catastrophic.
            target = self._parent_pid()
            signum = signal.SIGHUP if op == "reload" else signal.SIGTERM
            if self._is_worker and os.getppid() != target:
                return error_response(
                    "internal",
                    "supervisor process is gone; this worker is orphaned "
                    "and will exit",
                )
            try:
                os.kill(target, signum)
            except (ProcessLookupError, PermissionError) as error:
                return error_response(
                    "internal", f"cannot signal supervisor {target}: {error}"
                )
            return ok_response(signalled=signal.Signals(signum).name,
                               pid=target)
        if op in BATCH_OPS:
            urls = message.get("urls")
            if not isinstance(urls, list) or any(
                not isinstance(url, str) for url in urls
            ):
                return error_response(
                    "bad-request", f"op {op!r} requires 'urls': list[str]"
                )
            if len(urls) > MAX_BATCH_URLS:
                # Terminal, not retryable: the identical batch would be
                # rejected identically.  The caller must split it.
                return error_response(
                    "bad-request",
                    f"batch of {len(urls)} URLs exceeds the per-request "
                    f"limit of {MAX_BATCH_URLS}; split the batch",
                )
            return self._dispatch_batch(op, urls)
        return error_response("unknown-op", f"unsupported op {op!r}")

    def _dispatch_batch(self, op: str, urls: list[str]) -> dict:
        assert self._state is not None
        identifier = self._state.identifier
        try:
            # One BatchResult answers every batch op *and* hands the
            # drift counters its matrix columns, so observing drift
            # never costs a second matmul.
            result = identifier.predict(urls)
            if self._drift is not None:
                self._drift.observe(
                    dict(zip(result.model.languages, result.matrix.T))
                )
            if op == "classify":
                # Language is a str enum: json writes each as its code.
                return ok_response(results=[
                    {"url": url, "best": best, "positives": positives}
                    for url, best, positives in zip(
                        result.urls, result.best, result.positives
                    )
                ])
            if op == "score":
                return ok_response(scores={
                    language.value: values
                    for language, values in result.scores.items()
                })
            return ok_response(decisions={
                language.value: values
                for language, values in result.decisions.items()
            })
        except Exception as error:  # noqa: BLE001 - keep the worker alive
            self._log(f"internal error answering {op!r}: {error!r}")
            return error_response("internal", f"{type(error).__name__}: {error}")

    _is_worker = False

    def _parent_pid(self) -> int:
        """The supervising pid — captured at fork in workers, self in
        the parent."""
        if self._is_worker:
            assert self._supervisor_pid is not None
            return self._supervisor_pid
        return os.getpid()

    def _status_block(self) -> dict:
        """The status payload: who is answering, from which model."""
        assert self._state is not None
        state = self._state
        identifier = state.identifier
        compiled = identifier.compiled
        return {
            "pid": os.getpid(),
            "role": "worker" if self._is_worker else "parent",
            # "degraded" = crash-loop containment active (respawns are
            # backing off); requests are still answered by whatever
            # capacity remains, parent included.
            "state": "degraded" if self._robustness.degraded else "ok",
            "generation": state.generation,
            "workers": self.workers,
            "inflight": self._inflight(),
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "http_port": self.http_port,
            "query_db": (
                str(self.query_db) if self.query_db is not None else None
            ),
            "tcp": (
                {"host": self.tcp_address[0], "port": self.tcp_address[1]}
                if self.tcp_address is not None else None
            ),
            "model": {
                "name": identifier.name,
                "algorithm": identifier.algorithm,
                "feature_set": identifier.feature_set,
                "path": str(self.model_path),
                "checksum": state.checksum,
                "n_features": identifier.model.get("n_features"),
                "rollout": state.rollout,
            },
            "requests": self._metrics.snapshot(),
            "robustness": self._robustness.snapshot(),
            "drift": (
                self._drift.snapshot() if self._drift is not None else None
            ),
            "traces": {
                "retained": len(self._spans),
                "recorded": self._spans.recorded,
                "capacity": self._spans.capacity,
            },
            "caches": {
                "interned_rows": compiled.cache_info,
                "tokenizer": compiled.tokenizer_cache_info,
            },
        }

    # -- worker processes ----------------------------------------------------------

    def _spawn_worker(self, generation: int) -> int:
        """Fork one worker of ``generation`` over the current mapping.

        The parent is single-threaded, so the fork can never hand the
        child a lock some other thread held.
        """
        busy_flag = multiprocessing.Value("i", 0)  # shared across the fork
        pid = os.fork()
        if pid:
            self._children[pid] = generation
            self._child_busy[pid] = busy_flag
            return pid
        # Child: serve the listeners until told to drain.
        self._is_worker = True
        self._supervisor_pid = os.getppid()
        self._children = {}
        self._child_busy = {}
        self._my_busy = busy_flag
        signal.signal(signal.SIGTERM, self._worker_sigterm)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
        code = 0
        try:
            self._worker_loop()
        except Exception as error:  # noqa: BLE001
            self._log(f"worker crashed: {error!r}")
            code = 1
        os._exit(code)

    def _worker_sigterm(self, signum, frame) -> None:
        self._worker_stop = True

    def _worker_loop(self) -> None:
        listeners = list(self._listeners)
        assert listeners
        # Non-blocking accept + select: one worker waits on every front
        # door at once, and a sibling winning the race for a pending
        # connection surfaces as BlockingIOError, never a stall.
        # settimeout is per socket *object*, so this worker's setting
        # never disturbs the parent or its siblings.
        for listener in listeners:
            listener.settimeout(0)
        while not self._worker_stop:
            if os.getppid() != self._supervisor_pid:
                self._log("supervisor is gone; worker exiting")
                break  # orphaned: nobody will ever reload or stop us
            try:
                readable, _, _ = select.select(
                    listeners, [], [], SUPERVISE_INTERVAL
                )
            except InterruptedError:
                continue
            except OSError:
                break  # a listener closed under us during shutdown
            if not readable or self._worker_stop:
                continue  # a draining worker leaves new connections
            try:
                connection, _ = readable[0].accept()
            except (BlockingIOError, socket.timeout, InterruptedError):
                continue  # a sibling won the race
            except OSError:
                break  # listener closed under us during shutdown
            transport = self._listeners[readable[0]]
            if transport == "tcp":
                connection.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            # A held connection is this worker's whole capacity (one
            # connection per worker); the parent sums these flags as
            # its admission signal and starts answering `overloaded`
            # when every live worker is occupied.
            self._my_busy.value = 1
            try:
                with connection:
                    connection.settimeout(FRAME_IO_TIMEOUT)
                    if transport == "http":
                        self._serve_http(connection)
                    else:
                        self._serve_connection(connection, transport)
            finally:
                self._my_busy.value = 0

    def _await_request(self, connection: socket.socket,
                       idle_seconds: float = float("inf")) -> bool:
        """Wait at a request boundary until the next request's first
        bytes (or the peer's close) arrive; False means close instead.

        The drain flag is polled only here, while idle between
        requests, never by timing out a request mid-transfer (a short
        read would desync the stream).  A draining worker keeps waiting
        :data:`DRAIN_NOTIFY_SECONDS` so one late request gets a typed
        ``shutting-down`` answer instead of a reset; a connection idle
        for ``idle_seconds`` is closed.
        """
        give_up = time.monotonic() + idle_seconds
        draining = False
        while True:
            if self._worker_stop and not draining:
                draining = True
                give_up = min(give_up, time.monotonic() + DRAIN_NOTIFY_SECONDS)
            if time.monotonic() >= give_up:
                return False
            readable, _, _ = select.select(
                [connection], [], [], SUPERVISE_INTERVAL
            )
            if readable:
                return True

    def _serve_connection(self, connection: socket.socket,
                          transport: str = "unix") -> None:
        """Answer frames on one connection until the peer closes — or
        until this worker is told to drain.

        Keep-alive with pipelining: any number of request frames may
        already be queued in the stream; the worker reads, dispatches,
        and answers them strictly in order, echoing each request's
        correlation id (when it carried one) on the matching response —
        which is what lets an async client pair fan-in responses with
        fan-out requests on one connection.

        Drain semantics (graceful stop and the hot-reload handover): a
        retiring worker finishes the request it is answering, then
        keeps the connection open for :data:`DRAIN_NOTIFY_SECONDS` so
        one late frame gets :meth:`_timed_dispatch`'s typed
        ``shutting-down`` answer instead of a reset, and closes.
        ``shutting-down`` is retryable: the client replays on a fresh
        connection and lands on the replacement generation (or, on a
        full stop, surfaces the typed error when the retry budget runs
        out).

        The drain flag is polled only while idle between frames
        (:meth:`_await_request`).  Once a frame starts, it gets
        :data:`FRAME_IO_TIMEOUT` to complete; a peer stalling longer
        than that loses the connection.
        """
        while self._await_request(connection):
            frame = self._read_frame(connection)
            # A frame read once the drain began is refused, and the
            # client retries on a new connection: this one ends.
            stopping = self._worker_stop
            if (
                frame is None
                or not self._answer_frame(connection, frame, transport)
                or stopping
            ):
                return

    def _read_frame(self, connection: socket.socket,
                    source: _ShedReader | None = None) -> Frame | None:
        """Read one request frame off ``connection`` (through ``source``
        when the shedding parent passes its reader); None means close.

        A peer that is gone, or stalls mid-frame, is closed on silently.
        An oversized announcement gets ``frame-too-large`` and any other
        unreadable frame ``bad-request``, both sent best-effort: the
        stream is out of step, so the connection ends either way.
        """
        try:
            return recv_frame_ex(connection if source is None else source)
        except (ConnectionClosed, TimeoutError):
            return None
        except FrameTooLargeError as error:
            response = error_response("frame-too-large", str(error))
        except (WireError, OSError) as error:
            response = error_response("bad-request", str(error))
        self._send_best_effort(connection, response)
        return None

    def _answer_frame(self, connection: socket.socket, frame: Frame,
                      transport: str) -> bool:
        """Answer one request frame; False means the answer could not be
        sent and the connection must close.

        The one path a wire request takes, in a worker or in the
        shedding parent: the frame's deadline budget becomes an expiry
        on this process's monotonic clock, :meth:`_timed_dispatch`
        answers, and the response echoes the correlation id.  A traced
        frame also gets its trace id echoed with a fresh server span
        id, its stages captured (``accept``, ``dispatch`` with the
        pipeline's ``extract``/``matmul`` inside, ``respond``) and its
        span recorded in the fork-shared ring buffer.
        """
        received = time.perf_counter()
        deadline = (
            time.monotonic() + frame.deadline_ms / 1000.0
            if frame.deadline_ms is not None else None
        )
        op = frame.message.get("op")
        if frame.trace_id is None:
            return self._send_best_effort(
                connection,
                self._timed_dispatch(frame.message, deadline, transport),
                op=op, correlation_id=frame.correlation_id,
            )
        trace = (frame.trace_id, new_span_id())
        with capture_stages() as stages:
            stages["accept"] = time.perf_counter() - received
            with stage("dispatch"):
                response = self._timed_dispatch(
                    frame.message, deadline, transport
                )
            with stage("respond"):
                sent = self._send_best_effort(
                    connection, response, op=op,
                    correlation_id=frame.correlation_id, trace=trace,
                )
        self._record_span(frame, trace[1], transport, response, stages,
                          time.perf_counter() - received)
        return sent

    def _record_span(self, frame: Frame, span_id: int, transport: str,
                     response: dict, stages: dict,
                     seconds: float) -> None:
        """Finish one traced request: ring-buffer span + JSON event."""
        op = frame.message.get("op")
        record = {
            "ts": round(time.time(), 6),
            "trace": frame.trace_id,
            "span": span_id,
            "parent": frame.span_id,
            "op": op if isinstance(op, str) else "invalid",
            "transport": transport,
            "pid": os.getpid(),
            "ok": bool(response.get("ok")),
            "ms": round(seconds * 1000.0, 3),
            "stages_ms": {
                name: round(value * 1000.0, 3)
                for name, value in stages.items()
            },
        }
        self._spans.append(record)
        self._event(
            "request", trace=frame.trace_id, span=span_id,
            op=record["op"], transport=transport, ok=record["ok"],
            ms=record["ms"],
        )

    def _send_torn_frame(self, connection: socket.socket,
                         message: dict) -> None:
        """Injected fault: send half a frame, then hard-close.

        Exercises the client's torn-frame path — a truncated body must
        surface as a dirty :class:`ConnectionClosed`, never as a parsed
        partial message or a hang.
        """
        frame = encode_frame(message)
        try:
            connection.sendall(frame[: max(5, len(frame) // 2)])
        except OSError:
            pass

    def _send_best_effort(self, connection: socket.socket, message: dict,
                          op: str | None = None,
                          correlation_id: int | None = None,
                          trace: tuple[str, int] | None = None) -> bool:
        if faults.should_fire("torn-frame", op=op) is not None:
            self._send_torn_frame(connection, message)
            return False
        trace_id, span_id = trace if trace is not None else (None, None)
        try:
            send_message(connection, message, correlation_id=correlation_id,
                         trace_id=trace_id, span_id=span_id)
            return True
        except FrameTooLargeError as error:
            # The *response* outgrew the frame cap (a batch near the
            # request limit can — results carry more bytes per URL than
            # the bare URLs did).  Tell the caller to split the batch
            # instead of crashing the worker.
            return self._send_best_effort(
                connection,
                error_response(
                    "frame-too-large",
                    f"response exceeds the frame cap; send smaller "
                    f"batches ({error})",
                ),
                correlation_id=correlation_id,
                trace=trace,
            )
        except OSError:
            return False  # peer went away mid-answer; drop the connection

    # -- HTTP front-end ------------------------------------------------------------

    def _serve_http(self, connection: socket.socket,
                    reader: _ShedReader | None = None) -> None:
        """Answer HTTP on one accepted connection (:class:`_HttpHandler`),
        reading through ``reader`` when the shedding parent passes one.

        The boundary that must keep running: a peer that goes away
        mid-answer ends only its connection, and a failing route is
        logged, never allowed to take down a worker or the parent.
        """
        try:
            _HttpHandler(connection, self, reader)
        except OSError:
            pass  # the peer went away mid-answer
        except Exception:  # noqa: BLE001 - keep this process serving
            self._log(f"http connection failed:\n{traceback.format_exc()}")

    # -- the supervising parent ----------------------------------------------------

    def _bind(self) -> socket.socket:
        """Bind the Unix listener, evicting a stale socket file."""
        path = str(self.socket_path)
        if self.socket_path.exists():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
            except OSError:
                self._log(f"removing stale socket {path}")
                self.socket_path.unlink()
            else:
                raise RuntimeError(
                    f"another daemon is already serving on {path}"
                )
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(128)
        return listener

    def _bind_inet(self, transport: str,
                   address: tuple[str, int]) -> tuple[str, int]:
        """Bind the TCP or HTTP listener; returns the bound address.

        Bound before workers fork so every worker inherits the listener
        and every status block reports the kernel-resolved port (port
        ``0`` means "pick one for me").
        """
        listener = socket.create_server(address, backlog=128)
        self._listeners[listener] = transport
        return listener.getsockname()[:2]

    def run(self) -> int:
        """Serve until told to stop; returns the process exit code.

        Blocking — the caller dedicates this process to the daemon (the
        CLI's ``--foreground``); :func:`start_daemon` wraps it in a
        detached grandchild.
        """
        self._started_at = time.time()
        self._state = self._load_state(generation=1)
        self._drift = self._make_drift(self._state)  # pre-fork: shared
        self._listeners[self._bind()] = "unix"
        if self.tcp_spec is not None:
            self.tcp_address = self._bind_inet("tcp", self.tcp_spec)
        if self.http_port is not None:
            self.http_port = self._bind_inet(
                "http", ("127.0.0.1", self.http_port)
            )[1]
        self.pid_path.write_text(f"{os.getpid()}\n")
        signal.signal(signal.SIGTERM, self._parent_signal)
        signal.signal(signal.SIGINT, self._parent_signal)
        signal.signal(signal.SIGHUP, self._parent_signal)
        self._log(
            f"serving {self._state.identifier.name} "
            f"(checksum {self._state.checksum[:12]}…) from {self.model_path} "
            f"on {self.socket_path} with {self.workers} workers"
        )
        self._event(
            "daemon-start",
            model=self._state.identifier.name,
            checksum=self._state.checksum,
            generation=self._state.generation,
            workers=self.workers,
            socket=str(self.socket_path),
        )
        if self.tcp_address is not None:
            self._log(
                f"tcp front door on "
                f"{self.tcp_address[0]}:{self.tcp_address[1]}"
            )
        if self.http_port is not None:
            self._log(f"http front-end on 127.0.0.1:{self.http_port}")
        for _ in range(self.workers):
            self._spawn_worker(self._state.generation)
        # The parent is the admission valve: when every worker is busy
        # (or dead), it accepts the connections nobody else will and
        # answers with typed `overloaded` instead of letting callers
        # hang in the listen backlog.  Its accept must never block —
        # a worker may win the race for a pending connection at any
        # moment — hence timeout 0 on the parent's socket objects.
        for listener in self._listeners:
            listener.settimeout(0)
        try:
            while not self._stop_requested:
                if self._hup_requested:
                    self._hup_requested = False
                    self._reload()
                self._reap(respawn=True)
                self._respawn_after_backoff()
                if self._saturated():
                    self._shed_load()
                    time.sleep(0.05)  # stay responsive while saturated
                else:
                    time.sleep(SUPERVISE_INTERVAL)
        finally:
            self._shutdown()
        return 0

    def _parent_signal(self, signum, frame) -> None:
        if signum == signal.SIGHUP:
            self._hup_requested = True
        else:
            self._stop_requested = True

    def _reap(self, respawn: bool) -> None:
        """Collect exited workers; replace unexpected current-gen deaths.

        Crash containment: every unexpected current-generation death
        lands in a sliding window.  Below :attr:`_crash_threshold`
        deaths per :attr:`_crash_window` seconds, the replacement forks
        immediately (a one-off crash costs one request).  At the
        threshold the daemon is crash-looping — most likely every
        respawn dies the same way — so replacements queue behind an
        exponential backoff (:meth:`_respawn_after_backoff`) and the
        shared ``degraded`` flag flips, surfacing the state in
        ``serve status`` while the parent keeps answering ping/status.
        """
        assert self._state is not None
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            generation = self._children.pop(pid, None)
            self._child_busy.pop(pid, None)  # stale busy flag dies here
            if (
                respawn
                and not self._stop_requested
                and generation == self._state.generation
            ):
                now = time.monotonic()
                self._crash_times.append(now)
                while (
                    self._crash_times
                    and now - self._crash_times[0] > self._crash_window
                ):
                    self._crash_times.popleft()
                self._robustness.mark_crash()
                if len(self._crash_times) >= self._crash_threshold:
                    self._pending_respawns += 1
                    self._respawn_backoff = min(
                        max(self._respawn_backoff * 2, self._backoff_initial),
                        self._backoff_max,
                    )
                    self._respawn_at = now + self._respawn_backoff
                    self._robustness.degraded = True
                    self._log(
                        f"worker {pid} died; crash loop detected "
                        f"({len(self._crash_times)} deaths in "
                        f"{self._crash_window:.0f}s) — degraded, next "
                        f"respawn in {self._respawn_backoff:.1f}s"
                    )
                    self._event(
                        "crash-loop", worker=pid,
                        deaths=len(self._crash_times),
                        window_seconds=self._crash_window,
                        backoff_seconds=self._respawn_backoff,
                    )
                else:
                    self._log(f"worker {pid} died; respawning")
                    self._event("worker-death", worker=pid,
                                generation=generation)
                    self._robustness.bump("worker_respawns")
                    self._spawn_worker(self._state.generation)

    def _respawn_after_backoff(self) -> None:
        """Fork the respawns the crash-loop backoff was holding back."""
        assert self._state is not None
        if not self._pending_respawns or time.monotonic() < self._respawn_at:
            return
        count, self._pending_respawns = self._pending_respawns, 0
        self._robustness.degraded = False
        self._log(f"backoff expired; respawning {count} worker(s)")
        for _ in range(count):
            self._robustness.bump("worker_respawns")
            self._spawn_worker(self._state.generation)

    # -- parent-side admission (back-pressure) -------------------------------------

    def _inflight(self) -> int | None:
        """Connections currently held by live workers (parent view;
        workers return None — only the parent holds the flag table)."""
        if self._is_worker:
            return None
        return sum(flag.value for flag in self._child_busy.values())

    def _saturated(self) -> bool:
        """True when no current-generation worker can accept a new
        connection — every live one is holding a connection, or none
        are alive (crash-loop backoff).  Approximate by design: the
        busy flags and the child table move under us, and a wrong
        ``True`` only converts a would-have-queued caller into a
        retryable ``overloaded``."""
        assert self._state is not None
        alive = busy = 0
        for pid, generation in self._children.items():
            if generation != self._state.generation:
                continue
            alive += 1
            flag = self._child_busy.get(pid)
            if flag is not None and flag.value:
                busy += 1
        return alive == 0 or busy >= alive

    def _shed_load(self) -> None:
        """Answer pending connections while saturated: typed
        ``overloaded`` for work, real answers for health and status.

        Never silent queuing — a caller that would previously have sat
        in the listen backlog behind busy workers now gets a retryable
        refusal within one supervise tick.  Health and status requests
        (wire ``ping``/``status``/``traces``/``stop``/``reload``, HTTP
        ``/healthz``, ``/v1/status``, ``/metrics``, ``/v1/traces``) are
        answered for real, so health checks and operators can still
        see a saturated or degraded daemon; batch work is refused by
        :meth:`_timed_dispatch`.  A wire frame takes the workers' own
        path (:meth:`_read_frame`, :meth:`_answer_frame`): an unreadable
        one gets the same typed error, and a traced one records its
        span, stamped with the supervisor's pid.  One request per
        connection, then close, so the parent never becomes a
        long-lived serving path.
        Every read in the pass shares one :data:`SHED_READ_SECONDS`
        budget (:class:`_ShedReader`), so peers that trickle their
        requests cannot hold the parent away from its workers.
        """
        budget = 64
        reads_end = time.monotonic() + SHED_READ_SECONDS
        for listener, transport in self._listeners.items():
            while budget > 0:
                try:
                    connection, _ = listener.accept()
                except OSError:
                    break  # this listener's backlog is drained
                budget -= 1
                with connection:
                    connection.settimeout(1.0)
                    reader = _ShedReader(connection, reads_end)
                    if transport == "http":
                        self._serve_http(connection, reader)
                        continue
                    frame = self._read_frame(connection, reader)
                    if frame is not None:
                        self._answer_frame(connection, frame, transport)

    def _reload(self) -> None:
        """The SIGHUP path: gate, remap, hand the socket to new workers."""
        assert self._state is not None
        refusal = self._reload_gate(self._state)
        if refusal:
            self._log(f"reload refused: {refusal}")
            self._event("reload-refused", reason=refusal,
                        generation=self._state.generation)
            return
        try:
            state = self._load_state(self._state.generation + 1)
        except ArtifactError as error:
            self._log(f"reload refused: replacement failed to load: {error}")
            self._event("reload-refused", reason=str(error),
                        generation=self._state.generation)
            return
        old_children = [
            pid
            for pid, generation in self._children.items()
            if generation == self._state.generation
        ]
        self._state = state  # new forks serve it
        # A new model invalidates the old telemetry baselines: fresh
        # drift counters and a fresh span ring, created before the new
        # generation forks so its workers share them.  Old-gen workers
        # still draining hold the previous blocks — their last few
        # batches and spans age out with them.  Request counts span
        # generations and are never replaced.
        self._drift = self._make_drift(state)
        self._spans = SpanLog(capacity=self._spans.capacity)
        for _ in range(self.workers):
            self._spawn_worker(state.generation)
        for pid in old_children:
            self._terminate(pid, signal.SIGTERM)
        self._log(
            f"reloaded generation {state.generation}: "
            f"{state.identifier.name} (checksum {state.checksum[:12]}…, "
            f"rollout {state.rollout.get('created_at')})"
        )
        self._event(
            "reload", generation=state.generation,
            model=state.identifier.name, checksum=state.checksum,
            rollout=state.rollout.get("created_at"),
        )

    def _terminate(self, pid: int, signum: int) -> None:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass

    def _shutdown(self) -> None:
        """Drain workers, then remove every file the daemon created."""
        self._log("shutting down")
        for pid in list(self._children):
            self._terminate(pid, signal.SIGTERM)
        deadline = time.time() + DRAIN_TIMEOUT
        while self._children and time.time() < deadline:
            self._reap(respawn=False)
            time.sleep(0.05)
        for pid in list(self._children):
            self._log(f"worker {pid} did not drain; killing")
            self._terminate(pid, signal.SIGKILL)
        self._reap(respawn=False)
        for listener in self._listeners:
            listener.close()
        for path in (self.socket_path, self.pid_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._log("stopped")
        self._event("daemon-stop", uptime_seconds=round(
            time.time() - self._started_at, 3))


class _HttpHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 on one accepted connection, answered by the process
    that accepted it; constructing the handler serves the connection.

    A worker answers requests strictly in order until the peer closes,
    the connection idles past :data:`HTTP_IDLE_SECONDS`, or the worker
    drains.  Between requests it waits like the wire does
    (:meth:`ServingDaemon._await_request`), unless the next request is
    already buffered.  The shedding parent answers one request, then
    closes, as it does a wire connection.
    """

    protocol_version = "HTTP/1.1"
    # _reply writes headers and body as two segments; with Nagle on,
    # the body waits out the client's delayed ACK (~40 ms) on every
    # back-to-back keep-alive request.
    disable_nagle_algorithm = True

    def __init__(self, connection: socket.socket, daemon: ServingDaemon,
                 reader: _ShedReader | None = None) -> None:
        self.daemon = daemon
        self._reader = reader
        super().__init__(connection, connection.getpeername(), None)

    def setup(self) -> None:
        super().setup()
        if self._reader is not None:
            # An unclosed socket file would keep the connection open
            # past its close().
            self.rfile.close()
            self.rfile = io.BufferedReader(self._reader)

    def handle(self) -> None:
        if not self.daemon._is_worker:
            self.handle_one_request()
            return
        self.close_connection = False
        while not self.close_connection:
            if not self._buffered() and not self.daemon._await_request(
                self.connection, HTTP_IDLE_SECONDS
            ):
                return
            self.handle_one_request()

    def _buffered(self) -> bool:
        """True when the next request is already in the read buffer
        (pipelined behind the last one), where ``select`` cannot see it."""
        timeout = self.connection.gettimeout()
        self.connection.settimeout(0)
        try:
            return bool(self.rfile.peek(1))
        finally:
            self.connection.settimeout(timeout)

    def log_message(self, format, *args):  # noqa: A002
        self.daemon._log(f"http {self.address_string()} {format % args}")

    def _reply(self, status: int, payload: dict | str,
               content_type: str | None = None, close: bool = False) -> None:
        body = (
            payload.encode("utf-8")
            if isinstance(payload, str)
            else (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        )
        self.send_response(status)
        self.send_header(
            "Content-Type",
            content_type or (
                "text/plain" if isinstance(payload, str)
                else "application/json"
            ),
        )
        self.send_header("Content-Length", str(len(body)))
        if close or not self.daemon._is_worker or self.daemon._worker_stop:
            # The parent answers one request per connection, and a
            # draining worker none after this one.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _answer(self, response: dict) -> None:
        """Reply with a wire response: 200, 503 for the retryable
        refusals (``overloaded``, ``shutting-down``), 400 otherwise."""
        if response.get("ok"):
            status = 200
        elif response["error"]["code"] in RETRYABLE_CODES:
            status = 503
        else:
            status = 400
        self._reply(status, response)

    def do_GET(self):  # noqa: N802 - http.server API
        daemon = self.daemon
        refusal = daemon._drain_refusal()
        if refusal is not None:
            self._answer(refusal)
        elif self.path == "/healthz":
            self._reply(200, "ok\n")
        elif self.path == "/v1/status":
            self._reply(200, ok_response(**daemon._status_block()))
        elif self.path == "/metrics":
            # The Prometheus scrape target: the same status block,
            # rendered by the shared zero-dependency encoder (`serve
            # status --prom` renders the identical text client-side).
            self._reply(
                200,
                render_prometheus(daemon._status_block()),
                content_type=PROM_CONTENT_TYPE,
            )
        elif self.path.rstrip("?") == "/v1/traces" or \
                self.path.startswith("/v1/traces?"):
            self._do_traces()
        elif self.path.startswith("/v1/query/"):
            if daemon._is_worker:
                self._do_query()
            else:
                self._answer(daemon._overloaded())
        else:
            self._reply(404, error_response("unknown-op", self.path))

    def _do_traces(self) -> None:
        """The wire ``traces`` op, with ``limit`` from the query string."""
        from urllib.parse import parse_qs, urlparse

        message = {"v": PROTOCOL_VERSION, "op": "traces"}
        limits = parse_qs(urlparse(self.path).query).get("limit")
        if limits:
            try:
                message["limit"] = int(limits[-1])
            except ValueError:
                message["limit"] = limits[-1]  # _dispatch refuses it
        self._answer(self.daemon._dispatch(message))

    def _do_query(self) -> None:
        """Read-only result-index routes (``--query-db``).

        GET /v1/query/{status,counts,hist,lookup,search,rows} with URL
        query parameters; pagination reuses the index's own
        ``{score}|{rowid}|{fingerprint}`` keyset cursors, so a cursor
        refusal here is byte-for-byte the refusal the ``repro query``
        CLI gives.
        """
        from urllib.parse import parse_qs, urlparse

        query_db = self.daemon.query_db
        if query_db is None:
            self._reply(404, error_response(
                "unknown-op",
                f"{self.path}: this daemon serves no result index "
                "(start with --query-db)",
            ))
            return
        from repro.query import QueryError, open_index

        parsed = urlparse(self.path)
        op = parsed.path.rsplit("/", 1)[-1]
        params = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        language = params.get("language")
        limit = params.get("limit")
        cursor = params.get("cursor")
        try:
            with open_index(query_db) as index:
                if op == "status":
                    payload = index.status()
                elif op == "counts":
                    payload = {"counts": index.counts(language)}
                elif op == "hist":
                    payload = index.histogram(
                        language, bins=int(params.get("bins", 20)),
                    )
                elif op == "lookup":
                    if "url" not in params:
                        self._reply(400, error_response(
                            "bad-request", "lookup requires ?url=",
                        ))
                        return
                    payload = {"rows": index.lookup(
                        params["url"],
                        prefix=params.get("prefix") in ("1", "true"),
                        limit=limit,
                    )}
                elif op == "search":
                    if "q" not in params:
                        self._reply(400, error_response(
                            "bad-request", "search requires ?q=",
                        ))
                        return
                    payload = index.search(
                        params["q"], limit=limit, cursor=cursor,
                    ).snapshot()
                elif op == "rows":
                    payload = index.page(
                        language, limit=limit, cursor=cursor,
                    ).snapshot()
                else:
                    self._reply(404, error_response(
                        "unknown-op", parsed.path
                    ))
                    return
        except (QueryError, ValueError) as error:
            self._reply(400, error_response("bad-request", str(error)))
            return
        self._reply(200, ok_response(**payload))

    def do_POST(self):  # noqa: N802 - http.server API
        op = self.path.rsplit("/", 1)[-1]
        if self.path != f"/v1/{op}" or op not in BATCH_OPS:
            # The body stays unread, so the stream cannot go on.
            self._reply(404, error_response("unknown-op", self.path),
                        close=True)
            return
        if "Transfer-Encoding" in self.headers:
            # Only a Content-Length body is read; chunks left unread
            # would be taken for the next request.
            self._reply(411, error_response(
                "bad-request",
                "send the body with a Content-Length, not Transfer-Encoding",
            ), close=True)
            return
        announced = (self.headers.get("Content-Length") or "0").strip()
        if not (announced.isascii() and announced.isdigit()):
            # Unread body of unknown length: the stream cannot go on.
            self._reply(400, error_response(
                "bad-request",
                f"Content-Length must be a byte count, got {announced!r}",
            ), close=True)
            return
        length = int(announced)
        if length > MAX_FRAME_BYTES:
            self._reply(413, error_response(
                "frame-too-large",
                f"body announces {length} bytes; limit {MAX_FRAME_BYTES}",
            ), close=True)
            return
        try:
            body = decode_body(self.rfile.read(length) or b"{}")
        except WireError as error:
            self._reply(400, error_response("bad-request", str(error)))
            return
        # The path, not the body, decides the op — a body "op" must
        # never widen a batch endpoint into stop/reload.
        self._answer(self.daemon._timed_dispatch(
            {**body, "v": PROTOCOL_VERSION, "op": op}, transport="http",
        ))


# -- process management (the CLI's serve start/stop/status/reload) ----------------


def pidfile_for(socket_path: str | os.PathLike) -> Path:
    """Conventional pidfile location: next to the socket, ``.pid`` added."""
    socket_path = Path(socket_path)
    return socket_path.with_name(socket_path.name + ".pid")


def read_pid(socket_path: str | os.PathLike) -> int | None:
    """Supervisor pid recorded for the daemon on ``socket_path``, if any."""
    try:
        return int(pidfile_for(socket_path).read_text().strip())
    except (OSError, ValueError):
        return None


def start_daemon(
    model_path: str | os.PathLike,
    socket_path: str | os.PathLike,
    workers: int = DEFAULT_WORKERS,
    http_port: int | None = None,
    log_path: str | os.PathLike | None = None,
    ready_timeout: float = 60.0,
    tcp: "str | tuple[str, int] | None" = None,
    query_db: str | os.PathLike | None = None,
    log_json: bool = False,
) -> int:
    """Start a detached daemon and wait until it answers ``ping``.

    Double-forks (so the daemon is reparented to init and never
    zombies), points stdout/stderr at ``log_path`` (default: the socket
    path + ``.log``), and blocks until the daemon is ready or
    ``ready_timeout`` elapses.  Returns the daemon's supervisor pid.

    Raises :class:`DaemonStartupError` — with the tail of the log file,
    which is where load failures such as a corrupt or version-mismatched
    artifact land — when the socket is taken, the daemon dies, or it
    misses the deadline.
    """
    from repro.store.client import DaemonClient, DaemonError

    if tcp is not None:
        parse_tcp_spec(tcp)  # fail in the caller, not the detached child
    socket_path = Path(socket_path)
    log_path = Path(log_path) if log_path else socket_path.with_name(
        socket_path.name + ".log"
    )
    # A daemon already answering on this socket would also answer our
    # readiness ping, masking the new daemon's bind failure — refuse
    # up front so "start" can never falsely report the old daemon as
    # serving the new model.
    try:
        with DaemonClient(socket_path, timeout=2.0) as probe:
            probe.ping()
    except DaemonError:
        pass  # nothing live on the socket; proceed
    else:
        raise DaemonStartupError(
            f"another daemon is already serving on {socket_path}; "
            "stop it first (repro serve stop) or pick another socket"
        )
    # Only log lines written after this point belong to this start.
    log_offset = log_path.stat().st_size if log_path.exists() else 0
    first = os.fork()
    if first == 0:
        os.setsid()
        second = os.fork()
        if second:
            os._exit(0)  # middle process: exit so the daemon reparents
        try:
            log = open(log_path, "ab", buffering=0)
            devnull = open(os.devnull, "rb")
            os.dup2(devnull.fileno(), 0)
            os.dup2(log.fileno(), 1)
            os.dup2(log.fileno(), 2)
            # Rebind the high-level streams over the redirected fds:
            # the inherited sys.stderr may wrap a captured/duplicated
            # fd (pytest, supervisors) instead of fd 2.
            sys.stdout = open(1, "w", buffering=1, closefd=False)
            sys.stderr = open(2, "w", buffering=1, closefd=False)
            code = ServingDaemon(
                model_path, socket_path, workers=workers,
                http_port=http_port, tcp=tcp, query_db=query_db,
                log_json=log_json,
            ).run()
        except BaseException as error:  # noqa: BLE001 - report then die
            print(f"daemon failed: {error!r}", file=sys.stderr, flush=True)
            code = 1
        os._exit(code)
    os.waitpid(first, 0)  # reap the middle process immediately

    def log_tail() -> str:
        """This start's log lines only (the file is append-mode and may
        carry a previous failed start's last words)."""
        try:
            with open(log_path) as handle:
                handle.seek(log_offset)
                return handle.read()[-2000:]
        except OSError:
            return ""

    deadline = time.time() + ready_timeout
    while time.time() < deadline:
        try:
            with DaemonClient(socket_path, timeout=5.0) as client:
                if client.ping():
                    pid = read_pid(socket_path)
                    assert pid is not None, "daemon is up but left no pidfile"
                    return pid
        except DaemonError:
            # Died at boot (corrupt / version-mismatched artifact, bad
            # socket path)?  The grandchild's last words are in the log.
            if "daemon failed:" in log_tail():
                raise DaemonStartupError(
                    f"daemon on {socket_path} died during startup; "
                    f"log tail:\n{log_tail()}"
                ) from None
            time.sleep(0.1)
    raise DaemonStartupError(
        f"daemon on {socket_path} did not become ready within "
        f"{ready_timeout:.0f}s; log tail:\n{log_tail()}"
    )


def signal_daemon(socket_path: str | os.PathLike, signum: int) -> int:
    """Send ``signum`` to the daemon's supervisor; returns its pid.

    Raises :class:`DaemonNotRunningError` when no pidfile exists or the
    recorded process is gone (stale pidfile).
    """
    pid = read_pid(socket_path)
    if pid is None:
        raise DaemonNotRunningError(
            f"no daemon pidfile for socket {socket_path} "
            f"(expected {pidfile_for(socket_path)})"
        )
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        raise DaemonNotRunningError(
            f"daemon pid {pid} recorded for {socket_path} is not running "
            "(stale pidfile?)"
        ) from None
    return pid


def stop_daemon(
    socket_path: str | os.PathLike, timeout: float = 30.0
) -> int:
    """Gracefully stop the daemon on ``socket_path``; returns its pid.

    Sends ``SIGTERM`` and waits until the pidfile disappears (the last
    thing a clean shutdown removes).  Raises
    :class:`DaemonNotRunningError` when nothing is running and
    :class:`DaemonStopTimeout` when the daemon ignores the deadline.
    """
    pid = signal_daemon(socket_path, signal.SIGTERM)
    deadline = time.time() + timeout
    pidfile = pidfile_for(socket_path)
    while time.time() < deadline:
        if not pidfile.exists():
            return pid
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid  # died without cleanup; stale files, but stopped
        time.sleep(0.05)
    raise DaemonStopTimeout(
        f"daemon pid {pid} did not stop within {timeout:.0f}s"
    )
