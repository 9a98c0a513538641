"""Driving the program through its public entry points.

The daemon is started with ``repro.store.daemon.start_daemon`` and
spoken to through ``repro.store.client`` and its HTTP front-end; bulk
scoring runs ``repro.bulk.run``; both are launched from a fresh
interpreter (``launch.py``).
Answers are checked against in-process ``repro.api.open_model``.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from harness import TreeMemory, peak_rss_kb, process_tree

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Daemon and bulk worker processes (the box has 2 cores).
WORKERS = 2


# -- the oracle -------------------------------------------------------------------


def answers(identifier, urls) -> dict[str, tuple]:
    """``url -> (best code or None, positive codes)`` from in-process predict."""
    out = {}
    for start in range(0, len(urls), 1000):
        for prediction in identifier.predict(urls[start:start + 1000]):
            out[prediction.url] = (
                prediction.best.value if prediction.best is not None else None,
                tuple(language.value for language in prediction.positives),
            )
    return out


def rows_match(oracle: dict, urls, rows) -> bool:
    """Served rows ``(url, best, positives)`` equal the oracle's answers."""
    if len(rows) != len(urls):
        return False
    for url, (row_url, best, positives) in zip(urls, rows):
        if row_url != url or oracle.get(url) != (best, tuple(positives)):
            return False
    return True


# -- the daemon -------------------------------------------------------------------


#: Seconds a stopped process may take to exit.
EXIT_TIMEOUT_S = 30.0


def wait_gone(pid: int) -> None:
    """Block until ``pid`` has exited (gone, or a zombie awaiting its reaper)."""
    deadline = time.monotonic() + EXIT_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
                state = stream.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.01)
    raise TimeoutError(
        f"process {pid} did not exit within {EXIT_TIMEOUT_S:.0f}s")


class Daemon:
    """One serving daemon over unix, TCP and HTTP, in the work directory."""

    def __init__(self, artifact: Path, workdir: Path, name: str) -> None:
        self.artifact = artifact
        # Relative to the checkout root (the working directory), so the
        # unix socket path stays short wherever the checkout lives.
        self.socket = Path(os.path.relpath(workdir / f"{name}.sock"))
        self.pid: int | None = None
        self.tcp: tuple[str, int] | None = None
        self.http: tuple[str, int] | None = None

    def start(self, first_batch: list[str]) -> tuple[float, float, list]:
        """Launch, then answer one ``classify``.

        Returns ``(ready_s, setup_s, first answer)``: ``ready_s`` is
        ``start_daemon`` until it saw a ``ping`` answered; ``setup_s``
        runs from launching the program until the first ``classify``
        is answered.
        """
        from repro.store.client import DaemonClient

        started = time.perf_counter()
        launched = launch("serve", {
            "model": str(self.artifact), "socket": str(self.socket),
            "workers": WORKERS,
        })
        self.pid = launched["pid"]
        with DaemonClient(self.socket) as client:
            rows = client.classify(first_batch)
            setup = time.perf_counter() - started
            status = client.status()
        self.tcp = (status["tcp"]["host"], status["tcp"]["port"])
        self.http = ("127.0.0.1", status["http_port"])
        return launched["ready_s"], setup, rows

    def status(self) -> dict:
        from repro.store.client import DaemonClient

        with DaemonClient(self.socket) as client:
            return client.status()

    def peak_rss_mb(self) -> float:
        assert self.pid is not None
        return sum(peak_rss_kb(process_tree(self.pid)).values()) / 1024.0

    def stop(self) -> None:
        """Stop gracefully and wait until every daemon process has ended."""
        from repro.store.daemon import stop_daemon

        if self.pid is None:
            return
        tree = process_tree(self.pid)
        try:
            stop_daemon(self.socket)
        finally:
            for pid in tree:
                wait_gone(pid)
            self.pid = None

    def kill(self) -> None:
        """Last-resort teardown after a failed run."""
        if self.pid is None:
            return
        import signal

        tree = process_tree(self.pid)
        for pid in tree:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in tree:
            wait_gone(pid)
        self.pid = None


def served(rows) -> list[tuple]:
    return [(row.url, row.best, tuple(row.positives)) for row in rows]


def wire_rows(response: dict) -> list[tuple]:
    """Rows of a raw ``classify`` response (wire or HTTP body)."""
    return [
        (row["url"], row["best"], tuple(row["positives"]))
        for row in response["results"]
    ]


class HttpConnection:
    """A minimal HTTP/1.1 keep-alive client on the event loop.

    One connection, one request at a time, as a crawler's HTTP client
    would hold it; the daemon's front-end answers ``POST /v1/classify``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader = self._writer = None
        self._lock = asyncio.Lock()

    async def post(self, path: str, payload: dict) -> tuple[int, dict]:
        async with self._lock:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            body = json.dumps(payload).encode("utf-8")
            self._writer.write(
                f"POST {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
            )
            await self._writer.drain()
            status = int((await self._reader.readline()).split()[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            return status, json.loads(await self._reader.readexactly(length))

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None


# -- bulk -------------------------------------------------------------------------


def launch(command: str, spec: dict) -> dict:
    """Run ``launch.py command`` and return its JSON line.  A ``bulk``
    run's processes all end with it, so its result also carries the
    summed peak RSS of its process tree, sampled while it ran; the
    daemon outlives its launcher and is read by ``Daemon.peak_rss_mb``."""
    spec = {"src": str(SRC), **spec}
    process = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), command, json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    tree = TreeMemory(process.pid) if command == "bulk" else None
    try:
        with tree or nullcontext():
            stdout, stderr = process.communicate(timeout=150)
    except BaseException:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(
            f"launch {command} failed ({process.returncode}): "
            f"{stderr.decode()[-800:]}"
        )
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    if tree is not None:
        result["rss_mb"] = tree.total_mb
    return result


def run_bulk(artifact: Path, shards: Path, output: Path, sink: str) -> dict:
    """One ``bulk.run`` in a fresh process: its report, plus ``setup_s``
    (launch to the ``run-start`` event), the process tree's summed peak
    RSS, the run's events and its manifest."""
    launched = time.time()
    report = launch("bulk", {
        "model": str(artifact), "input": str(shards), "output": str(output),
        "workers": WORKERS, "sink": sink,
    })
    with open(output / "events.jsonl", encoding="utf-8") as stream:
        events = [json.loads(line) for line in stream]
    run_start = next(event for event in events if event["event"] == "run-start")
    report["setup_s"] = run_start["ts"] - launched
    report["events"] = events
    with open(output / "manifest.json", encoding="utf-8") as stream:
        report["manifest"] = json.load(stream)
    return report
