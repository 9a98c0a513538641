"""Daemon traffic: warm-up, the open-loop phase and the closed-loop phase.

The open loop models independent crawler threads: requests are due on
a fixed schedule whether or not earlier ones have been answered, and
each latency is timed from its due time.  The closed loop models
callers that each wait for their reply, which measures capacity.
Every answer is checked against the in-process oracle after the phase.
"""

from __future__ import annotations

import asyncio
import itertools
from time import perf_counter

from drive import HttpConnection, rows_match, wire_rows
from harness import OpenLoop, Outcomes

#: Width of the windows phase (b) counts its throughput in.
WINDOW_S = 0.5

#: Pause between phases, so a worker has released the previous phase's
#: connection before the next phase dials (a worker holds one at a time).
SETTLE_S = 0.1


def _check(outcomes: Outcomes, oracle: dict, batch, response, what: str) -> bool:
    if isinstance(response, BaseException):
        outcomes.record(False, f"{what}: {response!r}")
        return False
    ok = rows_match(oracle, batch, wire_rows(response))
    outcomes.record(ok, f"{what}: answer differs from in-process predict")
    return ok


async def warm(tcp, batches, connections: int) -> None:
    """Send ``batches`` over each of ``connections`` connections, one
    per worker, so every worker's row memo holds the pool."""
    from repro.store.client import AsyncDaemonClient

    async def one() -> None:
        async with AsyncDaemonClient(tcp) as client:
            for batch in batches:
                await client.request("classify", urls=batch)

    await asyncio.gather(*(one() for _ in range(connections)))
    await asyncio.sleep(SETTLE_S)


async def _open_loop(send, batches, rate: float, count: int, start: float):
    """Fire ``count`` requests on schedule; ``(loop, [(i, done, answer)])``."""
    schedule = OpenLoop(rate, start)
    results: list = []

    async def fire(index: int) -> None:
        try:
            answer = await send(batches[index % len(batches)])
        except Exception as error:  # any failure is a failed operation
            answer = error
        results.append((index, perf_counter(), answer))

    tasks = []
    for index in range(count):
        delay = schedule.due(index) - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        schedule.sent(index, perf_counter())
        tasks.append(asyncio.ensure_future(fire(index)))
    await asyncio.gather(*tasks)
    return schedule, results


async def open_loop(tcp, http, oracle: dict, wire_batches, wire_rate: float,
                    http_batches, http_rate: float, seconds: float,
                    outcomes: Outcomes) -> dict:
    """Phase (a): wire ``classify`` over one keep-alive TCP connection
    and, beside it, HTTP ``POST /v1/classify`` over one keep-alive
    connection, both at fixed rates.  Returns latencies in seconds
    (failures excluded) and the generator's lateness."""
    from repro.store.client import AsyncDaemonClient

    client = AsyncDaemonClient(tcp)
    connection = HttpConnection(*http)

    async def wire_send(batch):
        return await client.request("classify", urls=batch)

    async def http_send(batch):
        status, body = await connection.post("/v1/classify", {"urls": batch})
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {body.get('error')}")
        return body

    start = perf_counter() + 0.05
    try:
        (wire, wire_results), (web, web_results) = await asyncio.gather(
            _open_loop(wire_send, wire_batches, wire_rate,
                       int(wire_rate * seconds), start),
            _open_loop(http_send, http_batches, http_rate,
                       int(http_rate * seconds), start),
        )
    finally:
        await client.aclose()
        await connection.close()
    for schedule, results, batches, what in (
        (wire, wire_results, wire_batches, "wire classify"),
        (web, web_results, http_batches, "http classify"),
    ):
        for index, done, answer in results:
            if _check(outcomes, oracle, batches[index % len(batches)],
                      answer, what):
                schedule.answered(index, done)
    await asyncio.sleep(SETTLE_S)
    return {
        "wire": wire.latencies,
        "http": web.latencies,
        "lateness": wire.lateness + web.lateness,
    }


async def closed_loop(tcp, oracle: dict, batches, seconds: float,
                      connections: int, outcomes: Outcomes) -> list[float]:
    """Phase (b): ``connections`` callers each send the next large batch
    as soon as the previous one is answered.  Returns correctly
    answered URLs per second in each :data:`WINDOW_S` window, so one
    stall on a shared host moves one window, not the whole phase."""
    from repro.store.client import AsyncDaemonClient

    order = itertools.count()
    results: list = []
    started = perf_counter()
    stop_at = started + seconds

    async def caller() -> None:
        async with AsyncDaemonClient(tcp) as client:
            sent = perf_counter()
            while sent < stop_at:
                batch = batches[next(order) % len(batches)]
                try:
                    answer = await client.request("classify", urls=batch)
                except Exception as error:  # a failed operation
                    answer = error
                done = perf_counter()
                results.append((sent, done, batch, answer))
                sent = done

    await asyncio.gather(*(caller() for _ in range(connections)))
    # Each answer's URLs are spread over the windows its round trip
    # overlapped, so window rates are not quantised to whole batches.
    windows = [0.0] * max(1, int(seconds / WINDOW_S))
    for sent, done, batch, answer in results:
        if not _check(outcomes, oracle, batch, answer,
                      "wire classify (closed)"):
            continue
        rate = len(batch) / (done - sent)
        for slot in range(len(windows)):
            low = started + slot * WINDOW_S
            overlap = min(done, low + WINDOW_S) - max(sent, low)
            if overlap > 0:
                windows[slot] += rate * overlap
    await asyncio.sleep(SETTLE_S)
    return [answered / WINDOW_S for answered in windows]
