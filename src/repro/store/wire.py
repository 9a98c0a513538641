"""The serving wire protocol: length-prefixed JSON frames.

Both sides of the serving daemon — :mod:`repro.store.daemon` on the
listening end, :mod:`repro.store.client` on the calling end — speak one
framing over a stream socket (Unix domain by default):

.. code-block:: text

    offset 0   frame length   uint32 big-endian   (4 bytes)
    offset 4   deadline       uint64 big-endian   (8 bytes, optional)
    ...        correlation    uint32 big-endian   (4 bytes, optional)
    ...        trace          16-byte id + uint32 span (20 bytes, optional)
    ...        body           UTF-8 JSON          (length bytes)

The top bits of the length word are flags, not part of the length
(safe because :data:`MAX_FRAME_BYTES` is far below 2\\ :sup:`30`).
Bit 31 (:data:`DEADLINE_FLAG`): an 8-byte big-endian *deadline* field —
the milliseconds of budget the sender grants this request — precedes
the body.  Receivers convert the budget to their own monotonic clock on
arrival, so nothing on the wire depends on clocks agreeing across
hosts.  Bit 30 (:data:`CORRELATION_FLAG`): a 4-byte big-endian
*correlation id* follows the deadline field (or the length word when no
deadline is present).  A server echoes a request's correlation id on
the matching response frame, which is what lets a client pipeline many
requests down one keep-alive connection and pair the strictly-ordered
responses back to their callers without guessing.  Bit 29
(:data:`TRACE_FLAG`): a *trace* field follows the correlation id — 16
raw bytes of trace id plus a 4-byte big-endian span id — tying the
frame to a distributed trace.  A server echoes the request's trace id
on the response (stamping its own span id), and records a per-stage
span in its ring buffer (see :mod:`repro.obs`), whichever of its
processes answered.  Frames without any flag are byte-identical to the
original protocol, which is why none of these fields is a
:data:`PROTOCOL_VERSION` bump.

A *request* body is an object with at least ``{"v": 1, "op": <name>}``;
op-specific fields (``urls`` for the batch ops) ride alongside.  A
*response* body is ``{"v": 1, "ok": true, ...}`` on success or
``{"v": 1, "ok": false, "error": {"code", "message"}}`` on failure.
One connection carries any number of request/response pairs, strictly
in order; either side closes by half-closing the stream.

Error codes are a closed set (:data:`ERROR_CODES`) so operators can
alert on them, split into *retryable* (:data:`RETRYABLE_CODES` — the
daemon refused or abandoned the request without doing the work, so an
idempotent retry is safe and useful) and *terminal* (everything else —
retrying the same request can only fail the same way).
``docs/serving.md`` is the authoritative prose spec and must list
every code here.

One encoder (:func:`encode_frame`) writes every frame, and one decoder
reads every frame: the blocking :func:`recv_frame_ex` and the asyncio
:func:`read_frame_async` each read the length word, then the rest of
the frame in one read, and hand both to the same decoding step.  So
the daemon, the blocking client and the asyncio client cannot disagree
on a single byte of the grammar.

This module is dependency-free on purpose: the framing helpers are the
*only* code shared between daemon and client, so a thin client can be
vendored without pulling in the fork/signal machinery.
"""

from __future__ import annotations

import dataclasses
import json
import socket
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle / cost avoidance
    import asyncio

#: Version of the request/response schema (independent of the artifact
#: :data:`~repro.store.format.FORMAT_VERSION`).  Bump on incompatible
#: changes; both sides refuse frames from a version they do not speak.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's body, enforced by both sides before
#: reading the body.  32 MiB comfortably fits ~200k URLs per batch while
#: bounding what a misbehaving peer can make us buffer.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: The closed set of ``error.code`` values a daemon may return.
ERROR_CODES = (
    "bad-request",        # body is not a JSON object of the expected shape
    "frame-too-large",    # a request or response body exceeds MAX_FRAME_BYTES
    "protocol-version",   # request "v" does not match PROTOCOL_VERSION
    "unknown-op",         # "op" is not one of the served operations
    "overloaded",         # every worker is busy; request refused unstarted
    "deadline-exceeded",  # the request's deadline expired before completion
    "shutting-down",      # daemon received the request mid-shutdown
    "internal",           # unexpected server-side failure (see daemon log)
)

#: Codes for which the daemon did no (or abandoned-able) work, so an
#: *idempotent* request may be safely retried with backoff.  Notably
#: absent: ``deadline-exceeded`` — the caller's budget is spent, so a
#: retry would expire the same way — and ``bad-request`` — the same
#: bytes can only be rejected again.
RETRYABLE_CODES = frozenset({"overloaded", "shutting-down"})

#: Bit 31 of the length word marks a deadline field in the frame
#: header.  MAX_FRAME_BYTES (32 MiB) is far below 2**31, so the bit is
#: never part of a genuine length.
DEADLINE_FLAG = 0x8000_0000

#: Widest deadline the header can carry (uint64 milliseconds — in
#: practice "no deadline" should be expressed by omitting the field).
MAX_DEADLINE_MS = (1 << 64) - 1

#: Bit 30 of the length word marks a correlation-id field in the frame
#: header: 4 bytes big-endian after the (optional) deadline field.  A
#: response echoes its request's id so pipelined frames on a keep-alive
#: connection can be paired without relying on counting alone.
CORRELATION_FLAG = 0x4000_0000

#: Widest correlation id the header can carry (uint32).  Clients that
#: wrap simply reuse ids no longer in flight.
MAX_CORRELATION_ID = (1 << 32) - 1

#: Bit 29 of the length word marks a trace field in the frame header:
#: 16 raw bytes of trace id followed by a 4-byte big-endian span id,
#: after the (optional) deadline and correlation fields.  A response
#: echoes its request's trace id with the server's own span id, so one
#: trace id names the whole client → daemon → worker hop on both wires.
TRACE_FLAG = 0x2000_0000

#: Exact byte width of the trace id on the wire (hex-encoded to a
#: 32-character string at the API surface).
TRACE_ID_BYTES = 16

#: Widest span id the header can carry (uint32).
MAX_SPAN_ID = (1 << 32) - 1

#: Every header bit that is a flag rather than length.
_FLAG_MASK = DEADLINE_FLAG | CORRELATION_FLAG | TRACE_FLAG


class WireError(Exception):
    """Base class for every wire-level failure (framing, protocol)."""


class FrameTooLargeError(WireError):
    """A frame announced a body longer than :data:`MAX_FRAME_BYTES`."""


class ConnectionClosed(WireError):
    """The peer closed the stream mid-frame (or before one started)."""

    def __init__(self, message: str = "connection closed by peer",
                 clean: bool = False) -> None:
        super().__init__(message)
        #: True when the close landed on a frame boundary — the normal
        #: end of a conversation, not a truncation.
        self.clean = clean


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`.

    The raised error's ``clean`` flag is True when the peer closed
    before sending *any* of the ``n`` bytes — a boundary, not a
    truncation.  Callers mid-frame must override it to False.

    EINTR: :pep:`475` makes ``recv`` retry interrupted syscalls
    transparently, but a signal *handler* that raises (the daemon's
    drain handlers are flag-setters, third-party handlers may not be)
    surfaces ``InterruptedError`` anyway — so the loop retries it
    explicitly rather than tearing a frame over a signal.  A
    ``socket.timeout`` is never swallowed: half a frame after the
    peer's send deadline means the peer is gone or wedged.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except InterruptedError:
            continue
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {n} bytes outstanding",
                clean=(remaining == n),
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_all(sock: socket.socket, payload: bytes) -> None:
    """``sendall`` with explicit EINTR recovery.

    ``sendall`` retries EINTR internally (:pep:`475`) but, if a raising
    signal handler interrupts it anyway, gives no way to learn how many
    bytes already left — resuming with another ``sendall`` of the whole
    payload would corrupt the stream with a torn frame.  Sending
    ``send`` chunk by chunk keeps the offset in our hands, so an
    ``InterruptedError`` resumes exactly where it stopped.  Any *other*
    send failure leaves the stream unrecoverable mid-frame; callers
    must close the connection, never reuse it.
    """
    view = memoryview(payload)
    sent = 0
    while sent < len(view):
        try:
            sent += sock.send(view[sent:])
        except InterruptedError:
            continue


@dataclasses.dataclass(frozen=True, slots=True)
class Frame:
    """One decoded frame: body plus every optional header field."""

    message: dict
    deadline_ms: int | None = None
    correlation_id: int | None = None
    #: Hex-encoded 16-byte trace id (32 lowercase hex chars) or None.
    trace_id: str | None = None
    #: The sender's span id within the trace (uint32) or None.
    span_id: int | None = None


def _trace_field(trace_id: str, span_id: int | None) -> bytes:
    """Validate and pack the 20-byte trace field."""
    try:
        raw = bytes.fromhex(trace_id)
    except (TypeError, ValueError):
        raise WireError(f"trace id {trace_id!r} is not hex") from None
    if len(raw) != TRACE_ID_BYTES:
        raise WireError(
            f"trace id must be {TRACE_ID_BYTES} bytes, got {len(raw)}"
        )
    span = 0 if span_id is None else int(span_id)
    if not 0 <= span <= MAX_SPAN_ID:
        raise WireError(f"span id {span_id!r} outside uint32 range")
    return raw + span.to_bytes(4, "big")


def encode_frame(message: dict, deadline_ms: int | None = None,
                 correlation_id: int | None = None,
                 trace_id: str | None = None,
                 span_id: int | None = None) -> bytes:
    """Encode ``message`` plus optional header fields into wire bytes.

    This is the single encoder both the blocking sender
    (:func:`send_message`) and the asyncio client share, so the two
    stacks cannot drift apart byte-wise.
    """
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"outgoing frame is {len(body)} bytes; limit {MAX_FRAME_BYTES}"
        )
    word = len(body)
    tail = b""
    if deadline_ms is not None:
        word |= DEADLINE_FLAG
        budget = max(0, min(int(deadline_ms), MAX_DEADLINE_MS))
        tail += budget.to_bytes(8, "big")
    if correlation_id is not None:
        if not 0 <= int(correlation_id) <= MAX_CORRELATION_ID:
            raise WireError(
                f"correlation id {correlation_id!r} outside uint32 range"
            )
        word |= CORRELATION_FLAG
        tail += int(correlation_id).to_bytes(4, "big")
    if trace_id is not None:
        word |= TRACE_FLAG
        tail += _trace_field(trace_id, span_id)
    return word.to_bytes(4, "big") + tail + body


def send_message(sock: socket.socket, message: dict,
                 deadline_ms: int | None = None,
                 correlation_id: int | None = None,
                 trace_id: str | None = None,
                 span_id: int | None = None) -> None:
    """Frame ``message`` as length-prefixed JSON and send it whole.

    ``deadline_ms`` (request frames only) grants the receiver that many
    milliseconds of budget, carried in the frame header so the server
    can refuse or abandon work the caller will no longer wait for.
    ``correlation_id`` tags the frame so pipelined responses can be
    paired with their requests; servers echo it back verbatim.
    ``trace_id``/``span_id`` tie the frame to a distributed trace;
    servers echo the trace id with their own span id on the response.
    """
    _send_all(
        sock,
        encode_frame(message, deadline_ms, correlation_id,
                     trace_id=trace_id, span_id=span_id),
    )


def _header_layout(prefix: bytes) -> tuple[int, int]:
    """Split the length word: ``(word, bytes still to read)`` — the
    optional header fields its flags announce, then the body."""
    word = int.from_bytes(prefix, "big")
    length = word & ~_FLAG_MASK
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"incoming frame announces {length} bytes; limit {MAX_FRAME_BYTES}"
        )
    if word & DEADLINE_FLAG:
        length += 8
    if word & CORRELATION_FLAG:
        length += 4
    if word & TRACE_FLAG:
        length += TRACE_ID_BYTES + 4
    return word, length


def _decode_frame(word: int, rest: bytes) -> Frame:
    """Decode the header fields ``word`` announces, then the body, from
    ``rest`` (every byte of the frame after the length word).

    The body is decoded straight out of ``rest`` through a view, so a
    frame's bytes are copied once, by the read that fetched them.
    """
    at = 0
    deadline_ms: int | None = None
    correlation_id: int | None = None
    trace_id: str | None = None
    span_id: int | None = None
    if word & DEADLINE_FLAG:
        deadline_ms = int.from_bytes(rest[:8], "big")
        at = 8
    if word & CORRELATION_FLAG:
        correlation_id = int.from_bytes(rest[at:at + 4], "big")
        at += 4
    if word & TRACE_FLAG:
        trace_id = rest[at:at + TRACE_ID_BYTES].hex()
        at += TRACE_ID_BYTES
        span_id = int.from_bytes(rest[at:at + 4], "big")
        at += 4
    message = decode_body(memoryview(rest)[at:])
    return Frame(message, deadline_ms, correlation_id, trace_id, span_id)


def decode_body(body: bytes | memoryview) -> dict:
    """The JSON object a request body carries, a wire frame's or an
    HTTP POST's; :class:`WireError` for any body that is not one."""
    try:
        message = json.loads(str(body, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as error:  # nested past the parser's stack
        raise WireError(f"body is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise WireError(
            f"body must be a JSON object, got {type(message).__name__}"
        )
    return message


def recv_frame_ex(sock: socket.socket) -> Frame:
    """Read one frame with every optional header field decoded.

    Two reads: the length word, then the rest of the frame in one go.
    Raises :class:`ConnectionClosed` (with ``clean=True`` when the close
    landed exactly on a frame boundary), :class:`FrameTooLargeError` on
    an oversized announcement, or :class:`WireError` on a body that is
    not a JSON object.
    """
    # clean=True if the peer closed on the boundary.
    word, remaining = _header_layout(_recv_exact(sock, 4))
    try:
        rest = _recv_exact(sock, remaining)
    except ConnectionClosed as error:
        error.clean = False  # the frame had started; this is a truncation
        raise
    return _decode_frame(word, rest)


async def read_frame_async(reader: "asyncio.StreamReader") -> Frame:
    """Asyncio twin of :func:`recv_frame_ex` over a ``StreamReader``.

    Maps ``IncompleteReadError`` onto the same :class:`ConnectionClosed`
    semantics as the blocking reader: ``clean=True`` only when the close
    landed exactly on a frame boundary.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(4)
    except asyncio.IncompleteReadError as error:
        raise ConnectionClosed(
            "peer closed before a frame header",
            clean=not error.partial,
        ) from None
    word, remaining = _header_layout(prefix)
    try:
        rest = await reader.readexactly(remaining)
    except asyncio.IncompleteReadError:
        raise ConnectionClosed(
            "peer closed mid-frame", clean=False
        ) from None
    return _decode_frame(word, rest)


def error_response(code: str, message: str) -> dict:
    """A well-formed failure response (``code`` must be registered)."""
    assert code in ERROR_CODES, f"unregistered error code {code!r}"
    return {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def ok_response(**fields) -> dict:
    """A well-formed success response carrying ``fields``."""
    return {"v": PROTOCOL_VERSION, "ok": True, **fields}
