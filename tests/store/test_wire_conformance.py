"""Wire-protocol conformance and fuzz suite.

Table-driven checks over the frame grammar in
:mod:`repro.store.wire` — the closed error-code catalogue, the
deadline and correlation-id header fields, oversized / zero-length /
truncated frames — plus seeded byte-level fuzz loops asserting the
decoders *always* finish promptly with either a decoded frame or a
typed :class:`WireError`: never a hang, never an unbounded buffer,
never a raw ``struct``/``json``/``Unicode`` error escaping the module.

The sync (:func:`recv_frame_ex`) and asyncio
(:func:`read_frame_async`) decoders are held to byte-identical
behaviour over the same inputs, since keep-alive multiplexing relies
on both ends agreeing on every framing corner case.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import socket

import pytest

from repro.store.wire import (
    CORRELATION_FLAG,
    DEADLINE_FLAG,
    ERROR_CODES,
    MAX_CORRELATION_ID,
    MAX_DEADLINE_MS,
    MAX_FRAME_BYTES,
    MAX_SPAN_ID,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    TRACE_FLAG,
    TRACE_ID_BYTES,
    ConnectionClosed,
    Frame,
    FrameTooLargeError,
    WireError,
    encode_frame,
    error_response,
    ok_response,
    read_frame_async,
    recv_frame,
    recv_frame_ex,
    send_message,
)

#: Every decode in this suite must finish well inside this bound; a
#: decoder that blocks on absent bytes would hang the whole suite.
DECODE_TIMEOUT = 10.0


def decode_bytes(payload: bytes) -> Frame:
    """Run the blocking decoder over ``payload`` followed by EOF."""
    a, b = socket.socketpair()
    with a, b:
        a.sendall(payload)
        a.close()
        b.settimeout(DECODE_TIMEOUT)
        return recv_frame_ex(b)


def decode_bytes_async(payload: bytes) -> Frame:
    """Run the asyncio decoder over ``payload`` followed by EOF."""

    async def run() -> Frame:
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        return await asyncio.wait_for(
            read_frame_async(reader), DECODE_TIMEOUT
        )

    return asyncio.run(run())


def frame_bytes(message: dict, deadline_ms=None, correlation_id=None,
                length=None, trace_id=None, span_id=0) -> bytes:
    """Hand-rolled frame encoding, independent of :func:`encode_frame`,
    so encoder and decoder are checked against the spec rather than
    against each other.  ``length`` overrides the announced length."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    word = len(body) if length is None else length
    tail = b""
    if deadline_ms is not None:
        word |= DEADLINE_FLAG
        tail += deadline_ms.to_bytes(8, "big")
    if correlation_id is not None:
        word |= CORRELATION_FLAG
        tail += correlation_id.to_bytes(4, "big")
    if trace_id is not None:
        word |= TRACE_FLAG
        tail += bytes.fromhex(trace_id) + span_id.to_bytes(4, "big")
    return word.to_bytes(4, "big") + tail + body


# -- the frame grammar -------------------------------------------------------------


class TestFrameGrammar:
    def test_flagless_frame_is_byte_identical_to_legacy(self):
        """No deadline, no correlation id → the original protocol's
        exact bytes (which is why neither field bumps the version)."""
        message = {"v": 1, "op": "ping"}
        body = json.dumps(message, separators=(",", ":")).encode()
        assert encode_frame(message) == len(body).to_bytes(4, "big") + body

    def test_roundtrip_plain(self):
        frame = decode_bytes(encode_frame({"op": "ping", "v": 1}))
        assert frame == Frame({"op": "ping", "v": 1}, None, None)

    def test_roundtrip_deadline(self):
        frame = decode_bytes(encode_frame({"op": "x"}, deadline_ms=1500))
        assert frame.deadline_ms == 1500
        assert frame.correlation_id is None

    def test_roundtrip_correlation_id(self):
        frame = decode_bytes(encode_frame({"op": "x"}, correlation_id=7))
        assert frame.correlation_id == 7
        assert frame.deadline_ms is None

    def test_roundtrip_both_fields(self):
        frame = decode_bytes(
            encode_frame({"op": "x"}, deadline_ms=250, correlation_id=41)
        )
        assert (frame.deadline_ms, frame.correlation_id) == (250, 41)

    def test_header_field_order_deadline_then_cid(self):
        """The deadline field precedes the correlation id; a
        spec-encoded frame decodes to the right fields (not swapped)."""
        raw = frame_bytes({"op": "x"}, deadline_ms=9, correlation_id=5)
        word = int.from_bytes(raw[:4], "big")
        assert word & DEADLINE_FLAG and word & CORRELATION_FLAG
        assert raw[4:12] == (9).to_bytes(8, "big")
        assert raw[12:16] == (5).to_bytes(4, "big")
        assert decode_bytes(raw) == Frame({"op": "x"}, 9, 5)

    def test_encoder_matches_hand_rolled_spec_encoding(self):
        for deadline_ms, correlation_id in (
            (None, None), (1000, None), (None, 3), (77, 12),
        ):
            assert encode_frame(
                {"op": "y"}, deadline_ms, correlation_id
            ) == frame_bytes({"op": "y"}, deadline_ms, correlation_id)

    def test_negative_deadline_clamps_to_zero(self):
        frame = decode_bytes(encode_frame({"op": "x"}, deadline_ms=-5))
        assert frame.deadline_ms == 0

    def test_huge_deadline_clamps_to_max(self):
        frame = decode_bytes(
            encode_frame({"op": "x"}, deadline_ms=MAX_DEADLINE_MS * 10)
        )
        assert frame.deadline_ms == MAX_DEADLINE_MS

    @pytest.mark.parametrize("cid", [0, 1, MAX_CORRELATION_ID])
    def test_correlation_id_boundaries_roundtrip(self, cid):
        assert decode_bytes(
            encode_frame({"op": "x"}, correlation_id=cid)
        ).correlation_id == cid

    @pytest.mark.parametrize("cid", [-1, MAX_CORRELATION_ID + 1])
    def test_correlation_id_out_of_range_refused_at_encode(self, cid):
        with pytest.raises(WireError, match="uint32"):
            encode_frame({"op": "x"}, correlation_id=cid)

    def test_recv_frame_keeps_the_historical_two_field_shape(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"op": "x"}, deadline_ms=40, correlation_id=2)
            b.settimeout(DECODE_TIMEOUT)
            assert recv_frame(b) == ({"op": "x"}, 40)

    def test_frame_is_immutable(self):
        frame = Frame({"op": "x"}, 1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.deadline_ms = 9

    def test_unicode_body_roundtrips(self):
        message = {"op": "classify", "urls": ["http://bücher.de/€"]}
        assert decode_bytes(encode_frame(message)).message == message

    def test_pipelined_frames_decode_in_order_with_their_ids(self):
        """Several frames back to back on one stream — the keep-alive
        case — decode strictly in order, each with its own id."""
        a, b = socket.socketpair()
        with a, b:
            for cid in (3, 1, 2):
                send_message(a, {"op": "ping", "cid": cid},
                             correlation_id=cid)
            b.settimeout(DECODE_TIMEOUT)
            for expected in (3, 1, 2):
                frame = recv_frame_ex(b)
                assert frame.correlation_id == expected
                assert frame.message["cid"] == expected

    def test_flag_bits_do_not_shrink_the_length_budget(self):
        """MAX_FRAME_BYTES must leave every flag bit clear."""
        for flag in (DEADLINE_FLAG, CORRELATION_FLAG, TRACE_FLAG):
            assert MAX_FRAME_BYTES & flag == 0
        assert MAX_FRAME_BYTES < min(
            DEADLINE_FLAG, CORRELATION_FLAG, TRACE_FLAG
        )

    def test_flag_bits_are_distinct(self):
        assert len({DEADLINE_FLAG, CORRELATION_FLAG, TRACE_FLAG}) == 3
        assert DEADLINE_FLAG | CORRELATION_FLAG | TRACE_FLAG == 0xE000_0000


TRACE_ID = "00112233445566778899aabbccddeeff"


class TestTraceField:
    def test_traceless_frames_stay_byte_identical(self):
        """A client that never traces emits exactly the old bytes —
        the no-version-bump compatibility contract."""
        for deadline_ms, correlation_id in (
            (None, None), (1000, None), (None, 3), (77, 12),
        ):
            assert encode_frame(
                {"op": "y"}, deadline_ms, correlation_id
            ) == frame_bytes({"op": "y"}, deadline_ms, correlation_id)

    def test_trace_roundtrip(self):
        frame = decode_bytes(
            encode_frame({"op": "x"}, trace_id=TRACE_ID, span_id=42)
        )
        assert frame.trace_id == TRACE_ID
        assert frame.span_id == 42
        assert frame.deadline_ms is None and frame.correlation_id is None

    def test_trace_roundtrip_async(self):
        frame = decode_bytes_async(
            encode_frame({"op": "x"}, trace_id=TRACE_ID, span_id=7)
        )
        assert (frame.trace_id, frame.span_id) == (TRACE_ID, 7)

    def test_encoder_matches_hand_rolled_trace_encoding(self):
        assert encode_frame(
            {"op": "y"}, 50, 9, trace_id=TRACE_ID, span_id=3
        ) == frame_bytes({"op": "y"}, 50, 9, trace_id=TRACE_ID, span_id=3)

    def test_header_field_order_deadline_cid_trace(self):
        raw = frame_bytes({"op": "x"}, deadline_ms=9, correlation_id=5,
                          trace_id=TRACE_ID, span_id=6)
        word = int.from_bytes(raw[:4], "big")
        assert word & DEADLINE_FLAG and word & CORRELATION_FLAG
        assert word & TRACE_FLAG
        assert raw[4:12] == (9).to_bytes(8, "big")
        assert raw[12:16] == (5).to_bytes(4, "big")
        assert raw[16:32] == bytes.fromhex(TRACE_ID)
        assert raw[32:36] == (6).to_bytes(4, "big")
        frame = decode_bytes(raw)
        assert frame == Frame({"op": "x"}, 9, 5, TRACE_ID, 6)

    def test_span_defaults_to_zero_when_omitted(self):
        frame = decode_bytes(encode_frame({"op": "x"}, trace_id=TRACE_ID))
        assert frame.span_id == 0

    def test_uppercase_trace_id_normalises_to_lowercase(self):
        frame = decode_bytes(
            encode_frame({"op": "x"}, trace_id=TRACE_ID.upper())
        )
        assert frame.trace_id == TRACE_ID

    @pytest.mark.parametrize("span", [0, 1, MAX_SPAN_ID])
    def test_span_id_boundaries_roundtrip(self, span):
        assert decode_bytes(
            encode_frame({"op": "x"}, trace_id=TRACE_ID, span_id=span)
        ).span_id == span

    @pytest.mark.parametrize("bad", [
        "short", "zz" * 16, TRACE_ID + "00", "", "g" * 32,
    ])
    def test_malformed_trace_id_refused_at_encode(self, bad):
        with pytest.raises(WireError, match="trace id"):
            encode_frame({"op": "x"}, trace_id=bad)

    @pytest.mark.parametrize("span", [-1, MAX_SPAN_ID + 1])
    def test_span_id_out_of_range_refused_at_encode(self, span):
        with pytest.raises(WireError, match="span id"):
            encode_frame({"op": "x"}, trace_id=TRACE_ID, span_id=span)

    def test_truncated_trace_field_is_dirty(self):
        full = encode_frame({"op": "x"}, trace_id=TRACE_ID, span_id=1)
        for cut in range(5, 4 + TRACE_ID_BYTES + 4):  # inside the field
            with pytest.raises(ConnectionClosed) as caught:
                decode_bytes(full[:cut])
            assert caught.value.clean is False

    def test_trace_rides_with_send_message(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"op": "x"}, trace_id=TRACE_ID, span_id=11)
            b.settimeout(DECODE_TIMEOUT)
            frame = recv_frame_ex(b)
            assert (frame.trace_id, frame.span_id) == (TRACE_ID, 11)


# -- the error-code catalogue ------------------------------------------------------


class TestErrorCatalogue:
    @pytest.mark.parametrize("code", ERROR_CODES)
    def test_every_code_roundtrips_in_a_wire_frame(self, code):
        response = error_response(code, f"scripted {code}")
        decoded = decode_bytes(encode_frame(response)).message
        assert decoded["v"] == PROTOCOL_VERSION
        assert decoded["ok"] is False
        assert decoded["error"]["code"] == code
        assert decoded["error"]["message"] == f"scripted {code}"

    def test_catalogue_is_closed_and_stable(self):
        """The closed set operators alert on; growing it is fine,
        renaming or dropping a code is a compatibility break."""
        assert set(ERROR_CODES) == {
            "bad-request", "frame-too-large", "protocol-version",
            "unknown-op", "overloaded", "deadline-exceeded",
            "shutting-down", "internal",
        }
        assert len(set(ERROR_CODES)) == len(ERROR_CODES)

    def test_retryable_codes_are_a_strict_subset(self):
        assert RETRYABLE_CODES < set(ERROR_CODES)
        assert RETRYABLE_CODES == {"overloaded", "shutting-down"}
        # Terminal by design: spent budgets and malformed requests.
        assert "deadline-exceeded" not in RETRYABLE_CODES
        assert "bad-request" not in RETRYABLE_CODES

    def test_unregistered_code_is_refused(self):
        with pytest.raises(AssertionError):
            error_response("no-such-code", "nope")

    def test_ok_response_shape(self):
        assert ok_response(pong=True) == {
            "v": PROTOCOL_VERSION, "ok": True, "pong": True,
        }


# -- decoder rejection paths -------------------------------------------------------


class TestDecoderRejections:
    def test_oversized_announcement_rejected_before_reading(self):
        """The decoder must refuse from the 4-byte word alone — no body
        bytes follow, yet it must not wait for them."""
        with pytest.raises(FrameTooLargeError):
            decode_bytes((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))

    @pytest.mark.parametrize(
        "flags", [DEADLINE_FLAG, CORRELATION_FLAG,
                  DEADLINE_FLAG | CORRELATION_FLAG],
    )
    def test_oversized_announcement_with_flags_rejected(self, flags):
        word = (MAX_FRAME_BYTES + 1) | flags
        with pytest.raises(FrameTooLargeError):
            decode_bytes(word.to_bytes(4, "big"))

    def test_zero_length_frame_is_typed_not_a_crash(self):
        with pytest.raises(WireError, match="not valid JSON"):
            decode_bytes((0).to_bytes(4, "big"))

    def test_clean_close_before_any_frame(self):
        with pytest.raises(ConnectionClosed) as caught:
            decode_bytes(b"")
        assert caught.value.clean is True

    def test_truncated_length_word_is_dirty(self):
        with pytest.raises(ConnectionClosed) as caught:
            decode_bytes(b"\x00\x00")
        assert caught.value.clean is False

    def test_truncated_body_is_dirty(self):
        payload = encode_frame({"op": "ping", "v": 1})
        with pytest.raises(ConnectionClosed) as caught:
            decode_bytes(payload[: len(payload) - 3])
        assert caught.value.clean is False

    def test_truncated_deadline_field_is_dirty(self):
        word = DEADLINE_FLAG | 2
        with pytest.raises(ConnectionClosed) as caught:
            decode_bytes(word.to_bytes(4, "big") + b"\x00\x00\x00")
        assert caught.value.clean is False

    def test_truncated_correlation_field_is_dirty(self):
        word = CORRELATION_FLAG | 2
        with pytest.raises(ConnectionClosed) as caught:
            decode_bytes(word.to_bytes(4, "big") + b"\x00")
        assert caught.value.clean is False

    def test_non_object_json_body_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            decode_bytes(frame_bytes([1, 2, 3]))

    def test_non_utf8_body_rejected(self):
        body = b"\xff\xfe\x00\x01"
        with pytest.raises(WireError, match="not valid JSON"):
            decode_bytes(len(body).to_bytes(4, "big") + body)

    def test_non_json_body_rejected(self):
        body = b"not json at all"
        with pytest.raises(WireError, match="not valid JSON"):
            decode_bytes(len(body).to_bytes(4, "big") + body)

    def test_oversized_outgoing_body_refused_at_encode(self):
        message = {"blob": "x" * (MAX_FRAME_BYTES + 16)}
        with pytest.raises(FrameTooLargeError, match="outgoing"):
            encode_frame(message)

    def test_every_rejection_is_a_wire_error(self):
        """The exception taxonomy callers rely on for retry decisions."""
        assert issubclass(FrameTooLargeError, WireError)
        assert issubclass(ConnectionClosed, WireError)


# -- sync/async decoder parity -----------------------------------------------------


#: Inputs every decoder must treat identically: (payload, expectation).
#: ``expectation`` is a Frame for valid inputs or the required
#: exception type for invalid ones.
PARITY_TABLE = [
    ("plain", encode_frame({"op": "ping", "v": 1}),
     Frame({"op": "ping", "v": 1})),
    ("deadline", encode_frame({"op": "x"}, deadline_ms=123),
     Frame({"op": "x"}, 123)),
    ("cid", encode_frame({"op": "x"}, correlation_id=9),
     Frame({"op": "x"}, None, 9)),
    ("both", encode_frame({"op": "x"}, deadline_ms=1, correlation_id=2),
     Frame({"op": "x"}, 1, 2)),
    ("trace", encode_frame({"op": "x"}, trace_id="ab" * 16, span_id=4),
     Frame({"op": "x"}, None, None, "ab" * 16, 4)),
    ("all-fields", encode_frame({"op": "x"}, deadline_ms=1,
                                correlation_id=2, trace_id="cd" * 16,
                                span_id=8),
     Frame({"op": "x"}, 1, 2, "cd" * 16, 8)),
    ("torn-trace",
     encode_frame({"op": "x"}, trace_id="ab" * 16)[:10],
     ConnectionClosed),
    ("eof", b"", ConnectionClosed),
    ("torn-header", b"\x00\x00\x01", ConnectionClosed),
    ("torn-body", encode_frame({"op": "ping"})[:-2], ConnectionClosed),
    ("oversized", (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
     FrameTooLargeError),
    ("zero-length", (0).to_bytes(4, "big"), WireError),
    ("non-object", frame_bytes("just a string"), WireError),
]


class TestSyncAsyncParity:
    @pytest.mark.parametrize(
        "payload,expectation",
        [case[1:] for case in PARITY_TABLE],
        ids=[case[0] for case in PARITY_TABLE],
    )
    def test_decoders_agree(self, payload, expectation):
        for decode in (decode_bytes, decode_bytes_async):
            if isinstance(expectation, Frame):
                assert decode(payload) == expectation
            else:
                with pytest.raises(expectation):
                    decode(payload)

    def test_async_clean_flag_matches_sync(self):
        for payload, clean in ((b"", True), (b"\x01", False),
                               (encode_frame({"a": 1})[:-1], False)):
            for decode in (decode_bytes, decode_bytes_async):
                with pytest.raises(ConnectionClosed) as caught:
                    decode(payload)
                assert caught.value.clean is clean, (payload, decode)


# -- seeded byte-level fuzz --------------------------------------------------------


def assert_decodes_or_raises_typed(payload: bytes) -> None:
    """The fuzz invariant: both decoders finish promptly and anything
    they raise is a typed :class:`WireError` — no hangs (the
    ``DECODE_TIMEOUT`` guards in the helpers), no unbounded reads (the
    payload is all they ever get), no foreign exception types."""
    for decode in (decode_bytes, decode_bytes_async):
        try:
            frame = decode(payload)
        except WireError:
            continue
        assert isinstance(frame, Frame)


class TestFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_bytes_never_escape_the_taxonomy(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(200):
            payload = rng.randbytes(rng.randrange(0, 64))
            assert_decodes_or_raises_typed(payload)

    @pytest.mark.parametrize("seed", range(8))
    def test_mutated_valid_frames_never_escape(self, seed):
        """Bit-flip and splice corruptions of real frames — the
        likeliest on-the-wire damage shapes."""
        rng = random.Random(2000 + seed)
        base = encode_frame(
            {"op": "classify", "urls": ["http://example.de/seite"] * 3,
             "v": 1},
            deadline_ms=1500, correlation_id=77,
        )
        for _ in range(200):
            corrupted = bytearray(base)
            for _ in range(rng.randrange(1, 5)):
                corrupted[rng.randrange(len(corrupted))] ^= (
                    1 << rng.randrange(8)
                )
            if rng.random() < 0.5:
                corrupted = corrupted[: rng.randrange(len(corrupted) + 1)]
            assert_decodes_or_raises_typed(bytes(corrupted))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_header_words_never_escape(self, seed):
        """All 32 header-word bit patterns' neighbourhoods: random
        words (flags included) over a short random tail."""
        rng = random.Random(3000 + seed)
        for _ in range(200):
            word = rng.getrandbits(32)
            tail = rng.randbytes(rng.randrange(0, 32))
            assert_decodes_or_raises_typed(word.to_bytes(4, "big") + tail)

    def test_every_truncation_point_of_a_full_frame(self):
        """Deterministic sweep: a frame with every header field cut at
        *each* byte offset must raise ``ConnectionClosed`` — clean only
        at offset zero — and never anything untyped."""
        payload = encode_frame(
            {"op": "decisions", "urls": ["http://a.fr/page"]},
            deadline_ms=2000, correlation_id=5,
        )
        for cut in range(len(payload)):
            with pytest.raises(ConnectionClosed) as caught:
                decode_bytes(payload[:cut])
            assert caught.value.clean is (cut == 0), cut
        assert decode_bytes(payload).correlation_id == 5

    def test_fuzz_decode_is_bounded_memory(self):
        """A frame announcing the full 32 MiB with no body must fail on
        EOF without ever allocating the announced size (the decoder
        reads at most what arrives; this returns promptly)."""
        with pytest.raises(ConnectionClosed):
            decode_bytes(MAX_FRAME_BYTES.to_bytes(4, "big") + b"x" * 100)
