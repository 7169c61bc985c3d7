import itertools
import queue
import random
import socket
import struct
import threading
import time
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelink.errors import ConfigError, ProtocolError
from pipelink.profiles import Phase
from pipelink.transport import LinkPolicy, Payload
from pipelink import wire
from pipelink.wire import (
    FLAG_DECODE,
    FLAG_LAST,
    SocketLinkSender,
    encode_frame,
    loopback_pair,
    read_frame,
    receive_payloads,
)

from simsetup import make_node  # noqa: F401  (keeps test helpers importable)


def payload(pid, pclass, size):
    return Payload(id=pid, phase=pclass, size_bytes=size)


class Received(NamedTuple):
    payload_id: int
    phase: Phase
    body: bytes


def collect(put):
    """An ``on_payload`` callback that hands ``put`` one Received per payload."""
    return lambda p, body: put(Received(p.id, p.phase, body))


def receiver_thread(sock, on_payload):
    return threading.Thread(target=receive_payloads, args=(sock, on_payload), daemon=True)


def test_frame_round_trip():
    a, b = socket.socketpair()
    try:
        a.sendall(encode_frame(7, 3, FLAG_LAST | FLAG_DECODE, b"hello"))
        pid, idx, flags, body = read_frame(b.makefile("rb"))
        assert (pid, idx, body) == (7, 3, b"hello")
        assert flags & FLAG_LAST and flags & FLAG_DECODE
    finally:
        a.close()
        b.close()


def test_read_frame_eof_is_none():
    a, b = socket.socketpair()
    a.close()
    try:
        assert read_frame(b.makefile("rb")) is None
    finally:
        b.close()


def test_truncated_frame_raises():
    a, b = socket.socketpair()
    try:
        frame = encode_frame(1, 0, FLAG_LAST, b"abcdef")
        a.sendall(frame[: len(frame) - 2])
        a.close()
        with pytest.raises(ProtocolError):
            read_frame(b.makefile("rb"))
    finally:
        b.close()


def test_read_frame_rejects_oversize_length_before_reading_body():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\xff\xff\xff\xff")  # frame_length 0xFFFFFFFF, no body
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(b.makefile("rb"))
    finally:
        a.close()
        b.close()


def test_read_frame_parses_many_frames_from_one_send():
    frames = [(pid, pid % 3, FLAG_LAST, bytes([pid]) * pid) for pid in range(200)]
    a, b = socket.socketpair()
    try:
        a.sendall(b"".join(encode_frame(*frame) for frame in frames))
        a.close()
        with b.makefile("rb") as reader:
            got = [read_frame(reader) for _ in frames]
            assert read_frame(reader) is None
    finally:
        b.close()
    assert got == frames


def test_read_frame_parses_a_frame_sent_byte_by_byte():
    frame = encode_frame(9, 2, FLAG_LAST | FLAG_DECODE, b"trickled")
    a, b = socket.socketpair()

    def trickle():
        for i in range(len(frame)):
            a.sendall(frame[i : i + 1])
            time.sleep(0.001)

    writer = threading.Thread(target=trickle, daemon=True)
    writer.start()
    try:
        with b.makefile("rb") as reader:
            assert read_frame(reader) == (9, 2, FLAG_LAST | FLAG_DECODE, b"trickled")
        writer.join(timeout=10)
        assert not writer.is_alive()
    finally:
        a.close()
        b.close()


def test_encode_frame_rejects_oversize_frame(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 8)
    assert len(encode_frame(1, 0, FLAG_LAST, b"x" * 8)) == 4 + wire.HEADER_BYTES + 8
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(1, 0, FLAG_LAST, b"x" * 9)


def test_sender_refuses_payload_whose_chunks_exceed_frame_limit(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 64)
    a, b = socket.socketpair()
    try:
        unchunked = SocketLinkSender(a, chunk_size=None)
        with pytest.raises(ProtocolError, match="frame limit"):
            unchunked.send(payload(1, Phase.PREFILL, 65), bytes(65))
        chunked = SocketLinkSender(a, chunk_size=64)
        chunked.send(payload(2, Phase.PREFILL, 65), bytes(65))
    finally:
        a.close()
        b.close()


def test_chunked_sender_refuses_oversize_decode_payload_and_stays_usable(monkeypatch):
    # Decode payloads are never split, so the chunk size does not bound them.
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 64)
    left, right = loopback_pair()
    received = queue.Queue()
    sender = SocketLinkSender(left, chunk_size=16)
    receiver = receiver_thread(right, collect(received.put))
    sender.start()
    receiver.start()
    try:
        with pytest.raises(ProtocolError, match="frame limit"):
            sender.send(payload(1, Phase.DECODE, 65), bytes(65))
        sender.send(payload(2, Phase.DECODE, 64), b"d" * 64)
        sender.send(payload(3, Phase.PREFILL, 65), b"p" * 65)
        got = {p.payload_id: p.body for p in (received.get(timeout=10) for _ in range(2))}
        assert got == {2: b"d" * 64, 3: b"p" * 65}
    finally:
        sender.close()
        sender.join(timeout=10)
        receiver.join(timeout=10)
        left.close()
        right.close()
    assert not sender.is_alive() and not receiver.is_alive()


def test_sender_whose_frame_is_refused_refuses_later_sends(monkeypatch):
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=None, name="refused")
    sender.send(payload(1, Phase.DECODE, 64), bytes(64))
    # The limit shrinks after send() accepted the payload: the worker's
    # encode_frame refuses it.
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 8)
    sender.start()
    try:
        sender.join(timeout=10)
        assert not sender.is_alive()
        with pytest.raises(ProtocolError, match="refused: .*exceeds") as refused:
            sender.send(payload(2, Phase.DECODE, 8), bytes(8))
        assert "peer gone" not in str(refused.value)  # the peer is alive
        assert sender._bodies == {}
    finally:
        left.close()
        right.close()


def test_sender_that_is_closing_refuses_a_send_by_name_and_payload():
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=None, name="closing")
    sender.close()  # not started: nothing drains, so it stays closing
    try:
        with pytest.raises(ProtocolError, match=r"^closing: payload 4: sender is closing$"):
            sender.send(payload(4, Phase.DECODE, 8), bytes(8))
        assert sender._bodies == {} and sender._queue.next_chunk() is None
    finally:
        left.close()
        right.close()


def test_sender_refuses_an_empty_payload_and_queues_nothing():
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=1024, name="empty")
    try:
        with pytest.raises(ConfigError, match="size must be >= 1"):
            sender.send(payload(0, Phase.PREFILL, 0), b"")
        assert sender._bodies == {} and sender._queue.next_chunk() is None
    finally:
        left.close()
        right.close()


def test_sender_receiver_round_trip_chunked():
    left, right = loopback_pair()
    received = queue.Queue()
    sender = SocketLinkSender(left, chunk_size=1024)
    receiver = receiver_thread(right, collect(received.put))
    sender.start()
    receiver.start()
    try:
        body_big = bytes(range(256)) * 20  # 5120 B -> 5 chunks
        body_small = b"\x01" * 64
        sender.send(payload(1, Phase.PREFILL, len(body_big)), body_big)
        sender.send(payload(2, Phase.DECODE, len(body_small)), body_small)
        got = [received.get(timeout=10) for _ in range(2)]
        by_id = {p.payload_id: p for p in got}
        assert by_id[1].body == body_big
        assert by_id[1].phase is Phase.PREFILL
        assert by_id[2].body == body_small
        assert by_id[2].phase is Phase.DECODE
    finally:
        sender.close()
        sender.join(timeout=10)
        receiver.join(timeout=10)
        left.close()
        right.close()
    assert not receiver.is_alive()  # the sender's half-close ended it


class RecordingSocket:
    """Keeps each frame a sender writes; ``after_frame(count)`` runs after each."""

    def __init__(self, after_frame):
        self.frames = []
        self.after_frame = after_frame
        self.shut = []

    def sendall(self, data):
        self.frames.append(data)
        self.after_frame(len(self.frames))

    def shutdown(self, how):
        self.shut.append(how)


def test_sender_sends_each_chunk_from_its_offset():
    # No 1,024-byte stretch of the body repeats and its last chunk is short,
    # so a chunk cut from the wrong offset cannot reassemble to the body.  A
    # decode payload is sent once the first prefill chunk is on the wire.
    body = random.Random(12).randbytes(5 * 1024 + 300)
    small = b"decode!!"
    decode_sent = threading.Event()

    def after_frame(count):
        if count == 1:
            sender.send(payload(2, Phase.DECODE, len(small)), small)
            decode_sent.set()

    sock = RecordingSocket(after_frame)
    sender = SocketLinkSender(sock, chunk_size=1024)
    sender.send(payload(1, Phase.PREFILL, len(body)), body)
    sender.start()
    assert decode_sent.wait(timeout=10)
    sender.close()
    sender.join(timeout=10)
    assert not sender.is_alive()

    headers = [struct.unpack_from("<QII", frame, 4) for frame in sock.frames]
    assert [(pid, index) for pid, index, _ in headers] == [
        (1, 0), (2, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)
    ]
    assert len(sock.frames[-1]) == 4 + wire.HEADER_BYTES + 300  # length, header, short body
    assert sock.shut == [socket.SHUT_WR]
    a, b = socket.socketpair()
    delivered = []
    try:
        a.sendall(b"".join(sock.frames))
        a.close()
        receive_payloads(b, collect(delivered.append))
    finally:
        a.close()
        b.close()
    assert [(p.payload_id, p.phase, p.body) for p in delivered] == [
        (2, Phase.DECODE, small), (1, Phase.PREFILL, body)
    ]


def test_sender_rejects_mismatched_body():
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=None)
    try:
        with pytest.raises(ProtocolError):
            sender.send(payload(1, Phase.DECODE, 10), b"123")
    finally:
        left.close()
        right.close()


def test_decode_overtakes_queued_prefill_on_the_wire():
    # stuff a large prefill and a decode into the queue before starting the
    # sender thread: the decode must be fully delivered first
    left, right = loopback_pair()
    received = queue.Queue()
    sender = SocketLinkSender(left, chunk_size=2048, policy=LinkPolicy.DECODE_PRIORITY)
    receiver = receiver_thread(right, collect(received.put))
    big = bytes(1 << 20)
    small = b"\x07" * 16
    sender.send(payload(1, Phase.PREFILL, len(big)), big)
    sender.send(payload(2, Phase.DECODE, len(small)), small)
    sender.start()
    receiver.start()
    try:
        first = received.get(timeout=10)
        second = received.get(timeout=10)
        assert first.payload_id == 2  # decode preempted the queued prefill
        assert second.payload_id == 1
    finally:
        sender.close()
        sender.join(timeout=10)
        receiver.join(timeout=10)
        left.close()
        right.close()


def test_sender_close_ends_receiver_at_eof():
    left, right = loopback_pair()
    received = queue.Queue()
    sender = SocketLinkSender(left, chunk_size=None)
    receiver = receiver_thread(right, collect(received.put))
    sender.start()
    receiver.start()
    sender.send(payload(3, Phase.DECODE, 8), b"12345678")
    sender.close()
    sender.join(timeout=10)
    receiver.join(timeout=10)
    assert not receiver.is_alive()
    assert received.get(timeout=1).payload_id == 3
    left.close()
    right.close()


def receive_frames(*frames):
    """Run receive_payloads over raw frames, then EOF; returns (payloads, error)."""
    a, b = socket.socketpair()
    delivered = []
    try:
        a.sendall(b"".join(encode_frame(*frame) for frame in frames))
        a.close()
        try:
            receive_payloads(b, collect(delivered.append))
        except ProtocolError as exc:
            return delivered, exc
        return delivered, None
    finally:
        a.close()
        b.close()


def test_receiver_rejects_reordered_chunks():
    delivered, error = receive_frames(
        (1, 1, 0, b"BB"), (1, 0, 0, b"AA"), (1, 0, FLAG_LAST, b"CC")
    )
    assert delivered == [] and "chunk 1 where chunk 0 was due" in str(error)


def test_receiver_rejects_duplicate_chunk():
    delivered, error = receive_frames(
        (1, 0, 0, b"AA"), (1, 0, FLAG_LAST, b"AA")
    )
    assert delivered == [] and "chunk 0 where chunk 1 was due" in str(error)


def test_receiver_interleaved_payloads_and_clean_eof():
    # A decode payload between two prefill chunks, then EOF between payloads.
    delivered, error = receive_frames(
        (1, 0, 0, b"AA"), (2, 0, FLAG_LAST | FLAG_DECODE, b"d"), (1, 1, FLAG_LAST, b"BB")
    )
    assert error is None
    assert [(p.payload_id, p.phase, p.body) for p in delivered] == [
        (2, Phase.DECODE, b"d"), (1, Phase.PREFILL, b"AABB")
    ]


def test_receiver_eof_mid_payload_raises():
    delivered, error = receive_frames((1, 0, 0, b"AA"))
    assert delivered == [] and "middle of payload 1" in str(error)


@pytest.mark.parametrize("bit", [4, 8, 1 << 31], ids=["bit2", "bit3", "bit31"])
def test_receiver_refuses_an_unknown_flag_bit(bit):
    delivered, error = receive_frames(
        (1, 0, FLAG_LAST, b"A"), (2, 0, bit, b""), (3, 0, FLAG_LAST, b"C")
    )
    assert [p.payload_id for p in delivered] == [1]
    assert f"payload 2: unknown flag bits {bit:#x}" in str(error)


@pytest.mark.parametrize("frames", [
    [(7, 0, FLAG_LAST, b"")],
    [(7, 0, 0, b""), (7, 1, FLAG_LAST | FLAG_DECODE, b"")],
], ids=["one-frame", "chunked"])
def test_receiver_refuses_an_empty_payload(frames):
    # A relay would pass it to SocketLinkSender.send, which refuses it as a
    # configuration error: the fault is on the wire, so the receiver names it.
    delivered, error = receive_frames((1, 0, FLAG_LAST, b"A"), *frames, (3, 0, FLAG_LAST, b"C"))
    assert [p.payload_id for p in delivered] == [1]
    assert isinstance(error, ProtocolError) and "payload 7: empty payload" in str(error)


ids = st.integers(0, 3) | st.integers(0, 2**64 - 1)
indices = st.sampled_from([0, 0, 1]) | st.integers(0, 2**32 - 1)
flag_bits = st.sampled_from([0, FLAG_LAST, FLAG_DECODE, FLAG_LAST | FLAG_DECODE]) | st.integers(
    0, 2**32 - 1
)
frames = st.tuples(ids, indices, flag_bits, st.binary(max_size=32))
# What follows the whole frames: garbage, a frame cut short, or a length
# field of any value and what bytes there are.
tails = (
    st.binary(max_size=24)
    | st.tuples(frames, st.integers(0, 64)).map(lambda cut: encode_frame(*cut[0])[: cut[1]])
    | st.tuples(st.integers(0, 64) | st.integers(0, 2**32 - 1), st.binary(max_size=24)).map(
        lambda raw: struct.pack("<I", raw[0]) + raw[1]
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stream=st.lists(frames, max_size=8), tail=tails)
def test_receiver_returns_or_raises_protocol_error_on_any_stream(stream, tail):
    a, b = socket.socketpair()
    outcome = []

    def receive():
        try:
            receive_payloads(b, lambda p, body: None)
            outcome.append(None)
        except Exception as exc:  # anything but a ProtocolError fails below
            outcome.append(exc)

    try:
        a.sendall(b"".join(encode_frame(*frame) for frame in stream) + tail)
        a.close()
        receiver = threading.Thread(target=receive, daemon=True)
        receiver.start()
        receiver.join(timeout=5)
        assert not receiver.is_alive(), "receive_payloads hung on a closed stream"
    finally:
        a.close()
        b.close()
    assert outcome == [None] or isinstance(outcome[0], ProtocolError), outcome


def test_receiver_socket_error_is_protocol_error():
    a, b = socket.socketpair()
    b.close()
    try:
        with pytest.raises(ProtocolError, match="socket failed"):
            receive_payloads(b, lambda p, body: None)
    finally:
        a.close()


class FailingSocket(RecordingSocket):
    """A socket whose peer is gone: every write fails."""

    def sendall(self, data):
        raise ConnectionResetError("peer reset")


@pytest.mark.parametrize("failure", ["peer-gone", "frame-refused"])
def test_sender_that_failed_does_not_end_its_stream(monkeypatch, failure):
    sock = FailingSocket(None) if failure == "peer-gone" else RecordingSocket(lambda n: None)
    sender = SocketLinkSender(sock, chunk_size=None)
    sender.send(payload(1, Phase.DECODE, 64), bytes(64))
    if failure == "frame-refused":  # the worker's encode_frame refuses the chunk
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 8)
    sender.start()
    sender.close()
    sender.join(timeout=10)
    assert not sender.is_alive()
    assert sender._error is not None
    assert sock.frames == [] and sock.shut == []  # no EOF: the peer sees a cut stream


def test_sender_to_dead_peer_refuses_later_sends_and_holds_no_body():
    a, b = loopback_pair()
    b.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    b.close()  # the peer resets the connection
    sender = SocketLinkSender(a, chunk_size=None, name="to-dead-peer")
    sender.start()
    try:
        deadline = time.monotonic() + 5.0
        with pytest.raises(ProtocolError, match="to-dead-peer: peer gone"):
            for pid in itertools.count():
                assert time.monotonic() < deadline, "send() never failed"
                sender.send(payload(pid, Phase.PREFILL, 1024), bytes(1024))
                time.sleep(0.01)
        sender.join(timeout=5)
        assert not sender.is_alive()
        assert sender._bodies == {}
    finally:
        sender.close()
        a.close()
