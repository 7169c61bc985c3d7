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
from pipelink.transport import LinkPolicy, LinkQueue, Payload
from pipelink import wire
from pipelink.wire import (
    FLAG_DECODE,
    FLAG_LAST,
    PayloadReader,
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
    """An ``on_payloads`` callback that hands ``put`` one Received per payload."""

    def on_payloads(items):
        assert items, "on_payloads was called with no payload"
        for p, body in items:
            put(Received(p.id, p.phase, body))

    return on_payloads


def receiver_thread(sock, on_payloads):
    return threading.Thread(target=receive_payloads, args=(sock, on_payloads), daemon=True)


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
            unchunked.send([(payload(1, Phase.PREFILL, 65), bytes(65))])
        chunked = SocketLinkSender(a, chunk_size=64)
        chunked.send([(payload(2, Phase.PREFILL, 65), bytes(65))])
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
            sender.send([(payload(1, Phase.DECODE, 65), bytes(65))])
        sender.send([(payload(2, Phase.DECODE, 64), b"d" * 64)])
        sender.send([(payload(3, Phase.PREFILL, 65), b"p" * 65)])
        got = {p.payload_id: p.body for p in (received.get(timeout=10) for _ in range(2))}
        assert got == {2: b"d" * 64, 3: b"p" * 65}
    finally:
        sender.close()
        sender.join(timeout=10)
        receiver.join(timeout=10)
        left.close()
        right.close()
    assert not sender.is_alive() and not receiver.is_alive()


def noting_refusals(monkeypatch):
    """Patch ``wire.encode_frame`` to note the thread of each frame it refuses."""
    refused_in = []
    encode = wire.encode_frame

    def encode_frame(*args):
        try:
            return encode(*args)
        except ProtocolError:
            refused_in.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(wire, "encode_frame", encode_frame)
    return refused_in


def test_sender_whose_frame_is_refused_refuses_later_sends(monkeypatch):
    refused_in = noting_refusals(monkeypatch)
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=64, name="refused")
    # The caller writes the first chunk; the second waits for the worker.
    sender.send([(payload(1, Phase.PREFILL, 128), bytes(128))])
    # The limit shrinks after send() accepted the payload: the worker's
    # encode_frame refuses its second chunk.
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 8)
    sender.start()
    try:
        sender.join(timeout=10)
        assert not sender.is_alive()
        assert refused_in == ["refused"]
        with pytest.raises(ProtocolError, match="refused: .*exceeds") as refused:
            sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
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
            sender.send([(payload(4, Phase.DECODE, 8), bytes(8))])
        assert sender._bodies == {} and sender._queue.next_chunk() is None
    finally:
        left.close()
        right.close()


def test_sender_refuses_an_empty_payload_and_queues_nothing():
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=1024, name="empty")
    try:
        with pytest.raises(ConfigError, match="size must be >= 1"):
            sender.send([(payload(0, Phase.PREFILL, 0), b"")])
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
        sender.send([(payload(1, Phase.PREFILL, len(body_big)), body_big)])
        sender.send([(payload(2, Phase.DECODE, len(body_small)), body_small)])
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
    """Keeps the bytes of each write a sender makes, one frame or a burst's
    frames, and the name of the thread that made it; ``after_frame(count)``
    runs after each, in that thread.  With ``through``, a real socket, the
    bytes go on to it too."""

    def __init__(self, after_frame, through=None):
        self.frames = []
        self.writers = []
        self.after_frame = after_frame
        self.through = through
        self.shut = []
        self.frames_at_shut = None

    def _record(self, data):
        self.frames.append(bytes(data))
        self.writers.append(threading.current_thread().name)
        self.after_frame(len(self.frames))

    def sendall(self, data):
        if self.through is not None:
            self.through.sendall(data)
        self._record(data)

    def send(self, data, flags):
        assert flags == socket.MSG_DONTWAIT  # a caller's write never waits
        sent = len(data) if self.through is None else self.through.send(data, flags)
        self._record(data[:sent])
        return sent

    def shutdown(self, how):
        if self.through is not None:
            self.through.shutdown(how)
        self.shut.append(how)
        self.frames_at_shut = len(self.frames)


def headers(frames):
    """(payload id, chunk index) of each frame."""
    return [struct.unpack_from("<QI", frame, 4) for frame in frames]


def test_sender_sends_each_chunk_from_its_offset():
    # No 1,024-byte stretch of the body repeats and its last chunk is short,
    # so a chunk cut from the wrong offset cannot reassemble to the body.  A
    # decode payload is sent once the first prefill chunk is on the wire.
    body = random.Random(12).randbytes(5 * 1024 + 300)
    small = b"decode!!"
    decode_sent = threading.Event()

    def after_frame(count):
        if count == 1:
            sender.send([(payload(2, Phase.DECODE, len(small)), small)])
            decode_sent.set()

    sock = RecordingSocket(after_frame)
    sender = SocketLinkSender(sock, chunk_size=1024, name="offsets")
    # The sender is idle, so this caller writes the first chunk itself.
    sender.send([(payload(1, Phase.PREFILL, len(body)), body)])
    sender.start()
    assert decode_sent.wait(timeout=10)
    sender.close()
    sender.join(timeout=10)
    assert not sender.is_alive()

    assert headers(sock.frames) == [
        (1, 0), (2, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)
    ]
    assert sock.writers == [threading.current_thread().name] + ["offsets"] * 6
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


def test_a_send_to_an_idle_sender_is_written_from_the_callers_thread():
    sock = RecordingSocket(lambda count: None)
    sender = SocketLinkSender(sock, chunk_size=None, name="idle")
    me = threading.current_thread().name
    sender.send([(payload(1, Phase.DECODE, 8), b"decode!!")])
    assert sock.frames == [encode_frame(1, 0, FLAG_LAST | FLAG_DECODE, b"decode!!")]
    sender.start()  # a started worker that has nothing to do changes nothing
    sender.send([(payload(2, Phase.PREFILL, 8), b"prefill!")])
    assert sock.frames[1:] == [encode_frame(2, 0, FLAG_LAST, b"prefill!")]
    assert sock.writers == [me, me]
    assert sender._bodies == {} and sender._queue.next_chunk() is None
    sender.close()
    sender.join(timeout=10)
    assert not sender.is_alive()
    assert sock.shut == [socket.SHUT_WR] and len(sock.frames) == 2


def frame_headers(data):
    """(payload id, chunk index) of each frame in ``data``, a run of whole frames."""
    found, at = [], 0
    while at < len(data):
        found.append(struct.unpack_from("<QI", data, at + 4))
        at += 4 + struct.unpack_from("<I", data, at)[0]
    assert at == len(data)
    return found


class WholeSocket(RecordingSocket):
    """A pass-through RecordingSocket whose non-blocking ``send`` hands all
    of its bytes on, as a kernel with room for them would."""

    def __init__(self, through):
        super().__init__(lambda count: None, through)

    def send(self, data, flags):
        assert flags == socket.MSG_DONTWAIT  # a caller's write never waits
        self.sendall(data)
        return len(data)


burst_payloads = st.lists(
    st.tuples(st.sampled_from(Phase), st.integers(1, 3000)), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    specs=burst_payloads,
    cuts=st.lists(st.integers(0, 12), max_size=6),
    chunk_size=st.sampled_from([None, 512]),
    policy=st.sampled_from(LinkPolicy),
)
def test_bursts_arrive_once_with_their_bodies_in_queue_order(specs, cuts, chunk_size, policy):
    payloads = [payload(i, phase, size) for i, (phase, size) in enumerate(specs)]
    bodies = {p.id: random.Random(p.id).randbytes(p.size_bytes) for p in payloads}
    bounds = sorted({0, len(payloads), *(cut % (len(payloads) + 1) for cut in cuts)})
    bursts = [payloads[a:b] for a, b in zip(bounds, bounds[1:])]
    # The chunks in the order a LinkQueue gives them when a burst that finds
    # every earlier payload taken has one chunk per item taken at once, and
    # the rest is drained after the last burst.
    model, unfinished, on_idle, order = LinkQueue(chunk_size, policy), set(), [], []
    for burst in bursts:
        idle = not unfinished
        for p in burst:
            model.enqueue(p)
            unfinished.add(p.id)
        if idle:
            taken = [model.next_chunk() for _ in burst]
            on_idle.append(taken)
            order += taken
            unfinished -= {c.payload_id for c in taken if c.is_last}
    while (chunk := model.next_chunk()) is not None:
        order.append(chunk)

    left, right = loopback_pair()
    delivered = []
    receiver = receiver_thread(right, collect(delivered.append))
    receiver.start()
    sock = WholeSocket(left)
    sender = SocketLinkSender(sock, chunk_size, policy, name="bursts")
    try:
        for burst in bursts:
            sender.send([(p, bodies[p.id]) for p in burst])
        # Each burst on an idle hop made one socket send, of one frame per
        # item; the worker is not started yet, so no other write was made.
        me = threading.current_thread().name
        writes = zip(sock.writers, sock.frames)
        assert [(writer, frame_headers(data)) for writer, data in writes] == [
            (me, [(c.payload_id, c.index) for c in taken]) for taken in on_idle
        ]
        sender.start()
        sender.close()
        sender.join(timeout=10)
        receiver.join(timeout=10)
    finally:
        left.close()
        right.close()
    assert not sender.is_alive() and not receiver.is_alive()
    wire_order = frame_headers(b"".join(sock.frames))
    assert wire_order == [(c.payload_id, c.index) for c in order]
    assert delivered == [
        Received(c.payload_id, c.phase, bodies[c.payload_id]) for c in order if c.is_last
    ]


@pytest.mark.parametrize("bad, error, match", [
    ((payload(3, Phase.DECODE, 10), b"123"), ProtocolError, "payload 3: body is 3 bytes"),
    ((payload(3, Phase.PREFILL, 65), bytes(65)), ProtocolError, "payload 3: 65-byte chunks"),
    ((payload(3, Phase.PREFILL, 0), b""), ConfigError, "payload 3: size must be >= 1"),
], ids=["body-length", "oversize-chunk", "empty"])
def test_a_burst_with_one_bad_item_is_refused_whole(monkeypatch, bad, error, match):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 64)
    sock = RecordingSocket(lambda count: None)
    sender = SocketLinkSender(sock, chunk_size=None, name="bad-burst")
    good = [(payload(1, Phase.DECODE, 8), b"decode!!"), (payload(2, Phase.PREFILL, 64), bytes(64))]
    with pytest.raises(error, match=match):
        sender.send([good[0], bad, good[1]])
    assert sender._bodies == {} and sender._queue.next_chunk() is None
    assert sock.frames == []
    # Nothing was queued, so the good items are new to the link, which is
    # still idle: they go out at once, in one write.
    sender.send(good)
    assert sock.frames == [
        encode_frame(1, 0, FLAG_LAST | FLAG_DECODE, b"decode!!")
        + encode_frame(2, 0, FLAG_LAST, bytes(64))
    ]


class PartialSocket(RecordingSocket):
    """Takes only the first ``take`` bytes of a non-blocking send; with
    ``take`` 0, its buffer is full."""

    def __init__(self, take):
        super().__init__(lambda count: None)
        self.take = take

    def send(self, data, flags):
        assert flags == socket.MSG_DONTWAIT
        if not self.take:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        self._record(data[: self.take])
        return self.take


@pytest.mark.parametrize("take", [0, 10], ids=["buffer-full", "part-taken"])
def test_the_rest_of_a_callers_frame_goes_out_before_any_other(take):
    sock = PartialSocket(take)
    sender = SocketLinkSender(sock, chunk_size=None, name="rest")
    prefill, decode = bytes(range(64)), b"decode!!"
    sender.send([(payload(1, Phase.PREFILL, len(prefill)), prefill)])
    # Under decode priority a decode goes before any queued prefill, but it
    # cannot cut into a frame that is half written.
    sender.send([(payload(2, Phase.DECODE, len(decode)), decode)])
    sender.start()
    sender.close()
    sender.join(timeout=10)
    assert not sender.is_alive()
    first = encode_frame(1, 0, FLAG_LAST, prefill)
    second = encode_frame(2, 0, FLAG_LAST | FLAG_DECODE, decode)
    me = threading.current_thread().name
    if take:
        assert sock.frames == [first[:take], first[take:], second]
        assert sock.writers == [me, "rest", "rest"]
    else:
        assert sock.frames == [first, second]
        assert sock.writers == ["rest", "rest"]
    assert sock.shut == [socket.SHUT_WR]


def returns_at_once(send, within_s=2.0):
    """Whether ``send()``, run in a thread of its own, returns within ``within_s``."""
    sending = threading.Thread(target=send, daemon=True)
    sending.start()
    sending.join(timeout=within_s)
    return not sending.is_alive()


@pytest.mark.parametrize("fill", [False, True], ids=["buffer-empty", "buffer-full"])
def test_send_returns_at_once_when_the_peer_stops_reading(fill):
    left, right = loopback_pair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 << 10)
    right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 << 10)
    big = bytes(4 << 20)  # far more than both buffers hold
    sender = SocketLinkSender(left, chunk_size=None, name="stalled")
    sender.start()

    def send():
        # An idle sender: the caller's write takes what fits, if anything,
        # the worker blocks on the rest, and the next sends queue behind it.
        sender.send([(payload(1, Phase.PREFILL, len(big)), big)])
        sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
        sender.send([(payload(3, Phase.PREFILL, len(big)), big)])

    try:
        if fill:
            with pytest.raises(BlockingIOError):
                for _ in range(10_000):
                    left.send(bytes(4096), socket.MSG_DONTWAIT)
        assert returns_at_once(send)
        assert sender.is_alive()  # still writing payload 1
    finally:
        left.shutdown(socket.SHUT_RDWR)  # ends every blocked write
        sender.join(timeout=10)
        left.close()
        right.close()
    assert not sender.is_alive()
    assert isinstance(sender._error, OSError) and sender._bodies == {}


def test_a_decode_sent_while_the_worker_writes_a_prefill_goes_out_at_the_next_chunk():
    left, right = loopback_pair()
    small = b"decode!!"
    decode_sent = threading.Event()

    def after_frame(count):
        if count == 2:  # the worker has written the prefill's second chunk
            sender.send([(payload(2, Phase.DECODE, len(small)), small)])
            decode_sent.set()

    sock = RecordingSocket(after_frame, through=left)
    sender = SocketLinkSender(sock, chunk_size=1024, name="preempted")
    frames = []

    def read_frames():
        with right.makefile("rb") as reader:
            while (frame := read_frame(reader)) is not None:
                frames.append(frame)

    reader = threading.Thread(target=read_frames, daemon=True)
    reader.start()
    sender.start()
    try:
        body = bytes(6 * 1024)
        sender.send([(payload(1, Phase.PREFILL, len(body)), body)])
        assert decode_sent.wait(timeout=10)
        sender.close()
        sender.join(timeout=10)
        reader.join(timeout=10)
    finally:
        left.close()
        right.close()
    assert not sender.is_alive() and not reader.is_alive()
    order = [(1, 0), (1, 1), (2, 0), (1, 2), (1, 3), (1, 4), (1, 5)]
    assert [(pid, index) for pid, index, _, _ in frames] == order
    assert headers(sock.frames) == order
    assert sock.writers == [threading.current_thread().name] + ["preempted"] * 6


def test_close_during_a_callers_write_drains_the_queue_then_half_closes():
    def after_frame(count):
        if count == 1:  # mid-write in this thread; the worker is waiting
            sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
            sender.close()

    sock = RecordingSocket(after_frame)
    sender = SocketLinkSender(sock, chunk_size=1024, name="closed")
    sender.start()
    sender.send([(payload(1, Phase.PREFILL, 3 * 1024), bytes(3 * 1024))])
    sender.join(timeout=10)
    assert not sender.is_alive()
    assert headers(sock.frames) == [(1, 0), (2, 0), (1, 1), (1, 2)]
    assert sock.writers == [threading.current_thread().name] + ["closed"] * 3
    assert sock.shut == [socket.SHUT_WR] and sock.frames_at_shut == 4


def test_sender_rejects_mismatched_body():
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=None)
    try:
        with pytest.raises(ProtocolError):
            sender.send([(payload(1, Phase.DECODE, 10), b"123")])
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
    sender.send([(payload(1, Phase.PREFILL, len(big)), big)])
    sender.send([(payload(2, Phase.DECODE, len(small)), small)])
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
    sender.send([(payload(3, Phase.DECODE, 8), b"12345678")])
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
            receive_payloads(b, lambda items: None)
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
            receive_payloads(b, lambda items: None)
    finally:
        a.close()


def read_until_eof(sock, on_payloads):
    """What the demo's head does with a PayloadReader, read to the end."""
    reader = PayloadReader(sock, on_payloads)
    while (got := reader.read(timeout_s=5.0)) is not None:
        assert got, "PayloadReader waited out its timeout on a closed stream"


def decoded(receive, stream, close=True):
    """The payloads and the error, or None, of ``receive(sock, on_payloads)``
    over ``stream``, then EOF unless not ``close``; it must end within 5 s."""
    a, b = socket.socketpair()
    delivered, outcome = [], []

    def run():
        try:
            receive(b, collect(delivered.append))
            outcome.append(None)
        except Exception as exc:  # compared below: only a ProtocolError may be here
            outcome.append(exc)

    try:
        a.sendall(stream)
        if close:
            a.close()
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive(), f"{receive.__name__} hung"
    finally:
        a.close()
        b.close()
    return delivered, outcome[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stream=st.lists(frames, max_size=8), tail=tails)
def test_head_reader_decodes_any_stream_as_the_receiver_does(stream, tail):
    raw = b"".join(encode_frame(*frame) for frame in stream) + tail
    delivered, error = decoded(read_until_eof, raw)
    assert error is None or isinstance(error, ProtocolError), error
    expected, expected_error = decoded(receive_payloads, raw)
    assert delivered == expected
    assert (type(error), str(error)) == (type(expected_error), str(expected_error))


both_receivers = pytest.mark.parametrize(
    "receive", [receive_payloads, read_until_eof], ids=["receiver", "head-reader"]
)


@both_receivers
@pytest.mark.parametrize("bit", [4, 1 << 31], ids=["bit2", "bit31"])
def test_both_receivers_refuse_an_unknown_flag_bit(receive, bit):
    frames = [(1, 0, FLAG_LAST, b"A"), (2, 0, bit, b""), (3, 0, FLAG_LAST, b"C")]
    delivered, error = decoded(receive, b"".join(encode_frame(*f) for f in frames))
    assert [p.payload_id for p in delivered] == [1]
    assert isinstance(error, ProtocolError)
    assert str(error) == f"payload 2: unknown flag bits {bit:#x}"


@both_receivers
def test_both_receivers_refuse_an_oversize_length_before_its_body_comes(receive):
    # The stream stays open: waiting for the body would hang.
    delivered, error = decoded(receive, b"\xff\xff\xff\xff", close=False)
    assert delivered == [] and isinstance(error, ProtocolError)
    assert str(error) == f"frame of {0xFFFFFFFF} bytes exceeds {wire.MAX_FRAME_BYTES}"


@both_receivers
@pytest.mark.parametrize("cut, message", [
    (2, "connection closed mid-length field"),
    (10, "connection closed mid-frame"),
    (-1, "connection closed mid-frame"),
], ids=["in-length", "in-header", "in-body"])
def test_both_receivers_refuse_a_truncated_frame(receive, cut, message):
    whole = encode_frame(1, 0, FLAG_LAST, b"A")
    delivered, error = decoded(receive, whole + encode_frame(2, 0, FLAG_LAST, b"BB")[:cut])
    assert [p.payload_id for p in delivered] == [1]
    assert isinstance(error, ProtocolError) and str(error) == message


def test_head_reader_reads_frames_sent_byte_by_byte_as_they_complete():
    frames = [
        encode_frame(9, 0, 0, b"tric"),
        encode_frame(9, 1, FLAG_LAST, b"kled"),
        encode_frame(4, 0, FLAG_LAST | FLAG_DECODE, b"d"),
    ]
    ends = set(itertools.accumulate(map(len, frames)))
    a, b = socket.socketpair()
    delivered = []
    reader = PayloadReader(b, collect(delivered.append))
    try:
        for sent, byte in enumerate(b"".join(frames), start=1):
            a.sendall(bytes([byte]))
            # A byte that ends a frame makes a read that hands it on; any
            # other byte is kept for the frame it starts or continues.
            assert reader.read(timeout_s=5.0 if sent in ends else 0.0) is (sent in ends)
        a.close()
        assert reader.read(timeout_s=5.0) is None
    finally:
        a.close()
        b.close()
    assert delivered == [
        Received(9, Phase.PREFILL, b"trickled"), Received(4, Phase.DECODE, b"d")
    ]


def test_head_reader_waits_up_to_its_timeout_for_a_frame():
    a, b = socket.socketpair()
    reader = PayloadReader(b, lambda items: None)
    try:
        a.sendall(encode_frame(1, 0, FLAG_LAST, b"A")[:-1])  # no whole frame
        start = time.monotonic()
        assert reader.read(timeout_s=0.2) is False
        assert 0.15 < time.monotonic() - start < 2.0
    finally:
        a.close()
        b.close()


def test_head_reader_socket_error_is_protocol_error():
    a, b = socket.socketpair()
    reader = PayloadReader(b, lambda items: None)
    b.close()
    try:
        with pytest.raises(ProtocolError, match="socket failed"):
            reader.read(timeout_s=1.0)
    finally:
        a.close()


class FailingSocket(RecordingSocket):
    """A socket whose peer is gone after ``good`` frames: every later write fails."""

    def __init__(self, after_frame, good):
        super().__init__(after_frame)
        self.good = good
        self.failed_in = []

    def _record(self, data):
        if len(self.frames) >= self.good:
            self.failed_in.append(threading.current_thread().name)
            raise ConnectionResetError("peer reset")
        super()._record(data)


@pytest.mark.parametrize("failure", ["peer-gone", "frame-refused"])
def test_sender_that_failed_does_not_end_its_stream(monkeypatch, failure):
    refused_in = noting_refusals(monkeypatch)

    def after_frame(count):
        # Payload 2 is sent while this caller writes payload 1, so the worker
        # writes it, and its write fails.
        sender.send([(payload(2, Phase.DECODE, 64), bytes(64))])
        if failure == "frame-refused":  # the worker's encode_frame refuses the chunk
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 8)

    good = 1 if failure == "peer-gone" else 2
    sock = FailingSocket(after_frame, good)
    sender = SocketLinkSender(sock, chunk_size=None, name="failed")
    sender.send([(payload(1, Phase.DECODE, 64), bytes(64))])
    sender.start()
    sender.close()
    sender.join(timeout=10)
    assert not sender.is_alive()
    assert sender._error is not None
    assert sock.failed_in + refused_in == ["failed"]
    # No frame after the one written, and no EOF: the peer sees a cut stream.
    assert headers(sock.frames) == [(1, 0)] and sock.shut == []


def test_a_callers_write_that_fails_is_recorded_as_a_workers_is():
    sock = FailingSocket(lambda count: None, good=0)
    sender = SocketLinkSender(sock, chunk_size=None, name="caller-failed")
    sender.send([(payload(1, Phase.DECODE, 64), bytes(64))])  # fails, but raises nothing
    assert sock.failed_in == [threading.current_thread().name]
    assert isinstance(sender._error, ConnectionResetError) and sender._bodies == {}
    with pytest.raises(ProtocolError, match="caller-failed: peer gone: peer reset"):
        sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
    sender.start()
    sender.close()
    sender.join(timeout=10)
    assert not sender.is_alive()
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
                sender.send([(payload(pid, Phase.PREFILL, 1024), bytes(1024))])
                time.sleep(0.01)
        sender.join(timeout=5)
        assert not sender.is_alive()
        assert sender._bodies == {}
    finally:
        sender.close()
        a.close()
