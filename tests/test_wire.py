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


class NoHop:
    """The socket of an out sender that sends nothing: a reader that has it
    waits for input alone."""

    def fileno(self):
        return -1


def no_out():
    """The out sender of a thread that only reads."""
    return SocketLinkSender(NoHop(), chunk_size=None, name="no-out")


def receiver_thread(sock, on_payloads):
    return threading.Thread(
        target=receive_payloads, args=(sock, on_payloads, no_out()), daemon=True
    )


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
        receiver.join(timeout=10)
        left.close()
        right.close()
    assert not receiver.is_alive()


def noting_refusals(monkeypatch):
    """Patch ``wire.encode_frame`` to note the arguments of each frame it refuses."""
    refused = []
    encode = wire.encode_frame

    def encode_frame(*args):
        try:
            return encode(*args)
        except ProtocolError:
            refused.append(args[:3])
            raise

    monkeypatch.setattr(wire, "encode_frame", encode_frame)
    return refused


class RecordingSocket:
    """Keeps the bytes of each write a sender makes, one frame, a burst's
    frames or a part of either, and its half-closes.  A write takes at most
    ``room`` more bytes (None: any), and one that finds no room is refused
    as a full socket buffer refuses it.  With ``through``, a real socket,
    the bytes go on to it too."""

    def __init__(self, room=None, through=None):
        self.frames = []
        self.room = room
        self.through = through
        self.shut = []
        self.frames_at_shut = None

    def _record(self, data):
        self.frames.append(bytes(data))

    def send(self, data, flags):
        assert flags == socket.MSG_DONTWAIT  # no write waits
        take = len(data) if self.room is None else min(self.room, len(data))
        if not take:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        self._record(data[:take])
        if self.room is not None:
            self.room -= take
        if self.through is not None:
            self.through.sendall(data[:take])
        return take

    def shutdown(self, how):
        if self.through is not None:
            self.through.shutdown(how)
        self.shut.append(how)
        self.frames_at_shut = len(self.frames)


def frame_headers(data):
    """(payload id, chunk index) of each frame in ``data``, a run of whole frames."""
    found, at = [], 0
    while at < len(data):
        found.append(struct.unpack_from("<QI", data, at + 4))
        at += 4 + struct.unpack_from("<I", data, at)[0]
    assert at == len(data)
    return found


def test_sender_whose_frame_is_refused_refuses_later_sends(monkeypatch):
    refused = noting_refusals(monkeypatch)
    # Room for the first chunk's frame and 10 bytes of the second: the third
    # chunk waits in the queue, unframed.
    sock = RecordingSocket(room=4 + wire.HEADER_BYTES + 64 + 10)
    sender = SocketLinkSender(sock, chunk_size=64, name="refused")
    sender.send([(payload(1, Phase.PREFILL, 192), bytes(192))])
    assert sender.pending and refused == []
    # The limit shrinks after send() accepted the payload: the flush writes
    # the second chunk's rest, then encode_frame refuses the third.
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 8)
    sock.room = None
    sender.flush()  # raises nothing
    assert refused == [(1, 2, FLAG_LAST)] and not sender.pending
    assert frame_headers(b"".join(sock.frames)) == [(1, 0), (1, 1)]
    with pytest.raises(ProtocolError, match="refused: own frame refused: .*exceeds") as later:
        sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
    assert "peer gone" not in str(later.value)  # the peer is alive
    assert sender._bodies == {}
    sender.close()
    assert sock.shut == []  # no EOF: the peer sees a cut stream


def test_sender_that_is_closing_refuses_a_send_by_name_and_payload():
    left, right = loopback_pair()
    sender = SocketLinkSender(left, chunk_size=None, name="closing")
    try:
        sender.close()  # nothing is pending: it half-closes at once
        with pytest.raises(ProtocolError, match=r"^closing: payload 4: sender is closed$"):
            sender.send([(payload(4, Phase.DECODE, 8), bytes(8))])
        assert sender._bodies == {} and sender._queue.next_chunk() is None
        assert right.recv(1) == b""  # EOF
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
        receiver.join(timeout=10)
        left.close()
        right.close()
    assert not receiver.is_alive()  # the sender's half-close ended it


def test_sender_sends_each_chunk_from_its_offset():
    # No 1,024-byte stretch of the body repeats and its last chunk is short,
    # so a chunk cut from the wrong offset cannot reassemble to the body.  A
    # decode payload is sent while the first prefill chunk is half written.
    body = random.Random(12).randbytes(5 * 1024 + 300)
    small = b"decode!!"
    sock = RecordingSocket(room=10)
    sender = SocketLinkSender(sock, chunk_size=1024, name="offsets")
    sender.send([(payload(1, Phase.PREFILL, len(body)), body)])
    sender.send([(payload(2, Phase.DECODE, len(small)), small)])
    sock.room = None
    sender.close()
    assert not sender.pending

    assert frame_headers(b"".join(sock.frames)) == [
        (1, 0), (2, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)
    ]
    assert len(sock.frames[-1]) == 4 + wire.HEADER_BYTES + 300  # length, header, short body
    assert sock.shut == [socket.SHUT_WR]
    a, b = socket.socketpair()
    delivered = []
    try:
        a.sendall(b"".join(sock.frames))
        a.close()
        receive_payloads(b, collect(delivered.append), no_out())
    finally:
        a.close()
        b.close()
    assert [(p.payload_id, p.phase, p.body) for p in delivered] == [
        (2, Phase.DECODE, small), (1, Phase.PREFILL, body)
    ]


def test_a_send_to_an_idle_sender_is_written_from_the_callers_thread():
    sock = RecordingSocket()
    sender = SocketLinkSender(sock, chunk_size=None, name="idle")
    sender.send([(payload(1, Phase.DECODE, 8), b"decode!!")])
    assert sock.frames == [encode_frame(1, 0, FLAG_LAST | FLAG_DECODE, b"decode!!")]
    assert not sender.pending
    sender.send([(payload(2, Phase.PREFILL, 8), b"prefill!")])
    assert sock.frames[1:] == [encode_frame(2, 0, FLAG_LAST, b"prefill!")]
    assert sender._bodies == {} and sender._queue.next_chunk() is None
    sender.close()
    assert sock.shut == [socket.SHUT_WR] and len(sock.frames) == 2


burst_payloads = st.lists(
    st.tuples(st.sampled_from(Phase), st.integers(1, 3000)), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    specs=burst_payloads,
    cuts=st.lists(st.integers(0, 12), max_size=6),
    full=st.lists(st.booleans(), min_size=13, max_size=13),
    chunk_size=st.sampled_from([None, 512]),
    policy=st.sampled_from(LinkPolicy),
)
def test_bursts_arrive_once_with_their_bodies_in_queue_order(
    specs, cuts, full, chunk_size, policy
):
    payloads = [payload(i, phase, size) for i, (phase, size) in enumerate(specs)]
    bodies = {p.id: random.Random(p.id).randbytes(p.size_bytes) for p in payloads}
    bounds = sorted({0, len(payloads), *(cut % (len(payloads) + 1) for cut in cuts)})
    bursts = [payloads[a:b] for a, b in zip(bounds, bounds[1:])]
    # The writes, each a list of chunks, as a reference LinkQueue gives the
    # chunks: a burst that finds nothing pending has one chunk per item taken
    # at once, for one write; then what is pending goes out, one write for a
    # write's rest and one per chunk, until a write finds no room and is kept
    # whole; and close() writes what is left.
    model, rest, unfinished, writes = LinkQueue(chunk_size, policy), None, set(), []

    def take():
        chunk = model.next_chunk()
        if chunk is not None and chunk.is_last:
            unfinished.discard(chunk.payload_id)
        return chunk

    def flush(room):
        nonlocal rest
        while True:
            if rest is not None:
                write, rest = rest, None
            elif (chunk := take()) is not None:
                write = [chunk]
            else:
                return
            if not room:
                rest = write
                return
            writes.append(write)

    for burst, no_room in zip(bursts, full):
        idle = rest is None and not unfinished
        for p in burst:
            model.enqueue(p)
            unfinished.add(p.id)
        if idle:
            rest = [take() for _ in burst]
        flush(not no_room)
    flush(True)

    left, right = loopback_pair()
    delivered = []
    receiver = receiver_thread(right, collect(delivered.append))
    receiver.start()
    sock = RecordingSocket(through=left)
    sender = SocketLinkSender(sock, chunk_size, policy, name="bursts")
    try:
        for burst, no_room in zip(bursts, full):
            sock.room = 0 if no_room else None
            sender.send([(p, bodies[p.id]) for p in burst])
        sock.room = None
        sender.close()
        receiver.join(timeout=10)
    finally:
        left.close()
        right.close()
    assert not receiver.is_alive()
    assert [frame_headers(data) for data in sock.frames] == [
        [(c.payload_id, c.index) for c in write] for write in writes
    ]
    order = [chunk for write in writes for chunk in write]
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
    sock = RecordingSocket()
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


@pytest.mark.parametrize("take", [0, 10], ids=["buffer-full", "part-taken"])
def test_the_rest_of_a_callers_frame_goes_out_before_any_other(take):
    sock = RecordingSocket(room=take)
    sender = SocketLinkSender(sock, chunk_size=None, name="rest")
    prefill, decode = bytes(range(64)), b"decode!!"
    sender.send([(payload(1, Phase.PREFILL, len(prefill)), prefill)])
    # Under decode priority a decode goes before any queued prefill, but it
    # cannot cut into a frame that is half written.
    sender.send([(payload(2, Phase.DECODE, len(decode)), decode)])
    assert sender.pending
    sock.room = None
    sender.close()
    first = encode_frame(1, 0, FLAG_LAST, prefill)
    second = encode_frame(2, 0, FLAG_LAST | FLAG_DECODE, decode)
    if take:
        assert sock.frames == [first[:take], first[take:], second]
    else:
        assert sock.frames == [first, second]
    assert sock.shut == [socket.SHUT_WR]


def small_buffers(left, right):
    """Shrink the buffers between ``left`` and ``right`` to 64 KiB each way."""
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 << 10)
    right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 << 10)


@pytest.mark.parametrize("fill", [False, True], ids=["buffer-empty", "buffer-full"])
def test_send_returns_at_once_when_the_peer_stops_reading(fill):
    left, right = loopback_pair()
    small_buffers(left, right)
    big = bytes(4 << 20)  # far more than both buffers hold
    sender = SocketLinkSender(left, chunk_size=None, name="stalled")
    try:
        if fill:
            with pytest.raises(BlockingIOError):
                for _ in range(10_000):
                    left.send(bytes(4096), socket.MSG_DONTWAIT)
        start = time.monotonic()
        # The first write takes what fits, if anything, and the next sends
        # queue behind its rest.
        sender.send([(payload(1, Phase.PREFILL, len(big)), big)])
        sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
        sender.send([(payload(3, Phase.PREFILL, len(big)), big)])
        assert time.monotonic() - start < 2.0
        assert sender.pending  # still writing payload 1
        left.shutdown(socket.SHUT_RDWR)
        sender.flush()  # the write fails, and raises nothing
        assert isinstance(sender._error, OSError) and sender._bodies == {}
        assert not sender.pending
        sender.close()  # returns at once: nothing is left to write
    finally:
        left.close()
        right.close()


def test_a_decode_sent_while_a_prefill_is_pending_goes_out_at_the_next_chunk():
    left, right = loopback_pair()
    small = b"decode!!"
    frame_bytes = 4 + wire.HEADER_BYTES + 1024
    # Room for two chunks' frames and 10 bytes of the third.
    sock = RecordingSocket(room=2 * frame_bytes + 10, through=left)
    sender = SocketLinkSender(sock, chunk_size=1024, name="preempted")
    try:
        body = bytes(6 * 1024)
        sender.send([(payload(1, Phase.PREFILL, len(body)), body)])
        sender.send([(payload(2, Phase.DECODE, len(small)), small)])
        sock.room = None
        sender.close()
        with right.makefile("rb") as reader:
            frames = []
            while (frame := read_frame(reader)) is not None:
                frames.append(frame)
    finally:
        left.close()
        right.close()
    # The chunk being written when the decode came is finished first.
    order = [(1, 0), (1, 1), (1, 2), (2, 0), (1, 3), (1, 4), (1, 5)]
    assert [(pid, index) for pid, index, _, _ in frames] == order
    assert frame_headers(b"".join(sock.frames)) == order


def test_close_during_a_callers_write_drains_the_queue_then_half_closes():
    left, right = loopback_pair()
    small_buffers(left, right)
    sender = SocketLinkSender(left, chunk_size=64 << 10, name="closed")
    big = bytes(4 << 20)  # 64 chunks, far more than both buffers hold
    frames = []

    def read_frames():
        with right.makefile("rb") as reader:
            while (frame := read_frame(reader)) is not None:
                frames.append(frame[:2])

    reader = threading.Thread(target=read_frames, daemon=True)
    try:
        sender.send([(payload(1, Phase.PREFILL, len(big)), big)])
        sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
        assert sender.pending  # the peer has not read yet
        reader.start()
        sender.close()  # waits for room until everything is written
        assert not sender.pending
        reader.join(timeout=10)
    finally:
        left.close()
        right.close()
    assert not reader.is_alive()  # it read EOF after every frame
    prefill = [frame for frame in frames if frame[0] == 1]
    assert prefill == [(1, index) for index in range(64)]
    assert frames.index((2, 0)) < frames.index((1, 63))


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
    # The peer reads nothing until both are sent: the prefill's first
    # chunks fill the buffers, and the decode must be fully delivered first.
    left, right = loopback_pair()
    small_buffers(left, right)
    received = queue.Queue()
    sender = SocketLinkSender(left, chunk_size=2048, policy=LinkPolicy.DECODE_PRIORITY)
    receiver = receiver_thread(right, collect(received.put))
    big = bytes(1 << 20)
    small = b"\x07" * 16
    sender.send([(payload(1, Phase.PREFILL, len(big)), big)])
    sender.send([(payload(2, Phase.DECODE, len(small)), small)])
    receiver.start()
    try:
        sender.close()
        first = received.get(timeout=10)
        second = received.get(timeout=10)
        assert first.payload_id == 2  # decode preempted the queued prefill
        assert second.payload_id == 1
    finally:
        receiver.join(timeout=10)
        left.close()
        right.close()


def test_sender_close_ends_receiver_at_eof():
    left, right = loopback_pair()
    received = queue.Queue()
    sender = SocketLinkSender(left, chunk_size=None)
    receiver = receiver_thread(right, collect(received.put))
    receiver.start()
    sender.send([(payload(3, Phase.DECODE, 8), b"12345678")])
    sender.close()
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
            receive_payloads(b, collect(delivered.append), no_out())
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
            receive_payloads(b, lambda items: None, no_out())
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
            receive_payloads(b, lambda items: None, no_out())
    finally:
        a.close()


def receive_alone(sock, on_payloads):
    """What a stage with nothing to send does with receive_payloads."""
    receive_payloads(sock, on_payloads, no_out())


def read_until_eof(sock, on_payloads):
    """What the demo's head does with a PayloadReader, read to the end."""
    reader = PayloadReader(sock, on_payloads, no_out())
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
    expected, expected_error = decoded(receive_alone, raw)
    assert delivered == expected
    assert (type(error), str(error)) == (type(expected_error), str(expected_error))


both_receivers = pytest.mark.parametrize(
    "receive", [receive_alone, read_until_eof], ids=["receiver", "head-reader"]
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
    reader = PayloadReader(b, collect(delivered.append), no_out())
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
    reader = PayloadReader(b, lambda items: None, no_out())
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
    reader = PayloadReader(b, lambda items: None, no_out())
    b.close()
    try:
        with pytest.raises(ProtocolError, match="socket failed"):
            reader.read(timeout_s=1.0)
    finally:
        a.close()


class FailingSocket(RecordingSocket):
    """A socket whose peer is gone after ``good`` writes: every later write fails."""

    def __init__(self, good, room=None):
        super().__init__(room)
        self.good = good
        self.failed = 0

    def _record(self, data):
        if len(self.frames) >= self.good:
            self.failed += 1
            raise ConnectionResetError("peer reset")
        super()._record(data)


@pytest.mark.parametrize("failure", ["peer-gone", "frame-refused"])
def test_sender_that_failed_does_not_end_its_stream(monkeypatch, failure):
    refused = noting_refusals(monkeypatch)
    # Payload 1's frame goes out in two writes, and payload 2 is queued
    # behind its rest.  After the first two writes the peer is gone, or
    # encode_frame refuses payload 2's frame.
    sock = FailingSocket(good=2 if failure == "peer-gone" else 3, room=10)
    sender = SocketLinkSender(sock, chunk_size=None, name="failed")
    sender.send([(payload(1, Phase.DECODE, 64), bytes(64))])
    sender.send([(payload(2, Phase.DECODE, 64), bytes(64))])
    if failure == "frame-refused":
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", wire.HEADER_BYTES + 8)
    sock.room = None
    sender.close()  # raises nothing
    assert sender._error is not None and not sender.pending
    assert sock.failed + len(refused) == 1
    # No frame after the one written, and no EOF: the peer sees a cut stream.
    assert frame_headers(b"".join(sock.frames)) == [(1, 0)] and sock.shut == []


def test_a_send_whose_write_fails_raises_nothing_and_is_recorded():
    sock = FailingSocket(good=0)
    sender = SocketLinkSender(sock, chunk_size=None, name="caller-failed")
    sender.send([(payload(1, Phase.DECODE, 64), bytes(64))])  # fails, but raises nothing
    assert sock.failed == 1
    assert isinstance(sender._error, ConnectionResetError) and sender._bodies == {}
    with pytest.raises(ProtocolError, match="caller-failed: peer gone: peer reset"):
        sender.send([(payload(2, Phase.DECODE, 8), bytes(8))])
    sender.close()
    assert sock.frames == [] and sock.shut == []  # no EOF: the peer sees a cut stream


def test_sender_to_dead_peer_refuses_later_sends_and_holds_no_body():
    a, b = loopback_pair()
    b.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    b.close()  # the peer resets the connection
    sender = SocketLinkSender(a, chunk_size=None, name="to-dead-peer")
    try:
        deadline = time.monotonic() + 5.0
        with pytest.raises(ProtocolError, match="to-dead-peer: peer gone"):
            for pid in itertools.count():
                assert time.monotonic() < deadline, "send() never failed"
                sender.send([(payload(pid, Phase.PREFILL, 1024), bytes(1024))])
                time.sleep(0.01)
        assert sender._bodies == {} and not sender.pending
    finally:
        sender.close()
        a.close()


def test_a_readers_wait_with_a_pending_out_sender_ends_at_its_timeout():
    # The out hop's peer reads nothing, so its socket never has room: the
    # reader waits for input and for that room, and neither comes.
    in_a, in_b = socket.socketpair()
    left, right = loopback_pair()
    small_buffers(left, right)
    out = SocketLinkSender(left, chunk_size=None, name="stuck")
    reader = PayloadReader(in_b, lambda items: None, out)
    try:
        big = bytes(4 << 20)
        out.send([(payload(1, Phase.PREFILL, len(big)), big)])
        assert out.pending
        start = time.monotonic()
        assert reader.read(timeout_s=0.3) is False
        assert 0.25 < time.monotonic() - start < 2.0
        assert out.pending and out._error is None
    finally:
        for sock in (in_a, in_b, left, right):
            sock.close()
