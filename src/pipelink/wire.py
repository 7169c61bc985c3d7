"""Real-socket transport backend: framing plus per-link senders.

Wire format, little-endian throughout, length-prefixed:

    u32 frame_length            covers header + body
    u64 payload_id              16-byte header starts here
    u32 chunk_index
    u32 flags                   bit 0: last chunk, bit 1: decode class;
                                any other bit is refused
    ...                         chunk body (frame_length - 16 bytes)

The sender applies the same two-class, chunk-granular schedule as the
virtual-time backend, through a :class:`LinkQueue`, and it starts no thread
and takes no lock: the one thread that sends on a hop owns its
:class:`SocketLinkSender` and makes every write on it.  ``send(items)``
takes a burst of ``(payload, body)`` pairs and checks each before it queues
any.  On an idle link it takes one chunk per item, in ``LinkQueue`` order,
and writes their frames, joined, with one non-blocking ``send``: one write
per burst, yet no burst of long prefills copied whole.  Then it writes a
chunk per write while the kernel takes them whole.  What is left is
pending, and goes out in order: the rest of a cut write, then the queue a
chunk at a time, so a decode queued meanwhile waits only a chunk.  No write
waits for room; the owner's :class:`PayloadReader`, while it waits for
input, waits for room on the out socket too whenever its sender is pending,
and flushes it then.  ``close()`` waits for room until nothing is pending,
then half-closes the socket (``shutdown(SHUT_WR)``), so a stream ends only
with EOF between payloads, after everything sent on it.  A sender whose
write failed leaves its stream open, so its peer never mistakes a cut stream
for a finished one.
:class:`PayloadReader` is the one receiver: it splits what each ``recv``
takes in into frames, checks them (:func:`_frame_length` and
:func:`_frame`) and the index order of each payload's chunks, and calls
``on_payloads(items)`` once with the ``(payload, body)`` of each payload
they complete, the signature of ``SocketLinkSender.send``.
:func:`receive_payloads` reads with it until EOF, for a stage; the demo's
head calls ``read(timeout_s)`` between other work.  :func:`read_frame`
applies the same checks to one frame off a buffered reader.
"""

from __future__ import annotations

import math
import select
import socket
import struct
import time
from typing import BinaryIO

from .errors import ConfigError, ProtocolError
from .profiles import Phase
from .transport import LinkPolicy, LinkQueue, Payload

_LEN = struct.Struct("<I")
_HEADER = struct.Struct("<QII")

FLAG_LAST = 1
FLAG_DECODE = 2
_FLAGS = FLAG_LAST | FLAG_DECODE

HEADER_BYTES = _HEADER.size  # 16
# Largest frame_length either side accepts, so a corrupt length field cannot
# make the receiver buffer up to 4 GiB.
MAX_FRAME_BYTES = 64 << 20
# Most bytes a PayloadReader takes in per recv.
_RECV_BYTES = 64 << 10


def encode_frame(payload_id: int, chunk_index: int, flags: int, body: bytes) -> bytes:
    length = HEADER_BYTES + len(body)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(length) + _HEADER.pack(payload_id, chunk_index, flags) + body


# The two checks of a frame: its length field, read first, then its header.
def _frame_length(buf, at: int = 0) -> int:
    """The frame_length field at ``at`` in ``buf``; a length that no frame
    can have is a ProtocolError, before any of the frame's body is read."""
    (length,) = _LEN.unpack_from(buf, at)
    if length < HEADER_BYTES:
        raise ProtocolError(f"frame shorter than header ({length} bytes)")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return length


def _frame(buf, at: int, end: int) -> tuple[int, int, int, bytes]:
    """The frame whose header starts at ``at`` in ``buf`` and whose body ends
    at ``end``, its body a slice of ``buf``; an unknown flag bit is a
    ProtocolError."""
    payload_id, chunk_index, flags = _HEADER.unpack_from(buf, at)
    if flags & ~_FLAGS:
        raise ProtocolError(f"payload {payload_id}: unknown flag bits {flags:#x}")
    return payload_id, chunk_index, flags, buf[at + HEADER_BYTES : end]


def _cut_short(got: int) -> ProtocolError:
    """The error for a stream that ended ``got`` bytes into a frame."""
    where = "length field" if got < _LEN.size else "frame"
    return ProtocolError(f"connection closed mid-{where}")


def read_frame(reader: BinaryIO) -> tuple[int, int, int, bytes] | None:
    """One frame off a buffered reader, or None on clean EOF between frames;
    a truncated frame, a bad length or an unknown flag bit is a ProtocolError."""
    raw_len = reader.read(_LEN.size)
    if not raw_len:
        return None
    if len(raw_len) < _LEN.size:
        raise _cut_short(len(raw_len))
    length = _frame_length(raw_len)
    rest = reader.read(length)
    if len(rest) < length:
        raise _cut_short(_LEN.size + len(rest))
    return _frame(rest, 0, length)


class SocketLinkSender:
    """Writes payloads onto a socket, one chunk per frame, in LinkQueue order.

    Only the thread that owns a sender calls it.  ``send()`` and ``flush()``
    write what the kernel takes at once; only ``close()`` waits, so the
    socket must be in blocking mode (no timeout).  A write that fails is
    recorded, not raised: later sends refuse, and nothing more is written.
    """

    def __init__(
        self,
        sock: socket.socket,
        chunk_size: int | None,
        policy: LinkPolicy = LinkPolicy.DECODE_PRIORITY,
        name: str = "link-sender",
    ):
        self.name = name
        self._sock = sock
        self._queue = LinkQueue(chunk_size=chunk_size, policy=policy)
        # Payload id -> body, from send() until its last chunk is taken, so
        # the queue is empty exactly when this is.
        self._bodies: dict[int, bytes] = {}
        self._rest: bytes | memoryview | None = None  # a write's bytes the kernel has not taken
        self._closed = False
        # Why the sender stopped early.
        self._error: OSError | ProtocolError | None = None

    @property
    def pending(self) -> bool:
        """Whether bytes wait to be written: a frame's rest or a queued chunk."""
        return self._rest is not None or bool(self._bodies)

    def send(self, items) -> None:
        """Queue the ``(payload, body)`` items, then write what the kernel
        takes now: on an idle link, a chunk per item in one write, then one
        chunk per write."""
        for payload, body in items:
            if len(body) != payload.size_bytes:
                raise ProtocolError(
                    f"payload {payload.id}: body is {len(body)} bytes, "
                    f"declared {payload.size_bytes}"
                )
            if not body:  # as LinkQueue.enqueue refuses it, but before any is queued
                raise ConfigError(f"payload {payload.id}: size must be >= 1 byte")
            # Refuse here, not at a later write, a chunk no frame can carry.
            chunk = self._queue.largest_chunk(payload)
            if HEADER_BYTES + chunk > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"payload {payload.id}: {chunk}-byte chunks exceed the frame limit"
                )
        if self._error is not None:
            why = "peer gone" if isinstance(self._error, OSError) else "own frame refused"
            raise ProtocolError(f"{self.name}: {why}: {self._error}")
        if self._closed:
            raise ProtocolError(f"{self.name}: payload {items[0][0].id}: sender is closed")
        idle = not self.pending
        for payload, body in items:
            self._queue.enqueue(payload)
            self._bodies[payload.id] = body
        if idle:  # a chunk per item, in queue order, joined: one write per burst
            self._rest = b"".join([self._next_frame() for _ in items])
        self.flush()

    def flush(self) -> None:
        """Write what the kernel takes now of what is pending: the rest of a
        write first, then a chunk per write, so that a decode queued
        meanwhile leaves at the next chunk."""
        try:
            while self._error is None:
                if self._rest is not None:
                    data, self._rest = self._rest, None
                elif (data := self._next_frame()) is None:
                    return
                try:
                    sent = self._sock.send(data, socket.MSG_DONTWAIT)
                except BlockingIOError:  # the socket buffer is full
                    sent = 0
                if sent < len(data):
                    self._rest = memoryview(data)[sent:]
                    return
        except (OSError, ProtocolError) as exc:
            self._fail(exc)

    def close(self) -> None:
        """Refuse later sends, write everything pending, waiting for room on
        the socket, then half-close it; a sender that failed returns at once
        and leaves its stream open."""
        self._closed = True
        self.flush()
        if self.pending:
            room = select.poll()
            room.register(self._sock, select.POLLOUT)
            while self.pending:
                room.poll()
                self.flush()
        if self._error is None:
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError as exc:  # the socket is gone already
                self._fail(exc)

    def _next_frame(self) -> bytes | None:
        """The frame of the next chunk in queue order, or None."""
        chunk = self._queue.next_chunk()
        if chunk is None:
            return None
        payload_id, index, size, is_last, phase = chunk
        body = self._bodies.pop(payload_id) if is_last else self._bodies[payload_id]
        # Only a chunked payload has chunks past index 0, and every chunk
        # before its last is full.
        offset = index * (self._queue.chunk_size or 0)
        flags = FLAG_LAST if is_last else 0
        if phase is Phase.DECODE:
            flags |= FLAG_DECODE
        return encode_frame(payload_id, index, flags, body[offset : offset + size])

    def _fail(self, error: OSError | ProtocolError) -> None:
        """Record why writing stopped.  Later sends refuse instead of queueing
        for nobody, and nothing is pending."""
        self._error = error
        self._bodies.clear()
        self._rest = None


def receive_payloads(sock: socket.socket, on_payloads, out: SocketLinkSender) -> None:
    """Hand each ``recv``'s completed payloads to ``on_payloads(items)`` until
    EOF between payloads, flushing ``out`` while it waits; a refused stream
    or a socket error is a :class:`ProtocolError`."""
    reader = PayloadReader(sock, on_payloads, out)
    while reader.read(None) is not None:
        pass


class PayloadReader:
    """The payloads arriving on a socket, handed on as each ``recv`` completes them.

    Each ``recv`` takes up to ``_RECV_BYTES`` into one buffer held for the
    reader's life, and ``on_payloads(items)`` gets the ``(payload, body)`` of
    each payload its bytes complete, if any.  A refused frame, a chunk out of
    index order or repeated, a payload of 0 bytes and a stream cut mid-frame
    or mid-payload are a :class:`ProtocolError`, raised after the payloads
    before it are handed on.  ``out`` is the sender of the thread that reads,
    flushed while the reader waits.  Both descriptors are the ones the
    sockets had when the reader was made.
    """

    def __init__(self, sock: socket.socket, on_payloads, out: SocketLinkSender) -> None:
        self._sock = sock
        self._poll = select.poll()
        try:
            self._poll.register(sock, select.POLLIN)
        except ValueError as exc:  # a closed socket has no descriptor
            raise ProtocolError(f"link socket failed: {exc}") from exc
        self._out, self._out_fd = out, out._sock.fileno()
        self._watching = False  # the poll waits for room on out's socket
        self._chunk = memoryview(bytearray(_RECV_BYTES))  # each recv's bytes
        self._buf = bytearray()  # the start of a frame not yet whole
        self._partial: dict[int, list[bytes]] = {}  # payload id -> chunks so far
        self._on_payloads = on_payloads

    def read(self, timeout_s: float | None) -> bool | None:
        """Hand on every payload that the bytes arrived so far complete,
        waiting up to ``timeout_s`` (None: without end) until a whole frame
        has arrived.

        Returns True once whole frames were read, False if none arrived in
        time, and None on EOF between payloads.  A refused stream or a socket
        error is a :class:`ProtocolError`.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        took = False  # whole frames were read
        full = False  # the last recv filled the buffer: the kernel may hold more
        while True:
            if not full:
                if took:
                    return True
                if not self._wait(deadline):
                    return False
            try:
                n = self._sock.recv_into(self._chunk, 0, socket.MSG_DONTWAIT)
            except BlockingIOError:  # woken with nothing to read after all
                full = False
                continue
            except OSError as exc:
                raise ProtocolError(f"link socket failed: {exc}") from exc
            if not n:
                if self._buf:
                    raise _cut_short(len(self._buf))
                if self._partial:
                    cut = min(self._partial)
                    raise ProtocolError(f"stream ended in the middle of payload {cut}")
                return None
            took |= self._take(n)
            full = n == _RECV_BYTES

    def _wait(self, deadline: float | None) -> bool:
        """Wait until the socket has bytes or its end to read, flushing ``out``
        whenever it is pending and its socket has room; False if ``deadline``
        (monotonic s, or None) passes first."""
        out, poll = self._out, self._poll
        while True:
            if out.pending is not self._watching:
                self._watching = not self._watching
                if self._watching:
                    poll.register(self._out_fd, select.POLLOUT)
                else:
                    poll.unregister(self._out_fd)
            wait_ms = None
            if deadline is not None:
                wait_ms = max(math.ceil((deadline - time.monotonic()) * 1000), 0)
            events = poll.poll(wait_ms)
            if not events:
                return False
            readable = False
            for fd, _ in events:
                if fd == self._out_fd:
                    out.flush()
                else:
                    readable = True
            if readable:
                return True

    def _take(self, n: int) -> bool:
        """Split the ``n`` bytes just received, after any start of a frame
        before them, into frames, and hand on the payloads they complete;
        whether any frame was whole."""
        buf = self._buf
        buf += self._chunk[:n]
        at, size, done = 0, len(buf), []
        try:
            while size - at >= _LEN.size:
                end = at + _LEN.size + _frame_length(buf, at)
                if end > size:
                    break
                payload_id, chunk_index, flags, body = _frame(buf, at + _LEN.size, end)
                if item := self._add(payload_id, chunk_index, flags, bytes(body)):
                    done.append(item)
                at = end
        finally:
            del buf[:at]
            if done:  # also before a refusal: the payloads before it are good
                self._on_payloads(done)
        return at > 0

    def _add(self, payload_id: int, chunk_index: int, flags: int, body: bytes):
        """The payload and body that this frame completes, or None; a chunk
        out of index order, or repeated, and a payload of 0 bytes are a
        ProtocolError."""
        pieces = self._partial.get(payload_id)
        due = 0 if pieces is None else len(pieces)
        if chunk_index != due:
            raise ProtocolError(
                f"payload {payload_id}: chunk {chunk_index} where chunk {due} was due"
            )
        if not flags & FLAG_LAST:
            self._partial.setdefault(payload_id, []).append(body)
            return None
        if pieces is not None:
            del self._partial[payload_id]
            pieces.append(body)
            body = b"".join(pieces)
        if not body:  # no sender sends one (SocketLinkSender.send)
            raise ProtocolError(f"payload {payload_id}: empty payload")
        phase = Phase.DECODE if flags & FLAG_DECODE else Phase.PREFILL
        return Payload(payload_id, phase, len(body)), body


def loopback_pair() -> tuple[socket.socket, socket.socket]:
    """A connected TCP pair over 127.0.0.1."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    server.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return client, server
