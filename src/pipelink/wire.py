"""Real-socket transport backend: framing plus per-link senders.

Wire format, little-endian throughout, length-prefixed:

    u32 frame_length            covers header + body
    u64 payload_id              16-byte header starts here
    u32 chunk_index
    u32 flags                   bit 0: last chunk, bit 1: decode class;
                                any other bit is refused
    ...                         chunk body (frame_length - 16 bytes)

The sender applies the same two-class, chunk-granular schedule as the
virtual-time backend: it owns a :class:`LinkQueue` guarded by a condition
variable.  ``send(items)`` takes a burst of ``(payload, body)`` pairs and
checks each before it queues any.  When no thread is writing and nothing is
queued, it takes one chunk per item, in ``LinkQueue`` order, and writes their
frames, joined, with one non-blocking ``send`` from the caller's thread: one
write and no thread hand-off per burst, yet no burst of long prefills copied
whole, and a later decode still waits only a chunk.  The sender's worker
thread writes whatever the kernel did not take, before any other frame, then
drains the queue one chunk at a time.
``send()`` never blocks on the socket: a full socket buffer or a peer that
stops reading stalls only the worker.  A stream ends only with EOF between
payloads: ``close()`` lets the worker wait out a caller's write, write its
rest and drain the queue before it half-closes the socket
(``shutdown(SHUT_WR)``), so each hop of a ring still delivers everything
sent on it before its EOF.  A sender that failed, in either thread, leaves
its stream open, so its peer never mistakes a cut stream for a finished one.
The one receiver, :class:`PayloadReader`, splits what each ``recv`` takes in
into frames, checks them (:func:`_frame_length` and :func:`_frame`) and the
index order of each payload's chunks, and calls ``on_payloads(items)`` once
with the ``(payload, body)`` of each payload they complete, the signature of
``SocketLinkSender.send``.  :func:`receive_payloads` runs it in blocking mode
for a thread that only reads; the demo's head calls ``read(timeout_s)``
between other work.  :func:`read_frame` applies the same checks to one frame
off a buffered reader.
"""

from __future__ import annotations

import math
import select
import socket
import struct
import threading
import time
from typing import BinaryIO

from .errors import ConfigError, ProtocolError
from .profiles import Phase
from .transport import Chunk, LinkPolicy, LinkQueue, Payload

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


class SocketLinkSender(threading.Thread):
    """Writes payloads onto a socket, one chunk per frame, in LinkQueue order.

    ``send()`` never blocks on the socket: on an idle link it writes a frame
    per item from the caller's thread with one non-blocking ``send``, and this
    worker thread writes what the kernel did not take, then every queued
    chunk; ``close()`` lets it finish all of that before it half-closes.  The
    socket must be in blocking mode (no timeout), so that the worker's writes
    wait and the caller's return at once.  A write that fails, in either
    thread, is recorded: later sends refuse, the worker stops, and the stream
    is not half-closed.
    """

    def __init__(
        self,
        sock: socket.socket,
        chunk_size: int | None,
        policy: LinkPolicy = LinkPolicy.DECODE_PRIORITY,
        name: str = "link-sender",
    ):
        super().__init__(name=name, daemon=True)
        self._sock = sock
        self._queue = LinkQueue(chunk_size=chunk_size, policy=policy)
        # Payload id -> body, from send() until its last chunk is taken, so
        # the queue is empty exactly when this is.
        self._bodies: dict[int, bytes] = {}
        self._cond = threading.Condition()
        self._closing = False
        self._writing = False  # a thread is writing a frame
        self._rest: memoryview | None = None  # what a caller's write left over
        # Why the sender stopped early.
        self._error: OSError | ProtocolError | None = None

    def send(self, items) -> None:
        """Queue the ``(payload, body)`` items; on an idle link, write a chunk per item now."""
        for payload, body in items:
            if len(body) != payload.size_bytes:
                raise ProtocolError(
                    f"payload {payload.id}: body is {len(body)} bytes, "
                    f"declared {payload.size_bytes}"
                )
            if not body:  # as LinkQueue.enqueue refuses it, but before any is queued
                raise ConfigError(f"payload {payload.id}: size must be >= 1 byte")
            # Refuse here, not in a writing thread, a chunk no frame can carry.
            # Decode payloads are never split (LinkQueue.next_chunk).
            chunk = payload.size_bytes
            if payload.phase is not Phase.DECODE and self._queue.chunk_size:
                chunk = min(chunk, self._queue.chunk_size)
            if HEADER_BYTES + chunk > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"payload {payload.id}: {chunk}-byte chunks exceed the frame limit"
                )
        with self._cond:
            if self._error is not None:
                why = "peer gone" if isinstance(self._error, OSError) else "own frame refused"
                raise ProtocolError(f"{self.name}: {why}: {self._error}")
            if self._closing:
                raise ProtocolError(f"{self.name}: payload {items[0][0].id}: sender is closing")
            idle = not (self._writing or self._bodies or self._rest is not None)
            for payload, body in items:
                self._queue.enqueue(payload)
                self._bodies[payload.id] = body
            if not idle:
                if not self._writing:  # a writer looks at the queue when it is done
                    self._cond.notify()
                return
            taken = [self._take() for _ in items]  # a chunk per item, in queue order
            self._writing = True
        self._write_now(taken)

    def close(self) -> None:
        """Flush queued payloads, then half-close the socket and stop."""
        with self._cond:
            self._closing = True
            self._cond.notify()

    def _take(self) -> tuple[Chunk, bytes] | None:
        """The next chunk and its payload's body; the caller holds ``_cond``."""
        chunk = self._queue.next_chunk()
        if chunk is None:
            return None
        body = self._bodies[chunk.payload_id]
        if chunk.is_last:
            del self._bodies[chunk.payload_id]
        return chunk, body

    def _frame(self, chunk: Chunk, body: bytes) -> bytes:
        # Only a chunked payload has chunks past index 0, and every chunk
        # before its last is full.
        offset = chunk.index * (self._queue.chunk_size or 0)
        flags = FLAG_LAST if chunk.is_last else 0
        if chunk.phase is Phase.DECODE:
            flags |= FLAG_DECODE
        return encode_frame(
            chunk.payload_id, chunk.index, flags, body[offset : offset + chunk.size_bytes]
        )

    def _write_now(self, taken: list[tuple[Chunk, bytes]]) -> None:
        """Write the frames of ``taken``, joined, from the caller's thread, without waiting."""
        rest = error = None
        try:
            frame = b"".join([self._frame(*job) for job in taken])
            try:
                sent = self._sock.send(frame, socket.MSG_DONTWAIT)
            except BlockingIOError:  # the socket buffer is full
                sent = 0
            if sent < len(frame):
                rest = memoryview(frame)[sent:]
        except (OSError, ProtocolError) as exc:
            error = exc
        finally:
            with self._cond:
                self._writing = False
                self._rest = rest
                if error is not None:
                    self._fail(error)
                if rest is not None or self._bodies or self._closing or error is not None:
                    self._cond.notify()

    def _fail(self, error: OSError | ProtocolError) -> None:
        """Record why writing stopped; the caller holds ``_cond``.  Later sends
        refuse instead of queueing for nobody."""
        self._error = error
        self._bodies.clear()

    def _next_job(self, wrote: bool) -> tuple[Chunk | None, bytes | memoryview] | None:
        """The rest of a caller's frame, or the next chunk and its body, marked
        as being written, waiting for one; None once closed and drained, or
        once a write failed.  ``wrote``: the worker wrote the last job."""
        with self._cond:
            if wrote:
                self._writing = False
            while self._error is None:
                if not self._writing:
                    if (rest := self._rest) is not None:
                        self._rest = None
                        self._writing = True
                        return None, rest
                    if (taken := self._take()) is not None:
                        self._writing = True
                        return taken
                    if self._closing:
                        return None
                self._cond.wait()
            return None

    def run(self) -> None:
        try:
            job = self._next_job(False)
            while job is not None:
                chunk, body = job
                self._sock.sendall(body if chunk is None else self._frame(chunk, body))
                job = self._next_job(True)
            if self._error is None:  # closed and drained: no write can start now
                self._sock.shutdown(socket.SHUT_WR)
        except (OSError, ProtocolError) as exc:
            with self._cond:
                self._writing = False
                self._fail(exc)


def receive_payloads(sock: socket.socket, on_payloads) -> None:
    """Hand each ``recv``'s completed payloads to ``on_payloads(items)``,
    reading in blocking mode, until EOF between payloads; a refused stream
    or a socket error is a :class:`ProtocolError`."""
    reader = PayloadReader(sock, on_payloads)
    while reader.read(None) is not None:
        pass


class PayloadReader:
    """The payloads arriving on a socket, handed on as each ``recv`` completes them.

    Each ``recv`` takes up to ``_RECV_BYTES`` into one buffer held for the
    reader's life, and ``on_payloads(items)`` gets the ``(payload, body)`` of
    each payload its bytes complete, if any.  A refused frame, a chunk out of
    index order or repeated, a payload of 0 bytes and a stream cut mid-frame
    or mid-payload are a :class:`ProtocolError`, raised after the payloads
    before it are handed on.
    """

    def __init__(self, sock: socket.socket, on_payloads) -> None:
        self._sock = sock
        self._fd, self._poll = sock.fileno(), None  # made by the first read with a timeout
        self._chunk = memoryview(bytearray(_RECV_BYTES))  # each recv's bytes
        self._buf = bytearray()  # the start of a frame not yet whole
        self._partial: dict[int, list[bytes]] = {}  # payload id -> chunks so far
        self._on_payloads = on_payloads

    def read(self, timeout_s: float | None) -> bool | None:
        """Hand on every payload that the bytes arrived so far complete; until
        a whole frame has arrived, wait up to ``timeout_s`` with ``poll``, or
        with None, in blocking ``recv`` calls.

        Returns True once whole frames were read, False if none arrived in
        time, and None on EOF between payloads.  A refused stream or a socket
        error is a :class:`ProtocolError`.
        """
        blocking = timeout_s is None
        if not blocking and self._poll is None:
            self._poll = select.poll()
            self._poll.register(self._fd, select.POLLIN)
        deadline = 0 if blocking else time.monotonic() + timeout_s
        took = False  # whole frames were read
        full = False  # the last recv filled the buffer: the kernel may hold more
        while True:
            if not full:
                if took:
                    return True
                if not blocking:
                    left_ms = math.ceil((deadline - time.monotonic()) * 1000)
                    if not self._poll.poll(max(left_ms, 0)):
                        return False
            try:
                n = self._sock.recv_into(self._chunk, 0, 0 if blocking else socket.MSG_DONTWAIT)
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
            full = not blocking and n == _RECV_BYTES  # a blocking read leaves it to the next

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
