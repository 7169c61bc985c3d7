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
variable.  Who writes a frame: when no thread is writing and nothing is
queued, ``send()`` writes the payload's first frame from the caller's thread
with one non-blocking ``send``, so an idle link costs no hand-off to another
thread.  The sender's worker thread writes whatever the kernel did not take,
before any other frame, then drains the queue one chunk at a time.
``send()`` never blocks on the socket: a full socket buffer or a peer that
stops reading stalls only the worker.  A stream ends only with EOF between
payloads: ``close()`` lets the worker wait out a caller's write, write its
rest and drain the queue before it half-closes the socket
(``shutdown(SHUT_WR)``), so each hop of a ring still delivers everything
sent on it before its EOF.  A sender that failed, in either thread, leaves
its stream open, so its peer never mistakes a cut stream for a finished one.
There are two receivers with one decoder: :func:`_frame_length` checks a
frame's length field and :func:`_frame` its header, for both, and one
reassembly checks that each payload's chunks come in index order and calls
``on_payload(payload, body)`` with each completed one: the
:class:`~pipelink.transport.Payload` and the bytes its sender was given.
:func:`receive_payloads` is for a thread that only reads its socket: it
reads frames through one buffered reader per socket, so a frame costs two
reads from the reader's buffer rather than two ``recv`` calls, and a burst
of small frames is taken in by one ``recv``.  :class:`PayloadReader` is for
a thread with other work between reads, such as the demo's head: each
``read()`` takes in what has arrived and hands on every payload it
completes, and waits, up to a timeout, only while no whole frame has come.
"""

from __future__ import annotations

import math
import select
import socket
import struct
import threading
import time
from typing import BinaryIO

from .errors import ProtocolError
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
# Most bytes one PayloadReader.read takes in per recv.
_RECV_BYTES = 64 << 10


def encode_frame(payload_id: int, chunk_index: int, flags: int, body: bytes) -> bytes:
    length = HEADER_BYTES + len(body)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(length) + _HEADER.pack(payload_id, chunk_index, flags) + body


# The two checks of a frame, for both receivers: its length field, read
# first, then its header.
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


class _Assembly:
    """Reassembles frames into payloads and hands each completed one to
    ``on_payload(payload, body)``: the payload and the bytes its sender was
    given.  A payload of one frame is handed on with that frame's body,
    uncopied."""

    def __init__(self, on_payload) -> None:
        self._on_payload = on_payload
        self._partial: dict[int, list[bytes]] = {}  # payload id -> chunks so far

    def add(self, payload_id: int, chunk_index: int, flags: int, body: bytes) -> None:
        """Take one frame; a chunk out of index order, or repeated, and a
        payload of 0 bytes are a ProtocolError."""
        pieces = self._partial.get(payload_id)
        due = 0 if pieces is None else len(pieces)
        if chunk_index != due:
            raise ProtocolError(
                f"payload {payload_id}: chunk {chunk_index} where chunk {due} was due"
            )
        if not flags & FLAG_LAST:
            self._partial.setdefault(payload_id, []).append(body)
            return
        if pieces is not None:
            del self._partial[payload_id]
            pieces.append(body)
            body = b"".join(pieces)
        if not body:  # no sender sends one (SocketLinkSender.send)
            raise ProtocolError(f"payload {payload_id}: empty payload")
        phase = Phase.DECODE if flags & FLAG_DECODE else Phase.PREFILL
        self._on_payload(Payload(payload_id, phase, len(body)), body)

    def end(self) -> None:
        """The stream ended between frames: refuse it if a payload is cut."""
        if self._partial:
            raise ProtocolError(f"stream ended in the middle of payload {min(self._partial)}")


class SocketLinkSender(threading.Thread):
    """Writes payloads onto a socket, one chunk per frame, in LinkQueue order.

    ``send()`` never blocks on the socket: on an idle link it writes the next
    frame from the caller's thread with one non-blocking ``send``, and this
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

    def send(self, payload: Payload, body: bytes) -> None:
        """Queue ``payload``, or write its first frame now if the link is idle."""
        if len(body) != payload.size_bytes:
            raise ProtocolError(
                f"payload {payload.id}: body is {len(body)} bytes, "
                f"declared {payload.size_bytes}"
            )
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
                raise ProtocolError(f"{self.name}: payload {payload.id}: sender is closing")
            idle = not (self._writing or self._bodies or self._rest is not None)
            self._queue.enqueue(payload)
            self._bodies[payload.id] = body
            if not idle:
                if not self._writing:  # a writer looks at the queue when it is done
                    self._cond.notify()
                return
            taken = self._take()
            self._writing = True
        self._write_now(*taken)

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

    def _write_now(self, chunk: Chunk, body: bytes) -> None:
        """Write a frame from the caller's thread, without waiting on the socket."""
        rest = error = None
        try:
            frame = self._frame(chunk, body)
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


def receive_payloads(sock: socket.socket, on_payload) -> None:
    """Reassemble framed chunks into payloads; call ``on_payload(payload, body)``.

    Returns on EOF between payloads.  Raises :class:`ProtocolError` on a
    frame that :func:`read_frame` refuses, on a chunk whose index is out of
    order or repeated, on a payload of 0 bytes, on a stream that ends in the
    middle of a payload, and on a socket error.
    """
    assembly = _Assembly(on_payload)
    try:
        # The socket keeps its fd until this reader is closed too.
        with sock.makefile("rb") as reader:
            while (frame := read_frame(reader)) is not None:
                assembly.add(*frame)
    except OSError as exc:
        raise ProtocolError(f"link socket failed: {exc}") from exc
    assembly.end()


class PayloadReader:
    """The payloads arriving on a socket, for a thread that reads it between
    other work instead of blocking on it for good.

    ``read()`` waits with ``poll`` until bytes arrive, takes in all that the
    kernel holds, usually with one ``recv``, and hands on every payload those
    bytes complete, so payloads that arrive together are handed on together.
    Frames are checked as :func:`read_frame` checks them and reassembled as
    :func:`receive_payloads` reassembles them, so a stream that one refuses
    the other refuses with the same message, after handing on the same
    payloads first.
    """

    def __init__(self, sock: socket.socket, on_payload) -> None:
        self._sock = sock
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        self._chunk = memoryview(bytearray(_RECV_BYTES))  # each recv's bytes
        self._buf = bytearray()  # the start of a frame not yet whole
        self._assembly = _Assembly(on_payload)

    def read(self, timeout_s: float) -> bool | None:
        """Hand on every payload that the bytes arrived so far complete;
        if no whole frame has arrived, wait up to ``timeout_s`` for one.

        Returns True once whole frames were read, False if none arrived in
        time, and None on EOF between payloads.  A refused stream or a socket
        error is a :class:`ProtocolError`.
        """
        deadline = time.monotonic() + timeout_s
        took = False  # whole frames were read
        full = False  # the last recv filled the buffer: the kernel may hold more
        while True:
            if not full:
                if took:
                    return True
                left_ms = math.ceil((deadline - time.monotonic()) * 1000)
                if not self._poll.poll(max(left_ms, 0)):
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
                self._assembly.end()
                return None
            took |= self._take(n)
            full = n == _RECV_BYTES

    def _take(self, n: int) -> bool:
        """Split the ``n`` bytes just received, after any start of a frame
        before them, into frames; whether any frame was whole."""
        buf = self._buf
        buf += self._chunk[:n]
        at, size = 0, len(buf)
        while size - at >= _LEN.size:
            end = at + _LEN.size + _frame_length(buf, at)
            if end > size:
                break
            payload_id, chunk_index, flags, body = _frame(buf, at + _LEN.size, end)
            self._assembly.add(payload_id, chunk_index, flags, bytes(body))
            at = end
        del buf[:at]
        return at > 0


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
