"""Real-socket transport backend: framing plus per-link worker threads.

Wire format, little-endian throughout, length-prefixed:

    u32 frame_length            covers header + body
    u64 payload_id              16-byte header starts here
    u32 chunk_index
    u32 flags                   bit 0: last chunk, bit 1: decode class;
                                any other bit is refused
    ...                         chunk body (frame_length - 16 bytes)

The sender applies the same two-class, chunk-granular schedule as the
virtual-time backend: it owns a :class:`LinkQueue` guarded by a condition
variable, and the worker thread drains it one chunk at a time.  A stream
ends only with EOF between payloads: once closed and drained, the sender
half-closes its socket (``shutdown(SHUT_WR)``).  A sender that failed leaves
its stream open, so its peer never mistakes a cut stream for a finished one.
:func:`receive_payloads` reads frames through one buffered reader per socket,
so a frame costs two reads from the reader's buffer rather than two
``recv`` calls, and a burst of small frames is taken in by one ``recv``.  It
reassembles chunks into payloads, checking that each payload's chunks come in
index order, and calls ``on_payload(payload, body)`` with each completed one:
the :class:`~pipelink.transport.Payload` and the bytes its sender was given.
"""

from __future__ import annotations

import socket
import struct
import threading
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


def encode_frame(payload_id: int, chunk_index: int, flags: int, body: bytes) -> bytes:
    length = HEADER_BYTES + len(body)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(length) + _HEADER.pack(payload_id, chunk_index, flags) + body


def read_frame(reader: BinaryIO) -> tuple[int, int, int, bytes] | None:
    """One frame off a buffered reader, or None on clean EOF between frames;
    a truncated frame, a bad length or an unknown flag bit is a ProtocolError."""
    raw_len = reader.read(_LEN.size)
    if not raw_len:
        return None
    if len(raw_len) < _LEN.size:
        raise ProtocolError("connection closed mid-length field")
    (length,) = _LEN.unpack(raw_len)
    if length < HEADER_BYTES:
        raise ProtocolError(f"frame shorter than header ({length} bytes)")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    rest = reader.read(length)
    if len(rest) < length:
        raise ProtocolError("connection closed mid-frame")
    payload_id, chunk_index, flags = _HEADER.unpack_from(rest)
    if flags & ~_FLAGS:
        raise ProtocolError(f"payload {payload_id}: unknown flag bits {flags:#x}")
    return payload_id, chunk_index, flags, rest[HEADER_BYTES:]


class SocketLinkSender(threading.Thread):
    """Worker draining a LinkQueue onto a socket, one chunk per frame."""

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
        self._bodies: dict[int, bytes] = {}
        self._cond = threading.Condition()
        self._closing = False
        # Why the worker stopped early.
        self._error: OSError | ProtocolError | None = None

    def send(self, payload: Payload, body: bytes) -> None:
        if len(body) != payload.size_bytes:
            raise ProtocolError(
                f"payload {payload.id}: body is {len(body)} bytes, "
                f"declared {payload.size_bytes}"
            )
        # Refuse here, not in the worker thread, a chunk no frame can carry.
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
            self._queue.enqueue(payload)
            self._bodies[payload.id] = body
            self._cond.notify()

    def close(self) -> None:
        """Flush queued payloads, then half-close the socket and stop."""
        with self._cond:
            self._closing = True
            self._cond.notify()

    def _next_chunk(self) -> Chunk | None:
        """The next chunk to send, waiting for one; None once closed and drained."""
        with self._cond:
            while True:
                chunk = self._queue.next_chunk()
                if chunk is not None or self._closing:
                    return chunk
                self._cond.wait()

    def run(self) -> None:
        try:
            while (chunk := self._next_chunk()) is not None:
                # Only a chunked payload has chunks past index 0, and every
                # chunk before its last is full.
                offset = chunk.index * (self._queue.chunk_size or 0)
                body = self._bodies[chunk.payload_id]
                piece = body[offset : offset + chunk.size_bytes]
                flags = 0
                if chunk.is_last:
                    flags |= FLAG_LAST
                    del self._bodies[chunk.payload_id]
                if chunk.phase is Phase.DECODE:
                    flags |= FLAG_DECODE
                self._sock.sendall(
                    encode_frame(chunk.payload_id, chunk.index, flags, piece)
                )
            self._sock.shutdown(socket.SHUT_WR)
        except (OSError, ProtocolError) as exc:
            with self._cond:  # later sends fail instead of queueing for nobody
                self._error = exc
                self._bodies.clear()


def receive_payloads(sock: socket.socket, on_payload) -> None:
    """Reassemble framed chunks into payloads; call ``on_payload(payload, body)``.

    Returns on EOF between payloads.  Raises :class:`ProtocolError` on a
    frame that :func:`read_frame` refuses, on a chunk whose index is out of
    order or repeated, on a payload of 0 bytes, on a stream that ends in the
    middle of a payload, and on a socket error.
    """
    partial: dict[int, list[bytes]] = {}  # payload id -> chunks so far
    try:
        # The socket keeps its fd until this reader is closed too.
        with sock.makefile("rb") as reader:
            while True:
                frame = read_frame(reader)
                if frame is None:
                    if partial:
                        raise ProtocolError(
                            f"stream ended in the middle of payload {min(partial)}"
                        )
                    return
                payload_id, chunk_index, flags, body = frame
                pieces = partial.setdefault(payload_id, [])
                if chunk_index != len(pieces):
                    raise ProtocolError(
                        f"payload {payload_id}: chunk {chunk_index} where "
                        f"chunk {len(pieces)} was due"
                    )
                pieces.append(body)
                if flags & FLAG_LAST:
                    del partial[payload_id]
                    phase = Phase.DECODE if flags & FLAG_DECODE else Phase.PREFILL
                    whole = b"".join(pieces)
                    if not whole:  # no sender sends one (SocketLinkSender.send)
                        raise ProtocolError(f"payload {payload_id}: empty payload")
                    on_payload(Payload(payload_id, phase, len(whole)), whole)
    except OSError as exc:
        raise ProtocolError(f"link socket failed: {exc}") from exc


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
