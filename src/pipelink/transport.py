"""Directed links as serial resources with chunked, decode-priority sending.

A link carries one chunk at a time.  Prefill activations are split into
fixed-size chunks so that small decode payloads, which are never split, can
preempt at the next chunk boundary instead of waiting behind the whole
transfer.  Setting ``chunk_size=None`` disables chunking and recovers the
head-of-line-blocking baseline.

The same queue mechanics back two transports: :class:`VirtualLink`, the one
virtual-time driver, and the socket senders in :mod:`pipelink.wire`.  Only
link mechanics live here: the rows a link logs reach a file only through a
:class:`pipelink.outputs.HeldLog`, which prints each field as held.  A row is
a plain tuple of ints and strings,
``(time, link, payload_id, chunk_index, size_bytes, class, event)``:
``time`` is the caller's stamp for the current tick (in a run, the sink's
clock gives it and refuses a tick that goes back), ``link`` the name the
link was built with, ``class`` the payload's :class:`Phase` value (spelled
by :mod:`pipelink.profiles`), and ``event``, spelled here, is ``enqueue``
(``chunk_index`` -1), ``emit``, ``sent`` or ``deliver``.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import NamedTuple

from .errors import ConfigError, ProtocolError
from .profiles import LinkProfile, Phase

DEFAULT_CHUNK_SIZE = 262_144  # 256 KiB: ~21 ms of blocking at 100 Mbps

# Size of the per-request token id fed back from the last stage to the head.
TOKEN_FEEDBACK_BYTES = 8

NS_PER_S = 1_000_000_000


def s_to_ns(seconds: float) -> int:
    return round(seconds * NS_PER_S)


def feedback_bytes(n_requests: int) -> int:
    """Size of the token feedback payload of a micro-batch of ``n_requests``."""
    return max(1, TOKEN_FEEDBACK_BYTES * n_requests)


def activation_bytes(tokens: int, bytes_per_token: int) -> int:
    """Size of the activation payload of ``tokens`` crossing a stage boundary."""
    return tokens * bytes_per_token


class LinkPolicy(enum.Enum):
    DECODE_PRIORITY = "decode_priority"
    FCFS = "fcfs"


class Payload(NamedTuple):
    """One intermediate result to move across a link; at least 1 byte."""

    id: int
    phase: Phase
    size_bytes: int


class Chunk(NamedTuple):
    payload_id: int
    index: int
    size_bytes: int
    is_last: bool
    phase: Phase


# A NamedTuple's __new__ is a Python call that tuple.__new__ skips, and
# attribute access on an enum class is slow per payload.
_new = tuple.__new__
_DECODE = Phase.DECODE


class LinkQueue:
    """Outbound queue for one directed link.

    Under decode priority, decode payloads wait in their own queue and
    ``next_chunk`` takes the head one whole before anything else; every other
    payload waits in one FIFO whose head goes out whole if it is decode or the
    link is unchunked, and slice by slice otherwise.  Queue state advances as
    chunks are taken, so a decode arrival between two prefill chunks preempts
    at that boundary.
    """

    def __init__(
        self,
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
        policy: LinkPolicy = LinkPolicy.DECODE_PRIORITY,
    ):
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1 byte")
        self.chunk_size = chunk_size  # None: unchunked
        self._decode_first = policy is LinkPolicy.DECODE_PRIORITY
        self._decode: deque[Payload] = deque()
        self._fifo: deque[Payload] = deque()
        self._seen_ids: set[int] = set()
        self._head_offset = 0  # bytes of the FIFO head already chunked out
        self._head_index = 0

    def enqueue(self, payload: Payload) -> None:
        if payload.size_bytes < 1:
            raise ConfigError(f"payload {payload.id}: size must be >= 1 byte")
        if payload.id in self._seen_ids:
            raise ProtocolError(f"payload {payload.id} already enqueued on this link")
        self._seen_ids.add(payload.id)
        if self._decode_first and payload.phase is _DECODE:
            self._decode.append(payload)
        else:
            self._fifo.append(payload)

    def largest_chunk(self, payload: Payload) -> int:
        """The size of ``payload``'s largest chunk, as ``next_chunk`` splits it."""
        if payload.phase is _DECODE or self.chunk_size is None:
            return payload.size_bytes
        return min(payload.size_bytes, self.chunk_size)

    def next_chunk(self) -> Chunk | None:
        # Decode payloads are small and never split (largest_chunk).
        if self._decode:
            p = self._decode.popleft()
        elif not self._fifo:
            return None
        elif self._fifo[0].phase is _DECODE or self.chunk_size is None:
            p = self._fifo.popleft()
        else:
            payload_id, phase, total = self._fifo[0]
            remaining, index = total - self._head_offset, self._head_index
            if remaining <= self.chunk_size:
                self._fifo.popleft()
                self._head_offset = self._head_index = 0
                return _new(Chunk, (payload_id, index, remaining, True, phase))
            self._head_offset += self.chunk_size
            self._head_index = index + 1
            return _new(Chunk, (payload_id, index, self.chunk_size, False, phase))
        payload_id, phase, size = p
        return _new(Chunk, (payload_id, 0, size, True, phase))


LinkRow = tuple[str, str, int, int, int, str, str]  # see the module docstring


def transmission_ns(profile: LinkProfile, size_bytes: int) -> int:
    try:
        return round(size_bytes * NS_PER_S / profile.bandwidth_bps)
    except OverflowError:  # the bandwidth is finite, but this time in ns is not
        raise ConfigError(
            f"link {profile.name}: {size_bytes} bytes at {profile.bandwidth_bps} B/s "
            "take longer than a float counts in ns"
        ) from None


def transfer_ns(profile: LinkProfile, nbytes: int) -> int:
    """The one link cost: latency plus the transmission of ``nbytes``, in ns."""
    return s_to_ns(profile.latency_s) + transmission_ns(profile, nbytes)


class VirtualLink:
    """The one virtual-time driver of a link, and the only writer of its log rows.

    It has no clock: ``offer`` and ``sent`` return ``(end_ns, chunk)`` for the
    chunk they just put on the wire, or ``None``, and the caller calls
    ``sent`` at that end time.  A chunk lands ``latency_ns`` after its
    transmission ends, so propagation overlaps the next transmission;
    ``deliver`` logs the landing.  Rows hold the ``stamp`` a call is given
    for its time, the ``name`` the link was built with (in a run, the
    profile's name as the sink quotes it) and ``phase._value_``, the value that
    ``phase.value`` reads through a slower descriptor.
    """

    def __init__(
        self,
        profile: LinkProfile,
        chunk_size: int | None,
        policy: LinkPolicy,
        log: list[LinkRow],
        name: str,
    ):
        self.profile = profile
        self.name = name
        self.latency_ns = s_to_ns(profile.latency_s)
        self.queue = LinkQueue(chunk_size=chunk_size, policy=policy)
        self.busy = False
        self.log = log
        self._tx_ns: dict[int, int] = {}  # transmission_ns by chunk size

    def _emit_next(self, now: int, stamp) -> tuple[int, Chunk] | None:
        chunk = self.queue.next_chunk()
        self.busy = chunk is not None
        if chunk is None:
            return None
        payload_id, index, size, _, phase = chunk
        self.log.append((stamp, self.name, payload_id, index, size, phase._value_, "emit"))
        if (tx_ns := self._tx_ns.get(size)) is None:
            tx_ns = self._tx_ns[size] = transmission_ns(self.profile, size)
        return now + tx_ns, chunk

    def offer(self, payload: Payload, now: int, stamp) -> tuple[int, Chunk] | None:
        self.queue.enqueue(payload)
        payload_id, phase, size = payload
        self.log.append((stamp, self.name, payload_id, -1, size, phase._value_, "enqueue"))
        return None if self.busy else self._emit_next(now, stamp)

    def sent(self, chunk: Chunk, now: int, stamp) -> tuple[int, Chunk] | None:
        payload_id, index, size, _, phase = chunk
        self.log.append((stamp, self.name, payload_id, index, size, phase._value_, "sent"))
        return self._emit_next(now, stamp)

    def deliver(self, chunk: Chunk, stamp) -> None:
        payload_id, index, size, _, phase = chunk
        self.log.append((stamp, self.name, payload_id, index, size, phase._value_, "deliver"))
