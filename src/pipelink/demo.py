"""Live pipeline over loopback sockets, as a ring of any depth.

Drives the engine's :class:`~pipelink.engine.HeadScheduler` (controller
decision with its ``decision_stride``, continuous batching, in-flight cap,
request state machine), the same one the virtual-time engine runs, but moves
activations and token feedback through the real framed-socket transport.
Compute is not slept, so wall-clock timing is meaningless here; what must
match the virtual run is the token accounting, and the test suite checks
exactly that.

Each hop of the ring (stage i to stage i+1, the last stage back to the head)
is one loopback connection with one sender.  The head sends activations;
each middle stage relays them unchanged; the tail turns each activation into
one feedback payload for the head.  Payloads have the simulator's sizes:
an activation's first ``min(4, size)`` bytes carry its request count, which
fits because a micro-batch has no more requests than tokens, and no more
tokens than activation bytes.  A stage reads its hop with
:func:`~pipelink.wire.receive_payloads`, whose ``on_payload(payload, body)``
has the signature of ``SocketLinkSender.send``, so a relay passes the next
hop's ``send`` itself.  The head keeps the pipeline full: when feedback comes
back it applies every feedback already queued before it dispatches again, so
micro-batches that return together go out together.

A run ends hop by hop.  Closing a sender drains it, then half-closes its
socket; the stage downstream reads EOF, returns from ``receive_payloads`` and
closes its own sender, until the head's receiver reads the end of the return
stream.  The head waits for that end before it closes the sockets.

Arrivals are collapsed: the trace's requests are offered in arrival order as
fast as the pipeline accepts them.
"""

from __future__ import annotations

import queue
import socket
import threading
from queue import Empty

# Not called here, but kept importable: bench/layers.py traces both names here.
from .controller import choose_n  # noqa: F401
from .engine import EngineConfig, HeadScheduler, ring_links
from .engine import admit_and_batch  # noqa: F401
from .errors import ConfigError, ProtocolError
from .placement import ClusterSpec
from .profiles import Phase, StageProfile
from .transport import Payload, activation_bytes, feedback_bytes
from .wire import SocketLinkSender, loopback_pair, receive_payloads
from .workload import Trace


def _relay(in_sock, out_sender: SocketLinkSender) -> None:
    """Middle stage: pass each payload on unchanged, with its id and phase."""
    try:
        receive_payloads(in_sock, out_sender.send)
    finally:
        out_sender.close()  # the end of the stream, or its failure, goes on


def _tail_worker(forward_sock, return_sender: SocketLinkSender) -> None:
    """Last stage: receive an activation, emit one feedback token per request."""

    def on_payload(p: Payload, body: bytes) -> None:
        size = feedback_bytes(int.from_bytes(body[:4], "little"))
        return_sender.send(Payload(p.id, Phase.DECODE, size), bytes(size))

    try:
        receive_payloads(forward_sock, on_payload)
    finally:
        return_sender.close()


def _apply_feedback(sched: HeadScheduler, feedback_q, timeout_s: float) -> None:
    """Wait for one feedback, then apply it and every other one already queued."""
    try:
        fb = feedback_q.get(timeout=timeout_s)
    except Empty:
        raise ProtocolError(
            f"no feedback from the tail stage within {timeout_s} s"
        ) from None
    while True:
        if fb is None:
            raise ProtocolError("the tail stage closed the return stream early")
        if isinstance(fb, ProtocolError):
            raise ProtocolError(f"the return stream failed: {fb}") from fb
        mb = sched.in_flight.get(fb.id)
        if mb is None:
            raise ProtocolError(f"feedback for unknown micro-batch {fb.id}")
        sched.feedback(mb, 0)
        try:
            fb = feedback_q.get_nowait()
        except Empty:
            return


def run_socket_demo(
    cfg: EngineConfig,
    cluster: ClusterSpec,
    stage_profiles: list[StageProfile],
    trace: Trace,
    timeout_s: float = 60.0,
) -> dict[int, int]:
    """Drive the trace through a socket pipeline ring; returns tokens/request."""
    if len(cfg.partition.stages) < 2:
        raise ConfigError("socket demo needs at least two stages")
    links = ring_links(cfg.partition, cluster)
    sched = HeadScheduler(cfg, stage_profiles, links, trace.requests)
    for req in sched.requests.values():
        sched.arrive(req)

    # Hop i carries stage i's output to stage i+1, the last hop to the head.
    pairs = [loopback_pair() for _ in links]
    senders = [
        SocketLinkSender(out, cfg.chunk_size, cfg.scheduling_policy, f"hop{i}-sender")
        for i, (out, _) in enumerate(pairs)
    ]
    feedback_q: queue.Queue[Payload | ProtocolError | None] = queue.Queue()

    def receive_feedback() -> None:
        # The end of the return stream, None or the error that ended it, wakes
        # the head if it still waits for feedback.
        end = None
        try:
            receive_payloads(pairs[-1][1], lambda p, _: feedback_q.put(p))
        except ProtocolError as exc:
            end = exc
        feedback_q.put(end)

    # Stage i reads hop i-1 and writes hop i; the last stage is the tail.
    last = len(links) - 1
    stages = [
        threading.Thread(
            target=_tail_worker if i == last else _relay,
            args=(pairs[i - 1][1], senders[i]),
            name="tail" if i == last else f"relay{i}",
            daemon=True,
        )
        for i in range(1, len(links))
    ]
    head_receiver = threading.Thread(
        target=receive_feedback, name="head-recv", daemon=True
    )
    workers = [*senders, *stages, head_receiver]
    for worker in workers:
        worker.start()

    forward_sender = senders[0]
    socks = [sock for pair in pairs for sock in pair]
    try:
        while sched.unfinished:
            batches = sched.dispatch()
            for mb in batches:
                # The payload id is the micro-batch id: each is sent once.
                size = activation_bytes(mb.batched_tokens, sched.bytes_per_token)
                head = min(4, size)
                body = len(mb.request_ids).to_bytes(head, "little") + bytes(size - head)
                forward_sender.send(Payload(mb.id, mb.phase, size), body)
            if batches:
                continue
            if not sched.in_flight:
                raise ProtocolError("demo stalled with no work in flight")
            _apply_feedback(sched, feedback_q, timeout_s)
    except BaseException:
        # No joins on failure: a mute worker would hold each one for
        # timeout_s.  Shutting the sockets down ends every blocked read/write.
        forward_sender.close()
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        raise
    forward_sender.close()
    for worker in workers:
        worker.join(timeout=timeout_s)
    for sock in socks:
        sock.close()

    return {rid: req.tokens_emitted for rid, req in sorted(sched.requests.items())}
