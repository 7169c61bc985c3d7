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
one feedback payload for the head.  The thread that sends on a hop (the
head's loop, a relay's or the tail's reader) writes a frame itself when the
hop is idle; the hop's sender thread writes only what the kernel did not
take and what queues up behind a write in progress.  Payloads have the
simulator's sizes: an activation's first ``min(4, size)`` bytes carry its
request count, which fits because a micro-batch has no more requests than
tokens, and no more tokens than activation bytes.  A stage reads its hop with
:func:`~pipelink.wire.receive_payloads`, whose ``on_payload(payload, body)``
has the signature of ``SocketLinkSender.send``, so a relay passes the next
hop's ``send`` itself.  The head keeps the pipeline full: when feedback comes
back it applies every feedback already queued before it dispatches again, so
micro-batches that return together go out together.

Every stage thread, the head's reader of the return hop included, runs
:func:`_stage`: the stage's work, then the close of its out sender, then one
end report on the head's queue, a ``ProtocolError`` naming the stage and
saying whether its input ended or what it raised.  A run ends hop by hop:
closing a sender drains it, then half-closes its socket, and the stage
downstream reads EOF and ends too, up to the head's reader.  The head then
joins the workers and closes the sockets; the end reports go unread.  While
work is in flight, the head raises the first end report it reads, so a
failed stage reaches it by name and cause, and it shuts every socket down.

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
    receive_payloads(in_sock, out_sender.send)


def _tail_worker(forward_sock, return_sender: SocketLinkSender) -> None:
    """Last stage: receive an activation, emit one feedback token per request."""

    def on_payload(p: Payload, body: bytes) -> None:
        size = feedback_bytes(int.from_bytes(body[:4], "little"))
        return_sender.send(Payload(p.id, Phase.DECODE, size), bytes(size))

    receive_payloads(forward_sock, on_payload)


def _stage(name: str, work, in_sock, out_sender: SocketLinkSender | None, reports) -> None:
    """Run ``work`` on the stage's hop, close its out sender, put its end report.

    The head's reader has no out sender: the head's loop owns the forward
    sender, so it never finds that sender closed under it while it sends.
    """
    report = ProtocolError(f"{name}'s input ended, so the ring closed the return stream early")
    try:
        work(in_sock, out_sender)
    except BaseException as exc:  # whatever stopped the stage reaches the head
        report = ProtocolError(f"{name} failed: {type(exc).__name__}: {exc}")
        report.__cause__ = exc
        if not isinstance(exc, Exception):
            raise  # an exit or interrupt goes on, once reported below
    finally:
        if out_sender is not None:
            out_sender.close()
        reports.put(report)


def _apply_feedback(sched: HeadScheduler, feedback_q, timeout_s: float) -> None:
    """Wait for one feedback, then apply it and every other one already queued;
    with work in flight, an end report comes early, and is raised."""
    try:
        fb = feedback_q.get(timeout=timeout_s)
    except Empty:
        raise ProtocolError(
            f"no feedback from the tail stage within {timeout_s} s"
        ) from None
    while True:
        if isinstance(fb, ProtocolError):
            raise fb
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
    feedback_q: queue.Queue[Payload | ProtocolError] = queue.Queue()

    # Stage i reads hop i-1 and writes hop i; stage 0 is the head's reader of
    # the return hop (the head's loop writes hop 0), the last stage the tail.
    roles = [
        ("head", lambda sock, _: receive_payloads(sock, lambda p, _: feedback_q.put(p))),
        *((f"relay {i}", _relay) for i in range(1, len(links) - 1)),
        ("tail", _tail_worker),
    ]
    stages = [
        threading.Thread(target=_stage, name=name, daemon=True, args=(
            name, work, pairs[i - 1][1], senders[i] if i else None, feedback_q))
        for i, (name, work) in enumerate(roles)
    ]
    workers = [*senders, *stages]
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
