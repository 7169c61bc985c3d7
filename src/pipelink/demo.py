"""Live pipeline over loopback sockets, as a ring of any depth.

Drives the engine's :class:`~pipelink.engine.HeadScheduler` (controller
decision with its ``decision_stride``, continuous batching, in-flight cap,
request state machine), the same one the virtual-time engine runs, but moves
activations and token feedback through the real framed-socket transport.
Compute is not slept, so wall-clock timing is meaningless here; what must
match the virtual run is the token accounting, and the test suite checks
exactly that.

Each hop of the ring (stage i to stage i+1, the last stage back to the head)
is one loopback connection, and one thread writes it, through its sender:
the head hop 0, stage i hop i.  The head sends activations; each middle
stage relays them unchanged; the tail turns each activation into one
feedback payload for the head.  Payloads move in bursts: the head sends one
dispatch's micro-batches in one ``send``, and a stage sends on what one
``recv`` completed in one, so a burst on an idle hop is one socket write.
Payloads have the simulator's sizes: an activation's first ``min(4, size)``
bytes carry its request count, which fits because a micro-batch has no more
requests than tokens, and no more tokens than activation bytes.

Besides the head's, a ring of n stages runs n - 1 threads, the relays and
the tail, and no lock.  Each runs :func:`_stage` and reads its hop with
:func:`~pipelink.wire.receive_payloads`, whose ``on_payloads(items)`` has
the signature of ``SocketLinkSender.send``, so a relay passes the next hop's
``send`` itself.  The head reads the return hop with a
:class:`~pipelink.wire.PayloadReader`, only when it has nothing left to
dispatch, and applies every feedback that has arrived before it dispatches
again, so micro-batches that return together go out together.  Each
thread's reader flushes the thread's out hop while it waits for input.

A stage's end report is a ``ProtocolError`` naming the stage and saying
whether its input ended or what it raised.  :func:`_stage` does the stage's
work, then puts its report on the head's queue of end reports, then closes
its out sender, so every report upstream of a stage is queued before that
stage reads EOF.  A run ends hop by hop: closing a sender waits until the
stage downstream has taken everything pending, then half-closes the socket,
and that stage reads EOF and ends too, up to the head.  A stage whose work
raised, its out sender's failure included, also cuts its out hop first: it
shuts the socket down both ways, so the stage downstream reads EOF at once,
though a failed sender leaves its stream open.  At the end of a run the head
joins the stage threads and closes the sockets; the end reports go unread.
An end report reaches the head when the return stream ends while work is in
flight: the head then raises the first report queued, so a failed stage
reaches it by name and cause, at once, and it shuts every socket down, which
ends every stage's wait.

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
from .wire import PayloadReader, SocketLinkSender, loopback_pair, receive_payloads
from .workload import Trace


def _relay(in_sock, out_sender: SocketLinkSender) -> None:
    """Middle stage: pass each burst on unchanged, with its ids and phases."""
    receive_payloads(in_sock, out_sender.send, out_sender)


def _tail_worker(forward_sock, return_sender: SocketLinkSender) -> None:
    """Last stage: answer each burst of activations with one burst of feedback,
    one token per request."""

    def on_payloads(items) -> None:
        sizes = [(p.id, feedback_bytes(int.from_bytes(body[:4], "little"))) for p, body in items]
        return_sender.send([(Payload(pid, Phase.DECODE, n), bytes(n)) for pid, n in sizes])

    receive_payloads(forward_sock, on_payloads, return_sender)


def _stage(name: str, work, in_sock, out_sock, out_sender: SocketLinkSender, reports) -> None:
    """Run ``work`` on the stage's hop, put its end report, cut its out hop if
    ``work`` raised, and close its out sender."""
    report = ProtocolError(f"{name}'s input ended, so the ring closed the return stream early")
    try:
        work(in_sock, out_sender)
    except BaseException as exc:  # whatever stopped the stage reaches the head
        report = ProtocolError(f"{name} failed: {type(exc).__name__}: {exc}")
        report.__cause__ = exc
        if not isinstance(exc, Exception):
            raise  # an exit or interrupt goes on, once reported below
    finally:
        reports.put(report)
        if report.__cause__ is not None:  # cut the out hop: downstream reads EOF at once
            try:
                out_sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # the head has closed it already
                pass
        out_sender.close()


def _feedback_to(sched: HeadScheduler):
    """The head's ``on_payloads`` for the return hop: apply a burst of feedback."""

    def apply(items) -> None:
        for p, _body in items:
            mb = sched.in_flight.get(p.id)
            if mb is None:
                raise ProtocolError(f"feedback for unknown micro-batch {p.id}")
            sched.feedback(mb, 0)

    return apply


def _apply_feedback(returns: PayloadReader, reports, timeout_s: float) -> None:
    """Wait for feedback, then apply every feedback that has arrived.  If the
    return stream ended instead, or no feedback came in time, raise the first
    end report, waiting for it at the end of the stream: the stage that ended
    the stream puts its report before it closes the stream, or just after if
    its work closed it."""
    got = returns.read(timeout_s)
    if got:
        return
    if got is None:
        wait_s = timeout_s
        why = f"the return stream ended, and no stage reported within {timeout_s} s"
    else:
        wait_s, why = 0, f"no feedback from the tail stage within {timeout_s} s"
    try:
        report = reports.get(timeout=wait_s)
    except Empty:
        raise ProtocolError(why) from None
    raise report


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
    reports: queue.Queue[ProtocolError] = queue.Queue()
    forward_sender = senders[0]
    returns = PayloadReader(pairs[-1][1], _feedback_to(sched), forward_sender)

    # Stage i reads hop i-1 and writes hop i, for i from 1: the relays, then
    # the tail.  The head's loop writes hop 0 and reads the return hop.
    roles = [
        *((f"relay {i}", _relay) for i in range(1, len(links) - 1)), ("tail", _tail_worker)
    ]
    stages = [
        threading.Thread(target=_stage, name=name, daemon=True, args=(
            name, work, pairs[i - 1][1], pairs[i][0], senders[i], reports))
        for i, (name, work) in enumerate(roles, start=1)
    ]
    for stage in stages:
        stage.start()

    socks = [sock for pair in pairs for sock in pair]
    try:
        while sched.unfinished:
            burst = []
            for mb in sched.dispatch():
                # The payload id is the micro-batch id: each is sent once.
                size = activation_bytes(mb.batched_tokens, sched.bytes_per_token)
                head = min(4, size)
                body = len(mb.request_ids).to_bytes(head, "little") + bytes(size - head)
                burst.append((Payload(mb.id, mb.phase, size), body))
            if burst:
                forward_sender.send(burst)
                continue
            if not sched.in_flight:
                raise ProtocolError("demo stalled with no work in flight")
            _apply_feedback(returns, reports, timeout_s)
    except BaseException:
        # No joins on failure: a mute stage would hold each one for
        # timeout_s.  Shutting the sockets down ends every stage's wait.
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        raise
    forward_sender.close()
    for stage in stages:
        stage.join(timeout=timeout_s)
    for sock in socks:
        sock.close()

    return {rid: req.tokens_emitted for rid, req in sorted(sched.requests.items())}
