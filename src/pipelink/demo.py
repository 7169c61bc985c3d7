"""Two-stage live pipeline over loopback sockets.

Drives the engine's :class:`~pipelink.engine.HeadScheduler` (controller
decision with its ``decision_stride``, continuous batching, in-flight cap,
request state machine), the same one the virtual-time engine runs, but moves
activations and token feedback through the real framed-socket transport.
Compute is not slept, so wall-clock timing is meaningless here; what must
match the virtual run is the token accounting, and the test suite checks
exactly that.

Arrivals are collapsed: the trace's requests are offered in arrival order as
fast as the pipeline accepts them.
"""

from __future__ import annotations

import queue
import struct
import threading
from queue import Empty

# Not called here, but kept importable: bench/layers.py traces both names here.
from .controller import choose_n  # noqa: F401
from .engine import EngineConfig, HeadScheduler, ring_links
from .engine import admit_and_batch  # noqa: F401
from .errors import ConfigError, ProtocolError
from .placement import TOKEN_FEEDBACK_BYTES, ClusterSpec
from .profiles import StageProfile
from .transport import Payload, PayloadClass
from .wire import ReceivedPayload, SocketLinkReceiver, SocketLinkSender, loopback_pair
from .workload import Trace

_COUNT = struct.Struct("<I")


def _tail_worker(forward_sock, return_sender: SocketLinkSender) -> None:
    """Second stage: receive an activation, emit one feedback token per request."""

    def on_payload(p: ReceivedPayload) -> None:
        (count,) = _COUNT.unpack(p.body[:4])
        size = max(1, TOKEN_FEEDBACK_BYTES * count)
        feedback = Payload(
            id=p.payload_id,
            phase_class=PayloadClass.DECODE,
            size_bytes=size,
            micro_batch_id=p.payload_id,
            enqueue_time=0,
        )
        return_sender.send(feedback, bytes(size))

    receiver = SocketLinkReceiver(forward_sock, on_payload, name="tail-recv")
    receiver.run()  # inline: this thread is the tail stage
    return_sender.close()


def run_socket_demo(
    cfg: EngineConfig,
    cluster: ClusterSpec,
    stage_profiles: list[StageProfile],
    trace: Trace,
    timeout_s: float = 60.0,
) -> dict[int, int]:
    """Drive the trace through a 2-stage socket pipeline; returns tokens/request."""
    if len(cfg.partition.stages) != 2:
        raise ConfigError("socket demo supports exactly two stages")
    links = ring_links(cfg.partition, cluster)
    sched = HeadScheduler(cfg, stage_profiles, links, trace.requests)
    sched.pending.extend(sched.requests.values())

    fwd_head, fwd_tail = loopback_pair()
    ret_tail, ret_head = loopback_pair()
    policy = cfg.scheduling_policy
    forward_sender = SocketLinkSender(fwd_head, cfg.chunk_size, policy, "fwd-sender")
    return_sender = SocketLinkSender(ret_tail, cfg.chunk_size, policy, "ret-sender")
    feedback_q: queue.Queue[ReceivedPayload] = queue.Queue()
    head_receiver = SocketLinkReceiver(ret_head, feedback_q.put, name="head-recv")
    tail = threading.Thread(
        target=_tail_worker, args=(fwd_tail, return_sender), name="tail", daemon=True
    )
    forward_sender.start()
    return_sender.start()
    head_receiver.start()
    tail.start()

    try:
        while sched.unfinished:
            batches = sched.dispatch(0)
            for mb in batches:
                # The payload id is the micro-batch id: each is sent once.
                body = _COUNT.pack(len(mb.request_ids)) + bytes(
                    mb.batched_tokens * sched.bytes_per_token
                )
                payload = Payload(
                    id=mb.id,
                    phase_class=mb.payload_class,
                    size_bytes=len(body),
                    micro_batch_id=mb.id,
                    enqueue_time=0,
                )
                forward_sender.send(payload, body)
            if batches:
                continue
            if not sched.in_flight:
                raise ProtocolError("demo stalled with no work in flight")
            try:
                fb = feedback_q.get(timeout=timeout_s)
            except Empty:
                raise ProtocolError(
                    f"no feedback from the tail stage within {timeout_s} s"
                ) from None
            mb = sched.in_flight.get(fb.payload_id)
            if mb is None:
                raise ProtocolError(f"feedback for unknown micro-batch {fb.payload_id}")
            sched.feedback(mb, 0)
    finally:
        forward_sender.close()
        forward_sender.join(timeout=timeout_s)
        tail.join(timeout=timeout_s)
        head_receiver.join(timeout=timeout_s)
        for sock in (fwd_head, fwd_tail, ret_tail, ret_head):
            try:
                sock.close()
            except OSError:
                pass

    return {rid: req.tokens_emitted for rid, req in sorted(sched.requests.items())}
