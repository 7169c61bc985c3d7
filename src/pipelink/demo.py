"""Two-stage live pipeline over loopback sockets.

Runs the same head-side scheduling (controller decision, continuous batching,
in-flight cap) as the virtual-time engine, but moves activations and token
feedback through the real framed-socket transport.  Compute is not slept, so
wall-clock timing is meaningless here; what must match the virtual run is the
token accounting, and the test suite checks exactly that.

Arrivals are collapsed: the trace's requests are offered in arrival order as
fast as the pipeline accepts them.
"""

from __future__ import annotations

import queue
import struct
import threading
from collections import deque

from .controller import ControllerDecision, choose_n, clamp_demand
from .engine import BatchPhase, EngineConfig, MicroBatch, admit_and_batch
from .errors import ConfigError, ProtocolError
from .placement import TOKEN_FEEDBACK_BYTES, ClusterSpec
from .profiles import Phase, StageProfile
from .transport import LinkPolicy, Payload, PayloadClass
from .wire import ReceivedPayload, SocketLinkReceiver, SocketLinkSender, loopback_pair
from .workload import RequestState, Trace

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
    names = cfg.partition.node_names()
    link_profiles = []
    for src, dst in [(names[0], names[1]), (names[1], names[0])]:
        link = cluster.link(src, dst)
        if link is None:
            raise ConfigError(f"cluster is missing required link {src}->{dst}")
        link_profiles.append(link)

    policy = (
        LinkPolicy.DECODE_PRIORITY
        if cfg.scheduling_policy.value == "decode_priority"
        else LinkPolicy.FCFS
    )
    bytes_per_token = cfg.model.hidden_dim * cfg.model.dtype_bytes

    fwd_head, fwd_tail = loopback_pair()
    ret_tail, ret_head = loopback_pair()
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

    requests = {r.id: r.fresh_copy() for r in trace.requests}
    pending = deque(requests[r.id] for r in trace.requests)
    ready = deque()
    in_flight: dict[int, MicroBatch] = {}
    payload_to_mb: dict[int, MicroBatch] = {}
    decision_memo: dict[tuple[int, Phase], ControllerDecision] = {}
    next_mb_id = 0
    next_payload_id = 0
    unfinished = len(requests)

    def apply_feedback(p: ReceivedPayload) -> int:
        mb = payload_to_mb.pop(p.payload_id)
        in_flight.pop(mb.id)
        done = 0
        for rid in mb.request_ids:
            req = requests[rid]
            req.tokens_emitted += 1
            if req.state is RequestState.PREFILL:
                req.first_token_time = 0.0
                if req.output_len == 1:
                    req.state = RequestState.FINISHED
                    req.finish_time = 0.0
                    done += 1
                else:
                    req.state = RequestState.DECODING
                    ready.append(req)
            elif req.state is RequestState.DECODING:
                if req.tokens_emitted >= req.output_len:
                    req.state = RequestState.FINISHED
                    req.finish_time = 0.0
                    done += 1
                else:
                    ready.append(req)
        return done

    try:
        while unfinished > 0:
            dispatched = False
            if ready or pending:
                phase = Phase.DECODE if ready else Phase.PREFILL
                demand = (
                    len(ready)
                    + sum(mb.batched_tokens for mb in in_flight.values())
                    + sum(r.input_len for r in pending)
                )
                key = (clamp_demand(cfg.controller, demand), phase)
                decision = decision_memo.get(key)
                if decision is None:
                    decision = choose_n(
                        cfg.controller,
                        stage_profiles,
                        link_profiles,
                        key[0],
                        phase,
                        bytes_per_token=bytes_per_token,
                    )
                    decision_memo[key] = decision
                capacity = decision.n_microbatches - len(in_flight)
                if capacity > 0:
                    batches = admit_and_batch(
                        ready,
                        pending,
                        decision,
                        cfg.controller.max_batch_size,
                        capacity,
                        now_s=0.0,
                        allow_mixed=cfg.allow_mixed_phase,
                        id_start=next_mb_id,
                    )
                    next_mb_id += len(batches)
                    for mb in batches:
                        for rid in mb.request_ids:
                            if requests[rid].state is RequestState.QUEUED:
                                requests[rid].state = RequestState.PREFILL
                        in_flight[mb.id] = mb
                        body = _COUNT.pack(len(mb.request_ids)) + bytes(
                            mb.batched_tokens * bytes_per_token
                        )
                        pclass = (
                            PayloadClass.DECODE
                            if mb.phase is BatchPhase.DECODE
                            else PayloadClass.PREFILL
                        )
                        payload = Payload(
                            id=next_payload_id,
                            phase_class=pclass,
                            size_bytes=len(body),
                            micro_batch_id=mb.id,
                            enqueue_time=0,
                        )
                        next_payload_id += 1
                        payload_to_mb[payload.id] = mb
                        forward_sender.send(payload, body)
                        dispatched = True
            if not dispatched:
                if not in_flight:
                    raise ProtocolError("demo stalled with no work in flight")
                fb = feedback_q.get(timeout=timeout_s)
                unfinished -= apply_feedback(fb)
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

    return {rid: requests[rid].tokens_emitted for rid in sorted(requests)}
